"""Scan statistics: exhaustive search, heuristic search, and wedge constraints.

When the community is small the global count drowns in ambient noise; the
scan statistic instead maximizes the signed triangle count over all
size-k_minus vertex subsets.  Exhaustive maximization is exponential, so a
greedy swap heuristic provides a lower bound, and the planted-oracle mode
evaluates the statistic on a known community for type-II studies.  The
constrained variant admits only subsets with controlled signed wedge sums.
"""

import numpy as np

from geodetect.detection import calibrate_cycle_constant, constraint_params
from geodetect.graphs import ModelParams, Seed, sample_planted_fixed_size
from geodetect.stats import (
    ScanConfig,
    constrained_scan_statistic,
    scan_statistic,
    subset_signed_triangles,
    wedge_sums,
)

params = ModelParams(n=14, p=0.4, d=4, k=6)
km = params.k_minus  # 5
seed = Seed(7)
sample = sample_planted_fixed_size(6, params, seed.stream(0))
g = sample.graph
print(f"one planted draw: {g}, community {[int(v) for v in sample.members]}, k_minus = {km}")

print("\n=== exhaustive scan (exact maximum over all size-5 subsets) ===")
value, subset = scan_statistic(g, 0.4, ScanConfig(k_minus=km, mode="exhaustive"))
print(f"  max f_A = {value:.4f} at A = {[int(v) for v in subset]}")
overlap = len(set(subset) & set(sample.members))
print(f"  overlap with the hidden community: {overlap}/{km}")

print("\n=== greedy swap heuristic (lower bounds the maximum) ===")
for restarts in (1, 4, 16):
    hval, hsub = scan_statistic(
        g, 0.4, ScanConfig(k_minus=km, mode="local-search", restarts=restarts)
    )
    print(f"  restarts={restarts:>2}: value = {hval:.4f} (exact {value:.4f})")

print("\n=== planted-oracle mode (type-II surrogate) ===")
oracle = sample.members[:km]
oval, _ = scan_statistic(g, 0.4, ScanConfig(k_minus=km, mode="planted-oracle"),
                         oracle_subset=oracle)
print(f"  f on the community prefix {[int(v) for v in oracle]}: {oval:.4f}")
print(f"  same value via subset_signed_triangles: {subset_signed_triangles(g, 0.4, oracle):.4f}")

print("\n=== constrained scan ===")
cal = calibrate_cycle_constant(0.4, [4, 16], [3, 4])
sigma_sq, bound = constraint_params(params, cal.constant)
print(f"  calibrated C = {cal.constant:.3f} -> sigma^2 = {sigma_sq:.1f}, B = {bound:.1f}")
cfg = ScanConfig(k_minus=km, mode="exhaustive", sigma_sq=sigma_sq, B=bound)
cval, csub = constrained_scan_statistic(g, 0.4, cfg)
print(f"  constrained max = {cval:.4f} at A = {[int(v) for v in csub]}")
table = wedge_sums(g, 0.4, csub)
vals = np.array(list(table.values()))
print(f"  wedge check: sum W^2 = {float(vals @ vals):.2f} <= {sigma_sq:.1f}, "
      f"max |W| = {np.abs(vals).max():.2f} <= {bound:.1f}")
tight = ScanConfig(k_minus=km, mode="exhaustive", sigma_sq=0.0, B=0.0)
print("  with sigma^2 = B = 0 the feasible set empties:",
      constrained_scan_statistic(g, 0.4, tight))
