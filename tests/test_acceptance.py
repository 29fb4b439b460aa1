"""Acceptance suite: every criterion at its stated size and tolerance.

Each test prints one PASS/FAIL line.  Monte Carlo sizes and tolerances are
the stated ones; all seeds are fixed, so outcomes are reproducible.
Run with `pytest tests/test_acceptance.py -v -s` for the line-per-criterion
output.
"""

import math
import sys

import numpy as np
import pytest
from scipy.stats import chi2

from geodetect.cli import main as cli_main
from geodetect.detection import (
    calibrate_cycle_constant,
    estimate_errors,
    make_test_spec,
    cycle_test_snr,
)
from geodetect.ensembles import (
    composite_planted_graph,
    sample_goe_shifted,
    sample_spherical_wishart,
    spectral_deviation,
    threshold_map_alpha,
)
from geodetect.graphs import (
    ModelParams,
    Seed,
    sample_null,
    sample_planted,
    sample_planted_fixed_community,
)
from geodetect.lowdeg import fourier_coefficient_mc, small_graph_from_edges
from geodetect.sphere import sample_uniform_sphere, signed_cycle_expectation, solve_threshold
from geodetect.stats import (
    ScanConfig,
    scan_statistic,
    signed_cycle_count,
    signed_triangle_count,
)

from oracles import signed_triangle_count_direct

# regression constant for the calibrated sandwich bracket (criterion 5)
CALIBRATED_CONSTANT = 1.203648057111118


def report(num: int, ok: bool, detail: str):
    line = f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {detail}"
    print(line, flush=True)
    assert ok, line


def test_01_trace_identity():
    # direct f_tri equals Tr(Abar^3)/6 within 1e-9 on 200 random graphs
    seed = Seed(1001)
    worst = 0.0
    for t in range(200):
        rng = seed.stream(t)
        n = int(rng.integers(3, 65))
        p = 0.1 if t % 2 == 0 else 0.5
        g = sample_null(n, p, rng)
        gap = abs(signed_triangle_count_direct(g, p) - signed_triangle_count(g, p))
        worst = max(worst, gap)
    report(1, worst <= 1e-9, f"max |direct - trace| = {worst:.3e} over 200 graphs")


def test_02_null_triangle_moments():
    # 1e5 draws of G(30, 0.3): mean within 3 sigma of 0, variance within 5%
    # of C(30,3) p^3 (1-p)^3
    seed = Seed(1002)
    trials = 100_000
    vals = np.empty(trials)
    for t in range(trials):
        vals[t] = signed_triangle_count(sample_null(30, 0.3, seed.stream(t)), 0.3)
    target_var = math.comb(30, 3) * 0.3**3 * 0.7**3  # = 37.59966...
    mean_se = vals.std() / math.sqrt(trials)
    ok_mean = abs(vals.mean()) <= 3 * mean_se
    rel_var = abs(vals.var() / target_var - 1)
    report(
        2,
        ok_mean and rel_var <= 0.05,
        f"mean = {vals.mean():+.4f} (3se = {3 * mean_se:.4f}), "
        f"var/target = {vals.var() / target_var:.4f} (target {target_var:.3f})",
    )


def test_03_cycle_null_variance():
    # 1e5 draws of G(16, 0.3): Var(f_4) within 5% of C(16,4) * 3 * 0.21^4
    seed = Seed(1003)
    trials = 100_000
    vals = np.empty(trials)
    for t in range(trials):
        vals[t] = signed_cycle_count(sample_null(16, 0.3, seed.stream(t)), 0.3, 4)
    target = math.comb(16, 4) * 3 * (0.3 * 0.7) ** 4  # = 10.6187...
    rel = abs(vals.var() / target - 1)
    report(3, rel <= 0.05, f"var/target = {vals.var() / target:.4f} (target {target:.4f})")


def test_04_series_vs_latent_monte_carlo():
    # independent latent-vector oracle across the (ell, p, d) grid, 1e6
    # samples per (ell, d) with indicators shared across p
    seed = Seed(1004)
    densities = (0.1, 0.3, 0.5)
    total_samples = 1_000_000
    chunk = 25_000
    failures = []
    worst_z = 0.0
    for ell in (3, 4):
        edges = [(a, (a + 1) % ell) for a in range(ell)]
        for d_idx, d in enumerate((16, 64, 256)):
            taus = {p: solve_threshold(p, d).tau for p in densities}
            sums = {p: 0.0 for p in densities}
            sq_sums = {p: 0.0 for p in densities}
            rng = seed.stream(100 * ell + d_idx)
            done = 0
            while done < total_samples:
                b = min(chunk, total_samples - done)
                u = sample_uniform_sphere(d, rng, size=b * ell).reshape(b, ell, d)
                ips = np.stack(
                    [np.einsum("ij,ij->i", u[:, a], u[:, c]) for a, c in edges], axis=1
                )
                for p in densities:
                    prod = ((ips >= taus[p]) - p).prod(axis=1)
                    sums[p] += float(prod.sum())
                    sq_sums[p] += float((prod**2).sum())
                done += b
            for p in densities:
                mean = sums[p] / total_samples
                var = sq_sums[p] / total_samples - mean**2
                se = math.sqrt(var / total_samples)
                z = abs(signed_cycle_expectation(ell, p, d).value - mean) / se
                worst_z = max(worst_z, z)
                if z > 3:
                    failures.append((ell, p, d, z))
    report(4, not failures, f"max |z| = {worst_z:.2f} over 18 grid points; failures: {failures}")


def test_05_sandwich_ratio_and_calibration():
    res1 = calibrate_cycle_constant([0.1, 0.3, 0.5], [64, 256, 1024, 4096], [3, 4, 5])
    ratios = [r for *_, r in res1.ratios]
    in_bracket = all(1 / 20 <= r <= 20 for r in ratios)
    # a fresh evaluation (caches cleared) reproduces the constant to 3 sig figs
    from geodetect.sphere import basis_for_density

    basis_for_density.cache_clear()
    solve_threshold.cache_clear()
    res2 = calibrate_cycle_constant([0.1, 0.3, 0.5], [64, 256, 1024, 4096], [3, 4, 5])
    stable = abs(res1.constant - res2.constant) <= 1e-3 * res1.constant
    recorded = res1.constant == pytest.approx(CALIBRATED_CONSTANT, rel=1e-9)
    report(
        5,
        in_bracket and stable and recorded,
        f"ratios in [{min(ratios):.3f}, {max(ratios):.3f}], C = {res1.constant:.6f} "
        f"(recorded {CALIBRATED_CONSTANT:.6f})",
    )


def test_06_fourier_scaling():
    # phi(triangle; k/n = 1/2) / phi(triangle; k = n) = 1/8 at 1e5 trials each
    triangle = small_graph_from_edges(3, [(0, 1), (1, 2), (0, 2)])
    half = fourier_coefficient_mc(
        triangle, ModelParams(n=40, p=0.5, d=8, k=20), 100_000, Seed(1006)
    )
    full = fourier_coefficient_mc(
        triangle, ModelParams(n=40, p=0.5, d=8, k=40), 100_000, Seed(1007)
    )
    ratio = half.phi / full.phi
    se = abs(ratio) * math.hypot(half.stderr / half.phi, full.stderr / full.phi)
    ok = abs(ratio - 0.125) <= 3 * se
    report(6, ok, f"ratio = {ratio:.4f} +- {se:.4f} (target 0.125)")


def test_07_forest_vanishing():
    params = ModelParams(n=40, p=0.5, d=8, k=20)
    shapes = {
        "edge": small_graph_from_edges(2, [(0, 1)]),
        "path3": small_graph_from_edges(3, [(0, 1), (1, 2)]),
        "path4": small_graph_from_edges(4, [(0, 1), (1, 2), (2, 3)]),
        "star3": small_graph_from_edges(4, [(0, 1), (0, 2), (0, 3)]),
    }
    details = []
    ok = True
    for i, (name, h) in enumerate(shapes.items()):
        est = fourier_coefficient_mc(h, params, 100_000, Seed(1008 + i))
        good = abs(est.phi) <= 3 * est.stderr
        ok &= good
        details.append(f"{name}: {est.phi:+.5f} (3se {3 * est.stderr:.5f})")
    report(7, ok, "; ".join(details))


def test_08_threshold_consistency():
    # Monte Carlo planted mean of f_tri within 3 sigma of twice the global triangle threshold
    params = ModelParams(n=40, p=0.5, d=8, k=20)
    seed = Seed(1009)
    trials = 100_000
    vals = np.empty(trials)
    for t in range(trials):
        vals[t] = signed_triangle_count(sample_planted(params, seed.stream(t)).graph, 0.5)
    se = vals.std() / math.sqrt(trials)
    target = 2 * make_test_spec("global-triangle", params).threshold
    z = abs(vals.mean() - target) / se
    report(8, z <= 3, f"mc mean = {vals.mean():.3f}, 2 gamma = {target:.3f}, |z| = {z:.2f}")


def test_09_detection_power_curve():
    # global test at (n=300, k=150, p=0.5): easy at d=4, blind at d=1e8
    params_easy = ModelParams(n=300, p=0.5, d=4, k=150)
    easy = estimate_errors(make_test_spec("global-triangle", params_easy), 200, Seed(1010))
    params_hard = ModelParams(n=300, p=0.5, d=10**8, k=150)
    hard = estimate_errors(make_test_spec("global-triangle", params_hard), 200, Seed(1010))
    total_easy = easy.type1 + easy.type2
    total_hard = hard.type1 + hard.type2
    ok = total_easy <= 0.1 and total_hard >= 0.8
    report(
        9,
        ok,
        f"total error d=4: {total_easy:.3f} (<= 0.1), d=1e8: {total_hard:.3f} (>= 0.8); "
        f"excluded {easy.excluded}/{hard.excluded}",
    )


def test_10_snr_ordering():
    params = ModelParams(n=500, p=0.5, d=64, k=250)
    snrs = {ell: cycle_test_snr(params, ell) for ell in (3, 4, 5)}
    ok = snrs[3] > snrs[4] > snrs[5]
    report(10, ok, f"snr = {snrs[3]:.3f} > {snrs[4]:.3f} > {snrs[5]:.3f}")


def test_11_scan_exactness():
    # exhaustive scan ties an independently coded enumerator on 50 instances
    from itertools import combinations

    seed = Seed(1011)
    ok = True
    for t in range(50):
        rng = seed.stream(t)
        n = int(rng.integers(6, 11))
        km = int(rng.integers(3, 6))
        g = sample_null(n, 0.4, rng)
        value, _ = scan_statistic(g, 0.4, ScanConfig(k_minus=km, mode="exhaustive"))
        brute = max(
            sum(
                (g.has_edge(i, j) - 0.4) * (g.has_edge(j, l) - 0.4) * (g.has_edge(i, l) - 0.4)
                for i, j, l in combinations(combo, 3)
            )
            for combo in combinations(range(n), km)
        )
        if not math.isclose(value, brute, rel_tol=0, abs_tol=1e-12):
            ok = False
            break
    report(11, ok, "exhaustive scan = brute-force enumerator on 50 instances")


def test_12_matrix_route_equivalence():
    # composite matrix route vs direct sampler at (n=30, |S|=15, p=0.5, d=8)
    params = ModelParams(n=30, p=0.5, d=8, k=15)
    community = list(range(15))
    seed = Seed(1012)
    trials = 10_000
    m_edges = 435
    e1 = np.empty(trials); e2 = np.empty(trials)
    t1 = np.empty(trials); t2 = np.empty(trials)
    for t in range(trials):
        g1 = composite_planted_graph(community, params, seed.stream(t, arm=0))
        s2 = sample_planted_fixed_community(community, params, seed.stream(t, arm=1))
        e1[t] = g1.edge_count / m_edges
        e2[t] = s2.graph.edge_count / m_edges
        t1[t] = signed_triangle_count(g1, 0.5)
        t2[t] = signed_triangle_count(s2.graph, 0.5)
    z_edge = abs(e1.mean() - e2.mean()) / (math.hypot(e1.std(), e2.std()) / math.sqrt(trials))
    z_tri = abs(t1.mean() - t2.mean()) / (math.hypot(t1.std(), t2.std()) / math.sqrt(trials))
    report(12, z_edge <= 3 and z_tri <= 3, f"|z| edge = {z_edge:.2f}, |z| f_tri = {z_tri:.2f}")


def test_13_spherical_wishart_spectrum():
    # deviation <= 10 sqrt(k/d) in at least 99% of 1e3 draws at (20, 20000)
    seed = Seed(1013)
    k, d = 20, 20_000
    bound = 10 * math.sqrt(k / d)
    hits = sum(
        spectral_deviation(sample_spherical_wishart(k, d, seed.stream(t))) <= bound
        for t in range(1000)
    )
    report(13, hits >= 990, f"{hits}/1000 draws within 10 sqrt(k/d) = {bound:.4f}")


def test_14_alpha_map_fidelity():
    seed = Seed(1014)
    # edge frequency at >= 1e6 edges for p in {0.1, 0.5}
    n = 1420  # C(1420, 2) = 1007490 edges
    m_edges = n * (n - 1) // 2
    ok = True
    details = []
    for arm, p in enumerate((0.1, 0.5)):
        goe = sample_goe_shifted(n, 9.0, seed.stream(arm))
        freq = threshold_map_alpha(goe, p, 9.0).edge_count / m_edges
        se = math.sqrt(p * (1 - p) / m_edges)
        good = abs(freq - p) <= 3 * se
        ok &= good
        details.append(f"p={p}: freq {freq:.5f} (3se {3 * se:.5f})")
    # chi-square goodness of fit for the joint law of 3 disjoint edges
    p = 0.3
    draws = 200_000
    counts = np.zeros(8)
    for t in range(draws):
        g = threshold_map_alpha(sample_goe_shifted(6, 4.0, seed.stream(t, arm=9)), p, 4.0)
        idx = 4 * g.has_edge(0, 1) + 2 * g.has_edge(2, 3) + g.has_edge(4, 5)
        counts[idx] += 1
    # index order: bit2 bit1 bit0 = edges (0,1), (2,3), (4,5)
    probs = np.array(
        [
            ((p if (idx >> 2) & 1 else 1 - p)
             * (p if (idx >> 1) & 1 else 1 - p)
             * (p if idx & 1 else 1 - p))
            for idx in range(8)
        ]
    )
    expected = probs * draws
    stat = float(((counts - expected) ** 2 / expected).sum())
    crit = chi2.ppf(0.99, df=7)
    ok &= stat <= crit
    details.append(f"chi2 = {stat:.2f} (1% critical {crit:.2f})")
    report(14, ok, "; ".join(details))


def test_15_sweep_determinism(tmp_path):
    cfg = tmp_path / "sweep.ini"
    cfg.write_text(
        "[model]\nn = 40\np = 0.5\nd = 8\nk = 20\n\n"
        "[run]\ntrials = 50\nseed = 77\n\n"
        "[sweep]\nd = 8,32,128\n\n"
        "[test.global-triangle]\n"
    )
    outs = []
    for workers in (1, 8):
        path = tmp_path / f"w{workers}.csv"
        code = cli_main(
            ["sweep", "--config", str(cfg), "--out", str(path), "--workers", str(workers)]
        )
        assert code == 0
        import csv

        with open(path, newline="") as fh:
            rows = [
                {k: v for k, v in row.items() if k != "wall_ms"}
                for row in csv.DictReader(fh)
            ]
        outs.append(rows)
    report(15, outs[0] == outs[1], "worker counts 1 and 8 emit identical value columns")
