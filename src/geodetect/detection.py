"""Detection tests: thresholds, decision rules, and Monte Carlo error rates.

A test is a statistic, a signed count summed over all of G or maximised over
size-k_minus subsets, and a threshold set to half its planted-model mean,
computed exactly through the cycle-expectation series rather than by Monte
Carlo.  The boundary convention is strict: 'planted' is declared only when the
statistic strictly exceeds the threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .graphs import (
    Arm,
    Graph,
    ModelParams,
    Seed,
    _community_block,
    _edge_coins,
    _planted_members,
    sample_null,
    sample_planted_fixed_community,
)
from .sphere import signed_cycle_expectation
from .stats import (
    _CHUNK_BYTES,
    MAX_CYCLE_LENGTH,
    ScanConfig,
    _coin_counts,
    _local_search,
    _split_triangle_count,
    centered_adjacency,
    constrained_scan_statistic,
    scan_statistic,
    signed_cycle_count,
)

__all__ = [
    "TestSpec",
    "ErrorEstimate",
    "CycleConstantCalibration",
    "constraint_params",
    "calibrate_cycle_constant",
    "make_test_spec",
    "run_test",
    "statistic_value",
    "estimate_errors",
    "cycle_test_snr",
]

TEST_KINDS = ("global-triangle", "scan", "constrained-scan", "cycle")

# The 1/2 in front of every threshold is an arbitrary constant in (0, 1); it
# is exposed here as a single knob rather than hard-coded at each use site.
THRESHOLD_FRACTION = 0.5


def _cycle_count(n: int, ell: int) -> int:
    """The number of ell-cycles of the complete graph on n vertices."""
    return math.comb(n, ell) * math.factorial(ell - 1) // 2


def _planted_cycle_mean(params: ModelParams, series) -> float:
    """The planted-model mean of the global signed cycle count of the series' length."""
    return _cycle_count(params.n, series.ell) * (params.k / params.n) ** series.ell * series.value


def _global_threshold(params: ModelParams, series) -> float:
    """Half the planted-model mean of the global signed cycle count of the series' length."""
    return THRESHOLD_FRACTION * _planted_cycle_mean(params, series)


def _scan_threshold(params: ModelParams, triangles) -> float:
    """Half the within-community triangle mean on a size-k_minus subset; 0 below 3."""
    km = params.k_minus
    return THRESHOLD_FRACTION * math.comb(km, 3) * triangles.value if km >= 3 else 0.0


def constraint_params(params: ModelParams, cycle_constant: float) -> tuple[float, float]:
    """Wedge-sum constraint parameters (sigma_sq, B) of the constrained scan.

    sigma_sq = k^3 p^2 + C^4 k^4 p^4 log^2(1/p) / d and
    B = (2048 k p^2 + 8) ceil(log k), with natural logarithms.
    """
    k, p, d = params.k, params.p, params.d
    if k < 2:
        raise ValueError(f"constraint parameters require k >= 2, got {k}")
    sigma_sq = k**3 * p**2 + cycle_constant**4 * k**4 * p**4 * math.log(1 / p) ** 2 / d
    bound = (2048.0 * k * p**2 + 8.0) * math.ceil(math.log(k))
    return sigma_sq, bound


@dataclass(frozen=True)
class CycleConstantCalibration:
    """Smallest C >= 1 with series/scale in [C^-ell, C^ell] over the grid."""

    constant: float
    ratios: tuple[tuple[float, float, int, float], ...]  # (p, d, ell, ratio)


def _sandwich_constant(results) -> float:
    """Smallest C >= 1 with every series' ratio in [C^-ell, C^ell]."""
    return max([1.0] + [max(r.ratio, 1.0 / r.ratio) ** (1.0 / r.ell) for r in results])


def calibrate_cycle_constant(p, d_grid, ell_list) -> CycleConstantCalibration:
    """Calibrate the sandwich constant over a (p, d, ell) grid.

    `p` may be a single density or a sequence of densities.  The constant is
    nondecreasing in the grid and floored at 1.
    """
    p_values = [float(p)] if np.isscalar(p) else [float(v) for v in p]
    d_values = [int(v) for v in d_grid]
    ells = [int(v) for v in ell_list]
    if not p_values or not d_values or not ells:
        raise ValueError("calibration grids must be non-empty")
    results = [
        signed_cycle_expectation(ell, pv, dv)
        for pv in p_values for dv in d_values for ell in ells
    ]
    return CycleConstantCalibration(
        constant=_sandwich_constant(results),
        ratios=tuple((r.p, r.d, r.ell, r.ratio) for r in results),
    )


@dataclass(frozen=True)
class TestSpec:
    """A fully pinned test: a statistic and the threshold it is compared with.

    The statistic is signed_cycle_count(G, p, ell) when scan is None (ell is 3
    for global-triangle, filled in when left out), else the scan of that
    ScanConfig, constrained when it carries sigma_sq and B.  kind only names the
    row; specs of equal (n, p, ell, scan) share their null draws.  series holds
    every CycleExpectationResult the threshold and the constraint calibration
    read (make_test_spec fills it).
    """

    __test__ = False  # not a pytest collection target

    kind: str
    params: ModelParams
    threshold: float
    ell: int | None = None
    scan: ScanConfig | None = None
    cycle_constant: float | None = None
    series: tuple = field(default=(), repr=False)

    def __post_init__(self):
        if self.kind not in TEST_KINDS:
            raise ValueError(f"kind must be one of {TEST_KINDS}, got {self.kind!r}")
        # +-inf thresholds express always-null / always-planted rules; only a
        # NaN threshold is meaningless
        if math.isnan(self.threshold):
            raise ValueError("threshold must not be NaN")
        if self.kind == "global-triangle" and self.ell is None:
            object.__setattr__(self, "ell", 3)  # the ell = 3 cycle test under its own name
        if self.kind in ("global-triangle", "cycle"):
            top = 3 if self.kind == "global-triangle" else MAX_CYCLE_LENGTH
            if self.scan is not None or self.ell not in range(3, top + 1):
                raise ValueError(f"{self.kind} specs need ell in [3, {top}] and no scan")
        elif self.scan is None or self.ell is not None:
            raise ValueError(f"{self.kind} specs need a scan and no ell")
        elif (self.scan.sigma_sq is not None) != (self.kind == "constrained-scan"):
            raise ValueError("a scan carries sigma_sq and B exactly when it is constrained")


def make_test_spec(
    kind: str,
    params: ModelParams,
    ell: int | None = None,
    cycle_constant: float | None = None,
    scan_mode: str = "planted-oracle",
    restarts: int = 8,
) -> TestSpec:
    """Build a TestSpec with its threshold (and constraints) computed from params.

    The global triangle test is the ell = 3 cycle test under its own name: the
    same statistic and the same threshold.  The scans get one ScanConfig with
    k_minus = params.k_minus; an auto cycle_constant of the constrained scan is
    calibrated from the ell = 3 and 4 series at params.d.
    """
    if kind not in TEST_KINDS:
        raise ValueError(f"unknown test kind {kind!r}")
    if kind != "cycle":
        ell = 3 if kind == "global-triangle" else None  # a scan reads no length
    elif ell is None:
        raise ValueError("cycle tests need ell")
    series = (signed_cycle_expectation(3 if ell is None else ell, params.p, params.d),)
    if ell is not None:
        return TestSpec(
            kind=kind, params=params, threshold=_global_threshold(params, series[0]),
            ell=ell, series=series,
        )
    constrained = kind == "constrained-scan"
    if constrained and cycle_constant is None:
        series += (signed_cycle_expectation(4, params.p, params.d),)
        cycle_constant = _sandwich_constant(series)
    sigma_sq, bound = constraint_params(params, cycle_constant) if constrained else (None, None)
    return TestSpec(
        kind=kind, params=params, threshold=_scan_threshold(params, series[0]),
        scan=ScanConfig(params.k_minus, scan_mode, restarts, sigma_sq, bound),
        cycle_constant=cycle_constant if constrained else None, series=series,
    )


def _statistic(p: float, ell: int | None, scan: ScanConfig | None, graph: Graph, oracle_subset):
    if scan is None:
        return signed_cycle_count(graph, p, ell)
    if scan.mode == "planted-oracle" and oracle_subset is None:
        # under the null there is no community; exchangeability makes any
        # fixed subset equivalent, so use the first k_minus vertices
        oracle_subset = np.arange(scan.k_minus)
    search = scan_statistic if scan.sigma_sq is None else constrained_scan_statistic
    value, _ = search(graph, p, scan, oracle_subset)
    return value


def _stacked(scan: ScanConfig | None) -> bool:
    """True when a statistic scores a run of graphs in one call: a local search."""
    return scan is not None and scan.mode == "local-search"


def _local_search_values(p: float, scan: ScanConfig, graphs: list) -> list:
    """The local-search statistic of each graph, scored in one stacked call
    (stats._local_search)."""
    a = np.empty((len(graphs), graphs[0].n, graphs[0].n))
    for i, graph in enumerate(graphs):
        a[i] = centered_adjacency(graph, p)
    return [value for value, _ in _local_search(a, scan)]


def _trial_chunks(trials: int, n: int, scan: ScanConfig | None) -> list[range]:
    """The runs of trials whose graphs are scored together, of equal lengths
    within one: a local search stacks at most about _CHUNK_BYTES of them,
    every other statistic one at a time.

    A graph's matrix takes 8 n^2 bytes, and a sweep of each of its climbs
    about as much again: the climb's n x k rows of it and two k x (n - k)
    arrays, at most 9/8 of it in all.
    """
    size = max(1, _CHUNK_BYTES // (8 * n * n * (1 + scan.restarts))) if _stacked(scan) else 1
    size = -(-trials // -(-trials // size))  # the same number of runs, evened out
    return [range(start, min(start + size, trials)) for start in range(0, trials, size)]


def statistic_value(spec: TestSpec, graph: Graph, oracle_subset=None):
    """The raw statistic for a graph, or None for an infeasible constrained scan."""
    return _statistic(spec.params.p, spec.ell, spec.scan, graph, oracle_subset)


def _decide(value, threshold: float) -> str:
    return "planted" if value is not None and value > threshold else "null"


def run_test(spec: TestSpec, graph: Graph, oracle_subset=None) -> str:
    """Decide 'planted' or 'null'; strict inequality, infeasible scans say 'null'."""
    return _decide(statistic_value(spec, graph, oracle_subset), spec.threshold)


@dataclass(frozen=True)
class ErrorEstimate:
    """Monte Carlo type I / type II error rates with 95% half-widths."""

    type1: float
    type2: float
    type1_half_width: float
    type2_half_width: float
    excluded: int

    @staticmethod
    def half_width(rate: float, trials: int) -> float:
        if trials <= 0:
            return math.nan
        return 1.96 * math.sqrt(rate * (1.0 - rate) / trials)


@lru_cache(maxsize=1 << 14)
def _null_statistic(n: int, p: float, ell, scan: ScanConfig | None, seed: Seed, trials: range):
    """Statistics of the seeded null draws of a run of trials (_trial_chunks), a tuple.

    The key holds exactly what the null draws and the statistic read: no kind,
    d or threshold, and k only through the scan's k_minus.  A sweep over d, or
    two tests of one statistic, therefore draws and scores each null graph once.
    """
    graphs = [sample_null(n, p, seed.stream(t, arm=Arm.NULL)) for t in trials]
    if _stacked(scan):
        return tuple(_local_search_values(p, scan, graphs))
    return tuple(_statistic(p, ell, scan, g, None) for g in graphs)


@lru_cache(maxsize=1)
def _coin_group(n: int, p: float, k: float, seed: Seed) -> dict:
    """The coin parts of one (n, p, k, seed) group by trial (_planted_coins).
    The cache keeps one group: asking for another drops the last one's dict."""
    return {}


def _planted_coins(params: ModelParams, seed: Seed, trial: int):
    """The part of planted trial t that d does not enter: None when the
    community size falls outside [k_minus, k_plus], else (size, state,
    counts), with the generator state after the edge coins and the
    _CoinCounts of the coins.

    A trial's stream gives its membership uniforms, then its coins, then the
    community's Gram draws, so the first two are the same at every d.  They
    are memoised by trial in the group's dict (_coin_group): a sweep over d
    draws each trial's coins once.
    """
    group = _coin_group(params.n, params.p, params.k, seed)
    if trial not in group:
        rng = seed.stream(trial, arm=Arm.PLANTED)
        members = _planted_members(params, rng)
        if not params.k_minus <= members.size <= params.k_plus:
            group[trial] = None
        else:
            counts = _coin_counts(_edge_coins(params.n, params.p, rng), members, params.n)
            group[trial] = members.size, rng.bit_generator.state, counts
    return group[trial]


def _planted_triangles(params: ModelParams, seed: Seed, trial: int):
    """signed_triangle_count of planted trial t's graph, or None when the trial
    is excluded: the memoised coin part and the community block, drawn from
    the state after the coins, give the count of sample_planted's graph."""
    coins = _planted_coins(params, seed, trial)
    if coins is None:
        return None
    size, state, counts = coins
    rng = np.random.Generator(np.random.PCG64())  # its own seed is overwritten here
    rng.bit_generator.state = state
    return _split_triangle_count(counts, _community_block(size, params, rng), params.p)


def _planted_trials(spec: TestSpec, seed: Seed, trials: range) -> list:
    """For each planted trial of the run: None when the community size falls
    outside [k_minus, k_plus], else True when the planted draw is missed.

    Each trial draws sample_planted(spec.params, rng); an excluded trial stops
    after the membership uniforms, before its graph is drawn.  The global
    triangle count reads the trial's coins from a memo and draws only the
    community's block at each d (_planted_triangles).
    """
    if spec.scan is None and spec.ell == 3:
        values = [_planted_triangles(spec.params, seed, t) for t in trials]
        return [None if v is None else _decide(v, spec.threshold) == "null" for v in values]
    kept, graphs, oracles = [], [], []
    for t in trials:
        rng = seed.stream(t, arm=Arm.PLANTED)
        members = _planted_members(spec.params, rng)
        kept.append(spec.params.k_minus <= members.size <= spec.params.k_plus)
        if kept[-1]:
            graphs.append(sample_planted_fixed_community(members, spec.params, rng).graph)
            # a scan is scored on the smallest k_minus members
            oracles.append(None if spec.scan is None else members[: spec.scan.k_minus])
    if not graphs:
        return [None] * len(kept)
    if _stacked(spec.scan):
        values = _local_search_values(spec.params.p, spec.scan, graphs)
        missed = iter([_decide(v, spec.threshold) == "null" for v in values])
    else:
        missed = iter([run_test(spec, g, o) == "null" for g, o in zip(graphs, oracles)])
    return [next(missed) if k else None for k in kept]


def estimate_errors(spec: TestSpec, trials: int, seed: Seed | int) -> ErrorEstimate:
    """Estimate type I / type II errors over seeded, order-independent trials.

    Planted trials whose community size falls outside [k_minus, k_plus] are
    excluded and counted rather than resampled, so the membership law is not
    biased.  Trial streams are derived from (seed, arm, index), so a trial's
    outcome never depends on which trials ran before it, or with it: a
    local search scores each run of _trial_chunks in one stacked call.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if isinstance(seed, int):
        seed = Seed(seed)

    params, alarms, misses = spec.params, [], []
    for chunk in _trial_chunks(trials, params.n, spec.scan):
        values = _null_statistic(params.n, params.p, spec.ell, spec.scan, seed, chunk)
        alarms += [_decide(v, spec.threshold) == "planted" for v in values]
        misses += _planted_trials(spec, seed, chunk)

    type1 = sum(alarms) / trials
    valid = [m for m in misses if m is not None]
    excluded = trials - len(valid)
    type2 = sum(valid) / len(valid) if valid else math.nan
    return ErrorEstimate(
        type1=type1,
        type2=type2,
        type1_half_width=ErrorEstimate.half_width(type1, trials),
        type2_half_width=ErrorEstimate.half_width(type2, len(valid)) if valid else math.nan,
        excluded=excluded,
    )


def cycle_test_snr(params: ModelParams, ell: int) -> float:
    """Mean shift over null standard deviation for the global length-ell cycle test.

    (number of cycles) (k/n)^ell series(ell) / sqrt((number of cycles)
    (p(1-p))^ell); the ratio is maximized at ell = 3.
    """
    ell = int(ell)
    if ell < 3:
        raise ValueError(f"cycle length must be >= 3, got {ell}")
    series = signed_cycle_expectation(ell, params.p, params.d)
    null_sd = math.sqrt(_cycle_count(params.n, ell) * (params.p * (1.0 - params.p)) ** ell)
    return _planted_cycle_mean(params, series) / null_sd
