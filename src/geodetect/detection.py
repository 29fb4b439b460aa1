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
from itertools import starmap
from threading import Lock

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
    MAX_CYCLE_LENGTH,
    ScanConfig,
    _coin_counts,
    _local_search_runs,
    _split_triangle_count,
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


def _scores(p: float, ell: int | None, scan: ScanConfig | None, pairs, count: int = 1):
    """The statistic of each (graph, oracle subset) pair of an iterable of
    about `count`, lazily and in order: None for an infeasible constrained scan.

    A local search scores the graphs in stacked runs sized for `count`
    (stats._local_search_runs); every other statistic takes one graph at a
    time, so only one graph of the iterable is alive at once.
    """
    if scan is None:
        return starmap(lambda graph, _: signed_cycle_count(graph, p, ell), pairs)
    if scan.mode == "local-search":
        return _local_search_runs((graph for graph, _ in pairs), count, p, scan)
    search = scan_statistic if scan.sigma_sq is None else constrained_scan_statistic
    # under the null there is no community; exchangeability makes any fixed
    # subset equivalent, so an oracle scan without one reads the first k_minus
    first = np.arange(scan.k_minus) if scan.mode == "planted-oracle" else None
    return starmap(lambda g, s: search(g, p, scan, first if s is None else s)[0], pairs)


def statistic_value(spec: TestSpec, graph: Graph, oracle_subset=None):
    """The raw statistic for a graph, or None for an infeasible constrained scan."""
    return next(_scores(spec.params.p, spec.ell, spec.scan, [(graph, oracle_subset)]))


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
        return 1.96 * math.sqrt(rate * (1.0 - rate) / trials) if trials > 0 else math.nan


@lru_cache(maxsize=1)
def _null_group(n: int, p: float, seed: Seed, trials: int) -> tuple[dict, Lock]:
    """The null statistics of one (n, p, seed, trials) group by (ell, scan),
    and the lock they are made under: a second worker waits for an entry, not
    drawing it again.  The cache keeps one group: another drops the last."""
    return {}, Lock()


def _null_values(spec: TestSpec, seed: Seed, trials: int) -> tuple:
    """The statistic of each seeded null trial t < trials, a tuple.

    The draws read only (n, p, seed) and the statistic only (p, ell, scan):
    no kind, d or threshold, and k only through the scan's k_minus.  The
    values are memoised by (ell, scan) in the group's dict (_null_group), so
    a sweep over d, or two tests of one statistic, draws and scores each null
    graph once: grid points run in (n, p, d, k) order, one group at a time.
    """
    params, key = spec.params, (spec.ell, spec.scan)
    group, lock = _null_group(params.n, params.p, seed, trials)
    with lock:
        if key not in group:
            pairs = (
                (sample_null(params.n, params.p, seed.stream(t, arm=Arm.NULL)), None)
                for t in range(trials)
            )
            group[key] = tuple(_scores(params.p, spec.ell, spec.scan, pairs, trials))
    return group[key]


@lru_cache(maxsize=1)
def _coin_group(n: int, p: float, k: float, seed: Seed) -> dict:
    """The coin parts of one (n, p, k, seed) group by trial (_planted_triangles).
    The cache keeps one group: asking for another drops the last one's dict."""
    return {}


def _kept_trial(params: ModelParams, seed: Seed, trial: int):
    """(rng, members) of planted trial t, the generator left after the
    membership uniforms, or None when the community size falls outside
    [k_minus, k_plus]: such a trial is excluded and draws nothing more."""
    rng = seed.stream(trial, arm=Arm.PLANTED)
    members = _planted_members(params, rng)
    if params.k_minus <= members.size <= params.k_plus:
        return rng, members
    return None


def _planted_triangles(params: ModelParams, seed: Seed, trial: int):
    """signed_triangle_count of planted trial t's graph, or None when the
    community size falls outside [k_minus, k_plus].

    A trial's stream gives its membership uniforms, then its coins, then the
    community's Gram draws, so the first two are the same at every d.  Their
    part is memoised by trial in the group's dict (_coin_group): None for an
    excluded trial, else the generator state after the coins and the
    _CoinCounts of the coins.  A sweep over d draws each trial's coins once;
    each d draws the community block from that state, and the two parts give
    the count of sample_planted's graph.
    """
    group = _coin_group(params.n, params.p, params.k, seed)
    if trial not in group:
        kept = _kept_trial(params, seed, trial)
        if kept is None:
            group[trial] = None
        else:
            rng, members = kept
            counts = _coin_counts(_edge_coins(params.n, params.p, rng), members, params.n)
            group[trial] = rng.bit_generator.state, counts
    if group[trial] is None:
        return None
    state, counts = group[trial]
    rng = np.random.Generator(np.random.PCG64())  # its own seed is overwritten here
    rng.bit_generator.state = state
    block = _community_block(counts.degrees.size, params, rng)
    return _split_triangle_count(counts, block, params.p)


def _planted_values(spec: TestSpec, seed: Seed, trials: range) -> list:
    """The statistic of each kept planted trial of the range, in order.

    Each trial draws sample_planted(spec.params, rng); a trial whose community
    size falls outside [k_minus, k_plus] is left out, and stops after the
    membership uniforms, before its graph is drawn.  A scan is scored on the
    smallest k_minus members.  The global triangle count reads the trial's
    coins from a memo and draws only the community's block at each d
    (_planted_triangles).
    """
    params = spec.params
    if spec.scan is None and spec.ell == 3:
        values = (_planted_triangles(params, seed, t) for t in trials)
        return [v for v in values if v is not None]

    def graphs():
        for t in trials:
            kept = _kept_trial(params, seed, t)
            if kept is not None:
                rng, members = kept
                oracle = None if spec.scan is None else members[: spec.scan.k_minus]
                yield sample_planted_fixed_community(members, params, rng).graph, oracle

    return list(_scores(params.p, spec.ell, spec.scan, graphs(), len(trials)))


def estimate_errors(spec: TestSpec, trials: int, seed: Seed | int) -> ErrorEstimate:
    """Estimate type I / type II errors over seeded, order-independent trials.

    Planted trials whose community size falls outside [k_minus, k_plus] are
    excluded and counted rather than resampled, so the membership law is not
    biased.  Trial streams are derived from (seed, arm, index), so a trial's
    outcome never depends on which trials ran before it, or with it: a local
    search scores its graphs in stacked runs (_scores).
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if isinstance(seed, int):
        seed = Seed(seed)

    null = _null_values(spec, seed, trials)
    planted = _planted_values(spec, seed, range(trials))
    type1 = sum(_decide(v, spec.threshold) == "planted" for v in null) / trials
    misses = sum(_decide(v, spec.threshold) == "null" for v in planted)
    type2 = misses / len(planted) if planted else math.nan
    half_width = ErrorEstimate.half_width
    return ErrorEstimate(
        type1=type1, type2=type2, type1_half_width=half_width(type1, trials),
        type2_half_width=half_width(type2, len(planted)), excluded=trials - len(planted),
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
