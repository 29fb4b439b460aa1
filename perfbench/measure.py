"""Arithmetic of the benchmark: percentiles, span self times, per-layer
metrics, output checks and output digests.

Everything here is a pure function of recorded data, so the tests in
``tests/test_perfbench.py`` can pin it down without running the toolkit.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from collections import defaultdict

# The documented CSV schema, pinned here rather than read from the code under
# test, so that a change to the columns shows up as failed operations.
CSV_COLUMNS = [
    "n", "p", "d", "k", "test", "threshold", "type1", "type1_hw",
    "type2", "type2_hw", "excluded", "trials", "seed", "version", "wall_ms",
]

# A span as the child process records it: (name, start, end, parent, note).
# `parent` is the index of the enclosing span in the same list, or -1.
NAME, START, END, PARENT, NOTE = range(5)


# -- percentiles -------------------------------------------------------------

def _rank(q: float, count: int) -> int:
    """1-based nearest rank of percentile q among count samples; the 1e-9
    keeps float error in q/100 from pushing an exact rank up by one."""
    return max(1, math.ceil(q * count / 100.0 - 1e-9))


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least q% of the
    samples at or below it."""
    if not values:
        raise ValueError("percentile of no values")
    if not 0.0 < q <= 100.0:
        raise ValueError(f"q must lie in (0, 100], got {q}")
    ordered = sorted(values)
    return ordered[_rank(q, len(ordered)) - 1]


def tail_percentile(count: int, candidates=(99.9, 99.0, 90.0)) -> float | None:
    """Highest candidate percentile with at least ten samples beyond its rank.

    Returns None when even the lowest candidate has fewer than ten samples
    beyond it, in which case only the median is worth reporting.
    """
    for q in candidates:
        if count - _rank(q, count) >= 10:
            return q
    return None


def median(values) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


# -- spans -------------------------------------------------------------------

def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of its interval its children cover."""
    children = defaultdict(list)
    for span in spans:
        if span[PARENT] >= 0:
            children[span[PARENT]].append((span[START], span[END]))
    return [
        (s[END] - s[START]) - _covered(children[i], s[START], s[END])
        for i, s in enumerate(spans)
    ]


class LayerTally:
    """Sums over the spans of one traced round (one or more invocations)."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.notes = defaultdict(list)
        self.run_test_ms: list[float] = []
        self.graph_hashes: set = set()

    def add(self, spans):
        for span, own in zip(spans, self_times(spans)):
            name = span[NAME]
            self.calls[name] += 1
            self.self_s[name] += own
            if name == "detection.run_test":
                self.run_test_ms.append(1000.0 * (span[END] - span[START]))
            elif name == "stats.centered_adjacency":
                self.graph_hashes.add(span[NOTE])
            elif span[NOTE] is not None:
                self.notes[name].append((span[NOTE], own))

    def note_sum(self, name: str) -> float:
        return float(sum(note for note, _ in self.notes[name]))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# Samplers whose note is (community size, latent entries drawn); the Gram
# route draws no latent vectors and records 0 entries for a non-empty community.
_PLANTED = ("graphs.sample_planted", "graphs.sample_planted_fixed_community")

# Span names whose call count and self time are reported as they are.
CALLS_AND_SELF = (
    "sphere.solve_threshold", "sphere.basis_build", "sphere.cycle_series",
    "graphs.sample_null", "graphs.sample_planted",
    "graphs.sample_planted_fixed_community", "graphs.adjacency_matrix",
    "stats.centered_adjacency", "stats.signed_triangle_count",
    "stats.signed_cycle_count", "stats.scan_statistic",
    "stats.constrained_scan_statistic", "detection.make_test_spec",
    "lowdeg.fourier_coefficient_mc", "ensembles.sample_spherical_wishart",
    "ensembles.composite_planted_graph",
)
SELF_ONLY = (
    "detection.estimate_errors", "lowdeg.enumerate_graphs_upto",
    "ensembles.spectral_deviation", "cli.load_config", "cli.main",
)


def layer_metrics(tally: LayerTally) -> dict[str, float]:
    """Per-layer metrics of one traced round, keyed by their reported names."""
    out: dict[str, float] = {}
    for name in CALLS_AND_SELF:
        out[f"{name}.calls"] = float(tally.calls[name])
        out[f"{name}.self_s"] = tally.self_s[name]
    for name in SELF_ONLY:
        out[f"{name}.self_s"] = tally.self_s[name]

    out["sphere.quad_nodes"] = tally.note_sum("sphere.basis_build")
    out["sphere.series_terms"] = tally.note_sum("sphere.cycle_series")

    draws = gram = 0
    latent_entries, latent_s = 0.0, 0.0
    for name in _PLANTED:
        for (size, entries), own in tally.notes[name]:
            if size == 0:
                continue
            draws += 1
            if entries == 0:
                gram += 1
            else:
                latent_entries += entries
                latent_s += own
    out["graphs.gram_route_frac"] = _ratio(gram, draws)
    out["graphs.latent_normals_per_s"] = _ratio(latent_entries, latent_s)

    out["stats.matrix_builds_per_graph"] = _ratio(
        tally.calls["stats.centered_adjacency"], len(tally.graph_hashes)
    )
    flops = sum(2.0 * n**3 for n, _ in tally.notes["stats.signed_triangle_count"])
    out["stats.signed_triangle_count.gflop_s"] = _ratio(
        flops / 1e9, tally.self_s["stats.signed_triangle_count"]
    )
    out["stats.constrained_infeasible_frac"] = _ratio(
        tally.note_sum("stats.constrained_scan_statistic"),
        tally.calls["stats.constrained_scan_statistic"],
    )

    times = tally.run_test_ms
    out["detection.run_test.calls"] = float(len(times))
    out["detection.run_test.p50_ms"] = percentile(times, 50) if times else 0.0
    out["detection.run_test.p99_ms"] = percentile(times, 99) if times else 0.0

    samples = tally.note_sum("lowdeg.fourier_coefficient_mc")
    out["lowdeg.mc_samples"] = samples
    out["lowdeg.mc_samples_per_s"] = _ratio(
        samples, tally.self_s["lowdeg.fourier_coefficient_mc"]
    )
    return out


# -- output checks -----------------------------------------------------------

def _finite(text) -> bool:
    try:
        return math.isfinite(float(text))
    except (TypeError, ValueError):
        return False


def _rate_ok(text) -> bool:
    return _finite(text) and 0.0 <= float(text) <= 1.0


def check_csv(text: str, tests: list[str], trials: int, seed: int) -> list[list[str]]:
    """Problems found in each expected row of a `test`/`sweep` CSV.

    `tests` lists the test kind of every expected row in order.  A missing
    row is reported as a problem of that row; extra rows are problems too.
    """
    reader = csv.DictReader(io.StringIO(text))
    if reader.fieldnames != CSV_COLUMNS:
        return [["header differs from the documented columns"] for _ in tests]
    rows = list(reader)
    problems = []
    for i in range(max(len(tests), len(rows))):
        if i >= len(rows):
            problems.append(["row missing"])
            continue
        if i >= len(tests):
            problems.append(["unexpected extra row"])
            continue
        row, found = rows[i], []
        if row["test"] != tests[i]:
            found.append(f"test {row['test']!r}, expected {tests[i]!r}")
        if any(value.strip().lower() == "nan" for value in row.values()):
            found.append("nan in row")
        for key in ("type1", "type2", "type1_hw", "type2_hw"):
            if not _rate_ok(row[key]):
                found.append(f"{key}={row[key]} outside [0, 1]")
        if not _finite(row["threshold"]):
            found.append(f"threshold={row['threshold']} not finite")
        if int(row["trials"]) != trials:
            found.append(f"trials={row['trials']}, expected {trials}")
        if not 0 <= int(row["excluded"]) <= int(row["trials"]):
            found.append(f"excluded={row['excluded']} outside [0, trials]")
        if int(row["seed"]) != seed:
            found.append(f"seed={row['seed']}, expected {seed}")
        problems.append(found)
    return problems


def check_lowdeg(report: dict, trials: int, mc_graphs: int) -> list[str]:
    """Problems in a `lowdeg` JSON report."""
    found = []
    if report.get("trials") != trials:
        found.append(f"trials={report.get('trials')}, expected {trials}")
    for key in ("advantage", "advantage_error"):
        if not _finite(report.get(key)):
            found.append(f"{key} not finite")
    estimated = 0
    for row in report.get("rows", []):
        if row["tree_component"]:
            if not (row["skipped_analytic_zero"] and row["phi"] == 0.0
                    and row["stderr"] == 0.0):
                found.append(f"tree-component row {row['code']} not skipped with phi = 0")
        else:
            estimated += 1
            if row["skipped_analytic_zero"] or not (
                _finite(row["phi"]) and _finite(row["stderr"]) and row["stderr"] > 0
            ):
                found.append(f"row {row['code']} lacks a finite estimate")
    if estimated != mc_graphs:
        found.append(f"{estimated} Monte Carlo graphs, expected {mc_graphs}")
    tri = report.get("triangle_crosscheck") or {}
    if not all(_finite(tri.get(k)) for k in ("phi", "stderr", "series_predicted")):
        found.append("triangle cross-check missing or not finite")
    elif abs(tri["phi"] - tri["series_predicted"]) > 6.0 * tri["stderr"]:
        found.append("triangle coefficient more than 6 standard errors from the series")
    return found


def check_wishart(report: dict, trials: int, p: float, n: int) -> list[str]:
    """Problems in a `wishart` JSON report; edge marginals must sit within
    six binomial standard errors of p."""
    found = []
    spectral = report.get("spectral", {})
    if spectral.get("draws") != trials:
        found.append(f"draws={spectral.get('draws')}, expected {trials}")
    for key in ("mean_deviation", "q99"):
        if not _finite(spectral.get(key)) or float(spectral[key]) <= 0.0:
            found.append(f"spectral {key} not a positive number")
    if not _rate_ok(spectral.get("within_10x_fraction")):
        found.append("within_10x_fraction outside [0, 1]")
    if report.get("k1_deviation") != 0.0:
        found.append("k = 1 deviation is not 0")
    route = report.get("route_check") or {}
    pairs = n * (n - 1) // 2
    se = math.sqrt(p * (1.0 - p) / (pairs * trials))
    for arm, value in (route.get("edge_marginal") or {}).items():
        if not _finite(value) or abs(value - p) > 6.0 * se:
            found.append(f"{arm} edge marginal {value} more than 6 SE from p={p}")
    if len(route.get("edge_marginal") or {}) != 2:
        found.append("route check lacks the composite and direct marginals")
    means = route.get("f_tri_mean") or {}
    if len(means) != 2 or not all(_finite(v) for v in means.values()):
        found.append("signed triangle means missing or not finite")
    return found


# -- digests and failure counts ----------------------------------------------

def csv_without_wall(text: str) -> str:
    """The CSV with its wall_ms column removed, one line per row."""
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or "wall_ms" not in rows[0]:
        return text
    drop = rows[0].index("wall_ms")
    return "\n".join(",".join(r[:drop] + r[drop + 1:]) for r in rows) + "\n"


def output_digest(outputs) -> str:
    """sha256 over (kind, text) outputs in order; CSVs ignore wall_ms."""
    h = hashlib.sha256()
    for kind, text in outputs:
        body = csv_without_wall(text) if kind == "csv" else text
        h.update(kind.encode())
        h.update(b"\0")
        h.update(body.encode())
        h.update(b"\0")
    return h.hexdigest()


def count_failures(expected: int, problems: list[list[str]] | None) -> tuple[int, int]:
    """(attempted, failed) for one invocation.

    `problems` holds one list per operation found in the output, or None when
    the invocation produced no usable output, in which case every expected
    operation failed.
    """
    if problems is None:
        return expected, expected
    attempted = max(expected, len(problems))
    found_ok = sum(1 for p in problems if not p)
    return attempted, attempted - found_ok


def failed_frac(attempted: int, failed: int) -> float:
    if attempted < 1:
        raise ValueError("no operation attempted")
    return failed / attempted


def load_json(text: str):
    try:
        return json.loads(text)
    except ValueError:
        return None
