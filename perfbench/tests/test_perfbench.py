"""Tests of the benchmark's own arithmetic and of one tiny traced invocation.

    python3 -m pytest -q perfbench/tests
"""

import csv
import io
import sys
import tempfile
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import measure  # noqa: E402
import run  # noqa: E402


# -- percentiles -------------------------------------------------------------

def test_nearest_rank_percentile():
    values = list(range(10, 0, -1))
    assert measure.percentile(values, 50) == 5
    assert measure.percentile(values, 90) == 9
    assert measure.percentile(values, 99) == 10
    assert measure.percentile(values, 100) == 10
    assert measure.percentile([3.0], 1) == 3.0
    with pytest.raises(ValueError):
        measure.percentile([], 50)


def test_tail_percentile_keeps_ten_samples_beyond():
    assert measure.tail_percentile(1000) == 99.0      # 10 beyond rank 990
    assert measure.tail_percentile(999) == 90.0       # 99th leaves only 9
    assert measure.tail_percentile(100) == 90.0
    assert measure.tail_percentile(10_000) == 99.9
    assert measure.tail_percentile(99) is None        # 90th leaves only 9


def test_median():
    assert measure.median([3, 1, 2]) == 2
    assert measure.median([4, 1, 3, 2]) == 2.5


# -- spans -------------------------------------------------------------------

def _span(name, start, end, parent, note=None):
    return [name, start, end, parent, note]


def test_self_time_subtracts_the_union_of_children():
    spans = [
        _span("cli.main", 0.0, 10.0, -1),
        _span("a", 1.0, 3.0, 0),
        _span("b", 2.0, 5.0, 0),          # overlaps a: union [1, 5] is 4 s
        _span("c", 1.5, 2.0, 1),          # grandchild: only a loses it
        _span("d", 9.5, 11.0, 0),         # sticks out: clipped to 0.5 s
    ]
    own = measure.self_times(spans)
    assert own == pytest.approx([10.0 - 4.0 - 0.5, 1.5, 3.0, 0.5, 1.5])


def test_layer_metrics_from_synthetic_spans():
    spans = [
        _span("detection.run_test", 0.0, 0.004, -1),
        _span("stats.signed_triangle_count", 0.001, 0.003, 0, 100),
        _span("stats.centered_adjacency", 0.001, 0.002, 1, 7),
        _span("stats.centered_adjacency", 0.004, 0.005, -1, 7),
        _span("stats.centered_adjacency", 0.005, 0.006, -1, 8),
        _span("graphs.sample_planted", 0.0, 1.0, -1, (5, 50)),
        _span("graphs.sample_planted", 1.0, 2.0, -1, (5, 0)),
        _span("graphs.sample_planted", 2.0, 3.0, -1, (0, 0)),
        _span("stats.constrained_scan_statistic", 3.0, 4.0, -1, 1),
        _span("stats.constrained_scan_statistic", 4.0, 5.0, -1, 0),
        _span("lowdeg.fourier_coefficient_mc", 5.0, 7.0, -1, 1000),
    ]
    tally = measure.LayerTally()
    tally.add(spans)
    m = measure.layer_metrics(tally)
    assert m["stats.centered_adjacency.calls"] == 3
    assert m["stats.matrix_builds_per_graph"] == 1.5        # 3 builds, 2 graphs
    assert m["stats.signed_triangle_count.self_s"] == pytest.approx(0.001)
    assert m["stats.signed_triangle_count.gflop_s"] == pytest.approx(2e6 / 1e9 / 0.001)
    assert m["detection.run_test.calls"] == 1
    assert m["detection.run_test.p50_ms"] == pytest.approx(4.0)
    assert m["graphs.gram_route_frac"] == 0.5                # empty community skipped
    assert m["graphs.latent_normals_per_s"] == pytest.approx(50.0)
    assert m["stats.constrained_infeasible_frac"] == 0.5
    assert m["lowdeg.mc_samples"] == 1000
    assert m["lowdeg.mc_samples_per_s"] == pytest.approx(500.0)
    assert m["ensembles.composite_planted_graph.calls"] == 0


# -- output checks, failure counts and digests -------------------------------

def _csv(rows):
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=measure.CSV_COLUMNS)
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def _row(**changes):
    row = {"n": 10, "p": "0.3", "d": 8, "k": "5.0", "test": "global-triangle",
           "threshold": "1.5", "type1": "0.25", "type1_hw": "0.1", "type2": "0.5",
           "type2_hw": "0.2", "excluded": 1, "trials": 4, "seed": 9,
           "version": "0.1.0", "wall_ms": 12}
    row.update(changes)
    return row


def test_check_csv_flags_each_bad_row():
    tests = ["global-triangle"] * 4
    text = _csv([_row(), _row(type2="nan"), _row(excluded=5)])
    problems = measure.check_csv(text, tests, trials=4, seed=9)
    assert problems[0] == []
    assert any("nan" in p for p in problems[1])
    assert any("excluded" in p for p in problems[2])
    assert problems[3] == ["row missing"]
    assert measure.count_failures(4, problems) == (4, 3)


def test_failure_counting():
    assert measure.count_failures(3, None) == (3, 3)
    assert measure.count_failures(3, [[], ["bad"], []]) == (3, 1)
    assert measure.count_failures(1, [[], ["unexpected extra row"]]) == (2, 1)
    assert measure.failed_frac(4, 1) == 0.25
    with pytest.raises(ValueError):
        measure.failed_frac(0, 0)


def test_digest_ignores_wall_ms_only():
    a = _csv([_row(wall_ms=12), _row(wall_ms=40)])
    b = _csv([_row(wall_ms=99), _row(wall_ms=1)])
    c = _csv([_row(wall_ms=12), _row(type1="0.5")])
    assert measure.output_digest([("csv", a)]) == measure.output_digest([("csv", b)])
    assert measure.output_digest([("csv", a)]) != measure.output_digest([("csv", c)])
    assert "wall_ms" not in measure.csv_without_wall(a)
    report = '{"wall_ms": 1}\n'
    assert measure.output_digest([("json", report)]) != measure.output_digest(
        [("json", '{"wall_ms": 2}\n')])


def test_lowdeg_tree_rows_must_be_skipped_with_zero():
    report = {
        "trials": 10, "advantage": 1.0, "advantage_error": 0.5,
        "rows": [
            {"code": 1, "tree_component": True, "skipped_analytic_zero": True,
             "phi": 0.0, "stderr": 0.0},
            {"code": 7, "tree_component": False, "skipped_analytic_zero": False,
             "phi": 0.01, "stderr": 0.02},
        ],
        "triangle_crosscheck": {"phi": 0.01, "stderr": 0.02, "series_predicted": 0.0},
    }
    assert measure.check_lowdeg(report, 10, 1) == []
    report["rows"][0]["phi"] = 0.1
    assert measure.check_lowdeg(report, 10, 1)


def test_wishart_marginals_within_six_standard_errors():
    report = {
        "spectral": {"draws": 100, "mean_deviation": 0.2, "q99": 0.3,
                     "within_10x_fraction": 1.0},
        "k1_deviation": 0.0,
        "route_check": {"edge_marginal": {"composite": 0.3, "direct": 0.301},
                        "f_tri_mean": {"composite": 1.0, "direct": 1.2}},
    }
    assert measure.check_wishart(report, 100, 0.3, 40) == []
    report["route_check"]["edge_marginal"]["direct"] = 0.35
    assert measure.check_wishart(report, 100, 0.3, 40)


# -- a tiny invocation through the child process -----------------------------

TINY = run.Workload("tiny", "unit test", (run.Invocation("t", "test", """
[model]
n = 12
p = 0.3
d = 8
k = 6
[run]
trials = 6
[test.global-triangle]
[test.cycle]
ell = 4
""", "csv", 2, run._csv_check(["global-triangle", "cycle"], 6)),), ("t",))


def test_tiny_invocation_untraced_traced_and_two_workers_agree():
    with tempfile.TemporaryDirectory() as tmp:
        runner = run.Runner(TINY, Path(tmp), time.monotonic() + 120)
        plain = runner.round(5)
        traced = runner.round(5, trace=True)
        two = runner.round(5, workers=2)
        setup = runner.call(TINY.invocations[0], 5, setup_only=True)
    tally = run.Tally()
    for calls in (plain, traced, two):
        tally.add(TINY, 0, calls)
    assert (tally.attempted, tally.failed) == (6, 0), tally.notes
    assert plain[0].digest == traced[0].digest == two[0].digest
    assert plain[0].spans is None and 0 < setup.setup < plain[0].wall

    layer = measure.LayerTally()
    layer.add(traced[0].spans)
    m = measure.layer_metrics(layer)
    assert m["graphs.sample_null.calls"] == 12                # 6 per test kind
    assert m["stats.signed_triangle_count.calls"] >= 1
    assert m["stats.signed_cycle_count.calls"] >= 1
    assert m["cli.main.self_s"] > 0
    assert m["sphere.solve_threshold.calls"] >= 1
