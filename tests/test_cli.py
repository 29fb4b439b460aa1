"""Tests for the command-line front end."""

import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import geodetect
from geodetect import ensembles
from geodetect.cli import _q99, main
from geodetect.graphs import Graph
from oracles import wishart_report_per_trial


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


# [test.*] sections whose null arms the memo tests run: the global test, a
# stacked local search and a planted-oracle scan
NULL_MEMO_SECTIONS = [
    "[test.global-triangle]\n",
    "[test.scan]\nmode = local-search\nrestarts = 2\n",
    "[test.scan]\nmode = planted-oracle\n",
]


def strip_wall(rows):
    return [{k: v for k, v in row.items() if k != "wall_ms"} for row in rows]


BASE_CONFIG = """
[model]
n = 40
p = 0.5
d = 8
k = 20

[run]
trials = 40
seed = 7

[test.global-triangle]
"""


# lowdeg refuses [run] trials (its count is [lowdeg] trials), so its configs leave it out
LOWDEG_CONFIG = BASE_CONFIG.replace("trials = 40\n", "")


def with_test(section):
    """BASE_CONFIG running the given [test.*] section instead of the global triangle test."""
    return BASE_CONFIG.replace("[test.global-triangle]", section)


class TestTauCommand:
    def test_symmetric_point(self, capsys):
        assert main(["tau", "--p", "0.5", "--d", "32"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["tau"] == 0.0
        assert out["residual"] <= 1e-10

    def test_bound_reported(self, capsys):
        assert main(["tau", "--p", "0.3", "--d", "100"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert 0 < out["tau"] <= out["upper_bound"]
        assert out["upper_bound"] == pytest.approx(math.sqrt(3 * math.log(1 / 0.3) / 100))

    def test_regression_value(self, capsys):
        assert main(["tau", "--p", "0.1", "--d", "16"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["tau"] == pytest.approx(0.32710130942171891666, abs=1e-10)


class TestCycleExpectationCommand:
    def test_fields(self, capsys):
        assert main(["cycle-expectation", "--ell", "3", "--p", "0.3", "--d", "64"]) == 0
        out = json.loads(capsys.readouterr().out)
        for key in ("value", "truncation_m", "tail_bound", "scale", "ratio"):
            assert key in out
        assert out["ratio"] == pytest.approx(out["value"] / out["scale"])
        assert 1 / 20 <= out["ratio"] <= 20

    def test_triangle_lower_bound_with_calibrated_constant(self, capsys):
        # ell = 3 value >= scale / C for a desk-calibrated C
        assert main(["cycle-expectation", "--ell", "3", "--p", "0.3", "--d", "256"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["value"] >= out["scale"] / 20.0


class TestTestCommand:
    def test_single_point_row(self, tmp_path):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(BASE_CONFIG)
        out = tmp_path / "rows.csv"
        assert main(["test", "--config", str(cfg), "--out", str(out)]) == 0
        rows = read_rows(out)
        assert len(rows) == 1
        row = rows[0]
        assert row["test"] == "global-triangle"
        assert row["n"] == "40" and row["trials"] == "40"
        assert 0.0 <= float(row["type1"]) <= 1.0

    def test_deterministic_rerun(self, tmp_path):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(BASE_CONFIG)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["test", "--config", str(cfg), "--out", str(out1)])
        main(["test", "--config", str(cfg), "--out", str(out2)])
        assert strip_wall(read_rows(out1)) == strip_wall(read_rows(out2))

    def test_numerical_failure_in_row(self, tmp_path):
        # d = 3 passes model validation but the series needs d >= 4
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(BASE_CONFIG.replace("d = 8", "d = 3"))
        out = tmp_path / "rows.csv"
        assert main(["test", "--config", str(cfg), "--out", str(out)]) == 0
        row = read_rows(out)[0]
        assert row["threshold"] == "nan"
        assert main(["--strict", "test", "--config", str(cfg), "--out", str(out)]) == 3

    def test_strict_reads_every_series_of_the_threshold(self, tmp_path, monkeypatch):
        # the constrained-scan calibration uses ell = 3 and 4, a cycle test its ell;
        # the failure is injected where make_test_spec reads the series
        import dataclasses

        import geodetect.detection as detection_mod

        real = detection_mod.signed_cycle_expectation

        def fail_ell4(ell, p, d):
            res = real(ell, p, d)
            return dataclasses.replace(res, truncation_failed=True) if ell == 4 else res

        cfg = tmp_path / "cfg.ini"
        out = tmp_path / "rows.csv"
        args = ["--strict", "test", "--config", str(cfg), "--out", str(out), "--trials", "2"]
        sections = {
            "[test.global-triangle]": 0,
            "[test.constrained-scan]": 3,
            "[test.constrained-scan]\ncycle_constant = 1.2": 0,
            "[test.cycle]\nell = 4": 3,
        }
        for section in sections:
            cfg.write_text(BASE_CONFIG.replace("[test.global-triangle]", section))
            assert main(args) == 0
        monkeypatch.setattr(detection_mod, "signed_cycle_expectation", fail_ell4)
        for section, code in sections.items():
            cfg.write_text(BASE_CONFIG.replace("[test.global-triangle]", section))
            assert main(args) == code, section

    def test_strict_reads_quadrature_convergence(self, tmp_path, monkeypatch, capsys):
        # the failure is injected in the basis the series is summed from
        import dataclasses

        import geodetect.sphere as sphere_mod

        real = sphere_mod.basis_for_density
        monkeypatch.setattr(
            sphere_mod,
            "basis_for_density",
            lambda p, d: dataclasses.replace(real(p, d), quad_converged=False),
        )
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(BASE_CONFIG)
        out = tmp_path / "rows.csv"
        args = ["test", "--config", str(cfg), "--out", str(out), "--trials", "2"]
        assert main(args) == 0
        header = out.read_text().splitlines()[0]
        assert main(["--strict", *args]) == 3
        assert out.read_text().splitlines()[0] == header
        cyc = ["cycle-expectation", "--ell", "3", "--p", "0.3", "--d", "64"]
        assert main(cyc) == 0
        report = json.loads(capsys.readouterr().out)
        assert main(["--strict", *cyc]) == 3
        strict = json.loads(capsys.readouterr().out)
        assert set(strict) == set(report)
        assert strict["truncation_failed"] is False and strict["quad_converged"] is False
        monkeypatch.undo()
        assert main(["--strict", *cyc]) == 0
        assert json.loads(capsys.readouterr().out)["quad_converged"] is True

    def test_three_cycle_row_is_the_global_triangle_row(self, tmp_path):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(BASE_CONFIG + "\n[test.cycle]\nell = 3\n[sweep]\nd = 8,64\n")
        out = tmp_path / "rows.csv"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        rows = read_rows(out)
        assert [row["test"] for row in rows] == ["global-triangle", "cycle"] * 2
        other = lambda row: {k: v for k, v in row.items() if k not in ("test", "wall_ms")}  # noqa: E731
        for triangle, cycle in zip(rows[::2], rows[1::2]):
            assert other(triangle) == other(cycle)

    def test_one_statistic_draws_each_null_graph_once(self, tmp_path, monkeypatch):
        # the global triangle test and the ell = 3 cycle test share their null memo entries
        import geodetect.detection as detection_mod

        calls = []
        real = detection_mod.sample_null

        def counted(n, p, rng):
            calls.append(n)
            return real(n, p, rng)

        monkeypatch.setattr(detection_mod, "sample_null", counted)
        detection_mod._null_group.cache_clear()
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(BASE_CONFIG.replace("p = 0.5\nd = 8", "p = 0.3\nd = 16")
                       + "\n[test.cycle]\nell = 3\n")
        out = tmp_path / "rows.csv"
        assert main(["test", "--config", str(cfg), "--out", str(out), "--trials", "20"]) == 0
        triangle, cycle = strip_wall(read_rows(out))
        assert (triangle.pop("test"), cycle.pop("test")) == ("global-triangle", "cycle")
        assert triangle == cycle
        assert len(calls) == 20


class TestSweepCommand:
    def test_axes_and_resume(self, tmp_path):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(BASE_CONFIG + "\n[sweep]\nd = 8,64\n")
        out = tmp_path / "grid.csv"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        first = read_rows(out)
        assert [row["d"] for row in first] == ["8", "64"]
        # a resumed run skips every completed point and appends nothing
        assert main(["sweep", "--config", str(cfg), "--out", str(out), "--resume"]) == 0
        assert strip_wall(read_rows(out)) == strip_wall(first)

    @pytest.mark.parametrize("flags", [["--seed", "2"], ["--trials", "7"]])
    def test_resume_refuses_another_run(self, tmp_path, capsys, flags):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(BASE_CONFIG + "\n[sweep]\nd = 8,64\n")
        out = tmp_path / "grid.csv"
        args = ["sweep", "--config", str(cfg), "--out", str(out), "--trials", "5"]
        assert main([*args, "--seed", "1"]) == 0
        # an interrupted run: header and first row only
        out.write_text("".join(out.read_text().splitlines(keepends=True)[:2]))
        cut = out.read_text()
        assert main([*args, "--seed", "1", *flags, "--resume"]) == 2
        assert "config error: --resume" in capsys.readouterr().err
        assert out.read_text() == cut

    def test_resume_refuses_a_file_of_another_format(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(BASE_CONFIG)
        out = tmp_path / "other.csv"
        out.write_text("a,b\n1,2\n")
        assert main(["sweep", "--config", str(cfg), "--out", str(out), "--resume"]) == 2
        assert "config error: --resume" in capsys.readouterr().err
        assert out.read_text() == "a,b\n1,2\n"

    def test_worker_counts_agree(self, tmp_path):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(BASE_CONFIG + "\n[sweep]\nd = 8,16,32\n")
        out1, out8 = tmp_path / "w1.csv", tmp_path / "w8.csv"
        main(["sweep", "--config", str(cfg), "--out", str(out1), "--workers", "1"])
        main(["sweep", "--config", str(cfg), "--out", str(out8), "--workers", "8"])
        assert strip_wall(read_rows(out1)) == strip_wall(read_rows(out8))

    @pytest.mark.parametrize("workers, on_main", [(None, True), ("1", True), ("2", False)])
    def test_one_worker_runs_rows_on_the_calling_thread(self, tmp_path, monkeypatch,
                                                        workers, on_main):
        import threading

        import geodetect.cli as cli_mod

        threads = []
        real = cli_mod._point_row

        def recorded(*args):
            threads.append(threading.current_thread() is threading.main_thread())
            return real(*args)

        monkeypatch.setattr(cli_mod, "_point_row", recorded)
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(BASE_CONFIG + "\n[sweep]\nd = 8,16\n")
        args = ["sweep", "--config", str(cfg), "--out", str(tmp_path / "rows.csv"), "--trials", "4"]
        assert main([*args, *(["--workers", workers] if workers else [])]) == 0
        assert threads == [on_main] * 2

    def test_empty_axes_matches_test_command(self, tmp_path):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(BASE_CONFIG)
        out_sweep, out_test = tmp_path / "s.csv", tmp_path / "t.csv"
        assert main(["sweep", "--config", str(cfg), "--out", str(out_sweep)]) == 0
        assert main(["test", "--config", str(cfg), "--out", str(out_test)]) == 0
        assert strip_wall(read_rows(out_sweep)) == strip_wall(read_rows(out_test))

    def test_null_arm_drawn_once_per_trial(self, tmp_path, monkeypatch):
        import geodetect.detection as detection_mod

        calls = []
        real = detection_mod.sample_null

        def counted(n, p, rng):
            calls.append(n)
            return real(n, p, rng)

        monkeypatch.setattr(detection_mod, "sample_null", counted)
        for section in NULL_MEMO_SECTIONS:
            calls.clear()
            detection_mod._null_group.cache_clear()
            cfg = tmp_path / "cfg.ini"
            cfg.write_text(BASE_CONFIG.replace("[test.global-triangle]\n", section)
                           + "\n[sweep]\nd = 8,16,32\n")
            out = tmp_path / "grid.csv"
            assert main(["sweep", "--config", str(cfg), "--out", str(out), "--trials", "6"]) == 0
            assert len(read_rows(out)) == 3
            assert len(calls) == 6, section

    def test_null_arm_drawn_once_with_two_workers(self, tmp_path, monkeypatch):
        # two rows of one statistic run at once: the second waits for the first's null arm
        import geodetect.detection as detection_mod

        calls = []
        real = detection_mod.sample_null

        def counted(n, p, rng):
            calls.append(n)
            return real(n, p, rng)

        monkeypatch.setattr(detection_mod, "sample_null", counted)
        detection_mod._null_group.cache_clear()
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(BASE_CONFIG + "\n[sweep]\nd = 8,16,32,64\n")
        out = tmp_path / "grid.csv"
        args = ["sweep", "--config", str(cfg), "--out", str(out), "--trials", "30"]
        assert main([*args, "--workers", "2"]) == 0
        assert len(read_rows(out)) == 4
        assert len(calls) == 30

    @pytest.mark.parametrize(
        "trials, sections, draws",
        [
            # a trial count past 2^14: the memo holds whole groups, whatever their size
            (17_000, "[test.global-triangle]\n", 17_000),
            # two statistics of 9,000 trials: one group holds both
            (9_000, "[test.global-triangle]\n[test.cycle]\nell = 4\n", 18_000),
        ],
        ids=["one-statistic", "two-statistics"],
    )
    def test_null_memo_holds_a_whole_group(self, tmp_path, monkeypatch, trials, sections, draws):
        import geodetect.detection as detection_mod

        calls = []
        real = detection_mod.sample_null

        def counted(n, p, rng):
            calls.append(n)
            return real(n, p, rng)

        monkeypatch.setattr(detection_mod, "sample_null", counted)
        detection_mod._null_group.cache_clear()
        cfg = tmp_path / "cfg.ini"
        config = "[model]\nn = 10\np = 0.5\nd = 8\nk = 2\n[sweep]\nd = 8,16\n"
        cfg.write_text(config + sections)
        out = tmp_path / "grid.csv"
        args = ["sweep", "--config", str(cfg), "--out", str(out), "--trials", str(trials)]
        assert main(args) == 0
        assert len(read_rows(out)) == 2 * sections.count("[test.")
        assert len(calls) == draws

    def test_planted_coins_drawn_once_per_trial(self, tmp_path, monkeypatch):
        # the global triangle test draws each planted trial's membership and
        # coins once per sweep over d, and no whole planted graph
        import geodetect.detection as detection_mod

        memberships, coins = [], []
        real_members, real_coins = detection_mod._planted_members, detection_mod._edge_coins

        def counted_members(params, rng):
            memberships.append(params.n)
            return real_members(params, rng)

        def counted_coins(n, p, rng):
            coins.append(n)
            return real_coins(n, p, rng)

        def no_graph(*args):
            raise AssertionError("the whole planted graph was drawn")

        monkeypatch.setattr(detection_mod, "_planted_members", counted_members)
        monkeypatch.setattr(detection_mod, "_edge_coins", counted_coins)
        monkeypatch.setattr(detection_mod, "sample_planted_fixed_community", no_graph)
        detection_mod._coin_group.cache_clear()
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(BASE_CONFIG + "\n[sweep]\nd = 8,16,32\n")
        out = tmp_path / "grid.csv"
        assert main(["sweep", "--config", str(cfg), "--out", str(out), "--trials", "6"]) == 0
        rows = read_rows(out)
        assert len(rows) == 3
        assert len(memberships) == 6
        assert len(coins) == 6 - int(rows[0]["excluded"]) > 0

    def test_null_memo_changes_no_row(self, tmp_path):
        import geodetect.detection as detection_mod

        for section in NULL_MEMO_SECTIONS:
            cfg = tmp_path / "cfg.ini"
            cfg.write_text(BASE_CONFIG.replace("[test.global-triangle]\n", section)
                           + "\n[sweep]\nd = 8,16,32\n")
            cold, warm, resumed = tmp_path / "cold.csv", tmp_path / "warm.csv", tmp_path / "r.csv"
            args = ["sweep", "--config", str(cfg), "--trials", "10", "--out"]
            detection_mod._null_group.cache_clear()
            assert main([*args, str(cold)]) == 0
            assert main([*args, str(warm)]) == 0
            # an interrupted run: header and first row only, finished cold with --resume
            resumed.write_text("".join(cold.read_text().splitlines(keepends=True)[:2]))
            detection_mod._null_group.cache_clear()
            assert main([*args, str(resumed), "--resume"]) == 0
            expected = strip_wall(read_rows(cold))
            assert len(expected) == 3
            assert strip_wall(read_rows(warm)) == expected, section
            assert strip_wall(read_rows(resumed)) == expected, section

    def test_repeated_points_run_once(self, tmp_path):
        # logrange:4:6:5 rounds to d = 4, 4, 5, 5, 6
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(BASE_CONFIG + "\n[sweep]\nd = logrange:4:6:5\n")
        out = tmp_path / "grid.csv"
        assert main(["sweep", "--config", str(cfg), "--out", str(out), "--trials", "4"]) == 0
        assert [row["d"] for row in read_rows(out)] == ["4", "5", "6"]

    def test_logrange_axis(self, tmp_path):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(BASE_CONFIG + "\n[sweep]\nd = logrange:4:4096:4\n")
        out = tmp_path / "grid.csv"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        assert [row["d"] for row in read_rows(out)] == ["4", "40", "406", "4096"]


class TestExhaustiveLimit:
    # C(60, 27) subsets at k = 30 is past the exhaustive scan's limit of 1e7; C(60, 4) at k = 5 is not
    CONFIG = BASE_CONFIG.replace("n = 40", "n = 60").replace(
        "[test.global-triangle]", "[test.scan]\nmode = exhaustive"
    )

    @pytest.mark.parametrize("strict", [[], ["--strict"]])
    def test_over_the_limit_is_a_config_error(self, tmp_path, capsys, strict):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(self.CONFIG.replace("k = 20", "k = 30"))
        out = tmp_path / "rows.csv"
        assert main([*strict, "test", "--config", str(cfg), "--out", str(out)]) == 2
        assert "exceeds the 10000000 limit" in capsys.readouterr().err
        assert not out.exists()

    def test_any_sweep_point_over_the_limit_decides(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(self.CONFIG.replace("k = 20", "k = 5") + "\n[sweep]\nk = 5,30\n")
        out = tmp_path / "rows.csv"
        assert main(["sweep", "--config", str(cfg), "--out", str(out), "--trials", "2"]) == 2
        assert "k = 30.0" in capsys.readouterr().err
        assert not out.exists()


class TestConfigValidation:
    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(BASE_CONFIG + "\n[sweep]\ndd = 8,64\n")
        assert main(["sweep", "--config", str(cfg), "--out", "x.csv"]) == 2

    def test_unknown_section_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(BASE_CONFIG + "\n[mystery]\na = 1\n")
        assert main(["test", "--config", str(cfg), "--out", "x.csv"]) == 2

    def test_missing_model_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("[run]\ntrials = 5\n")
        assert main(["test", "--config", str(cfg), "--out", "x.csv"]) == 2

    def test_missing_file_rejected(self, tmp_path):
        assert main(["test", "--config", str(tmp_path / "nope.ini"), "--out", "x.csv"]) == 2

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_seed_outside_u64_rejected(self, tmp_path, seed):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(BASE_CONFIG)
        out = tmp_path / "rows.csv"
        assert main(["test", "--config", str(cfg), "--out", str(out), "--seed", seed]) == 2
        cfg.write_text(BASE_CONFIG.replace("seed = 7", f"seed = {seed}"))
        assert main(["test", "--config", str(cfg), "--out", str(out)]) == 2
        sample = ["sample", "--model", "null", "--n", "5", "--p", "0.5", "--out", str(out)]
        assert main([*sample, "--seed", seed]) == 2
        assert main([*sample, "--seed", str(2**64 - 1)]) == 0

    @pytest.mark.parametrize(
        "argv",
        [
            "tau --p 0 --d 8",
            "tau --p 1.5 --d 8",
            "tau --p 0.3 --d 2",
            "cycle-expectation --ell 3 --p 0.7 --d 8",
            "cycle-expectation --ell 2 --p 0.3 --d 8",
            "sample --model planted --n 10 --p 0.3 --d 2",
            "sample --model null --n 0 --p 0.3",
            "sample --model null --n 10 --p 1.5",
            "sample --model geometric --n 10 --p 1.5",
            "sample --model geometric --n 0 --p 0.3",
        ],
    )
    def test_bad_flag_of_flag_only_command(self, tmp_path, capsys, argv):
        # tau, cycle-expectation and sample read no config: the library checks their flags
        out = tmp_path / "graph.txt"
        args = argv.split() + (["--out", str(out)] if argv.startswith("sample") else [])
        assert main(args) == 2
        assert capsys.readouterr().err.startswith("config error: ")
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, text",
        [
            pytest.param("wishart", "[wishart]\nk = 0\n", id="wishart-k"),
            pytest.param("wishart", "[wishart]\nk = 4\ntrials = 0\n", id="wishart-trials"),
            pytest.param(
                "wishart", "[wishart]\nk = 4\ntrials = 5\nn = 10\ncommunity_size = 20\n",
                id="wishart-community-size",
            ),
            pytest.param(
                "wishart", "[wishart]\nk = 4\nd = 2\ntrials = 5\nn = 10\n", id="wishart-route-d"
            ),
            pytest.param("wishart", "[wishart]\nk = four\n", id="wishart-non-numeric"),
            pytest.param(  # one vertex has no pair, so no edge marginal
                "wishart", "[wishart]\nk = 3\nd = 10\nn = 1\np = 0.3\ntrials = 5\n",
                id="wishart-n-1",
            ),
            # community_size and p are read only with n
            pytest.param("wishart", "[wishart]\nk = 4\np = -7\n", id="wishart-p-without-n"),
            pytest.param(
                "wishart", "[wishart]\nk = 4\ncommunity_size = 99\n",
                id="wishart-community-size-without-n",
            ),
            pytest.param("test", BASE_CONFIG.replace("d = 8", "d = 0"), id="model-d"),
            pytest.param("lowdeg", LOWDEG_CONFIG.replace("d = 8", "d = 0"), id="lowdeg-model-d"),
            pytest.param("test", BASE_CONFIG.replace("p = 0.5", "p = x"), id="model-non-numeric"),
            pytest.param("test", BASE_CONFIG.replace("n = 40", "n = inf"), id="model-infinite"),
            pytest.param("sweep", BASE_CONFIG + "\n[sweep]\nd = 0,8\n", id="sweep-d"),
            pytest.param("sweep", BASE_CONFIG + "\n[sweep]\nd = logrange:4:64\n", id="sweep-axis"),
            pytest.param("lowdeg", LOWDEG_CONFIG + "\n[lowdeg]\ntrials = 0\n", id="lowdeg-trials"),
            pytest.param(
                "lowdeg", LOWDEG_CONFIG + "\n[lowdeg]\nv_max = 6\n", id="lowdeg-v-max-cap"
            ),
            pytest.param(
                "lowdeg", LOWDEG_CONFIG + "\n[lowdeg]\nv_max = x\n", id="lowdeg-v-max-text"
            ),
            pytest.param(
                "lowdeg",
                LOWDEG_CONFIG.replace("n = 40", "n = 4").replace("k = 20", "k = 2")
                + "\n[lowdeg]\nv_max = 5\n",
                id="lowdeg-v-max-above-n",
            ),
            pytest.param("test", with_test("[test.cycle]\nell = x"), id="cycle-ell-text"),
            pytest.param("test", with_test("[test.cycle]\nell = 8"), id="cycle-ell-8"),
            pytest.param("test", with_test("[test.cycle]"), id="cycle-ell-missing"),
            pytest.param("test", with_test("[test.scan]\nmode = bogus"), id="scan-mode"),
            pytest.param("test", with_test("[test.scan]\nrestarts = x"), id="scan-restarts"),
            pytest.param(
                "test", with_test("[test.constrained-scan]\ncycle_constant = x"),
                id="constrained-cycle-constant",
            ),
            pytest.param("test", BASE_CONFIG.replace("seed = 7", "workers = 0"), id="run-workers"),
            pytest.param("test", BASE_CONFIG.replace("trials = 40", "trials = x"), id="run-trials"),
        ],
    )
    def test_bad_value_rejected(self, tmp_path, capsys, command, text):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(text)
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("config error: [")
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [
        ("--trials", "0"), ("--trials", "x"), ("--workers", "0"), ("--workers", "-3"),
    ])
    def test_bad_row_flag_rejected(self, tmp_path, capsys, flag, value):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(BASE_CONFIG)
        out = tmp_path / "rows.csv"
        assert main(["test", "--config", str(cfg), "--out", str(out), flag, value]) == 2
        assert capsys.readouterr().err.startswith(f"config error: [run] {flag[2:]} = ")
        assert not out.exists()

    def test_run_trials_scientific_notation_accepted(self, tmp_path):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(BASE_CONFIG.replace("trials = 40", "trials = 2e1"))
        out = tmp_path / "rows.csv"
        assert main(["test", "--config", str(cfg), "--out", str(out)]) == 0
        assert read_rows(out)[0]["trials"] == "20"

    def test_wishart_trials_flag_checked(self, tmp_path):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("[wishart]\nk = 4\n")
        assert main(["wishart", "--config", str(cfg), "--trials", "0"]) == 2

    def test_lowdeg_trials_flag_checked(self, tmp_path):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(LOWDEG_CONFIG + "\n[lowdeg]\nv_max = 3\n")
        assert main(["lowdeg", "--config", str(cfg), "--trials", "0"]) == 2

    def test_lowdeg_scientific_notation_accepted(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(LOWDEG_CONFIG + "\n[lowdeg]\nv_max = 3e0\ndegree_cap = 3\ntrials = 2e4\n")
        assert main(["lowdeg", "--config", str(cfg)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert (out["v_max"], out["degree_cap"], out["trials"]) == (3, 3, 20_000)

    def test_scientific_notation_accepted(self, tmp_path):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(BASE_CONFIG.replace("d = 8", "d = 1e2"))
        out = tmp_path / "rows.csv"
        assert main(["test", "--config", str(cfg), "--out", str(out)]) == 0
        assert read_rows(out)[0]["d"] == "100"


class TestCycleLength:
    @pytest.mark.parametrize(
        "ell, sweep", [(6, ""), (7, ""), (6, "[sweep]\nn = 40,70\n")], ids=["6", "7", "6-sweep"]
    )
    def test_long_cycles_beyond_64_vertices_run(self, tmp_path, ell, sweep):
        # every length in [3, 7] is counted in O(n^3) at any n
        cfg = tmp_path / "cfg.ini"
        text = with_test(f"[test.cycle]\nell = {ell}\n") + sweep
        cfg.write_text(text if sweep else text.replace("n = 40", "n = 70"))
        out = tmp_path / "rows.csv"
        assert main(["--strict", "test", "--config", str(cfg), "--out", str(out)]) == 0
        rows = read_rows(out)
        assert [r["n"] for r in rows] == (["40", "70"] if sweep else ["70"])
        for row in rows:
            assert row["test"] == "cycle"
            assert all(math.isfinite(float(row[key])) for key in ("threshold", "type1", "type2"))

    def test_enumerated_length_at_64_vertices_runs(self, tmp_path):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(with_test("[test.cycle]\nell = 6\n").replace("n = 40", "n = 64"))
        out = tmp_path / "rows.csv"
        assert main(["test", "--config", str(cfg), "--out", str(out), "--trials", "2"]) == 0
        (row,) = read_rows(out)
        assert (row["n"], row["test"], row["trials"]) == ("64", "cycle", "2")
        assert math.isfinite(float(row["threshold"])) and row["type1"] != "nan"


class TestRunSeed:
    LOWDEG = "[model]\nn = 30\np = 0.5\nd = 8\nk = 15\n[lowdeg]\nv_max = 3\ndegree_cap = 3\ntrials = 500\n"
    WISHART = "[wishart]\nk = 4\nd = 40\ntrials = 20\nn = 12\n"

    @pytest.mark.parametrize("command, body", [("lowdeg", LOWDEG), ("wishart", WISHART)])
    def test_run_seed_read_and_flag_overrides(self, tmp_path, capsys, command, body):
        keyed, plain = tmp_path / "keyed.ini", tmp_path / "plain.ini"
        keyed.write_text(body + "[run]\nseed = 7\n")
        plain.write_text(body)

        def report(*argv):
            assert main([command, *argv]) == 0
            return json.loads(capsys.readouterr().out)

        from_key = report("--config", str(keyed))
        assert from_key["seed"] == 7
        assert from_key == report("--config", str(plain), "--seed", "7")
        overridden = report("--config", str(keyed), "--seed", "3")
        assert overridden["seed"] == 3
        assert overridden == report("--config", str(plain), "--seed", "3") != from_key


class TestJsonRunKeys:
    LOWDEG, WISHART = TestRunSeed.LOWDEG, TestRunSeed.WISHART

    @pytest.mark.parametrize("command, body", [("lowdeg", LOWDEG), ("wishart", WISHART)])
    def test_run_out_read_and_flag_overrides(self, tmp_path, capsys, command, body):
        keyed, flagged = tmp_path / "keyed.json", tmp_path / "flagged.json"
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(body + f"[run]\nout = {keyed}\n")
        assert main([command, "--config", str(cfg)]) == 0
        assert capsys.readouterr().out == ""
        report = json.loads(keyed.read_text())
        keyed.unlink()
        assert main([command, "--config", str(cfg), "--out", str(flagged)]) == 0
        assert json.loads(flagged.read_text()) == report and not keyed.exists()

    @pytest.mark.parametrize("command, body", [("lowdeg", LOWDEG), ("wishart", WISHART)])
    def test_run_trials_rejected(self, tmp_path, capsys, command, body):
        cfg = tmp_path / "cfg.ini"
        out = tmp_path / "report.json"
        cfg.write_text(body + f"[run]\ntrials = 50\nout = {out}\n")
        assert main([command, "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: [run] trials ") and f"[{command}] trials" in err
        assert not out.exists()


class TestLowdegCommand:
    def test_report_shape(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(
            "[model]\nn = 30\np = 0.5\nd = 8\nk = 15\n"
            "[lowdeg]\nv_max = 3\ndegree_cap = 3\ntrials = 4000\n"
        )
        assert main(["lowdeg", "--config", str(cfg), "--seed", "3"]) == 0
        out = json.loads(capsys.readouterr().out)
        rows = out["rows"]
        forests = [r for r in rows if r["is_forest"]]
        assert forests and all(r["skipped_analytic_zero"] for r in forests)
        assert all(r["phi"] == 0.0 for r in forests)
        assert out["triangle_crosscheck"] is not None
        assert "series_predicted" in out["triangle_crosscheck"]

    def test_writes_file(self, tmp_path):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(
            "[model]\nn = 30\np = 0.5\nd = 8\nk = 15\n"
            "[lowdeg]\nv_max = 2\ndegree_cap = 2\ntrials = 100\n"
        )
        out = tmp_path / "report.json"
        assert main(["lowdeg", "--config", str(cfg), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["v_max"] == 2

    @pytest.mark.parametrize("p, d", [(0.6, 16), (0.3, 3)])
    def test_crosscheck_null_outside_the_series(self, tmp_path, p, d):
        # the series needs p <= 1/2 and d >= 4; the Monte Carlo does not
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(
            f"[model]\nn = 20\np = {p}\nd = {d}\nk = 10\n"
            "[lowdeg]\nv_max = 3\ndegree_cap = 3\ntrials = 200\n"
        )
        out = tmp_path / "report.json"
        assert main(["--strict", "lowdeg", "--config", str(cfg), "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["triangle_crosscheck"] is None
        assert all(math.isfinite(row["phi"]) for row in report["rows"])

    def test_p_one_is_a_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("[model]\nn = 20\np = 1\nd = 16\nk = 10\n[lowdeg]\nv_max = 3\n")
        out = tmp_path / "report.json"
        assert main(["lowdeg", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("config error: [model] p = 1")
        assert not out.exists()

    def test_strict_reads_the_crosscheck_series(self, tmp_path, monkeypatch):
        import dataclasses

        import geodetect.sphere as sphere_mod

        cfg = tmp_path / "cfg.ini"
        cfg.write_text(
            "[model]\nn = 20\np = 0.3\nd = 16\nk = 10\n"
            "[lowdeg]\nv_max = 3\ndegree_cap = 3\ntrials = 200\n"
        )
        out = tmp_path / "report.json"
        args = ["lowdeg", "--config", str(cfg), "--out", str(out)]
        assert main(["--strict", *args]) == 0
        real = sphere_mod.basis_for_density
        monkeypatch.setattr(
            sphere_mod,
            "basis_for_density",
            lambda p, d: dataclasses.replace(real(p, d), quad_converged=False),
        )
        assert main(args) == 0
        report = out.read_text()
        assert main(["--strict", *args]) == 3
        assert out.read_text() == report


class TestWishartCommand:
    def test_report(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(
            "[model]\nn = 16\np = 0.5\nd = 400\nk = 8\n"
            "[wishart]\nk = 8\nd = 400\ntrials = 100\nn = 16\ncommunity_size = 8\np = 0.5\n"
        )
        assert main(["wishart", "--config", str(cfg), "--seed", "5"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["k1_deviation"] == 0.0
        assert out["spectral"]["within_10x_fraction"] >= 0.99
        route = out["route_check"]
        assert abs(route["edge_marginal"]["composite"] - 0.5) <= 0.05
        assert abs(route["edge_marginal"]["direct"] - 0.5) <= 0.05


class TestQuantile:
    """wishart's q99 is np.quantile(x, 0.99), the default linear rule, bit for bit."""

    # n = 2, 3 and 12345 interpolate from the upper value (g >= 0.5), 100 and 1000
    # from the lower, and at 1 and 101 the index lands on a value
    @pytest.mark.parametrize("n", [1, 2, 3, 100, 101, 1000, 12345])
    @pytest.mark.parametrize("values", ["untied", "tied"])
    def test_equals_numpy(self, n, values):
        rng = np.random.default_rng(n)
        x = rng.integers(0, 4, n).astype(float) if values == "tied" else rng.standard_normal(n)
        before = x.copy()
        assert _q99(x) == float(np.quantile(x, 0.99))
        assert np.array_equal(x, before)

    @pytest.mark.parametrize("n", [1, 2, 3, 100, 101, 1000, 12345])
    def test_a_nan_gives_nan(self, n):
        x = np.random.default_rng(n).standard_normal(n)
        x[n // 2] = math.nan
        assert math.isnan(float(np.quantile(x, 0.99)))
        assert math.isnan(_q99(x))


def _chunk_trials(order: int) -> int:
    """Trials in one chunk of ensembles' loops over order x order draws."""
    return ensembles._CHUNK_BYTES // (8 * order * order)


# (k, d, n, community_size, p): both spectral routes (d >= k, d < k) and both
# Wishart-block routes (d >= size, d < size), at n = k = 64 for short chunks
_CHUNK_EDGES = [(64, 80, 64, 32, 0.3), (64, 40, 64, 48, 0.3)]


class TestWishartChunkedReport:
    """The report equals the trial-by-trial per-draw loop byte for byte."""

    @staticmethod
    def check(tmp_path, seed, k, d, trials, **route):
        cfg = tmp_path / "cfg.ini"
        keys = {"k": k, "d": d, "trials": trials, **route}
        cfg.write_text("[wishart]\n" + "".join(f"{key} = {v}\n" for key, v in keys.items()))
        out = tmp_path / "report.json"
        assert main(["wishart", "--config", str(cfg), "--seed", str(seed), "--out", str(out)]) == 0
        report = wishart_report_per_trial(k, d, trials, seed, **route)
        assert out.read_text() == json.dumps(report, indent=2) + "\n"

    def test_chunks_are_short_at_order_64(self):
        assert _chunk_trials(64) == 8

    @pytest.mark.parametrize("k, d, n, size, p", _CHUNK_EDGES, ids=["bartlett", "latent"])
    @pytest.mark.parametrize("offset", [None, -1, 0, 1], ids=["one", "chunk-1", "chunk", "chunk+1"])
    def test_trials_across_a_chunk_edge(self, tmp_path, k, d, n, size, p, offset):
        trials = 1 if offset is None else _chunk_trials(n) + offset
        self.check(tmp_path, 11, k, d, trials, n=n, community_size=size, p=p)

    @pytest.mark.parametrize("size", [0, 1, 2, 12, None])
    def test_community_sizes(self, tmp_path, size):
        route = {"n": 12, "p": 0.3} | ({} if size is None else {"community_size": size})
        self.check(tmp_path, 1001, 5, 50, 30, **route)

    def test_density_one(self, tmp_path):
        self.check(tmp_path, 5, 5, 50, 30, n=12, community_size=12, p=1.0)

    def test_without_route_check(self, tmp_path):
        self.check(tmp_path, 5, 25, 10, 40)
        self.check(tmp_path, 5, 6, 300, 40)


class TestSampleCommand:
    def test_edgelist_round_trip(self, tmp_path):
        out = tmp_path / "graph.txt"
        assert main([
            "sample", "--model", "null", "--n", "12", "--p", "0.4",
            "--seed", "3", "--format", "edgelist", "--out", str(out),
        ]) == 0
        g = Graph.from_edgelist_text(out.read_text())
        assert g.n == 12

    def test_bitfield_round_trip(self, tmp_path):
        out = tmp_path / "graph.bin"
        assert main([
            "sample", "--model", "planted", "--n", "15", "--p", "0.4", "--d", "6",
            "--k", "8", "--seed", "3", "--format", "bits", "--out", str(out),
        ]) == 0
        g = Graph.from_bitfield_bytes(out.read_bytes())
        assert g.n == 15

    def test_formats_encode_same_graph(self, tmp_path):
        a, b = tmp_path / "g.txt", tmp_path / "g.bin"
        args = ["sample", "--model", "geometric", "--n", "10", "--p", "0.3",
                "--d", "5", "--seed", "11"]
        assert main(args + ["--format", "edgelist", "--out", str(a)]) == 0
        assert main(args + ["--format", "bits", "--out", str(b)]) == 0
        assert Graph.from_edgelist_text(a.read_text()) == Graph.from_bitfield_bytes(
            b.read_bytes()
        )


# Runs `main` on each argument list given as JSON in argv[1] with every scipy
# import made to fail, and exits with the largest return code.
_NO_SCIPY_SCRIPT = """
import json, sys
sys.modules["scipy"] = None
from geodetect.cli import main
codes = [main(args) for args in json.loads(sys.argv[1])]
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy" and sys.modules[m])
print("scipy modules:", loaded)
sys.exit(max(codes) or bool(loaded))
"""


class TestNumpyOnlyRuntime:
    def test_commands_run_without_scipy(self, tmp_path):
        configs = {
            "sweep.ini": "[model]\nn = 40\np = 0.3\nd = 16\nk = 30\n[sweep]\nd = 16,64\n"
            "[run]\ntrials = 20\n[test.global-triangle]\n",
            "wishart.ini": "[wishart]\nk = 20\nd = 12\nn = 16\ncommunity_size = 8\n"
            "p = 0.5\ntrials = 50\n",
            "lowdeg.ini": "[model]\nn = 40\np = 0.3\nd = 4\nk = 20\n"
            "[lowdeg]\nv_max = 4\ndegree_cap = 10\ntrials = 500\n",
        }
        for name, text in configs.items():
            (tmp_path / name).write_text(text)
        runs = [
            ["--strict", "sweep", "--config", str(tmp_path / "sweep.ini"),
             "--out", str(tmp_path / "sweep.csv")],
            ["wishart", "--config", str(tmp_path / "wishart.ini"),
             "--out", str(tmp_path / "wishart.json")],
            ["lowdeg", "--config", str(tmp_path / "lowdeg.ini"),
             "--out", str(tmp_path / "lowdeg.json")],
        ]
        src = Path(geodetect.__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, "-c", _NO_SCIPY_SCRIPT, json.dumps(runs)],
            cwd=tmp_path, env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True,
            timeout=600,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "scipy modules: []" in proc.stdout
        assert [r["d"] for r in read_rows(tmp_path / "sweep.csv")] == ["16", "64"]
        assert json.loads((tmp_path / "wishart.json").read_text())["spectral"]["draws"] == 50
        assert json.loads((tmp_path / "lowdeg.json").read_text())["rows"]



# Runs `main` on the argument list given as JSON in argv[1] and prints its
# return code, the geodetect submodules loaded, and which of the standard
# modules that only some commands need were loaded.
_LOAD_SET_SCRIPT = """
import json, sys
from geodetect.cli import main
code = main(json.loads(sys.argv[1]))
print(json.dumps({
    "code": code,
    "geodetect": sorted(m for m in sys.modules if m.startswith("geodetect.")),
    "stdlib": sorted(m for m in ("concurrent.futures", "csv", "statistics") if m in sys.modules),
    "unused": sorted(m for m in ("concurrent.futures", "logging", "numpy.ma", "numpy.polynomial")
                     if m in sys.modules),
}))
"""

_FLAG_ONLY = ["geodetect.cli", "geodetect.graphs", "geodetect.sphere"]
_ROWS = sorted([*_FLAG_ONLY, "geodetect.detection", "geodetect.stats"])


class TestCommandLoadSet:
    """Each process loads only the modules its command runs."""

    CONFIGS = {
        "rows.ini": "[model]\nn = 20\np = 0.3\nd = 8\nk = 10\n[run]\ntrials = 2\n"
        "[test.global-triangle]\n",
        "lowdeg.ini": "[model]\nn = 20\np = 0.3\nd = 4\nk = 10\n"
        "[lowdeg]\nv_max = 3\ndegree_cap = 3\ntrials = 100\n",
        "wishart.ini": "[wishart]\nk = 4\nd = 8\nn = 8\ncommunity_size = 4\ntrials = 2\n",
    }

    @staticmethod
    def _run(tmp_path, script, *args):
        src = Path(geodetect.__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, "-c", script, *args], cwd=tmp_path,
            env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        return json.loads(proc.stdout.splitlines()[-1])

    @pytest.mark.parametrize("argv, loaded", [
        ("tau --p 0.3 --d 8", _FLAG_ONLY),
        ("cycle-expectation --ell 3 --p 0.3 --d 8", _FLAG_ONLY),
        ("sample --model planted --n 12 --p 0.3 --out g.txt", _FLAG_ONLY),
        ("test --config rows.ini --out test.csv", _ROWS),
        ("sweep --config rows.ini --out sweep.csv", _ROWS),
        ("lowdeg --config lowdeg.ini --out lowdeg.json", sorted([*_FLAG_ONLY, "geodetect.lowdeg"])),
        ("wishart --config wishart.ini --out wishart.json",
         sorted([*_FLAG_ONLY, "geodetect.ensembles", "geodetect.stats"])),
    ], ids=["tau", "cycle-expectation", "sample", "test", "sweep", "lowdeg", "wishart"])
    def test_command_loads_its_modules(self, tmp_path, argv, loaded):
        for name, text in self.CONFIGS.items():
            (tmp_path / name).write_text(text)
        report = self._run(tmp_path, _LOAD_SET_SCRIPT, json.dumps(argv.split()))
        assert report["code"] == 0
        assert report["geodetect"] == loaded
        assert report["unused"] == []  # at the default of one worker
        if argv.startswith("lowdeg"):
            assert report["stdlib"] == []

    def test_bare_import_loads_no_submodule(self, tmp_path):
        script = (
            "import json, sys, geodetect\n"
            "before = sorted(m for m in sys.modules if m.startswith('geodetect.'))\n"
            "stats = geodetect.stats\n"
            "print(json.dumps([before, stats is sys.modules['geodetect.stats'],\n"
            "                  callable(stats.signed_triangle_count)]))\n"
        )
        assert self._run(tmp_path, script) == [[], True, True]
        with pytest.raises(AttributeError, match="no attribute 'nope'"):
            geodetect.nope
