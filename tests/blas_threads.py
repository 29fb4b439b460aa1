"""Seeded outputs that must be the same at 1 and 2 BLAS threads.

    python tests/blas_threads.py

Each row runs a Python snippet, or geodetect with the row's arguments on each of
its configs, with this checkout's src on the path, at OPENBLAS_NUM_THREADS = 1
and 2.  A row fails when a run exits non-zero, when the two outputs differ (CSV
rows without their last column, wall_ms), or when the 1-thread output has not
`count` lines.  A row's `points` configs also run one per process, and their
header and rows must be the 1-thread output.  Exits 1 after naming every failed row.
"""

import difflib
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

SRC = Path(__file__).resolve().parent.parent / "src"


class Row(NamedTuple):
    name: str
    run: str  # a Python snippet, or the CLI arguments each config runs with
    configs: tuple = ()
    count: int | None = None  # lines of output the 1-thread run must give
    points: tuple = ()  # configs of a sweep's points, each run on its own


def model(n, d, k) -> str:
    return f"[model]\nn = {n}\np = 0.3\nd = {d}\nk = {k}\n"


TRIANGLES = """
# the ell = 3 cycle count is the same statistic, equal to the last bit
from geodetect.graphs import ModelParams, Seed, sample_null, sample_planted
from geodetect.stats import signed_cycle_count, signed_triangle_count
seed, params = Seed(13), ModelParams(n=300, p=0.3, d=16, k=60)
for t in range(20):
    null = sample_null(params.n, params.p, seed.stream(t, arm=0))
    planted = sample_planted(params, seed.stream(t, arm=1)).graph
    line = [t]
    for g in (null, planted):
        tri, cyc = signed_triangle_count(g, params.p), signed_cycle_count(g, params.p, 3)
        assert cyc == tri, (t, tri, cyc)
        line += [repr(tri), repr(cyc)]
    print(*line)
"""

SCANS = """
# values and subsets of the prefix-pair scan, with and without the wedge
# constraint, and of the lockstep local search: scan-cycle's k_minus = 23
# at n = 64, plain and under a tight constraint, and k_minus = 70 at
# n = 200, where the stacked products run threaded
from geodetect.graphs import Seed, sample_null
from geodetect.stats import ScanConfig, constrained_scan_statistic, scan_statistic
seed = Seed(17)
plain, tight = ScanConfig(k_minus=6), ScanConfig(k_minus=6, sigma_sq=2.0, B=1.0)
local = ScanConfig(23, "local-search", 2)
local_tight = ScanConfig(23, "local-search", 2, sigma_sq=8.0, B=1.5)
wide = ScanConfig(70, "local-search", 2)
runs = [(22, plain, tight)] * 20 + [(64, local, local_tight)] * 4 + [(200, wide, None)] * 2
for t, (n, cfg, constrained) in enumerate(runs):
    g = sample_null(n, 0.3, seed.stream(t))
    line = [t]
    for scan, c in ((scan_statistic, cfg), (constrained_scan_statistic, constrained)):
        value, subset = (None, None) if c is None else scan(g, 0.3, c)
        line += [repr(value), repr(None if subset is None else subset.tolist())]
    print(*line)
"""

ORACLE = """
# the default scan mode: a subset's block is read from its own pairs of
# the edge field; the wedge bounds leave some planted subsets infeasible
import numpy as np
from geodetect.graphs import ModelParams, Seed, sample_null, sample_planted_fixed_size
from geodetect.stats import ScanConfig, constrained_scan_statistic, scan_statistic, wedge_sums
seed, params = Seed(19), ModelParams(n=300, p=0.3, d=16, k=60)
plain = ScanConfig(params.k_minus, "planted-oracle")
tight = ScanConfig(params.k_minus, "planted-oracle", sigma_sq=1900.0, B=8.0)
for t in range(20):
    null = sample_null(params.n, params.p, seed.stream(t, arm=0))
    planted = sample_planted_fixed_size(params.k, params, seed.stream(t, arm=1))
    line = [t]
    for g, subset in (
        (null, np.arange(params.k_minus)),
        (planted.graph, np.flatnonzero(planted.community)[: params.k_minus]),
    ):
        value, _ = scan_statistic(g, params.p, plain, subset)
        constrained, _ = constrained_scan_statistic(g, params.p, tight, subset)
        total = sum(wedge_sums(g, params.p, subset).values())
        line += [repr(value), repr(constrained), repr(total)]
    print(*line)
"""


# the lowdeg benchmark workload's config at n = 200, k = 100: the rows and the
# covariance of the advantage error are read from one histogram without BLAS
LOWDEG = "[lowdeg]\nv_max = 5\ndegree_cap = 7\ntrials = 65536\n"
# the matrix-route benchmark workload's config: trials run in chunks whose
# Gram products, eigensolves and triangle counts are stacked
WISHART = "[wishart]\nk = 20\nd = 2000\nn = 40\ncommunity_size = 20\np = 0.3\ntrials = 1000\n"
# the triangle-sweep benchmark model at three d: within a sweep the planted
# trials read their coins from a memo; each point run in a process of its
# own starts from a cold memo, and must give the same row
TRIANGLE_SWEEP = (model(300, 4, 150) + "[sweep]\nd = {d}\n"
                  "[run]\ntrials = 10\n[test.global-triangle]\n")
SWEEP_DS = ("4", "1000", "100000000")
# the scan-cycle benchmark workload's two configs (local-search scans with
# ell = 4 at n = 64, the exhaustive scan with ell = 5 at n = 20) and one
# ell = 4 row at n = 300; the count values themselves move in their last bits
# with the thread count, the rows must not
SCAN_CYCLE = (
    model(64, 16, 26) + "[run]\ntrials = 12\n[test.scan]\nmode = local-search\nrestarts = 2\n"
    "[test.constrained-scan]\nmode = local-search\nrestarts = 2\ncycle_constant = auto\n"
    "[test.cycle]\nell = 4\n",
    model(20, 16, 7) + "[run]\ntrials = 16\n[test.scan]\nmode = exhaustive\n"
    "[test.cycle]\nell = 5\n",
    model(300, 16, 60) + "[run]\ntrials = 20\n[test.cycle]\nell = 4\n",
)

ROWS = (
    Row("triangles", TRIANGLES, count=20),
    Row("scans", SCANS, count=26),
    Row("oracle-scans", ORACLE, count=20),
    # d = 64 takes the Bartlett route, d = 4 < v_max the latent route, whose
    # blocks' Gram products are BLAS calls
    Row("lowdeg-d64", "lowdeg", (model(200, 64, 100) + LOWDEG,)),
    Row("lowdeg-d4", "lowdeg", (model(200, 4, 100) + LOWDEG,)),
    Row("wishart", "wishart --seed 11", (WISHART,)),
    Row("triangle-sweep", "sweep --seed 3", (TRIANGLE_SWEEP.format(d=",".join(SWEEP_DS)),),
        count=4, points=tuple(TRIANGLE_SWEEP.format(d=d) for d in SWEEP_DS)),
    Row("scan-cycle", "test --seed 7", SCAN_CYCLE, count=9),
)


def _run(argv: list, threads: int | None) -> str:
    """argv's stdout, at OPENBLAS_NUM_THREADS = threads (None: as inherited)."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = str(threads)
    done = subprocess.run(argv, env=env, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {done.returncode}:\n{done.stderr}")
    return done.stdout


def output(row: Row, threads: int | None, work: Path, configs=None) -> list:
    """The row's output lines: its snippet's stdout, or its configs' output files in turn."""
    if not row.configs:
        return _run([sys.executable, "-c", row.run], threads).splitlines()
    args, cfg, out, lines = row.run.split(), work / "config.ini", work / "out", []
    for config in configs or row.configs:
        cfg.write_text(config)
        _run([sys.executable, "-m", "geodetect.cli", *args, "--config", str(cfg),
              "--out", str(out)], threads)
        csv = args[0] in ("test", "sweep")
        lines += [line.rsplit(",", 1)[0] if csv else line for line in out.read_text().splitlines()]
    return lines


def check(row: Row, work: Path) -> list:
    """The row's failures, as lines to print; none when it passes."""
    try:
        one, others = output(row, 1, work), {"2 threads": output(row, 2, work)}
        if row.points:
            parts = [output(row, None, work, [config]) for config in row.points]
            others["point by point"] = parts[0][:1] + [line for part in parts for line in part[1:]]
    except RuntimeError as exc:
        return [str(exc)]
    problems = []
    if row.count not in (None, len(one)):
        problems.append(f"{len(one)} lines at 1 thread, not {row.count}")
    for label, other in others.items():
        if other != one:
            problems += [f"1 thread against {label}:",
                         *difflib.unified_diff(one, other, "1 thread", label, lineterm="")]
    return problems


def main() -> int:
    failed = []
    with tempfile.TemporaryDirectory() as tmp:
        for row in ROWS:
            problems = check(row, Path(tmp))
            print("FAIL" if problems else "ok  ", row.name, flush=True)
            print("".join(f"    {line}\n" for line in problems), end="")
            if problems:
                failed.append(row.name)
    if failed:
        print("failed rows:", ", ".join(failed))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
