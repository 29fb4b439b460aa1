"""Exit codes and outputs of the `geodetect` command on PATH.

    python tests/console_checks.py

Each row is a command line, an optional config (passed as --config), the exit
code, whether the --out path must be left as found (absent, or holding
`before`), and an optional check of the output, read as JSON or CSV rows.  A
row that exits 2 must print a `config error:` line and no traceback.  Rows run
in fresh directories outside the checkout, so the installed package is the one
imported, and `python` rows in fresh interpreters.  Exits 1 after naming every
failed row.
"""

import csv
import json
import math
import shlex
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Callable, NamedTuple


class Row(NamedTuple):
    command: str  # shell words: geodetect ..., or python -c ...
    config: str | None = None
    code: int = 0
    untouched: bool = False  # the --out path is left as it was found
    before: str | None = None  # text at the --out path before the run
    check: Callable[[object], bool] | None = None  # of the parsed --out file


def model(n, d, k, p="0.3") -> str:
    return f"[model]\nn = {n}\np = {p}\nd = {d}\nk = {k}\n"


def lowdeg_crosscheck(report) -> bool:
    # the rule perfbench/measure.py::check_lowdeg applies
    tri = report["triangle_crosscheck"]
    return (math.isfinite(report["advantage"]) and bool(report["rows"])
            and abs(tri["phi"] - tri["series_predicted"]) <= 6 * tri["stderr"])


def one_finite_row(rows) -> bool:
    return len(rows) == 1 and math.isfinite(float(rows[0]["threshold"]))


def wishart_report(report) -> bool:
    marginals = report["route_check"]["edge_marginal"].values()
    return (report["spectral"]["draws"] == 50 and report["k1_deviation"] == 0.0
            and len(marginals) == 2 and all(map(math.isfinite, marginals)))


# the Gauss-Legendre rule and q99 redo numpy's arithmetic: a newer numpy that
# changes either rule must fail here, before it moves a threshold unnoticed
NUMPY_RULES = (
    "import numpy as np; from geodetect.cli import _q99; from geodetect.sphere import _panel_rule; "
    "v = np.random.default_rng(5).standard_normal(12345); "
    'assert b"".join(a.tobytes() for a in _panel_rule(64)) '
    '== b"".join(a.tobytes() for a in np.polynomial.legendre.leggauss(64)) '
    "and _q99(v) == float(np.quantile(v, 0.99))"
)

# the installed package keeps its lazy hook: a bare import loads no submodule
LAZY_IMPORT = (
    'import sys, geodetect; bare = [m for m in sys.modules if m.startswith("geodetect.")]; '
    'sys.exit(bool(bare) or geodetect.sphere is not sys.modules["geodetect.sphere"])'
)

# d = 4 < v = 5 also takes the latent fallback of the lowdeg Monte Carlo
LOWDEG = "[lowdeg]\nv_max = 5\ndegree_cap = 10\ntrials = 2000\n"
# communities of 27-33 members: d = 16 < |S| draws latents, d = 64 >= |S|
# takes the Bartlett Gram route
SWEEP = model(40, 16, 30) + "[sweep]\nd = {d}\n[run]\ntrials = 20\n[test.global-triangle]\n"
SWEEP_HEADER = ("n,p,d,k,test,threshold,type1,type1_hw,type2,type2_hw,excluded,trials,seed,"
                "version,wall_ms")
# d = 12 < k = 20 draws the spherical Wishart on latents, while the composite
# Wishart block of 8 members takes the Bartlett route (12 >= 8)
WISHART = "[wishart]\nk = 20\nd = 12\nn = 16\ncommunity_size = 8\np = 0.5\ntrials = 50\n"

ROWS = (
    Row(f"python -c {shlex.quote(NUMPY_RULES)}"),
    Row(f"python -c {shlex.quote(LAZY_IMPORT)}"),
    Row("geodetect lowdeg --out lowdeg.json", model(40, 4, 20) + LOWDEG, check=lowdeg_crosscheck),
    Row("geodetect lowdeg", model(40, 4, 20) + "[lowdeg]\ntrials = 0\n", code=2),
    # p > 1/2 runs with a null triangle cross-check (the series needs p <= 1/2);
    # p = 1 is a config error, before the report is opened
    Row("geodetect --strict lowdeg --trials 200 --out lowdeg-dense.json",
        model(40, 4, 20, p="0.6") + LOWDEG, check=lambda r: r["triangle_crosscheck"] is None),
    Row("geodetect lowdeg --out lowdeg-full.json", model(40, 4, 20, p="1") + LOWDEG,
        code=2, untouched=True),
    # lowdeg reads [run] seed as test and sweep do
    Row("geodetect lowdeg --trials 200 --out lowdeg-seed.json",
        model(40, 4, 20) + LOWDEG + "[run]\nseed = 7\n", check=lambda r: r["seed"] == 7),
    # a [test.*] section and a row flag are checked as strictly, before the CSV is opened
    Row("geodetect test --out cycle-bad.csv", model(20, 16, 10) + "[test.cycle]\n",
        code=2, untouched=True),
    Row("geodetect test --out trials-bad.csv --trials 0",
        model(20, 16, 10) + "[test.global-triangle]\n", code=2, untouched=True),
    # 6-cycles are counted in O(n^3) at any n; lengths past 7 are config errors
    Row("geodetect test --out cycle-70.csv --trials 20",
        model(70, 16, 10) + "[test.cycle]\nell = 6\n", check=one_finite_row),
    Row("geodetect test --out cycle-8.csv", model(70, 16, 10) + "[test.cycle]\nell = 8\n",
        code=2, untouched=True),
    # the constrained exhaustive scan scores its wedge sums per prefix, and --strict passes
    Row("geodetect --strict test --out constrained-scan.csv --trials 10",
        model(20, 16, 7) + "[test.constrained-scan]\nmode = exhaustive\n", check=one_finite_row),
    # an exhaustive scan past its subset limit (C(60, 27) > 1e7) is a config error,
    # not a nan row, with or without --strict, before the CSV is opened
    *(Row(f"geodetect {strict}test --out scan-big.csv",
          model(60, 16, 30) + "[test.scan]\nmode = exhaustive\n", code=2, untouched=True)
      for strict in ("", "--strict ")),
    # an output path that cannot be opened, here a directory, is a config error
    Row("geodetect test --out . --trials 2", model(20, 16, 10) + "[test.global-triangle]\n",
        code=2),
    Row("geodetect lowdeg --out .", model(40, 4, 20) + LOWDEG, code=2),
    Row("geodetect wishart --out .", WISHART, code=2),
    # --strict must pass on both points
    Row("geodetect --strict sweep --out sweep.csv", SWEEP.format(d="16,64"),
        check=lambda rows: ",".join(rows[0].keys()) == SWEEP_HEADER
        and [r["d"] for r in rows] == ["16", "64"]),
    # logrange:4:6:5 rounds to d = 4, 4, 5, 5, 6: each point runs once
    Row("geodetect sweep --out sweep-repeat.csv", SWEEP.format(d="logrange:4:6:5"),
        check=lambda rows: [r["d"] for r in rows] == ["4", "5", "6"]),
    # --resume refuses a file that is not a geodetect CSV and leaves it as it was
    Row("geodetect sweep --out foreign.csv --resume", SWEEP.format(d="16,64"),
        code=2, untouched=True, before="a,b\n1,2\n"),
    # the flag-only commands exit 2 on a value the library refuses
    Row("geodetect tau --p 0 --d 8", code=2),
    Row("geodetect cycle-expectation --ell 3 --p 0.7 --d 8", code=2),
    # a geometric graph needs a vertex, as a null one does
    Row("geodetect sample --model geometric --n 0 --p 0.3 --out g.txt", code=2, untouched=True),
    Row("geodetect wishart --out wishart.json", WISHART, check=wishart_report),
    # one vertex has no pair: n = 1 is a config error, before the report is opened
    Row("geodetect wishart --out wishart-n1.json", WISHART.replace("n = 16", "n = 1"),
        code=2, untouched=True),
    # p is read only with n: p without n is a config error, before the report is opened
    Row("geodetect wishart --out wishart-p.json",
        WISHART.replace("n = 16\ncommunity_size = 8\n", ""), code=2, untouched=True),
)


def _parsed(path):
    if path.suffix == ".json":
        return json.loads(path.read_text())
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def check(row: Row, work: Path) -> list:
    """The row's failures, as lines to print; none when it passes."""
    argv = shlex.split(row.command)
    if argv[0] == "python":  # this script's interpreter, the one the package is installed in
        argv[0] = sys.executable
    if row.config is not None:
        (work / "config.ini").write_text(row.config)
        argv += ["--config", "config.ini"]
    out = work / argv[argv.index("--out") + 1] if "--out" in argv else None
    if row.before is not None:
        out.write_text(row.before)
    done = subprocess.run(argv, cwd=work, capture_output=True, text=True)
    problems = [] if done.returncode == row.code else [f"exited {done.returncode}, not {row.code}"]
    errors = done.stderr.splitlines()
    if row.code == 2 and ("Traceback" in done.stderr
                          or not any(line.startswith("config error:") for line in errors)):
        problems.append("no config error line, or a traceback")
    if row.untouched and (out.read_text() if out.exists() else None) != row.before:
        problems.append(f"{out.name} was created or changed")
    try:
        if row.check is not None and done.returncode == 0 and not row.check(_parsed(out)):
            problems.append(f"{out.name} fails the row's check")
    except Exception as exc:  # a missing file or key fails the row, as a False does
        problems.append(f"{out.name} fails the row's check: {exc!r}")
    if problems:
        problems += [f"stderr: {line}" for line in errors[-20:]]
    return problems


def main() -> int:
    if shutil.which("geodetect") is None:
        print("no geodetect command on PATH: install the package first", file=sys.stderr)
        return 2
    failed = []
    with tempfile.TemporaryDirectory() as tmp:
        for i, row in enumerate(ROWS):
            work = Path(tmp, str(i))
            work.mkdir()
            problems = check(row, work)
            name = row.command if len(row.command) <= 100 else row.command[:97] + "..."
            print("FAIL" if problems else "ok  ", name, flush=True)
            print("".join(f"    {line}\n" for line in problems), end="")
            if problems:
                failed.append(name)
    if failed:
        print("failed rows:", *failed, sep="\n  ")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
