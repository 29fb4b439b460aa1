"""Seeded benchmark of the `geodetect` command-line runs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Each workload is one or more `geodetect` CLI invocations on configs generated
into a scratch directory under `.perfbench/`.  The load is a closed loop: one
client, one invocation at a time, each in a fresh process (`child.py`),
repeated in rounds until S seconds have passed.  Round r passes the toolkit a
master seed derived from (workload, seed, r), so the seed fixes every input
and a run's medians average over the graphs of several rounds.  BLAS threads
are pinned to min(nproc, 2), the size of the machine the workloads were sized
on, and the value is recorded.

With --trace 0 the run reports the end-to-end metrics, medians over rounds:

    wall_s        wall time of a round's invocations, spawn to exit
    setup_s       spawn until `import geodetect` and config parsing are done
                  (median over set-up-only spawns and every invocation)
    cpu_s         user + sys CPU seconds of the child processes
    peak_rss_mib  peak resident memory of the largest child in a round
    ok_frac       1 - failed_frac: operations that passed their checks

An operation is one CSV row, or one JSON report for `lowdeg` and `wishart`.
It fails on a non-zero exit, a check of the output that does not hold, or an
output digest (sha256 of the outputs, CSV without `wall_ms`) that differs
between reruns of a round (traced, --workers 2) or from an earlier run of the
same code, seed and round in this checkout.  failed_frac itself is printed and
is the `failed`/`attempted` pair of the result line; the gated metric is its
complement because a gated metric must never read 0.

With --trace 1 each round runs the invocations untraced, traced (spans around
the public functions of every layer; see child.py) and with --workers 2, and
the run reports the per-layer metrics derived from the spans, the tracing
overhead and the --workers 2 speed-up.

Seeds 1-10 were used while the workloads were built; claims should also be
checked on a held-out seed such as 1001.  Every run writes
`.perfbench/results/BENCH_<workload>_s<seed>_t<trace>.json` with the machine
record, raw samples and digests, and a traced run also writes its spans to
`SPANS_<workload>_s<seed>.json` there; the last line of standard output is the
result as one JSON object.  `baseline.json` holds the figures of the commit
that added this benchmark.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import select
import signal
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import measure

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
BASELINE = HERE / "baseline.json"

SETUP_SPAWNS = 5          # set-up-only spawns per run, besides every invocation
DEADLINE_S = 170.0        # a run stops starting rounds well before 180 s
BLAS_THREADS = max(1, min(len(os.sched_getaffinity(0)), 2))


@dataclass(frozen=True)
class Invocation:
    """One CLI invocation of a workload and the check of its output."""

    label: str
    command: str
    config: str
    output: str            # "csv" or "json"
    ops: int               # operations expected in the output
    check: Callable        # (text, cli_seed) -> problems per operation, or None


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    invocations: tuple
    workers2: tuple        # labels rerun with --workers 2 in the traced run


def _csv_check(tests, trials):
    return lambda text, seed: measure.check_csv(text, tests, trials, seed)


def _json_check(fn, *args):
    def check(text, seed):
        report = measure.load_json(text)
        return None if report is None else [fn(report, *args)]
    return check


# Trial counts keep a round to a few seconds.  Scan-cycle needs 12 and 16: with
# fewer, every planted trial of a round can fall outside [k_minus, k_plus]
# (probability above 1e-5), which makes type2 nan and the operation fail.
# Scan-cycle A uses two local-search restarts, which halves its seed-to-seed
# spread.  lowdeg runs one full 65,536-sample chunk per graph.
TRI_TRIALS, SCAN_A_TRIALS, SCAN_B_TRIALS = 50, 12, 16
LOWDEG_TRIALS, WISHART_TRIALS = 65_536, 1000

WORKLOADS = {w.name: w for w in (
    Workload(
        "triangle-sweep",
        "documented sweep; samplers on both sides of the latent/Gram switch and "
        "one signed-matrix build per triangle count",
        (Invocation("sweep", "sweep", f"""
[model]
n = 300
p = 0.3
d = 4
k = 150
[sweep]
d = logrange:4:1e8:9
[run]
trials = {TRI_TRIALS}
[test.global-triangle]
""", "csv", 9, _csv_check(["global-triangle"] * 9, TRI_TRIALS)),),
        ("sweep",),
    ),
    Workload(
        "scan-cycle",
        "cycle enumeration, local-search and exhaustive scans and the wedge "
        "matrix at small n, where sampling is a minor share",
        (Invocation("A", "test", f"""
[model]
n = 64
p = 0.3
d = 16
k = 26
[run]
trials = {SCAN_A_TRIALS}
[test.scan]
mode = local-search
restarts = 2
[test.constrained-scan]
mode = local-search
restarts = 2
cycle_constant = auto
[test.cycle]
ell = 4
""", "csv", 3, _csv_check(["scan", "constrained-scan", "cycle"], SCAN_A_TRIALS)),
         Invocation("B", "test", f"""
[model]
n = 20
p = 0.3
d = 16
k = 7
[run]
trials = {SCAN_B_TRIALS}
[test.scan]
mode = exhaustive
[test.cycle]
ell = 5
""", "csv", 2, _csv_check(["scan", "cycle"], SCAN_B_TRIALS))),
        ("A",),
    ),
    Workload(
        "lowdeg",
        "Fourier Monte Carlo and isomorphism enumeration on the materialised-"
        "latent route; no graph samplers, matrix builds or triangle kernels",
        (Invocation("lowdeg", "lowdeg", f"""
[model]
n = 200
p = 0.3
d = 64
k = 100
[lowdeg]
v_max = 5
degree_cap = 7
trials = {LOWDEG_TRIALS}
""", "json", 1, _json_check(measure.check_lowdeg, LOWDEG_TRIALS, 19)),),
        ("lowdeg",),
    ),
    Workload(
        "matrix-route",
        "the only run of the ensembles module; one uncached threshold solve "
        "per composite draw",
        (Invocation("wishart", "wishart", f"""
[wishart]
k = 20
d = 2000
n = 40
community_size = 20
p = 0.3
trials = {WISHART_TRIALS}
""", "json", 1, _json_check(measure.check_wishart, WISHART_TRIALS, 0.3, 40)),),
        ("wishart",),
    ),
)}


# -- one invocation ----------------------------------------------------------

@dataclass
class Call:
    label: str
    wall: float
    cpu: float
    rss_mib: float
    setup: float | None
    code: int
    text: str | None
    spans: list | None
    problems: list | None = None
    digest: str | None = None


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


class Runner:
    """Spawns invocations of one workload inside a scratch directory."""

    def __init__(self, workload: Workload, workdir: Path, deadline: float):
        self.workload = workload
        self.workdir = workdir
        self.deadline = deadline
        self.env = _child_env()
        self.count = 0
        for inv in workload.invocations:
            (workdir / f"{inv.label}.ini").write_text(inv.config.lstrip())

    def call(self, inv: Invocation, cli_seed: int, *, trace=False, setup_only=False,
             workers=None) -> Call:
        self.count += 1
        stem = self.workdir / f"{inv.label}-{self.count}"
        out = stem.with_suffix("." + inv.output)
        meta = stem.with_suffix(".meta")
        cmd = [sys.executable, str(HERE / "child.py"), "--src", str(SRC), "--meta", str(meta)]
        cmd += ["--trace"] * trace + ["--setup-only"] * setup_only
        cmd += ["--", inv.command, "--config", str(self.workdir / f"{inv.label}.ini"),
                "--seed", str(cli_seed), "--out", str(out)]
        if workers is not None:
            cmd += ["--workers", str(workers)]
        with open(stem.with_suffix(".log"), "w") as log:
            start = time.monotonic()
            proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    env=self.env, cwd=self.workdir)
            try:
                pidfd = os.pidfd_open(proc.pid)
                try:
                    done, _, _ = select.select([pidfd], [], [],
                                               max(1.0, self.deadline - start))
                finally:
                    os.close(pidfd)
                if not done:
                    proc.kill()
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:   # interrupted: leave no child behind
                proc.kill()
                proc.wait()
                raise
            wall = time.monotonic() - start
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        info = {}
        if meta.exists():
            info = measure.load_json(meta.read_text()) or {}
        text = out.read_text() if out.exists() else None
        ready = info.get("ready")
        call = Call(
            label=inv.label, wall=wall, cpu=usage.ru_utime + usage.ru_stime,
            rss_mib=usage.ru_maxrss / 1024.0,
            setup=ready - start if (ready is not None and code == 0) else None,
            code=code, text=text, spans=info.get("spans"),
        )
        if not setup_only:
            if code == 0 and text is not None:
                try:
                    call.problems = inv.check(text, cli_seed)
                except (KeyError, TypeError, ValueError, AttributeError) as exc:
                    sys.stderr.write(f"{inv.label}: malformed output: {exc!r}\n")
                call.digest = measure.output_digest([(inv.output, text)])
            if code != 0:
                tail = stem.with_suffix(".log").read_text()[-2000:]
                sys.stderr.write(f"{inv.label}: exit {code}\n{tail}\n")
        for path in (out, meta):
            path.unlink(missing_ok=True)
        return call

    def round(self, cli_seed: int, labels=None, **kwargs) -> list[Call]:
        return [self.call(inv, cli_seed, **kwargs) for inv in self.workload.invocations
                if labels is None or inv.label in labels]


# -- bookkeeping -------------------------------------------------------------

@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    notes: list = field(default_factory=list)
    reference: dict = field(default_factory=dict)   # (round, label) -> digest

    def add(self, workload: Workload, r: int, calls: list[Call]):
        """Count the operations of round r's calls; every rerun of round r
        (traced, --workers 2) must reproduce its first output digest."""
        ops = {inv.label: inv.ops for inv in workload.invocations}
        for call in calls:
            problems = call.problems
            if problems is not None and call.digest is not None:
                ref = self.reference.setdefault((r, call.label), call.digest)
                if call.digest != ref:
                    problems = [p + ["output digest differs from the untraced run"]
                                for p in problems]
            attempted, failed = measure.count_failures(ops[call.label], problems)
            self.attempted += attempted
            self.failed += failed
            if problems is None:
                self.notes.append(f"round {r} {call.label}: exit {call.code}, no usable output")
            else:
                self.notes += [f"round {r} {call.label} op {i}: {'; '.join(p)}"
                               for i, p in enumerate(problems) if p]


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "geodetect").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def machine_record() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu_model = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next((ln.split(":", 1)[1].strip() for ln in fh
                              if ln.startswith("model name")), None)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_available": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "git_commit": _git_commit(),
        "source_sha256": source_digest(),
    }


def _check_earlier_runs(digests: dict) -> list[str]:
    """Record round digests of this code; return the keys an earlier run
    of the same code, workload, seed and round recorded differently."""
    store = STATE / "digests.json"
    seen = (measure.load_json(store.read_text()) or {}) if store.exists() else {}
    differ = [key for key, digest in digests.items() if seen.setdefault(key, digest) != digest]
    tmp = store.with_suffix(".tmp")
    tmp.write_text(json.dumps(seen, indent=1, sort_keys=True))
    tmp.replace(store)
    return differ


def _baseline_digest(workload: str, seed: int):
    if not BASELINE.exists():
        return None
    base = measure.load_json(BASELINE.read_text()) or {}
    return base.get("digests", {}).get(workload, {}).get(str(seed))


# -- one workload ------------------------------------------------------------

def cli_seed_for(workload: str, seed: int, r: int) -> int:
    """The toolkit's master seed for round r of a run; each round draws fresh
    graphs, so a run's median averages over the inputs of several rounds."""
    return random.Random(f"{workload}:{seed}:{r}").randrange(2**31)


def bench(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    started = time.monotonic()
    STATE.mkdir(exist_ok=True)
    (STATE / "work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=STATE / "work"))
    runner = Runner(workload, workdir, started + DEADLINE_S)
    tally = Tally()
    rounds, traced, workers2, setups = [], [], [], []
    try:
        first, seed0 = workload.invocations[0], cli_seed_for(workload.name, seed, 0)
        runner.call(first, seed0, setup_only=True)   # warm-up: byte-compile, page cache
        for _ in range(SETUP_SPAWNS):
            setups.append(runner.call(first, seed0, setup_only=True).setup)
        while True:
            r = len(rounds)
            cli_seed = cli_seed_for(workload.name, seed, r)
            rounds.append(runner.round(cli_seed))
            tally.add(workload, r, rounds[-1])
            if trace:
                traced.append(runner.round(cli_seed, trace=True))
                tally.add(workload, r, traced[-1])
                workers2.append(runner.round(cli_seed, workload.workers2, workers=2))
                tally.add(workload, r, workers2[-1])
            now = time.monotonic()
            per_round = (now - started) / len(rounds)
            if now - started >= seconds or now + per_round > started + DEADLINE_S:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    digests = [measure.output_digest([(inv.output, call.text or "") for inv, call
                                      in zip(workload.invocations, calls)])
               for calls in rounds]
    if tally.failed == 0:
        source = source_digest()
        differ = _check_earlier_runs(
            {f"{source}|{workload.name}|{seed}|{r}": d for r, d in enumerate(digests)})
        if differ:
            tally.failed = tally.attempted
            tally.notes += [f"digest of {key} differs from an earlier run" for key in differ]

    setups += [c.setup for calls in rounds for c in calls]
    setups = [s for s in setups if s is not None]
    walls = [sum(c.wall for c in calls) for calls in rounds]
    e2e = {
        "wall_s": (measure.median(walls), "s"),
        "setup_s": (measure.median(setups) if setups else float("nan"), "s"),
        "cpu_s": (measure.median([sum(c.cpu for c in calls) for calls in rounds]), "s"),
        "peak_rss_mib": (measure.median([max(c.rss_mib for c in calls) for calls in rounds]),
                         "MiB"),
        "ok_frac": (1.0 - measure.failed_frac(tally.attempted, tally.failed), "fraction"),
    }
    result = {
        "workload": workload.name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "rounds": len(rounds), "attempted": tally.attempted, "failed": tally.failed,
        "failed_frac": measure.failed_frac(tally.attempted, tally.failed),
        "digest": digests[0], "baseline_digest": _baseline_digest(workload.name, seed),
        "round_digests": digests, "problems": tally.notes[:50],
        "samples": {"wall_s": walls, "setup_s": setups,
                    "calls": [[(c.label, c.wall, c.cpu, c.rss_mib) for c in calls]
                              for calls in rounds]},
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()},
        "machine": machine_record(),
    }
    if trace:
        result["per_layer"] = _per_layer(workload, rounds, traced, workers2)
        # one row per span: run id (one invocation), index, name, start, end,
        # parent index within the same run id, note
        result["spans"] = [[f"{workload.name}/s{seed}/r{r}/{call.label}", i, *span]
                           for r, calls in enumerate(traced) for call in calls
                           for i, span in enumerate(call.spans or [])]
    return result


UNITS = {"gflop_s": "GFLOP/s", "per_s": "1/s", "_s": "s", "_ms": "ms", "calls": "count",
         "quad_nodes": "count", "series_terms": "count", "samples": "count", "rows": "count"}


def _unit(name: str) -> str:
    return next((unit for suffix, unit in UNITS.items() if name.endswith(suffix)), "ratio")


def _per_layer(workload, rounds, traced, workers2) -> dict:
    per_round = []
    for calls in traced:
        tally = measure.LayerTally()
        for call in calls:
            tally.add(call.spans or [])
        metrics = measure.layer_metrics(tally)
        metrics["cli.rows"] = float(sum(len(c.problems or []) for c in calls))
        per_round.append(metrics)
    layer = {name: measure.median([m[name] for m in per_round]) for name in per_round[0]}

    def wall(batch, labels=None):
        return measure.median([sum(c.wall for c in calls if labels is None or c.label in labels)
                               for calls in batch])

    layer["cli.workers2_speedup"] = wall(rounds, workload.workers2) / wall(workers2)
    layer["trace.overhead_s"] = wall(traced) - wall(rounds)
    return {k: {"value": v, "unit": _unit(k)} for k, v in sorted(layer.items())}


# -- reporting ---------------------------------------------------------------

def describe(result: dict) -> list[str]:
    lines = [f"workload {result['workload']}  seed {result['seed']}  "
             f"rounds {result['rounds']}  "
             f"blas threads {result['machine']['blas_threads']}"]
    walls = result["samples"]["wall_s"]
    tail = measure.tail_percentile(len(walls))
    for name, m in result["end_to_end"].items():
        lines.append(f"  {name:<14} {m['value']:.6g} {m['unit']}")
    lines.append(f"  {'failed_frac':<14} {result['failed_frac']:.6g} fraction "
                 f"({result['failed']} of {result['attempted']} operations)")
    lines.append(f"  wall_s over {len(walls)} rounds: median "
                 + (f"{measure.median(walls):.4f}, p{tail:g} {measure.percentile(walls, tail):.4f}"
                    if tail else f"{measure.median(walls):.4f} (too few rounds for a tail "
                                 "percentile with ten samples beyond it)"))
    base = result["baseline_digest"]
    same = "n/a" if base is None else ("same" if base == result["digest"] else "DIFFERENT")
    lines.append(f"  output digest of round 0 {result['digest']} (baseline: {same})")
    for name, m in result.get("per_layer", {}).items():
        lines.append(f"  {name:<48} {m['value']:.6g} {m['unit']}")
    lines += [f"  problem: {note}" for note in result["problems"]]
    return lines


def summary(result: dict) -> dict:
    metrics = result["per_layer"] if result["trace"] else result["end_to_end"]
    return {"correct": result["failed"] == 0, "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="geodetect CLI benchmark")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "geodetect" / "cli.py").is_file():
        print(f"no geodetect sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    # a terminated run unwinds, so the child it waits for is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        result = bench(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        results_dir = STATE / "results"
        results_dir.mkdir(exist_ok=True)
        if args.trace:
            spans = result.pop("spans")
            (results_dir / f"SPANS_{name}_s{args.seed}.json").write_text(json.dumps(spans))
        out = results_dir / f"BENCH_{name}_s{args.seed}_t{args.trace}.json"
        out.write_text(json.dumps(result, indent=1) + "\n")
        print("\n".join(describe(result)), flush=True)
        results[name] = summary(result)
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
