"""One `geodetect` CLI invocation in a fresh process, as the benchmark runs it.

    python3 perfbench/child.py --src SRC --meta META [--trace] [--setup-only] -- ARGS...

Imports `geodetect` from SRC, calls `geodetect.cli.main(ARGS)` (the console
script's entry point) and exits with its return code.  META receives one
JSON object, written at exit:

- `ready`: `time.monotonic()` when the first `load_config` call returned,
  i.e. when imports and config parsing were done.  The parent subtracts its
  own spawn time to get the set-up time.
- `spans`: with --trace, one `[name, start, end, parent, note]` list per call
  of a wrapped public function (see `TARGETS`), kept in memory until exit.

--setup-only stops right after config parsing, so the parent can sample
set-up time cheaply.  Library code is not modified: wrappers are bound in
every module namespace that holds the original function, which records calls
from every caller.  Spans assume a single thread, so traced runs use one worker.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import sys
import time
from pathlib import Path


def _planted_note(args, sample):
    latents = 0 if sample.latents is None else int(sample.latents.size)
    return (int(sample.community.sum()), latents)


# (module, attribute, span name, note).  A note turns a call's arguments and
# result into the number the per-layer metrics need.
TARGETS = [
    ("sphere", "solve_threshold", "sphere.solve_threshold", None),
    ("sphere", "GegenbauerBasis.build", "sphere.basis_build",
     lambda args, basis: basis.quad_nodes),
    ("sphere", "signed_cycle_expectation", "sphere.cycle_series",
     lambda args, res: res.truncation_m),
    ("graphs", "sample_null", "graphs.sample_null", None),
    ("graphs", "sample_planted", "graphs.sample_planted", _planted_note),
    ("graphs", "sample_planted_fixed_community",
     "graphs.sample_planted_fixed_community", _planted_note),
    ("graphs", "Graph.adjacency_matrix", "graphs.adjacency_matrix", None),
    ("stats", "centered_adjacency", "stats.centered_adjacency",
     lambda args, res: hash(args[0])),
    ("stats", "signed_triangle_count", "stats.signed_triangle_count",
     lambda args, res: args[0].n),
    ("stats", "signed_cycle_count", "stats.signed_cycle_count", None),
    ("stats", "scan_statistic", "stats.scan_statistic", None),
    ("stats", "constrained_scan_statistic", "stats.constrained_scan_statistic",
     lambda args, res: int(res[0] is None)),
    ("detection", "make_test_spec", "detection.make_test_spec", None),
    ("detection", "run_test", "detection.run_test", None),
    ("detection", "estimate_errors", "detection.estimate_errors", None),
    ("lowdeg", "enumerate_graphs_upto", "lowdeg.enumerate_graphs_upto", None),
    ("lowdeg", "fourier_coefficient_mc", "lowdeg.fourier_coefficient_mc",
     lambda args, est: est.trials),
    # no metric of its own: the span keeps lowdeg's glue out of cli.main's self time
    ("lowdeg", "low_degree_advantage", "lowdeg.low_degree_advantage", None),
    ("ensembles", "sample_spherical_wishart", "ensembles.sample_spherical_wishart", None),
    ("ensembles", "spectral_deviation", "ensembles.spectral_deviation", None),
    ("ensembles", "composite_planted_graph", "ensembles.composite_planted_graph", None),
    ("cli", "load_config", "cli.load_config", None),
]

# sample_planted draws its graph through sample_planted_fixed_community; that
# inner call stays part of the sample_planted span, so the fixed-community
# wrapper is bound only where other modules (the wishart command) call it.
_SKIP_OWNER = {"sample_planted_fixed_community"}


class Tracer:
    """Records a span around each call of a wrapped function."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []

    def wrap(self, name, fn, note=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[sid] = [name, start, time.perf_counter(), parent, None]
                raise
            finally:
                stack.pop()
            end = time.perf_counter()
            spans[sid] = [name, start, end, parent, note(args, result) if note else None]
            return result

        return traced


def _install(tracer, modules, owner, attr, name, note):
    if "." in attr:  # a method: rebind it on its class
        cls_name, meth = attr.split(".")
        cls = getattr(owner, cls_name)
        raw = vars(cls)[meth]
        if isinstance(raw, classmethod):
            setattr(cls, meth, classmethod(tracer.wrap(name, raw.__func__, note)))
        else:
            setattr(cls, meth, tracer.wrap(name, raw, note))
        return
    original = getattr(owner, attr)
    traced = tracer.wrap(name, original, note)
    for module in modules:
        if module is owner and attr in _SKIP_OWNER:
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, traced)


class _SetupDone(Exception):
    pass


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True)
    parser.add_argument("--meta", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    opts = parser.parse_args()
    cli_args = opts.cli_args[1:] if opts.cli_args[:1] == ["--"] else opts.cli_args

    src = Path(opts.src).resolve()
    sys.path.insert(0, str(src))
    import geodetect
    from geodetect import cli

    if not Path(geodetect.__file__).resolve().is_relative_to(src):
        print(f"geodetect was imported from {geodetect.__file__}, not {src}",
              file=sys.stderr)
        return 2

    tracer = Tracer() if opts.trace else None
    if tracer is not None:
        modules = [importlib.import_module(f"geodetect.{m}") for m in
                   ("sphere", "graphs", "stats", "detection", "lowdeg", "ensembles", "cli")]
        by_name = {m.__name__.rsplit(".", 1)[1]: m for m in modules}
        for owner, attr, name, note in TARGETS:
            _install(tracer, modules, by_name[owner], attr, name, note)

    ready = []
    inner_load = cli.load_config

    def load_config(path):
        cfg = inner_load(path)
        if not ready:
            ready.append(time.monotonic())
            if opts.setup_only:
                raise _SetupDone
        return cfg

    cli.load_config = load_config
    entry = tracer.wrap("cli.main", cli.main) if tracer is not None else cli.main
    try:
        code = entry(cli_args)
    except _SetupDone:
        code = 0
    with open(opts.meta, "w") as fh:
        json.dump({
            "ready": ready[0] if ready else None,
            "spans": tracer.spans if tracer is not None else None,
        }, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
