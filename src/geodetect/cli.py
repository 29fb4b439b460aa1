"""Command-line front end: tau, cycle-expectation, test, sweep, lowdeg, wishart, sample.

Configs are flat key = value text with one section per concern.  _SCHEMA names
every section and key with the reader that converts and range-checks its value,
so that a typo in p vs d, or a value out of range, is a config error rather
than a ruined experiment.  tau, cycle-expectation and sample read flags only;
the library checks those, and its ValueError is their config error.  Exit
codes: 0 success, 2 config error, 3 numerical failure under --strict.
test, sweep, lowdeg and wishart open their output through _output after their
last config check and before their first draw, so a path that cannot be
opened, an empty one included, exits 2 before any draw; lowdeg and wishart
print to stdout when no path is given.  sample opens its file after its draw,
which is what checks its flags.

Only graphs and sphere, which every command uses, are imported with this
module.  Each command imports the rest of its library at its top, before it
reads its config, and the readers of values capped by the library (a cycle
length, v_max, a scan mode) import the cap when they read one.  So a process
loads only what its command runs, and a function imported inside a command is
looked up in its module at the call.  test and sweep run their rows on the
calling thread at one worker, the default, and import concurrent.futures (and
with it logging) only for a pool of two or more.  wishart's q99 is numpy's
linear quantile computed here, since np.quantile imports numpy.ma.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import json
import math
import sys
import time

import numpy as np

from . import __version__
from .graphs import (
    Arm,
    ModelParams,
    Seed,
    sample_full_geometric,
    sample_null,
    sample_planted,
    sample_planted_fixed_size,
)
from .sphere import signed_cycle_expectation, solve_threshold

CSV_COLUMNS = [
    "n", "p", "d", "k", "test", "threshold", "type1", "type1_hw",
    "type2", "type2_hw", "excluded", "trials", "seed", "version", "wall_ms",
]


class ConfigError(Exception):
    pass


def _integer(lo=-math.inf, hi=math.inf):
    """Reader of an integer in [lo, hi]; scientific notation such as 2e4 is accepted."""
    def read(text: str) -> int:
        value = float(text)
        if not (value.is_integer() and lo <= value <= hi):
            raise ValueError(f"want an integer in [{lo}, {hi}]")
        return int(value)
    return read


def _real(lo=-math.inf):
    """Reader of a finite number >= lo."""
    def read(text: str) -> float:
        value = float(text)
        if not (math.isfinite(value) and value >= lo):
            raise ValueError(f"want a finite number >= {lo}")
        return value
    return read


def _seed(text: str) -> int:
    seed = int(text)  # exact: through float, 2**64 - 1 would become 2**64
    if not 0 <= seed < 2**64:
        raise ValueError("want an integer in [0, 2**64)")
    return seed


def _scan_mode(text: str) -> str:
    from .stats import ScanConfig

    return ScanConfig(k_minus=0, mode=text).mode  # ScanConfig checks the mode


def _cycle_length(text: str) -> int:
    from .stats import MAX_CYCLE_LENGTH

    return _integer(3, MAX_CYCLE_LENGTH)(text)


def _v_max(text: str) -> int:
    from .lowdeg import V_MAX

    return _integer(1, V_MAX)(text)


def _cycle_constant(text: str) -> float | None:
    """None for auto: make_test_spec then calibrates it from the ell = 3 and 4 series."""
    return None if text == "auto" else _real(0)(text)


def _axis(text: str) -> list[float]:
    """A comma list, or logrange:lo:hi:count for count geometric steps."""
    if text.startswith("logrange:"):
        _, lo, hi, count = text.split(":")
        values = np.geomspace(_real()(lo), _real()(hi), int(count))
    else:
        values = [_real()(v) for v in text.split(",") if v.strip()]
    if len(values) == 0:
        raise ValueError("want at least one value")
    return [float(v) for v in values]


_REQUIRED = object()
_SCAN = {"mode": (_scan_mode, "planted-oracle"), "restarts": (_integer(1), 8)}

# section -> key -> (reader, default); ModelParams checks [model] as a whole
_SCHEMA = {
    "model": {
        "n": (_integer(), _REQUIRED), "p": (_real(), _REQUIRED),
        "d": (_integer(), _REQUIRED), "k": (_real(), _REQUIRED),
    },
    "run": {
        "trials": (_integer(1), None), "seed": (_seed, 0),  # trials: 200 for test and sweep
        "workers": (_integer(1), 1), "out": (str, None),
    },
    "sweep": dict.fromkeys(("n", "p", "d", "k"), (_axis, None)),
    "test.global-triangle": {},
    "test.scan": _SCAN,
    "test.constrained-scan": {**_SCAN, "cycle_constant": (_cycle_constant, None)},
    "test.cycle": {"ell": (_cycle_length, _REQUIRED)},
    "lowdeg": {
        "v_max": (_v_max, 4), "degree_cap": (_integer(1), 10),
        "trials": (_integer(1), 20000),
    },
    "wishart": {
        "k": (_integer(1), 20), "d": (_integer(1), 2000), "trials": (_integer(1), 200),
        # community_size and p are read only with n: n // 2 and 0.5 when n is set alone
        "n": (_integer(2), None), "community_size": (_integer(0), None), "p": (_real(), None),
    },
}


def _convert(where: str, reader, text: str):
    try:
        return reader(text)
    except (ValueError, OverflowError) as exc:
        raise ConfigError(f"{where} = {text!r}: {exc}") from None


def _read_section(section: str, raw: dict) -> dict:
    """Typed values of one section from its raw text, defaults filled in."""
    schema = _SCHEMA.get(section)
    if schema is None:
        raise ConfigError(f"unknown section [{section}]")
    for key in raw:
        if key not in schema:
            raise ConfigError(f"unknown key {key!r} in section [{section}]")
    missing = [key for key, (_, default) in schema.items()
               if default is _REQUIRED and key not in raw]
    if missing:
        raise ConfigError(f"[{section}] is missing keys {missing}")
    return {
        key: _convert(f"[{section}] {key}", reader, raw[key]) if key in raw else default
        for key, (reader, default) in schema.items()
    }


def _model(section: str, **values) -> ModelParams:
    try:
        return ModelParams(**values)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {exc}") from None


def load_config(path: str) -> dict:
    """Every section of the file as typed values; [model] as a ModelParams."""
    parser = configparser.ConfigParser()
    try:
        if not parser.read(path):
            raise ConfigError(f"cannot read config file {path!r}")
        raw = {section: dict(parser.items(section)) for section in parser.sections()}
    except configparser.Error as exc:
        raise ConfigError(str(exc)) from None
    cfg = {section: _read_section(section, body) for section, body in raw.items()}
    if "model" in cfg:
        cfg["model"] = _model("model", **cfg["model"])
    return cfg


def _settings(cfg: dict, section: str, args, *flags) -> dict:
    """A section's typed values (its defaults if absent), with the given flags over them."""
    values = dict(cfg[section]) if section in cfg else _read_section(section, {})
    for key in flags:
        text = getattr(args, key)
        if text is not None:
            values[key] = _convert(f"[{section}] {key}", _SCHEMA[section][key][0], text)
    return values


def _json_run(cfg: dict, args, command: str) -> tuple[Seed, str | None]:
    """[run] seed and out of lowdeg and wishart, flags over them; trials is [command]'s."""
    if cfg.get("run", {}).get("trials") is not None:
        raise ConfigError(f"[run] trials is not read by {command}: set [{command}] trials")
    run = _settings(cfg, "run", args, "seed", "workers", "out")  # workers: checked only
    return Seed(run["seed"]), run["out"]


def _model_from(cfg: dict) -> ModelParams:
    if "model" not in cfg:
        raise ConfigError("config needs a [model] section")
    return cfg["model"]


def _test_sections(cfg: dict) -> list[tuple[str, dict]]:
    """(kind, make_test_spec keyword arguments) of each [test.*] section."""
    found = [
        (s.split(".", 1)[1], {("scan_mode" if k == "mode" else k): v for k, v in body.items()})
        for s, body in cfg.items() if s.startswith("test.")
    ]
    if not found:
        raise ConfigError("config defines no [test.*] section")
    return found


def _grid_points(cfg: dict, base: ModelParams) -> list[ModelParams]:
    sweep = cfg.get("sweep", {})
    axes = [sweep.get(key) or [getattr(base, key)] for key in ("n", "p", "d", "k")]
    size = math.prod(len(axis) for axis in axes)
    if size > 10_000:
        raise ConfigError(f"sweep grid has {size} points; the cap is 10000")
    return list(dict.fromkeys(  # rounding can repeat a point: keep its first place
        _model("sweep", n=round(n), p=float(p), d=round(d), k=float(k))
        for n in axes[0] for p in axes[1] for d in axes[2] for k in axes[3]
    ))


def _point_row(params: ModelParams, kind: str, options: dict, trials: int, seed: int):
    """One ResultRow; numerical failures are recorded in-row as NaNs."""
    from .detection import estimate_errors, make_test_spec

    start = time.monotonic()
    try:
        spec = make_test_spec(kind, params, **options)
        est = estimate_errors(spec, trials, Seed(seed))
        failed = any(series.failed for series in spec.series)
        row = {
            "threshold": repr(spec.threshold),
            "type1": repr(est.type1), "type1_hw": repr(est.type1_half_width),
            "type2": repr(est.type2), "type2_hw": repr(est.type2_half_width),
            "excluded": est.excluded,
        }
    except (ValueError, ArithmeticError) as exc:
        print(f"point ({params.n},{params.p},{params.d},{params.k}) {kind}: {exc}",
              file=sys.stderr)
        failed = True
        row = {
            "threshold": "nan", "type1": "nan", "type1_hw": "nan",
            "type2": "nan", "type2_hw": "nan", "excluded": 0,
        }
    wall_ms = int(1000 * (time.monotonic() - start))
    return {
        "n": params.n, "p": repr(params.p), "d": params.d, "k": repr(params.k),
        "test": kind, **row, "trials": trials, "seed": seed,
        "version": __version__, "wall_ms": wall_ms,
    }, failed


def _output(path: str | None, mode: str = "w"):
    """A config command's output: stdout (left open) without a path, else path, as csv wants it."""
    return contextlib.nullcontext(sys.stdout) if path is None else open(path, mode, newline="")


def cmd_rows(args) -> int:
    """test and sweep: one CSV row per grid point and [test.*] section."""
    import csv

    from . import detection  # noqa: F401 -- what _point_row runs, loaded before the config
    from .stats import ScanConfig

    cfg = load_config(args.config)
    base = _model_from(cfg)
    run = _settings(cfg, "run", args, "trials", "seed", "workers", "out")
    trials, seed, out_path = run["trials"] or 200, run["seed"], run["out"]
    if out_path is None:
        raise ConfigError("[run] no output path: pass --out or set out in [run]")

    points = _grid_points(cfg, base)
    kinds = _test_sections(cfg)
    for pt in points:  # the scan size is known from the config: any point over the limit decides
        for kind, options in kinds:
            if options.get("scan_mode") == "exhaustive":
                try:
                    ScanConfig(pt.k_minus).check_exhaustive(pt.n)
                except ValueError as exc:
                    raise ConfigError(f"[test.{kind}] at n = {pt.n}, k = {pt.k!r}: {exc}") from None

    done_keys = set()
    if args.resume:
        try:
            with open(out_path, newline="") as fh:
                reader = csv.DictReader(fh)
                rows = list(reader)
        except FileNotFoundError:
            reader, rows = None, []
        if reader is not None and reader.fieldnames not in (None, CSV_COLUMNS):
            raise ConfigError(f"--resume: {out_path} is not a geodetect CSV: its header "
                              f"is {reader.fieldnames}, not {CSV_COLUMNS}")
        for r in rows:  # a resumed file holds one run: a row of other trials would mix in
            if (r["seed"], r["trials"]) != (str(seed), str(trials)):
                raise ConfigError(
                    f"--resume: {out_path} has rows of seed {r['seed']} and trials "
                    f"{r['trials']}, not of seed {seed} and trials {trials}"
                )
        done_keys = {(r["n"], r["p"], r["d"], r["k"], r["test"]) for r in rows}
    mode = "a" if done_keys else "w"
    pending = [
        (pt, kind, options) for pt in points for kind, options in kinds
        if (str(pt.n), repr(pt.p), str(pt.d), repr(pt.k), kind) not in done_keys
    ]

    any_failed = False
    with _output(out_path, mode) as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
        if mode == "w":
            writer.writeheader()
            fh.flush()
        with contextlib.ExitStack() as stack:
            if run["workers"] == 1:
                mapper = map
            else:  # map yields in submission order, which keeps the output deterministic
                from concurrent.futures import ThreadPoolExecutor

                mapper = stack.enter_context(ThreadPoolExecutor(run["workers"])).map
            for row, failed in mapper(lambda job: _point_row(*job, trials, seed), pending):
                any_failed |= failed
                writer.writerow(row)
                fh.flush()
    return 3 if (args.strict and any_failed) else 0


@contextlib.contextmanager
def _flag_errors():
    """A ValueError raised inside is a config error: the library refused a flag's value."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def cmd_tau(args) -> int:
    with _flag_errors():
        res = solve_threshold(args.p, args.d)
    print(json.dumps({
        "p": res.p, "d": res.d, "tau": res.tau, "residual": res.residual,
        "upper_bound": math.sqrt(3.0 * math.log(1.0 / args.p) / args.d)
        if args.p <= 0.5 else None,
        "version": __version__,
    }))
    return 0


def cmd_cycle_expectation(args) -> int:
    with _flag_errors():
        res = signed_cycle_expectation(args.ell, args.p, args.d)
    print(json.dumps({
        "ell": res.ell, "p": res.p, "d": res.d, "value": res.value,
        "truncation_m": res.truncation_m, "tail_bound": res.tail_bound,
        "scale": res.scale, "ratio": res.ratio,
        "truncation_failed": res.truncation_failed, "quad_converged": res.quad_converged,
        "below_dimension_guard": res.below_dimension_guard,
        "version": __version__,
    }))
    return 3 if (args.strict and res.failed) else 0


def cmd_lowdeg(args) -> int:
    from .lowdeg import low_degree_advantage

    cfg = load_config(args.config)
    params = _model_from(cfg)
    section = _settings(cfg, "lowdeg", args, "trials")
    v_max, degree_cap, trials = section["v_max"], section["degree_cap"], section["trials"]
    if v_max > params.n:  # an embedding needs v <= n
        raise ConfigError(f"[lowdeg] v_max = {v_max} exceeds n = {params.n}")
    if params.p == 1.0:  # no randomness, and the normaliser p (1 - p) is 0
        raise ConfigError("[model] p = 1 is refused by lowdeg: want p < 1")
    seed, out = _json_run(cfg, args, "lowdeg")

    with _output(out) as fh:
        report = low_degree_advantage(params, v_max, degree_cap, trials, seed)
        rows = []
        triangle_row, failed = None, False
        for graph, phi, stderr, skipped in report.rows:
            rows.append({
                "v": graph.v, "e": graph.e, "code": graph.canonical_code,
                "is_forest": graph.is_forest,
                "tree_component": graph.has_tree_component,
                "phi": phi, "stderr": stderr, "skipped_analytic_zero": skipped,
            })
            # the cross-check is null where the series is undefined: p > 1/2 or d = 3
            if graph.v == 3 and graph.e == 3 and params.p <= 0.5 and params.d >= 4:
                series = signed_cycle_expectation(3, params.p, params.d)
                predicted = (
                    (params.k / params.n) ** 3 * series.value
                    / (params.p * (1 - params.p)) ** 1.5
                )
                triangle_row = {"phi": phi, "stderr": stderr, "series_predicted": predicted}
                failed = series.failed
        print(json.dumps({
            "version": __version__,
            "model": {"n": params.n, "p": params.p, "d": params.d, "k": params.k},
            "v_max": v_max, "degree_cap": degree_cap, "trials": trials, "seed": seed.master,
            "advantage": report.value, "advantage_error": report.error,
            "rows": rows, "triangle_crosscheck": triangle_row,
        }, indent=2), file=fh)
    return 3 if (args.strict and failed) else 0


def _q99(values) -> float:
    """np.quantile(values, 0.99) by numpy's default linear rule, without loading numpy.ma.

    With h = (n - 1) * 0.99, i = floor(h) and g = h - i, the value interpolates
    the sorted x[i] and x[i + 1] as numpy's _lerp does, from the nearer end.
    NaNs sort last, so any NaN gives NaN, as np.quantile does.
    """
    x = np.sort(values)
    h = (x.size - 1) * 0.99
    i = math.floor(h)
    if i >= x.size - 1 or np.isnan(x[-1]):
        return float(x[-1])
    a, b, g = x[i], x[i + 1], h - i
    return float(b - (b - a) * (1 - g) if g >= 0.5 else a + (b - a) * g)


def cmd_wishart(args) -> int:
    from .ensembles import (
        route_check,
        sample_spherical_wishart,
        spectral_deviation,
        spectral_deviations,
    )

    cfg = load_config(args.config)
    section = _settings(cfg, "wishart", args, "trials")
    k, d, trials, n = section["k"], section["d"], section["trials"], section["n"]
    if n is None:
        unread = [key for key in ("community_size", "p") if section[key] is not None]
        if unread:
            raise ConfigError(f"[wishart] {' and '.join(unread)} set without n, which reads them")
    else:
        size = n // 2 if section["community_size"] is None else section["community_size"]
        if size > n:
            raise ConfigError(f"[wishart] community_size = {size} exceeds n = {n}")
        p = 0.5 if section["p"] is None else section["p"]
        params = _model("wishart", n=n, p=p, d=d, k=max(size, 1))
    seed, out = _json_run(cfg, args, "wishart")

    with _output(out) as fh:
        deviations = spectral_deviations(k, d, trials, seed)
        ref = math.sqrt(k / d)
        spectral = {
            "k": k, "d": d, "draws": trials,
            "mean_deviation": float(np.mean(deviations)),
            "q99": _q99(deviations),
            "sqrt_k_over_d": ref,
            "within_10x_fraction": float(np.mean(deviations <= 10 * ref)),
        }
        k1 = spectral_deviation(sample_spherical_wishart(1, d, seed.stream(0, arm=Arm.WISHART_K1)))
        route = None
        if n is not None:
            route = {
                "n": n, "community_size": size, "p": params.p, "d": d, "trials": trials,
                **route_check(np.arange(size), params, trials, seed),
            }
        print(json.dumps({
            "version": __version__, "seed": seed.master,
            "spectral": spectral, "k1_deviation": k1, "route_check": route,
        }, indent=2), file=fh)
    return 0


def cmd_sample(args) -> int:
    rng = Seed(_settings({}, "run", args, "seed")["seed"]).stream(0, arm=Arm.SAMPLE)  # no config
    with _flag_errors():  # before the output file is opened
        if args.model == "null":
            graph = sample_null(args.n, args.p, rng)
        elif args.model == "geometric":
            graph, _ = sample_full_geometric(args.n, args.p, args.d, rng)
        else:  # planted: argparse admits no other model
            params = ModelParams(n=args.n, p=args.p, d=args.d, k=args.k)
            if args.community_size is not None:
                graph = sample_planted_fixed_size(args.community_size, params, rng).graph
            else:
                graph = sample_planted(params, rng).graph
    with open(args.out, "wb") as fh:
        fh.write(graph.to_edgelist_text().encode() if args.format == "edgelist"
                 else graph.to_bitfield_bytes())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="geodetect",
        description="Hidden geometric community simulation and detection toolkit",
    )
    parser.add_argument("--strict", action="store_true",
                        help="exit 3 on numerical failures (series truncation or "
                             "quadrature convergence flags)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_tau = sub.add_parser("tau", help="solve the cap threshold tau(p, d)")
    p_tau.add_argument("--p", type=float, required=True)
    p_tau.add_argument("--d", type=int, required=True)
    p_tau.set_defaults(func=cmd_tau)

    p_cyc = sub.add_parser("cycle-expectation", help="signed cycle expectation series")
    p_cyc.add_argument("--ell", type=int, required=True)
    p_cyc.add_argument("--p", type=float, required=True)
    p_cyc.add_argument("--d", type=int, required=True)
    p_cyc.set_defaults(func=cmd_cycle_expectation)

    # --seed, --workers and --trials stay text here: the _SCHEMA readers convert them
    for name, fn in (
        ("test", cmd_rows), ("sweep", cmd_rows), ("lowdeg", cmd_lowdeg), ("wishart", cmd_wishart),
    ):
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True)
        for flag in ("--seed", "--workers", "--trials", "--out"):
            sp.add_argument(flag, default=None)
        if name == "sweep":
            sp.add_argument("--resume", action="store_true")
        sp.set_defaults(func=fn, resume=False)

    p_samp = sub.add_parser("sample", help="dump a sampled graph to disk")
    p_samp.add_argument("--model", choices=("null", "geometric", "planted"), required=True)
    p_samp.add_argument("--n", type=int, required=True)
    p_samp.add_argument("--p", type=float, required=True)
    p_samp.add_argument("--d", type=int, default=8)
    p_samp.add_argument("--k", type=float, default=1.0)
    p_samp.add_argument("--community-size", type=int, default=None)
    p_samp.add_argument("--seed", default=None)
    p_samp.add_argument("--format", choices=("edgelist", "bits"), default="edgelist")
    p_samp.add_argument("--out", required=True)
    p_samp.set_defaults(func=cmd_sample)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, OSError) as exc:  # OSError: an output path that cannot be opened
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
