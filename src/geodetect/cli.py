"""Command-line front end: tau, cycle-expectation, test, sweep, lowdeg, wishart, sample.

Configs are flat key = value text with one section per concern; unknown
sections or keys are rejected outright so that a typo in p vs d cannot
silently ruin an experiment.  Exit codes: 0 success, 2 config error,
3 numerical failure under --strict.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import csv
import json
import math
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import __version__
from .detection import estimate_errors, make_test_spec
from .ensembles import (
    composite_planted_graph,
    sample_spherical_wishart,
    spectral_deviation,
)
from .graphs import (
    ModelParams,
    Seed,
    sample_full_geometric,
    sample_null,
    sample_planted,
    sample_planted_fixed_community,
    sample_planted_fixed_size,
)
from .lowdeg import V_MAX, low_degree_advantage
from .sphere import basis_for_density, signed_cycle_expectation, solve_threshold
from .stats import signed_triangle_count

CSV_COLUMNS = [
    "n", "p", "d", "k", "test", "threshold", "type1", "type1_hw",
    "type2", "type2_hw", "excluded", "trials", "seed", "version", "wall_ms",
]

_SECTION_KEYS = {
    "model": {"n", "p", "d", "k"},
    "run": {"trials", "seed", "workers", "out"},
    "sweep": {"n", "p", "d", "k"},
    "test.global-triangle": set(),
    "test.scan": {"mode", "restarts"},
    "test.constrained-scan": {"mode", "restarts", "cycle_constant"},
    "test.cycle": {"ell"},
    "lowdeg": {"v_max", "degree_cap", "trials"},
    "wishart": {"k", "d", "trials", "n", "community_size", "p"},
}


class ConfigError(Exception):
    pass


@contextlib.contextmanager
def _section_values(section: str):
    """Report a non-numeric or out-of-range value read in the block as a config error."""
    try:
        yield
    except (ValueError, OverflowError) as exc:
        raise ConfigError(f"[{section}] {exc}") from None


def _parse_axis(text: str) -> list[float]:
    text = text.strip()
    if text.startswith("logrange:"):
        _, lo, hi, count = text.split(":")
        return [float(v) for v in np.geomspace(float(lo), float(hi), int(count))]
    return [float(v) for v in text.split(",") if v.strip()]


def load_config(path: str) -> dict:
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ConfigError(f"cannot read config file {path!r}")
    cfg: dict = {}
    for section in parser.sections():
        if section not in _SECTION_KEYS:
            raise ConfigError(f"unknown section [{section}]")
        allowed = _SECTION_KEYS[section]
        body = {}
        for key, value in parser.items(section):
            if key not in allowed:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            body[key] = value
        cfg[section] = body
    if "model" in cfg:
        missing = {"n", "p", "d", "k"} - set(cfg["model"])
        if missing:
            raise ConfigError(f"[model] is missing keys {sorted(missing)}")
    return cfg


def _model_from(cfg: dict) -> ModelParams:
    if "model" not in cfg:
        raise ConfigError("config needs a [model] section")
    m = cfg["model"]
    with _section_values("model"):
        return ModelParams(
            n=int(float(m["n"])), p=float(m["p"]), d=int(float(m["d"])), k=float(m["k"])
        )


def _test_sections(cfg: dict) -> list[tuple[str, dict]]:
    found = [(s.split(".", 1)[1], body) for s, body in cfg.items() if s.startswith("test.")]
    if not found:
        raise ConfigError("config defines no [test.*] section")
    return found


def _grid_points(cfg: dict, base: ModelParams) -> list[ModelParams]:
    sweep = cfg.get("sweep", {})
    axes = {
        "n": [base.n], "p": [base.p], "d": [base.d], "k": [base.k],
    }
    points = []
    with _section_values("sweep"):
        for key, text in sweep.items():
            axes[key] = _parse_axis(text)
        for n in axes["n"]:
            for p in axes["p"]:
                for d in axes["d"]:
                    for k in axes["k"]:
                        points.append(ModelParams(
                            n=int(round(n)), p=float(p), d=int(round(d)), k=float(k)
                        ))
    if len(points) > 10_000:
        raise ConfigError(f"sweep grid has {len(points)} points; the cap is 10000")
    return points


def _build_spec(kind: str, options: dict, params: ModelParams):
    if kind == "global-triangle":
        return make_test_spec("global-triangle", params)
    if kind == "scan":
        return make_test_spec(
            "scan",
            params,
            scan_mode=options.get("mode", "planted-oracle"),
            restarts=int(options.get("restarts", 8)),
        )
    if kind == "constrained-scan":
        raw = options.get("cycle_constant", "auto")
        constant = None if raw == "auto" else float(raw)
        return make_test_spec(
            "constrained-scan",
            params,
            cycle_constant=constant,
            scan_mode=options.get("mode", "planted-oracle"),
            restarts=int(options.get("restarts", 8)),
        )
    if kind == "cycle":
        return make_test_spec("cycle", params, ell=int(options["ell"]))
    raise ConfigError(f"unknown test kind {kind!r}")


def _threshold_series(kind: str, options: dict, params: ModelParams) -> list:
    """The cycle-expectation series a test's threshold and constraints rest on."""
    if kind == "cycle":
        return [signed_cycle_expectation(int(options["ell"]), params.p, params.d)]
    series = [signed_cycle_expectation(3, params.p, params.d)]
    if kind == "constrained-scan" and options.get("cycle_constant", "auto") == "auto":
        # the calibrated constant comes from the ell = 3 and ell = 4 series
        series.append(signed_cycle_expectation(4, params.p, params.d))
    return series


def _series_failed(res) -> bool:
    """A series whose truncation rule or coefficient quadrature failed."""
    return res.truncation_failed or not basis_for_density(res.p, res.d).quad_converged


def _point_row(params: ModelParams, kind: str, options: dict, trials: int, seed: int):
    """One ResultRow; numerical failures are recorded in-row as NaNs."""
    start = time.monotonic()
    try:
        series = _threshold_series(kind, options, params)
        spec = _build_spec(kind, options, params)
        est = estimate_errors(spec, trials, Seed(seed))
        failed = any(_series_failed(s) for s in series)
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


def _seed(args, default=0) -> int:
    """The master seed: --seed, else the config's; a U64 or a config error."""
    raw = args.seed if args.seed is not None else default
    try:
        seed = int(raw)
    except ValueError:
        raise ConfigError(f"seed must be an integer, got {raw!r}") from None
    if not 0 <= seed < 2**64:
        raise ConfigError(f"seed must lie in [0, 2**64), got {seed}")
    return seed


def _emit_rows(cfg, args, resume: bool):
    base = _model_from(cfg)
    run = cfg.get("run", {})
    trials = int(args.trials if args.trials is not None else run.get("trials", 200))
    seed = _seed(args, run.get("seed", 0))
    workers = int(args.workers if args.workers is not None else run.get("workers", 1))
    out_path = args.out or run.get("out")
    if out_path is None:
        raise ConfigError("no output path: pass --out or set out in [run]")

    points = _grid_points(cfg, base)
    kinds = _test_sections(cfg)
    jobs = [(pt, kind, options) for pt in points for kind, options in kinds]

    done_keys = set()
    if resume:
        try:
            with open(out_path, newline="") as fh:
                for row in csv.DictReader(fh):
                    done_keys.add((row["n"], row["p"], row["d"], row["k"], row["test"]))
        except FileNotFoundError:
            pass
    mode = "a" if resume and done_keys else "w"

    pending = [
        job for job in jobs
        if (str(job[0].n), repr(job[0].p), str(job[0].d), repr(job[0].k), job[1])
        not in done_keys
    ]

    any_failed = False
    with open(out_path, mode, newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
        if mode == "w":
            writer.writeheader()
            fh.flush()
        if workers > 1:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                futures = [
                    pool.submit(_point_row, pt, kind, options, trials, seed)
                    for pt, kind, options in pending
                ]
                for fut in futures:  # submission order keeps output deterministic
                    row, failed = fut.result()
                    any_failed |= failed
                    writer.writerow(row)
                    fh.flush()
        else:
            for pt, kind, options in pending:
                row, failed = _point_row(pt, kind, options, trials, seed)
                any_failed |= failed
                writer.writerow(row)
                fh.flush()
    return any_failed


def cmd_tau(args) -> int:
    res = solve_threshold(args.p, args.d)
    print(json.dumps({
        "p": res.p, "d": res.d, "tau": res.tau, "residual": res.residual,
        "upper_bound": math.sqrt(3.0 * math.log(1.0 / args.p) / args.d)
        if args.p <= 0.5 else None,
        "version": __version__,
    }))
    return 0


def cmd_cycle_expectation(args) -> int:
    res = signed_cycle_expectation(args.ell, args.p, args.d)
    print(json.dumps({
        "ell": res.ell, "p": res.p, "d": res.d, "value": res.value,
        "truncation_m": res.truncation_m, "tail_bound": res.tail_bound,
        "scale": res.scale, "ratio": res.ratio,
        "truncation_failed": res.truncation_failed,
        "below_dimension_guard": res.below_dimension_guard,
        "version": __version__,
    }))
    return 3 if (args.strict and _series_failed(res)) else 0


def cmd_test(args) -> int:
    cfg = load_config(args.config)
    failed = _emit_rows(cfg, args, resume=False)
    return 3 if (args.strict and failed) else 0


def cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    failed = _emit_rows(cfg, args, resume=args.resume)
    return 3 if (args.strict and failed) else 0


def cmd_lowdeg(args) -> int:
    cfg = load_config(args.config)
    params = _model_from(cfg)
    section = cfg.get("lowdeg", {})
    with _section_values("lowdeg"):
        v_max = int(float(section.get("v_max", 4)))
        degree_cap = int(float(section.get("degree_cap", 10)))
        trials = int(float(args.trials if args.trials is not None else section.get("trials", 20000)))
        cap = min(V_MAX, params.n)  # the enumeration cap; an embedding needs v <= n
        if trials < 1 or v_max > cap:
            raise ValueError(f"need trials >= 1 and v_max <= {cap}, got {trials} and {v_max}")
    seed = _seed(args)

    report = low_degree_advantage(params, v_max, degree_cap, trials, Seed(seed))
    rows = []
    triangle_row = None
    for graph, phi, stderr, skipped in report.rows:
        entry = {
            "v": graph.v, "e": graph.e, "code": graph.canonical_code,
            "is_forest": graph.is_forest,
            "tree_component": graph.has_tree_component,
            "phi": phi, "stderr": stderr, "skipped_analytic_zero": skipped,
        }
        rows.append(entry)
        if graph.v == 3 and graph.e == 3:
            series = signed_cycle_expectation(3, params.p, params.d)
            predicted = (
                (params.k / params.n) ** 3 * series.value
                / (params.p * (1 - params.p)) ** 1.5
            )
            triangle_row = {"phi": phi, "stderr": stderr, "series_predicted": predicted}
    out = {
        "version": __version__,
        "model": {"n": params.n, "p": params.p, "d": params.d, "k": params.k},
        "v_max": v_max, "degree_cap": degree_cap, "trials": trials, "seed": seed,
        "advantage": report.value, "advantage_error": report.error,
        "rows": rows, "triangle_crosscheck": triangle_row,
    }
    text = json.dumps(out, indent=2)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


def cmd_wishart(args) -> int:
    cfg = load_config(args.config)
    section = cfg.get("wishart", {})
    with _section_values("wishart"):
        k = int(float(section.get("k", 20)))
        d = int(float(section.get("d", 2000)))
        trials = int(float(args.trials if args.trials is not None else section.get("trials", 200)))
        if min(k, d, trials) < 1:
            raise ValueError(f"k, d and trials must be >= 1, got {k}, {d} and {trials}")
    seed = Seed(_seed(args))

    deviations = [
        spectral_deviation(sample_spherical_wishart(k, d, seed.stream(t, arm=5)))
        for t in range(trials)
    ]
    ref = math.sqrt(k / d)
    spectral = {
        "k": k, "d": d, "draws": trials,
        "mean_deviation": float(np.mean(deviations)),
        "q99": float(np.quantile(deviations, 0.99)),
        "sqrt_k_over_d": ref,
        "within_10x_fraction": float(np.mean(np.asarray(deviations) <= 10 * ref)),
    }
    k1 = spectral_deviation(sample_spherical_wishart(1, d, seed.stream(0, arm=6)))

    route = None
    if "n" in section:
        with _section_values("wishart"):
            n = int(float(section["n"]))
            size = int(float(section.get("community_size", n // 2)))
            if not 0 <= size <= n:
                raise ValueError(f"community_size must lie in [0, n], got {size} with n={n}")
            p = float(section.get("p", 0.5))
            params = ModelParams(n=n, p=p, d=d, k=max(size, 1))
        community = np.arange(size)
        comp_edges, comp_tri, dir_edges, dir_tri = 0.0, 0.0, 0.0, 0.0
        m = n * (n - 1) // 2
        for t in range(trials):
            g1 = composite_planted_graph(community, params, seed.stream(t, arm=7))
            comp_edges += g1.edge_count / m
            comp_tri += signed_triangle_count(g1, p)
            s2 = sample_planted_fixed_community(community, params, seed.stream(t, arm=8))
            dir_edges += s2.graph.edge_count / m
            dir_tri += signed_triangle_count(s2.graph, p)
        route = {
            "n": n, "community_size": size, "p": p, "d": d, "trials": trials,
            "edge_marginal": {"composite": comp_edges / trials, "direct": dir_edges / trials},
            "f_tri_mean": {"composite": comp_tri / trials, "direct": dir_tri / trials},
        }

    out = {
        "version": __version__, "seed": seed.master,
        "spectral": spectral, "k1_deviation": k1, "route_check": route,
    }
    text = json.dumps(out, indent=2)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


def cmd_sample(args) -> int:
    rng = Seed(_seed(args)).stream(0, arm=9)
    if args.model == "null":
        graph = sample_null(args.n, args.p, rng)
    elif args.model == "geometric":
        graph, _ = sample_full_geometric(args.n, args.p, args.d, rng)
    elif args.model == "planted":
        params = ModelParams(n=args.n, p=args.p, d=args.d, k=args.k)
        if args.community_size is not None:
            graph = sample_planted_fixed_size(args.community_size, params, rng).graph
        else:
            graph = sample_planted(params, rng).graph
    else:
        raise ConfigError(f"unknown model {args.model!r}")
    if args.format == "edgelist":
        with open(args.out, "w") as fh:
            fh.write(graph.to_edgelist_text())
    else:
        with open(args.out, "wb") as fh:
            fh.write(graph.to_bitfield_bytes())
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

    for name, fn, extra in (
        ("test", cmd_test, ()),
        ("sweep", cmd_sweep, ("resume",)),
        ("lowdeg", cmd_lowdeg, ()),
        ("wishart", cmd_wishart, ()),
    ):
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True)
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--workers", type=int, default=None)
        sp.add_argument("--trials", type=int, default=None)
        sp.add_argument("--out", default=None)
        if "resume" in extra:
            sp.add_argument("--resume", action="store_true")
        sp.set_defaults(func=fn)

    p_samp = sub.add_parser("sample", help="dump a sampled graph to disk")
    p_samp.add_argument("--model", choices=("null", "geometric", "planted"), required=True)
    p_samp.add_argument("--n", type=int, required=True)
    p_samp.add_argument("--p", type=float, required=True)
    p_samp.add_argument("--d", type=int, default=8)
    p_samp.add_argument("--k", type=float, default=1.0)
    p_samp.add_argument("--community-size", type=int, default=None)
    p_samp.add_argument("--seed", type=int, default=None)
    p_samp.add_argument("--format", choices=("edgelist", "bits"), default="edgelist")
    p_samp.add_argument("--out", required=True)
    p_samp.set_defaults(func=cmd_sample)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
