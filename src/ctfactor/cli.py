"""Command line interface.

Subcommands. ``fit`` sweeps a dataset or correlation matrix and selects a
structure; ``simulate`` writes a benchmark model and dataset; ``cliques``
thresholds once and reports the independent maximal cliques; ``check``
reports the population diagnostics of a model; ``evaluate`` scores an
estimated structure against a true one; ``bench`` runs seeded replicate
studies and writes tidy outputs (aggregate JSON plus per-replicate CSV).

Every command is deterministic given its flags and ``--seed``; replicate
``r`` always uses ``seed + r``. Exit codes: 0 success, 2 bad input or
flags, 3 internal failure. Plots are never rendered; outputs are JSON and
CSV for downstream tools.
"""

import argparse
import csv
import os
import sys
import time

import numpy as np

from .ct import CtConfig, ct_run, default_thresholds
from .errors import CtFactorError, DomainError
from .estimate import FitOptions, pearson_correlation
from .graph import build_graph, independent_maximal_cliques
from .io import (
    dumps_json,
    load_json,
    read_corr_json,
    read_data_csv,
    save_json,
    write_data_csv,
)
from .metrics import hamming_distance
from .model import (
    FactorParams,
    Structure,
    consistency_bound,
    general_sufficient_check,
    rotational_uniqueness_check,
    thresholdability,
    unique_children,
)
from .numerics import RngState
from .simgen import (
    HIGHDIM_PRESETS,
    SimSpec,
    data_rng,
    gen_independent_cluster,
    gen_ucc_violation,
    sample_dataset,
)

#: ``--preset`` name -> key of ``HIGHDIM_PRESETS``.
PRESET_NAMES = {f"highdim-{key}": key for key in HIGHDIM_PRESETS}

#: ``--select`` value -> ``CtConfig.selection``.
SELECTIONS = {"bic": "bic", "min-hd": "min-hd-oracle", "none": "none"}


def _default_jobs():
    raw = os.environ.get("CT_FACTOR_JOBS", "1")
    try:
        jobs = int(raw)
    except ValueError:
        raise DomainError(f"CT_FACTOR_JOBS must be an integer, got {raw!r}") from None
    if jobs < 1:
        raise DomainError(f"CT_FACTOR_JOBS must be >= 1, got {jobs}")
    return jobs


def _parse_thresholds(text):
    try:
        taus = [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise DomainError(f"could not parse thresholds: {text!r}") from None
    if not taus:
        raise DomainError("no thresholds given")
    return taus


def _load_matrix_input(path):
    """Correlation matrix + sample size from a data CSV or corr JSON."""
    if path.endswith(".json"):
        return read_corr_json(path)
    data, _ = read_data_csv(path)
    return pearson_correlation(data), data.shape[0]


def _load_structure(path):
    """A structure document ``{p, d, support}``, or the loading support of a
    model document ``{lambda, phi, omega}`` such as ``simulate`` writes."""
    doc = load_json(path)
    if isinstance(doc, dict) and "lambda" in doc:
        return FactorParams.from_json_dict(doc).structure()
    if isinstance(doc, dict) and "support" in doc:
        return Structure.from_json_dict(doc)
    raise DomainError(
        f"{path}: expected a structure document (keys p, d, support) "
        "or a model document (keys lambda, phi, omega)"
    )


def _emit(doc, out_path):
    if out_path:
        save_json(out_path, doc)
    else:
        print(dumps_json(doc))


def cmd_fit(args):
    corr, n = _load_matrix_input(args.input)
    taus = (
        _parse_thresholds(args.thresholds)
        if args.thresholds is not None
        else default_thresholds()
    )
    truth = None
    if args.truth:
        truth = _load_structure(args.truth)
    selection = SELECTIONS[args.select]
    config = CtConfig(
        thresholds=tuple(taus), selection=selection, truth=truth, seed=args.seed
    )
    result = ct_run(corr, n, config)
    doc = result.to_json_dict()
    doc["p"] = int(corr.shape[0])
    doc["n"] = int(n)
    _emit(doc, args.out)
    return 0


def cmd_simulate(args):
    if args.preset:
        n, p, d = HIGHDIM_PRESETS[PRESET_NAMES[args.preset]]
        children = p // d
    else:
        d, children, n = args.d, args.children, args.n
    spec = SimSpec(
        d=d,
        children_per_factor=children,
        n=n,
        seed=args.seed,
        phi_scale=args.phi_scale,
        lambda_range=(args.lambda_lo, args.lambda_hi),
        ucc_fraction=args.ucc_violation,
    )
    if spec.ucc_fraction > 0:
        theta = gen_ucc_violation(spec)
    else:
        theta = gen_independent_cluster(spec)
    data = sample_dataset(theta, spec.n, data_rng(spec))
    save_json(args.out_model, theta.to_json_dict())
    write_data_csv(args.out_data, data)
    report = thresholdability(theta)
    _, ucc_holds = unique_children(theta.structure())
    print(
        dumps_json(
            {
                "p": theta.p,
                "d": theta.d,
                "n": spec.n,
                "seed": spec.seed,
                "thresholdable": report.thresholdable,
                "gap": report.gap,
                "tau0": report.tau0,
                "ucc_holds": ucc_holds,
                "model": args.out_model,
                "data": args.out_data,
            }
        )
    )
    return 0


def cmd_cliques(args):
    t0 = time.perf_counter()
    corr, _ = _load_matrix_input(args.input)
    ingest_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    graph = build_graph(corr, args.tau)
    graph_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    cliques = independent_maximal_cliques(graph)
    search_s = time.perf_counter() - t0
    doc = cliques.to_json_dict()
    doc["n_cliques"] = len(cliques)
    doc["timings_s"] = {"ingest": ingest_s, "graph": graph_s, "search": search_s}
    _emit(doc, args.out)
    return 0


def cmd_check(args):
    theta = FactorParams.from_json_dict(load_json(args.model))
    report = thresholdability(theta)
    sufficient = general_sufficient_check(theta)
    structure = theta.structure()
    unique, ucc_holds = unique_children(structure)
    rotation = rotational_uniqueness_check(theta.loadings)
    curve = None
    if args.n_grid:
        try:
            grid = [int(tok) for tok in args.n_grid.split(",") if tok.strip()]
        except ValueError:
            raise DomainError(f"could not parse n grid: {args.n_grid!r}") from None
        if report.thresholdable and report.gap > 0:
            gamma = min(report.gap, 2.0)
            curve = [
                {
                    "n": n,
                    "eta": consistency_bound(n, theta.p, gamma, args.c_const),
                }
                for n in grid
            ]
    doc = {
        "p": theta.p,
        "d": theta.d,
        "thresholdability": report.to_json_dict(),
        "general_sufficient": sufficient,
        "routes_agree": sufficient == report.thresholdable,
        "unique_children": {
            "per_factor": [sorted(u) for u in unique],
            "ucc_holds": ucc_holds,
            "violating": [k for k, u in enumerate(unique) if not u],
        },
        "rotational_uniqueness": rotation,
        "consistency_curve": curve,
    }
    _emit(doc, args.out)
    return 0


def cmd_evaluate(args):
    est = _load_structure(args.estimate)
    truth = _load_structure(args.truth)
    report = hamming_distance(est, truth)
    _emit(report.to_json_dict(), args.out)
    return 0


def _metric_row(rep, seed, result, truth, wall_s):
    selected = result.selected
    if selected is None:
        return {
            "replicate": rep,
            "seed": seed,
            "error": "no candidate could be selected",
        }
    metric = hamming_distance(selected.structure, truth)
    return {
        "replicate": rep,
        "seed": seed,
        "f1": metric.f1,
        "hd": metric.hd,
        "d_hat": metric.d_hat,
        "d_true": metric.d_true,
        "models_evaluated": result.models_evaluated,
        "wall_time_s": wall_s,
    }


def _bench_low_replicate(payload):
    rep = payload["replicate"]
    seed = payload["base_seed"] + rep
    t0 = time.perf_counter()
    try:
        spec = SimSpec(
            d=payload["d"],
            children_per_factor=payload["children"],
            n=payload["n"],
            seed=seed,
            phi_scale=payload["phi_scale"],
            lambda_range=tuple(payload["lambda_range"]),
        )
        theta = gen_independent_cluster(spec)
        truth = theta.structure()
        data = sample_dataset(theta, spec.n, data_rng(spec))
        corr = pearson_correlation(data)
        config = CtConfig(
            selection=payload["selection"],
            truth=truth if payload["selection"] == "min-hd-oracle" else None,
            seed=seed,
        )
        result = ct_run(corr, spec.n, config)
        return _metric_row(rep, seed, result, truth, time.perf_counter() - t0)
    except Exception as exc:
        return {"replicate": rep, "seed": seed, "error": f"{type(exc).__name__}: {exc}"}


def _bench_high_replicate(payload):
    rep = payload["replicate"]
    seed = payload["base_seed"] + rep
    t0 = time.perf_counter()
    try:
        n, p, d = HIGHDIM_PRESETS[payload["preset"]]
        spec = SimSpec(
            d=d,
            children_per_factor=p // d,
            n=n,
            seed=seed,
            phi_scale=0.75 if payload["violation"] == "thresh" else 0.0,
            ucc_fraction=0.75 if payload["violation"] == "ucc" else 0.0,
        )
        if payload["violation"] == "ucc":
            theta = gen_ucc_violation(spec)
        else:
            theta = gen_independent_cluster(spec)
        truth = theta.structure()
        data = sample_dataset(theta, spec.n, data_rng(spec))
        corr = pearson_correlation(data)
        config = CtConfig(selection="min-hd-oracle", truth=truth, seed=seed)
        result = ct_run(corr, spec.n, config)
        return _metric_row(rep, seed, result, truth, time.perf_counter() - t0)
    except Exception as exc:
        return {"replicate": rep, "seed": seed, "error": f"{type(exc).__name__}: {exc}"}


def _run_replicates(worker, payloads, jobs):
    if jobs <= 1:
        return [worker(p) for p in payloads]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(worker, payloads))


OUTCOME_KEYS = ("f1", "hd", "d_hat", "d_abs_rel_err", "models_evaluated")

CSV_COLUMNS = (
    "replicate",
    "seed",
    "f1",
    "hd",
    "d_hat",
    "d_true",
    "models_evaluated",
    "wall_time_s",
)


def _finish_bench(command, config_doc, rows, out_json, out_csv):
    good = [r for r in rows if "error" not in r]
    for r in good:
        r["d_abs_rel_err"] = abs(r["d_hat"] - r["d_true"]) / r["d_true"]
    outcomes = {}
    for key in OUTCOME_KEYS:
        vals = [r[key] for r in good]
        outcomes[key] = {
            "mean": float(np.mean(vals)) if vals else None,
            "sd": float(np.std(vals, ddof=1)) if len(vals) > 1 else None,
        }
    exact = [1.0 if r["d_hat"] == r["d_true"] else 0.0 for r in good]
    outcomes["d_exact"] = {
        "mean": float(np.mean(exact)) if exact else None,
        "sd": float(np.std(exact, ddof=1)) if len(exact) > 1 else None,
    }
    aggregate = {
        "command": command,
        "config": config_doc,
        "replicates": len(rows),
        "outcomes": outcomes,
        "failures": [r for r in rows if "error" in r],
    }
    save_json(out_json, aggregate)
    with open(out_csv, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for r in good:
            writer.writerow([repr(r[c]) if isinstance(r[c], float) else r[c] for c in CSV_COLUMNS])
    print(dumps_json({"aggregate": out_json, "csv": out_csv, "failures": len(rows) - len(good)}))
    return 0


def cmd_bench_low(args):
    jobs = args.jobs if args.jobs is not None else _default_jobs()
    selection = SELECTIONS[args.select]
    if selection == "none":
        raise DomainError("bench needs a selection rule (bic or min-hd)")
    payloads = [
        {
            "replicate": r,
            "base_seed": args.seed,
            "d": args.d,
            "children": args.children,
            "n": args.n,
            "phi_scale": args.phi_scale,
            "lambda_range": (args.lambda_lo, args.lambda_hi),
            "selection": selection,
        }
        for r in range(args.reps)
    ]
    rows = _run_replicates(_bench_low_replicate, payloads, jobs)
    config_doc = {
        "d": args.d,
        "children": args.children,
        "n": args.n,
        "phi_scale": args.phi_scale,
        "lambda_range": [args.lambda_lo, args.lambda_hi],
        "select": args.select,
        "seed": args.seed,
        "reps": args.reps,
    }
    return _finish_bench("bench-low", config_doc, rows, args.out_json, args.out_csv)


def cmd_bench_high(args):
    jobs = args.jobs if args.jobs is not None else _default_jobs()
    payloads = [
        {
            "replicate": r,
            "base_seed": args.seed,
            "preset": PRESET_NAMES[args.preset],
            "violation": args.violation,
        }
        for r in range(args.reps)
    ]
    rows = _run_replicates(_bench_high_replicate, payloads, jobs)
    config_doc = {
        "preset": args.preset,
        "violation": args.violation,
        "seed": args.seed,
        "reps": args.reps,
        "select": "min-hd",
    }
    return _finish_bench("bench-high", config_doc, rows, args.out_json, args.out_csv)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ctfactor",
        description="Correlation-thresholding structure learning for factor models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="sweep thresholds and select a structure")
    p_fit.add_argument("input", help="data CSV or correlation JSON")
    p_fit.add_argument("--thresholds", help="comma-separated taus (default: 40-point grid)")
    p_fit.add_argument("--select", choices=list(SELECTIONS), default="bic")
    p_fit.add_argument("--truth", help="structure or model JSON for min-hd selection")
    p_fit.add_argument("--seed", type=int, default=0)
    p_fit.add_argument("--out", help="output path (default: stdout)")
    p_fit.set_defaults(func=cmd_fit)

    p_sim = sub.add_parser("simulate", help="write a benchmark model and dataset")
    p_sim.add_argument("--d", type=int, default=3)
    p_sim.add_argument("--children", type=int, default=5)
    p_sim.add_argument("--n", type=int, default=1000)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--phi-scale", type=float, default=0.0)
    p_sim.add_argument("--lambda-lo", type=float, default=0.6)
    p_sim.add_argument("--lambda-hi", type=float, default=0.8)
    p_sim.add_argument(
        "--ucc-violation",
        type=float,
        default=0.0,
        metavar="FRACTION",
        help="fraction of factors stripped of unique children",
    )
    p_sim.add_argument("--preset", choices=sorted(PRESET_NAMES))
    p_sim.add_argument("--out-model", default="model.json")
    p_sim.add_argument("--out-data", default="data.csv")
    p_sim.set_defaults(func=cmd_simulate)

    p_clq = sub.add_parser("cliques", help="independent maximal cliques at one tau")
    p_clq.add_argument("input", help="data CSV or correlation JSON")
    p_clq.add_argument("--tau", type=float, required=True)
    p_clq.add_argument("--out", help="output path (default: stdout)")
    p_clq.set_defaults(func=cmd_cliques)

    p_chk = sub.add_parser("check", help="population diagnostics of a model JSON")
    p_chk.add_argument("model", help="model JSON")
    p_chk.add_argument("--n-grid", help="comma-separated sample sizes for the error bound")
    p_chk.add_argument("--c-const", type=float, default=1.0)
    p_chk.add_argument("--out", help="output path (default: stdout)")
    p_chk.set_defaults(func=cmd_check)

    p_eval = sub.add_parser("evaluate", help="score an estimated structure")
    p_eval.add_argument("estimate", help="estimated structure or model JSON")
    p_eval.add_argument("truth", help="true structure or model JSON")
    p_eval.add_argument("--out", help="output path (default: stdout)")
    p_eval.set_defaults(func=cmd_evaluate)

    p_bench = sub.add_parser("bench", help="seeded replicate studies")
    bench_sub = p_bench.add_subparsers(dest="bench_mode", required=True)

    p_low = bench_sub.add_parser("low", help="low-dimensional study with model selection")
    p_low.add_argument("--reps", type=int, default=50)
    p_low.add_argument("--seed", type=int, default=0)
    p_low.add_argument("--d", type=int, default=3)
    p_low.add_argument("--children", type=int, default=5)
    p_low.add_argument("--n", type=int, default=1000)
    p_low.add_argument("--phi-scale", type=float, default=0.25)
    p_low.add_argument("--lambda-lo", type=float, default=0.6)
    p_low.add_argument("--lambda-hi", type=float, default=0.8)
    p_low.add_argument("--select", choices=["bic", "min-hd"], default="bic")
    p_low.add_argument("--jobs", type=int, default=None, help="default: CT_FACTOR_JOBS or 1")
    p_low.add_argument("--out-json", default="bench_low.json")
    p_low.add_argument("--out-csv", default="bench_low.csv")
    p_low.set_defaults(func=cmd_bench_low)

    p_high = bench_sub.add_parser("high", help="high-dimensional study with oracle selection")
    p_high.add_argument("--preset", choices=sorted(PRESET_NAMES), required=True)
    p_high.add_argument("--violation", choices=["thresh", "ucc"], required=True)
    p_high.add_argument("--reps", type=int, default=10)
    p_high.add_argument("--seed", type=int, default=0)
    p_high.add_argument("--jobs", type=int, default=None, help="default: CT_FACTOR_JOBS or 1")
    p_high.add_argument("--out-json", default="bench_high.json")
    p_high.add_argument("--out-csv", default="bench_high.csv")
    p_high.set_defaults(func=cmd_bench_high)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CtFactorError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # anything unexpected is an internal failure
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
