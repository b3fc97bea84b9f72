"""Command line interface.

Subcommands. ``fit`` sweeps a dataset or correlation matrix and selects a
structure; ``simulate`` writes a benchmark model and dataset; ``cliques``
thresholds once and reports the independent maximal cliques; ``check``
reports the population diagnostics of a model; ``evaluate`` scores an
estimated structure against a true one; ``bench`` runs seeded replicate
studies and writes tidy outputs (aggregate JSON plus per-replicate CSV).

Every command is deterministic given its flags and ``--seed``; replicate
``r`` always uses ``seed + r``. Exit codes: 0 success, 2 bad input or
flags, 3 internal failure. Each distinct warning goes to stderr once as
``warning: <message>``. Plots are never rendered; outputs are JSON/CSV.
"""

import argparse
import csv
import sys
import time
import warnings

import numpy as np

from .ct import CtConfig, ct_run, default_thresholds
from .errors import CtFactorError, DomainError
from .estimate import pearson_correlation
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
    rotational_uniqueness_check,
    thresholdability,
    unique_children,
)
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
    if result.selected_converged is False:
        warnings.warn("selected fit did not converge")
    doc = result.to_json_dict()
    doc["p"] = int(corr.shape[0])
    doc["n"] = int(n)
    _emit(doc, args.out)
    return 0


def _preset_shape(preset):
    """``SimSpec`` fields ``d``, ``children_per_factor`` and ``n`` of a
    ``--preset`` name."""
    n, p, d = HIGHDIM_PRESETS[PRESET_NAMES[preset]]
    return {"d": d, "children_per_factor": p // d, "n": n}


def _simulated_model(spec):
    """The model of ``spec``: unique children broken when ``ucc_fraction > 0``,
    an independent-cluster model otherwise."""
    if spec.ucc_fraction > 0:
        return gen_ucc_violation(spec)
    return gen_independent_cluster(spec)


def _add_model_flags(parser, phi_scale):
    """The model flags that ``simulate`` and ``bench low`` share; only the
    ``--phi-scale`` default differs."""
    parser.add_argument("--d", type=int, default=3)
    parser.add_argument("--children", type=int, default=5)
    parser.add_argument("--n", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--phi-scale", type=float, default=phi_scale)
    parser.add_argument("--lambda-lo", type=float, default=0.6)
    parser.add_argument("--lambda-hi", type=float, default=0.8)


def _model_fields(args):
    """``SimSpec`` fields of the model flags, all but ``seed``."""
    return {
        "d": args.d,
        "children_per_factor": args.children,
        "n": args.n,
        "phi_scale": args.phi_scale,
        "lambda_range": (args.lambda_lo, args.lambda_hi),
    }


def cmd_simulate(args):
    fields = _model_fields(args)
    if args.preset:
        fields.update(_preset_shape(args.preset))
    spec = SimSpec(**fields, seed=args.seed, ucc_fraction=args.ucc_violation)
    theta = _simulated_model(spec)
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


def _bench_replicate(payload):
    """One replicate: simulate ``payload["spec"]`` at seed ``base_seed +
    replicate``, run the sweep with ``payload["selection"]`` and score it."""
    rep = payload["replicate"]
    seed = payload["base_seed"] + rep
    t0 = time.perf_counter()
    try:
        spec = SimSpec(seed=seed, **payload["spec"])
        theta = _simulated_model(spec)
        truth = theta.structure()
        data = sample_dataset(theta, spec.n, data_rng(spec))
        selection = payload["selection"]
        config = CtConfig(
            selection=selection,
            truth=truth if selection == "min-hd-oracle" else None,
            seed=seed,
        )
        result = ct_run(pearson_correlation(data), spec.n, config)
        return _metric_row(rep, seed, result, truth, time.perf_counter() - t0)
    except Exception as exc:
        return {"replicate": rep, "seed": seed, "error": f"{type(exc).__name__}: {exc}"}


def _pooled_replicate(payload):
    """``_bench_replicate`` plus the messages of its warnings, for the parent to print."""
    with warnings.catch_warnings(record=True) as caught:
        row = _bench_replicate(payload)
    return row, [str(w.message) for w in caught]


def _run_replicates(args, spec, selection):
    """Rows of ``args.reps`` replicates, on ``args.jobs`` worker processes."""
    if args.jobs < 1:
        raise DomainError(f"--jobs must be >= 1, got {args.jobs}")
    if args.seed < 0:
        raise DomainError(f"seed must be non-negative, got {args.seed}")
    payloads = [
        {"replicate": r, "base_seed": args.seed, "spec": spec, "selection": selection}
        for r in range(args.reps)
    ]
    if args.jobs == 1:
        return [_bench_replicate(p) for p in payloads]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=args.jobs) as pool:
        results = list(pool.map(_pooled_replicate, payloads))
    for message in (m for _, messages in results for m in messages):
        warnings.warn(message)
    return [row for row, _ in results]


OUTCOME_KEYS = ("f1", "hd", "d_hat", "d_abs_rel_err", "models_evaluated", "d_exact")

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
        r["d_exact"] = 1.0 if r["d_hat"] == r["d_true"] else 0.0
    outcomes = {}
    for key in OUTCOME_KEYS:
        vals = [r[key] for r in good]
        outcomes[key] = {
            "mean": float(np.mean(vals)) if vals else None,
            "sd": float(np.std(vals, ddof=1)) if len(vals) > 1 else None,
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
    selection = SELECTIONS[args.select]
    if selection == "none":
        raise DomainError("bench needs a selection rule (bic or min-hd)")
    rows = _run_replicates(args, _model_fields(args), selection)
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
    spec = {
        **_preset_shape(args.preset),
        "phi_scale": 0.75 if args.violation == "thresh" else 0.0,
        "ucc_fraction": 0.75 if args.violation == "ucc" else 0.0,
    }
    rows = _run_replicates(args, spec, "min-hd-oracle")
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
    _add_model_flags(p_sim, phi_scale=0.0)
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
    _add_model_flags(p_low, phi_scale=0.25)
    p_low.add_argument("--select", choices=["bic", "min-hd"], default="bic")
    p_low.add_argument("--jobs", type=int, default=1, help="worker processes")
    p_low.add_argument("--out-json", default="bench_low.json")
    p_low.add_argument("--out-csv", default="bench_low.csv")
    p_low.set_defaults(func=cmd_bench_low)

    p_high = bench_sub.add_parser("high", help="high-dimensional study with oracle selection")
    p_high.add_argument("--preset", choices=sorted(PRESET_NAMES), required=True)
    p_high.add_argument("--violation", choices=["thresh", "ucc"], required=True)
    p_high.add_argument("--reps", type=int, default=10)
    p_high.add_argument("--seed", type=int, default=0)
    p_high.add_argument("--jobs", type=int, default=1, help="worker processes")
    p_high.add_argument("--out-json", default="bench_high.json")
    p_high.add_argument("--out-csv", default="bench_high.csv")
    p_high.set_defaults(func=cmd_bench_high)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", append=True)  # earlier filters still apply
        try:
            code, error = args.func(args), None
        except (CtFactorError, OSError) as exc:
            code, error = 2, f"error: {exc}"
        except Exception as exc:  # anything unexpected is an internal failure
            code, error = 3, f"internal error: {type(exc).__name__}: {exc}"
    for message in dict.fromkeys(str(w.message) for w in caught):
        print(f"warning: {message}", file=sys.stderr)
    if error:
        print(error, file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
