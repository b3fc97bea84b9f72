"""Benchmark of the ``ctfactor fit`` command on three fixed workloads.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all      # every workload in turn

Workloads (closed loop, one command at a time, in one fresh process):

* ``bic-lowdim``: ``fit data.csv --select bic`` on the paper's
  low-dimensional family (d=3, 5 children, n=1000, phi_scale 0.25 and 0.75).
* ``oracle-highdim``: ``fit data.csv --select min-hd --truth s.json`` on
  ``highdim-1000`` datasets (n=1000, p=1500, d=100), violations thresh, ucc.
* ``sweep-p2000``: ``fit corr.json --select none`` on p=2000 correlation
  JSONs of block factor models, with and without a UCC violation.

The run generates its inputs from ``--seed`` (a fixed panel of draws,
relabelled by the seed; see ``gen.py``), starts a worker process three
times (imports plus a warm-up command; the set-up time is input generation
plus the median start-up), and lets the last worker run whole rounds
(each input once) while the next one is likely to end within
``--seconds``. Every output is then checked by ``checks.py``. With
``--trace 1`` the worker alternates untraced and traced rounds and the
metrics are the per-layer ones. The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC_DIR = os.path.join(os.getcwd(), "src")
SCHEMAS_DIR = os.path.join(SRC_DIR, "ctfactor", "schemas")
WORK_DIR = os.path.join(BENCH_DIR, "_work")
RESULTS_DIR = os.path.join(BENCH_DIR, "_results")

#: Worker start-ups per run; the set-up time reports their median.
STARTUPS = 3

#: Hard limit on the worker processes of one run, in seconds.
WORKER_TIMEOUT_S = 150

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "estimate.fit_s": "s", "estimate.fit_calls": "count",
    "estimate.em_iterations": "count", "estimate.fits_nonconverged": "count",
    "graph.build_s": "s", "graph.build_calls": "count",
    "graph.search_s": "s", "graph.search_calls": "count",
    "graph.structure_s": "s", "metrics.hd_s": "s", "metrics.hd_calls": "count",
    "io.read_csv_s": "s", "io.read_json_s": "s", "io.write_json_s": "s",
    "estimate.corr_s": "s", "ct.self_s": "s", "cli.self_s": "s",
    "trace.overhead_s": "s", "trace.unaccounted_s": "s",
}


def _fit_argv(extra):
    return lambda inp, out: ["fit", inp["path"], *extra(inp), "--out", out]


def _workloads():
    import gen

    return {
        "bic-lowdim": (gen.lowdim_inputs, _fit_argv(lambda i: ["--select", "bic"])),
        "oracle-highdim": (
            gen.highdim_inputs,
            _fit_argv(lambda i: ["--select", "min-hd", "--truth", i["truth_path"]]),
        ),
        "sweep-p2000": (gen.p2000_inputs, _fit_argv(lambda i: ["--select", "none"])),
    }


def check_output(workload, doc, inp, validator):
    """Problems with one ``fit`` output; also returns the selection's F1."""
    import checks
    import numpy as np

    problems = checks.schema_problems(doc, validator)
    if problems:
        return problems, None
    problems += checks.grid_problems(doc)
    f1 = None
    if workload == "bic-lowdim":
        corr = np.corrcoef(inp["data"], rowvar=False)
        problems += checks.rebuild_problems(doc, corr)
        problems += checks.bic_problems(doc, corr, inp["n"])
        sel = doc["selected_index"]
        if sel is not None:
            _, f1 = checks.match(
                checks.column_sets(doc["candidates"][sel]["structure"]),
                [frozenset(c) for c in inp["truth"]], inp["p"],
            )
    else:
        corr = inp["corr"] if "corr" in inp else np.corrcoef(inp["data"], rowvar=False)
        problems += checks.clique_problems(doc, corr)
    if workload == "oracle-highdim":
        problems += checks.oracle_problems(doc, inp["truth"])
    if workload == "sweep-p2000" and not inp["violation"]:
        problems += checks.consistency_problems(doc, inp["truth"], inp["gap"])
    return problems, f1


def _start_worker(manifest, path):
    with open(path, "w") as fh:
        json.dump(manifest, fh)
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(BENCH_DIR, "worker.py"), path],
        stdout=subprocess.PIPE, text=True,
    )
    return proc, t0


def _read_event(proc, name):
    for line in proc.stdout:
        doc = json.loads(line)
        if doc.get("event") == name:
            return doc
    raise RuntimeError(f"worker ended before its {name!r} event (exit {proc.wait()})")


def _run_worker(manifest, path, deadline):
    """Start a worker and read its events; killed at ``deadline``."""
    proc, t0 = _start_worker(manifest, path)
    timer = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    try:
        ready = _read_event(proc, "ready")
        startup = time.perf_counter() - t0
        done = None if manifest["startup_only"] else _read_event(proc, "done")
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if ready["warmup_rc"] != 0:
        raise RuntimeError(f"warm-up command exited {ready['warmup_rc']}")
    return startup, done


def environment():
    """Git sha, nproc, and Python, numpy and BLAS versions of this run."""
    import numpy as np

    sha = "unknown"
    head = os.path.join(".git", "HEAD")
    if os.path.exists(head):
        with open(head) as fh:
            ref = fh.read().strip()
        sha = ref
        if ref.startswith("ref: "):
            path = os.path.join(".git", ref[5:])
            if os.path.exists(path):
                with open(path) as fh:
                    sha = fh.read().strip()
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        blas = "unknown"
    return {
        "git_sha": sha, "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": np.__version__, "blas": blas, "blas_threads": int(BLAS_THREADS),
    }


def run(workload, seed, seconds, trace, toy=False):
    """One benchmark run; returns ``(result, problems)``.

    ``result`` is the document printed as the last line; ``problems``
    lists every failed check. The full record, with the environment, goes
    to ``_results/``.
    """
    from checks import load_validator, mean_f1_problems

    make_inputs, make_argv = _workloads()[workload]
    tag = f"{workload}-s{seed}-t{trace}{'-toy' if toy else ''}-{os.getpid()}"
    workdir = os.path.join(WORK_DIR, tag)
    os.makedirs(os.path.join(workdir, "toy"))
    os.makedirs(RESULTS_DIR, exist_ok=True)
    deadline = time.monotonic() + WORKER_TIMEOUT_S
    try:
        t0 = time.perf_counter()
        inputs = make_inputs(workdir, seed, toy=toy)
        # a fixed warm-up input, so start-up work does not vary with the seed
        warm = make_inputs(os.path.join(workdir, "toy"), 0, toy=True)[0]
        gen_s = time.perf_counter() - t0
        warm_argv = make_argv(warm, os.path.join(workdir, "toy", "out.json"))
        if workload == "bic-lowdim":
            # one tau whose toy candidate converges in a few EM steps
            warm_argv += ["--thresholds", "0.3"]
        manifest = {
            "src": SRC_DIR, "bench_dir": BENCH_DIR, "warmup": warm_argv,
            "round": [
                make_argv(inp, os.path.join(workdir, f"out-r{{round}}-{i}.json"))
                for i, inp in enumerate(inputs)
            ],
            "seconds": seconds, "trace": bool(trace),
            "trace_path": os.path.join(RESULTS_DIR, tag + ".spans.jsonl"),
        }
        startups = []
        for k in range(STARTUPS):
            manifest["startup_only"] = k < STARTUPS - 1
            startup, done = _run_worker(manifest, os.path.join(workdir, "manifest.json"), deadline)
            startups.append(startup)

        validator = load_validator(SCHEMAS_DIR)
        verdicts = {}
        problems, attempted, failed = [], 0, 0
        for r, rnd in enumerate(done["rounds"]):
            found_by_op, f1s = [], []
            for i, (op, inp) in enumerate(zip(rnd["ops"], inputs)):
                found, f1 = [f"exit {op['rc']}"], None
                if op["rc"] == 0:
                    with open(os.path.join(workdir, f"out-r{r}-{i}.json")) as fh:
                        doc = json.load(fh)
                    # rounds repeat the inputs: equal outputs share one verdict
                    key = (i, json.dumps({k: v for k, v in doc.items() if k != "timings_s"}))
                    if key not in verdicts:
                        verdicts[key] = check_output(workload, doc, inp, validator)
                    found, f1 = verdicts[key]
                found_by_op.append([f"round {r} {inp['name']}: {m}" for m in found])
                f1s.append(f1)
            if workload == "bic-lowdim":
                # the mean F1 is a property of the round: every command in it fails
                for found in found_by_op:
                    found += [f"round {r}: {m}" for m in mean_f1_problems(f1s)]
            attempted += len(found_by_op)
            failed += sum(1 for found in found_by_op if found)
            problems += [m for found in found_by_op for m in found]

        walls = [x["wall_s"] for x in done["rounds"] if not x["traced"]]
        if trace:
            traced = [x["wall_s"] for x in done["rounds"] if x["traced"]]
            layers = done["layers"]
            n_traced = len(traced)
            values = {k: v / n_traced for k, v in layers.items() if k in PER_LAYER}
            values["trace.overhead_s"] = statistics.median(traced) - statistics.median(walls)
            values["trace.unaccounted_s"] = (sum(traced) - layers["layers_self_s"]) / n_traced
            metrics = {k: {"value": values[k], "unit": u} for k, u in PER_LAYER.items()}
        else:
            values = {
                "wall_s": statistics.median(walls),
                "setup_s": gen_s + statistics.median(startups),
                "peak_rss_mb": done["peak_rss_mb"],
            }
            metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
        result = {
            "correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics,
        }
        record = {
            **result, "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
            "rounds": done["rounds"], "gen_s": gen_s, "startups_s": startups,
            "problems": problems, "environment": environment(),
        }
        with open(os.path.join(RESULTS_DIR, tag + ".json"), "w") as fh:
            json.dump(record, fh, indent=1)
        return result, problems
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["bic-lowdim", "oracle-highdim", "sweep-p2000", "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC_DIR, "ctfactor", "cli.py")):
        print(f"error: no package source at {SRC_DIR}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC_DIR)
    sys.path.insert(0, BENCH_DIR)
    names = list(_workloads()) if args.workload == "all" else [args.workload]
    for name in names:
        result, problems = run(name, args.seed, args.seconds, args.trace)
        for msg in problems[:20]:
            print(f"{name}: check failed: {msg}", file=sys.stderr)
        print(f"{name}: attempted {result['attempted']}, failed {result['failed']}",
              file=sys.stderr)
        for metric, m in result["metrics"].items():
            print(f"{name}: {metric} = {m['value']:.6g} {m['unit']}", file=sys.stderr)
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
