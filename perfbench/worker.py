"""One benchmark worker: a fresh process that drives ``ctfactor`` in-process.

Usage: ``python3 worker.py MANIFEST.json``. The manifest (written by
``run.py``) names the package source directory, the warm-up command, the
commands of one round, the run length and whether to trace. The worker
imports the package, runs the warm-up command, prints a ``ready`` line,
and, unless the manifest says ``startup_only``, runs whole rounds of the
commands through ``ctfactor.cli.main`` (a closed loop, one command at a
time) while the next round is likely to end within the run length (at
least one round). It prints one JSON line per event on standard output.

In a traced run the rounds alternate untraced and traced, so the
difference of their times is the tracing overhead.
"""

import json
import resource
import statistics
import sys
import time


def emit(doc):
    print(json.dumps(doc), flush=True)


def main(manifest_path):
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    sys.path.insert(0, manifest["src"])
    sys.path.insert(0, manifest["bench_dir"])
    import warnings

    from ctfactor import cli, ct

    import spans as tracing

    # the inputs trigger expected package warnings (for example a
    # non-converged fit); they are not part of the measurement
    warnings.simplefilter("ignore")
    rc = cli.main(manifest["warmup"])
    emit({"event": "ready", "warmup_rc": rc})
    if manifest["startup_only"] or rc != 0:
        return 0

    tracer = tracing.Tracer() if manifest["trace"] else None
    rounds = []
    t_begin = time.perf_counter()
    while True:
        r = len(rounds)
        traced = tracer is not None and r % 2 == 1
        if traced:
            tracer.tag = r
            tracer.install(cli, ct)
        ops = []
        for argv in manifest["round"]:
            argv = [a.replace("{round}", str(r)) for a in argv]
            span = tracer.open("cli.main") if traced else None
            t0 = time.perf_counter()
            rc = cli.main(argv)
            wall = time.perf_counter() - t0
            if traced:
                tracer.close(span)
            ops.append({"rc": rc, "wall_s": wall})
        if traced:
            tracer.uninstall()
        rounds.append({"traced": traced, "ops": ops,
                       "wall_s": sum(op["wall_s"] for op in ops)})
        # stop when one more round would likely end past the run length
        typical = statistics.median(x["wall_s"] for x in rounds)
        elapsed = time.perf_counter() - t_begin
        enough = len(rounds) >= (2 if tracer else 1)
        if enough and elapsed + typical > manifest["seconds"]:
            break

    done = {
        "event": "done",
        "rounds": rounds,
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        traced_tags = [r for r, x in enumerate(rounds) if x["traced"]]
        done["layers"] = tracing.summarize(tracer.spans, set(traced_tags))
        tracer.write_jsonl(manifest["trace_path"])
    emit(done)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
