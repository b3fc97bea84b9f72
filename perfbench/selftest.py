"""Self-test of the benchmark: toy-size runs plus deliberately broken outputs.

Usage, from the root of the repository: ``python3 perfbench/selftest.py``.

First every workload runs end to end at toy size through ``run.run``
(untraced and traced), and must report no failed operation and every
metric. Then each output check is fed the clean toy output, which it must
accept, and a corrupted copy aimed at it, which it must reject. Exits 0
when all of that holds, 1 otherwise.
"""

import copy
import json
import os
import shutil
import sys
import tempfile

import run  # sets the BLAS thread count before numpy loads

sys.path.insert(0, run.SRC_DIR)

import numpy as np  # noqa: E402

import checks  # noqa: E402
import gen  # noqa: E402


def _fit(inp, outdir, *extra):
    from ctfactor import cli

    out = os.path.join(outdir, inp["name"] + ".out.json")
    rc = cli.main(["fit", inp["path"], *extra, "--out", out])
    if rc != 0:
        raise RuntimeError(f"fit exited {rc} on {inp['name']}")
    with open(out) as fh:
        return json.load(fh)


def _drop_member(doc, c):
    """Drop one variable from the largest factor of candidate ``c``, in place."""
    support = doc["candidates"][c]["structure"]["support"]
    sizes = {}
    for _, j in support:
        sizes[j] = sizes.get(j, 0) + 1
    big = max(sizes, key=sizes.get)
    victim = next(pair for pair in support if pair[1] == big)
    support.remove(victim)


def _merge_factors(doc, c):
    """Merge the first two factors of candidate ``c`` into one, in place."""
    st = doc["candidates"][c]["structure"]
    st["support"] = sorted([i, 0 if j == 1 else (j - 1 if j > 1 else j)] for i, j in st["support"])
    st["d"] -= 1


def corruption_cases(tmp):
    """``(name, check, clean_doc, corrupt)`` for every check."""
    validator = checks.load_validator(run.SCHEMAS_DIR)
    cases = []

    low = gen.lowdim_inputs(tmp, 0, toy=True)[0]
    doc = _fit(low, tmp, "--select", "bic")
    low_corr = np.corrcoef(low["data"], rowvar=False)
    fitted = [k for k, c in enumerate(doc["candidates"]) if c["bic"] is not None]
    other = next(k for k in fitted if k != doc["selected_index"])

    def set_key(d, key, value, c=None):
        (d if c is None else d["candidates"][c])[key] = value

    def above_saturated(d):
        cand = d["candidates"][0]
        p, n = low_corr.shape[0], low["n"]
        sat = -0.5 * n * (p * np.log(2 * np.pi) + np.linalg.slogdet(low_corr)[1] + p)
        cand["bic"] += -2.0 * (sat + 1.0 - cand["loglik"])
        cand["loglik"] = sat + 1.0

    bic = lambda d: checks.bic_problems(d, low_corr, low["n"])  # noqa: E731
    rebuild = lambda d: checks.rebuild_problems(d, low_corr)  # noqa: E731
    cases += [
        ("schema: missing key", lambda d: checks.schema_problems(d, validator), doc,
         lambda d: d.pop("selected_index")),
        ("schema: wrong type", lambda d: checks.schema_problems(d, validator), doc,
         lambda d: set_key(d, "hd", "3", 0)),
        ("bic: swapped selected_index", bic, doc, lambda d: set_key(d, "selected_index", other)),
        ("bic: bumped bic", bic, doc, lambda d: set_key(d, "bic", d["candidates"][0]["bic"] + 1e-3, 0)),
        ("bic: loglik above saturated", bic, doc, above_saturated),
        ("rebuild: dropped clique member", rebuild, doc, lambda d: _drop_member(d, 0)),
        ("rebuild: dropped candidate", rebuild, doc, lambda d: d["candidates"].pop()),
        ("rebuild: tau moved to skipped", rebuild, doc,
         lambda d: d["skipped_taus"].append(d["candidates"][0]["tau_values"].pop())),
        ("grid: dropped tau", checks.grid_problems, doc,
         lambda d: d["candidates"][0]["tau_values"].pop()),
    ]
    sel = doc["candidates"][doc["selected_index"]]["structure"]
    true_cols = [frozenset(c) for c in low["truth"]]
    f1 = checks.match(checks.column_sets(sel), true_cols, low["p"])[1]
    trivial = [frozenset([i]) for i in range(low["p"])]
    bad_f1 = checks.match(trivial, true_cols, low["p"])[1]
    cases.append(("mean F1: trivial selection", lambda fs: checks.mean_f1_problems(fs),
                  [f1, f1], lambda fs: fs.__setitem__(1, bad_f1)))

    hd = gen.highdim_inputs(tmp, 0, toy=True)[0]
    doc = _fit(hd, tmp, "--select", "min-hd", "--truth", hd["truth_path"])
    hd_corr = np.corrcoef(hd["data"], rowvar=False)
    worse = max(range(len(doc["candidates"])), key=lambda k: doc["candidates"][k]["hd"])
    clique = lambda d: checks.clique_problems(d, hd_corr)  # noqa: E731
    oracle = lambda d: checks.oracle_problems(d, hd["truth"])  # noqa: E731
    cases += [
        ("clique: dropped clique member", clique, doc,
         lambda d: _drop_member(d, d["selected_index"])),
        ("clique: merged factors", clique, doc, lambda d: _merge_factors(d, d["selected_index"])),
        ("oracle: bumped hd", oracle, doc, lambda d: set_key(d, "hd", d["candidates"][0]["hd"] + 1, 0)),
        ("oracle: swapped selected_index", oracle, doc, lambda d: set_key(d, "selected_index", worse)),
    ]

    plain = gen.p2000_inputs(tmp, 0, toy=True)[0]
    doc = _fit(plain, tmp, "--select", "none")
    consistency = lambda d: checks.consistency_problems(d, plain["truth"], plain["gap"])  # noqa: E731
    lo, hi = plain["gap"]
    inside = [t for t in gen.TAU_GRID if lo < t < hi]
    tau = min(inside, key=lambda t: abs(t - (lo + hi) / 2))
    at = next(k for k, c in enumerate(doc["candidates"])
              if any(abs(t - tau) < 1e-12 for t in c["tau_values"]))

    def unskip(d):
        d["candidates"][at]["tau_values"] = [
            t for t in d["candidates"][at]["tau_values"] if abs(t - tau) >= 1e-12]
        d["skipped_taus"].append(tau)

    cases += [
        ("consistency: merged factors at the gap tau", consistency, doc,
         lambda d: _merge_factors(d, at)),
        ("consistency: gap tau skipped", consistency, doc, unskip),
        ("clique (p2000 path): dropped clique member",
         lambda d: checks.clique_problems(d, plain["corr"]), doc, lambda d: _drop_member(d, at)),
    ]
    return cases


def main():
    ok = True
    for workload in ("bic-lowdim", "oracle-highdim", "sweep-p2000"):
        for trace in (0, 1):
            result, problems = run.run(workload, seed=0, seconds=0.0, trace=trace, toy=True)
            names = run.PER_LAYER if trace else run.END_TO_END
            good = (result["correct"] and result["failed"] == 0 and result["attempted"] > 0
                    and set(result["metrics"]) == set(names))
            ok &= good
            print(f"{'ok  ' if good else 'FAIL'} toy run {workload} trace={trace}: "
                  f"{result['attempted']} attempted, {result['failed']} failed {problems[:3]}")
    tmp = tempfile.mkdtemp(dir=run.BENCH_DIR, prefix="_selftest-")
    try:
        for name, check, clean, corrupt in corruption_cases(tmp):
            accepted = check(copy.deepcopy(clean)) == []
            bad = copy.deepcopy(clean)
            corrupt(bad)  # corruptions edit the copy in place
            rejected = check(bad) != []
            good = accepted and rejected
            ok &= good
            print(f"{'ok  ' if good else 'FAIL'} {name}: clean accepted={accepted}, "
                  f"corrupt rejected={rejected}")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print("self-test passed" if ok else "self-test FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
