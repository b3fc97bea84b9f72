"""Seeded input generation for the benchmark workloads.

Every input is a pure function of the workload seed. Each workload reads
a fixed panel of draws: models and samples come from the package's public
simulation generators (the families the acceptance tests use) at fixed
generator seeds, so the statistical content of an input, and with it the
work the program does on it, is the same in every run. The workload seed
draws a random relabelling of the variables (and, for data, an order of
the rows), so no two seeds give the program the same bytes. The fit time
of one dataset varies by a third from draw to draw, which a run of a few
fits could not average out; the relabelling keeps run-to-run differences
down to the program and the machine.

The benchmark keeps the true structure as a list of child sets read off
the loadings, so the output checks never go through the package's own
structure code.
"""

import json
import os

import numpy as np

import ctfactor

#: The 40-point threshold grid the ``fit`` command sweeps by default.
TAU_GRID = np.linspace(0.0, 1.0, 40)

#: Decimal places kept in the correlation JSON inputs.
JSON_DECIMALS = 6


def child_sets(loadings):
    """Support of a loading matrix as a sorted list of sorted child lists."""
    nz = np.asarray(loadings) != 0.0
    return sorted(sorted(int(i) for i in np.flatnonzero(nz[:, j])) for j in range(nz.shape[1]))


def structure_doc(cols, p):
    """Structure JSON for ``fit --truth``: ``{"p", "d", "support"}``."""
    support = sorted([i, k] for k, col in enumerate(cols) for i in col)
    return {"p": p, "d": len(cols), "support": support}


def population_gap(loadings, phi, omega):
    """``(max unshared |corr|, min shared |corr|)`` of the implied model."""
    lam = np.asarray(loadings)
    sigma = lam @ np.asarray(phi) @ lam.T + np.diag(omega)
    sd = np.sqrt(np.diag(sigma))
    corr = np.abs(sigma / np.outer(sd, sd))
    nz = (lam != 0.0).astype(float)
    shared = (nz @ nz.T) > 0
    iu = np.triu_indices(lam.shape[0], k=1)
    vals, share = corr[iu], shared[iu]
    return float(vals[~share].max(initial=0.0)), float(vals[share].min(initial=1.0))


def _write_csv(path, data):
    # full repr precision, as ``ctfactor simulate`` writes it
    with open(path, "w") as fh:
        fh.write(",".join(f"X{j + 1}" for j in range(data.shape[1])) + "\n")
        for row in data.tolist():
            fh.write(",".join(map(repr, row)) + "\n")


def _draw(d, children, n, slot, seed, phi_scale=0.0, ucc_fraction=0.0):
    """The draw at generator seed ``slot`` of a family, relabelled by ``seed``.

    Returns ``(theta, data, truth)``: the model in generator labels, the
    data with permuted rows and columns, and the child sets in the new
    labels (new variable ``j`` is generator variable ``perm[j]``).
    """
    spec = ctfactor.SimSpec(
        d=d, children_per_factor=children, n=n, seed=slot,
        phi_scale=phi_scale, ucc_fraction=ucc_fraction,
    )
    if ucc_fraction > 0:
        theta = ctfactor.gen_ucc_violation(spec)
    else:
        theta = ctfactor.gen_independent_cluster(spec)
    data = ctfactor.sample_dataset(theta, n, ctfactor.data_rng(spec))
    rng = np.random.default_rng([seed, slot])
    perm = rng.permutation(theta.p)
    data = data[rng.permutation(n)][:, perm]
    return theta, data, child_sets(theta.loadings[perm])


def _csv_input(workdir, name, data, cols):
    path = os.path.join(workdir, name + ".csv")
    _write_csv(path, data)
    truth = os.path.join(workdir, name + ".truth.json")
    with open(truth, "w") as fh:
        json.dump(structure_doc(cols, data.shape[1]), fh)
    return {
        "name": name, "path": path, "truth_path": truth, "truth": cols,
        "n": int(data.shape[0]), "p": int(data.shape[1]),
        # the checks re-derive the correlation from these exact values
        "data": data,
    }


def lowdim_inputs(workdir, seed, toy=False):
    """The paper's low-dimensional family: d=3, 5 children, n=1000.

    One dataset at ``phi_scale`` 0.25 and one at 0.75, the first replicate
    of each half of the acceptance study (generator seeds 1000 and 2000).
    The toy size (for warm-up and the self-test) has d=2, 4 children.
    """
    d, children = (2, 4) if toy else (3, 5)
    out = []
    for slot, phi in ((1000, 0.25), (2000, 0.75)):
        _, data, cols = _draw(d, children, 1000, slot, seed, phi_scale=phi)
        out.append(_csv_input(workdir, f"low-phi{phi}", data, cols))
    return out


def highdim_inputs(workdir, seed, toy=False):
    """``highdim-1000`` datasets (n=1000, p=1500, d=100), one per violation.

    ``thresh``: ``phi_scale`` 0.75, separability broken. ``ucc``: 75 % of
    the factors lose their unique children.
    """
    n, p, d = (100, 60, 6) if toy else ctfactor.HIGHDIM_PRESETS[1000]
    out = []
    for k, (name, kw) in enumerate(
        (("thresh", {"phi_scale": 0.75}), ("ucc", {"ucc_fraction": 0.75}))
    ):
        _, data, cols = _draw(d, p // d, n, k, seed, **kw)
        out.append(_csv_input(workdir, f"hd-{name}", data, cols))
    return out


def _dump_corr(path, corr, n):
    corr = np.round(corr, JSON_DECIMALS)
    np.fill_diagonal(corr, 1.0)
    text = json.dumps({"correlation": corr.tolist(), "n": n})
    with open(path, "w") as fh:
        fh.write(text)
    return corr


def p2000_inputs(workdir, seed, toy=False):
    """Correlation JSONs of block factor models at p = 2000.

    80 factors of 25 children, identity factor correlation, loadings on
    [0.6, 0.8]; sample correlation from n = 2000 rows, rounded to
    ``JSON_DECIMALS`` places. ``plain`` satisfies every condition of the
    consistency result; ``ucc`` strips 75 % of the factors of their unique
    children.
    """
    d, children, n = (6, 10, 1000) if toy else (80, 25, 2000)
    out = []
    for k, (name, kw) in enumerate((("plain", {}), ("ucc", {"ucc_fraction": 0.75}))):
        theta, data, cols = _draw(d, children, n, k, seed, **kw)
        path = os.path.join(workdir, f"p2000-{name}.json")
        corr = _dump_corr(path, np.corrcoef(data, rowvar=False), n)
        out.append({
            "name": f"p2000-{name}", "path": path, "truth": cols,
            "n": n, "p": theta.p, "corr": corr, "violation": bool(kw),
            "gap": population_gap(theta.loadings, theta.factor_corr, theta.error_var),
        })
    return out
