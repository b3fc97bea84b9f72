"""Output checks that share no code with the package.

Each check takes a parsed ``fit`` document plus what the benchmark knows
about the input (the data or correlation it generated, the true
structure) and returns a list of problems; an empty list means the output
passed. Graphs are thresholded here from ``numpy`` correlations, maximal
cliques come from ``networkx.find_cliques``, assignments from
``scipy.optimize.linear_sum_assignment``, and the document shape from the
JSON schemas shipped with the package.
"""

import json
import math
import os

import networkx as nx
import numpy as np
from jsonschema import Draft7Validator
from scipy.optimize import linear_sum_assignment

from gen import TAU_GRID

#: Relative tolerance on the BIC identity and the saturated-likelihood bound.
REL_TOL = 1e-9

#: Required mean F1 of the BIC selections against the generator's structure.
MIN_MEAN_F1 = 0.95


def load_validator(schemas_dir):
    """Validator for the ``fit`` output schema shipped with the package."""
    with open(os.path.join(schemas_dir, "ct_result.schema.json")) as fh:
        return Draft7Validator(json.load(fh))


def schema_problems(doc, validator):
    return [f"schema: {e.message}" for e in validator.iter_errors(doc)]


def column_sets(structure_doc):
    """Child sets of a structure document, as a set of frozensets."""
    cols = {}
    for i, j in structure_doc["support"]:
        cols.setdefault(j, set()).add(i)
    return {frozenset(c) for c in cols.values()}


def _same_taus(got, want):
    got, want = sorted(got), sorted(want)
    return len(got) == len(want) and np.allclose(got, want, rtol=0, atol=1e-12)


def grid_problems(doc):
    """``tau_values`` and ``skipped_taus`` must partition the 40-point grid."""
    seen = [t for c in doc["candidates"] for t in c["tau_values"]] + doc["skipped_taus"]
    if not _same_taus(seen, TAU_GRID):
        return [f"taus do not partition the grid: {len(seen)} taus listed"]
    return []


def clique_problems(doc, corr):
    """Every factor is a clique at one of its taus and a closed neighbourhood.

    At the candidate's first tau, each factor must be a clique of the graph
    ``|corr| > tau`` and equal the closed neighbourhood of at least one of
    its own members.
    """
    problems = []
    absr = np.abs(corr)
    for c, cand in enumerate(doc["candidates"]):
        tau = cand["tau_values"][0]
        closed = absr > tau
        np.fill_diagonal(closed, True)
        for col in column_sets(cand["structure"]):
            members = np.fromiter(sorted(col), dtype=int)
            rows = closed[members]
            if not rows[:, members].all():
                problems.append(f"candidate {c}: a factor is not a clique at tau={tau:.4f}")
                break
            if not (rows.sum(axis=1) == members.size).any():
                problems.append(
                    f"candidate {c}: a factor is no member's closed neighbourhood at tau={tau:.4f}"
                )
                break
    return problems


def independent_cliques(corr, tau):
    """Maximal cliques of ``|corr| > tau`` that own a vertex, via networkx."""
    p = corr.shape[0]
    graph = nx.Graph()
    graph.add_nodes_from(range(p))
    ii, jj = np.nonzero(np.triu(np.abs(corr) > tau, k=1))
    graph.add_edges_from(zip(ii.tolist(), jj.tolist()))
    cliques = [frozenset(c) for c in nx.find_cliques(graph)]
    count = np.zeros(p, dtype=int)
    for clique in cliques:
        count[list(clique)] += 1
    return frozenset(c for c in cliques if any(count[v] == 1 for v in c))


def rebuild_problems(doc, corr):
    """The sweep's candidates and skipped taus, rebuilt with networkx."""
    expected, skipped = {}, []
    for tau in TAU_GRID:
        cols = independent_cliques(corr, tau)
        if cols:
            expected.setdefault(cols, []).append(float(tau))
        else:
            skipped.append(float(tau))
    got = {}
    for cand in doc["candidates"]:
        got.setdefault(frozenset(column_sets(cand["structure"])), []).extend(cand["tau_values"])
    problems = []
    if set(got) != set(expected):
        problems.append(
            f"candidates differ from the rebuild: {len(got)} found, {len(expected)} expected, "
            f"{len(set(got) & set(expected))} in common"
        )
    elif any(not _same_taus(got[k], expected[k]) for k in got):
        problems.append("candidate tau values differ from the rebuild")
    if len(doc["candidates"]) != len(expected):
        problems.append("duplicate candidates in the output")
    if not _same_taus(doc["skipped_taus"], skipped):
        problems.append("skipped taus differ from the rebuild")
    return problems


def bic_problems(doc, corr, n):
    """BIC identity, saturated bound on the log-likelihood, argmin selection."""
    problems = []
    p = corr.shape[0]
    _, logdet = np.linalg.slogdet(corr)
    saturated = -0.5 * n * (p * math.log(2 * math.pi) + logdet + p)
    scored = []
    for c, cand in enumerate(doc["candidates"]):
        if cand["bic"] is None:
            continue
        scored.append(c)
        support = cand["structure"]["support"]
        d = len({j for _, j in support})
        k = len(support) + d * (d - 1) // 2 + p
        want = -2.0 * cand["loglik"] + k * math.log(n)
        if abs(cand["bic"] - want) > REL_TOL * max(1.0, abs(want)):
            problems.append(f"candidate {c}: bic {cand['bic']!r} != -2 loglik + k log n = {want!r}")
        if cand["loglik"] > saturated + REL_TOL * abs(saturated):
            problems.append(f"candidate {c}: loglik {cand['loglik']!r} above saturated {saturated!r}")
    if not scored:
        return problems + ["no candidate has a BIC"]
    best = min(scored, key=lambda c: doc["candidates"][c]["bic"])
    sel = doc["selected_index"]
    if sel not in scored or doc["candidates"][sel]["bic"] != doc["candidates"][best]["bic"]:
        problems.append(f"selected_index {sel} is not the BIC argmin {best}")
    return problems


def _indicators(cols, p):
    mat = np.zeros((p, len(cols)))
    for k, col in enumerate(cols):
        mat[list(col), k] = 1.0
    return mat


def match(est_cols, true_cols, p):
    """``(hd, f1)`` under the best one-to-one column matching (padded)."""
    est, true = _indicators(list(est_cols), p), _indicators(list(true_cols), p)
    m = max(est.shape[1], true.shape[1])
    overlap = np.zeros((m, m))
    overlap[: est.shape[1], : true.shape[1]] = est.T @ true
    rows, cols = linear_sum_assignment(overlap, maximize=True)
    matched = int(round(overlap[rows, cols].sum()))
    total = int(est.sum() + true.sum())
    return total - 2 * matched, (2.0 * matched / total if total else 0.0)


def mean_f1_problems(f1s):
    """The round's BIC selections recover the generator's structure."""
    if None in f1s or sum(f1s) / len(f1s) < MIN_MEAN_F1:
        return [f"mean F1 of {f1s} below {MIN_MEAN_F1}"]
    return []


def oracle_problems(doc, truth):
    """Every ``hd`` recomputed; the selection has the smallest one."""
    true_cols = [frozenset(c) for c in truth]
    hds = []
    problems = []
    for c, cand in enumerate(doc["candidates"]):
        hd, _ = match(column_sets(cand["structure"]), true_cols, cand["structure"]["p"])
        hds.append(hd)
        if cand["hd"] != hd:
            problems.append(f"candidate {c}: hd {cand['hd']} != recomputed {hd}")
    sel = doc["selected_index"]
    if not hds or sel is None or not 0 <= sel < len(hds) or hds[sel] != min(hds):
        problems.append(f"selected_index {sel} does not have the smallest hd")
    return problems


def consistency_problems(doc, truth, gap):
    """At a grid tau inside the population gap, the sweep finds the truth."""
    lo, hi = gap
    inside = [t for t in TAU_GRID if lo < t < hi]
    if not inside:
        return [f"no grid tau inside the population gap ({lo:.4f}, {hi:.4f})"]
    tau = min(inside, key=lambda t: abs(t - (lo + hi) / 2))
    for cand in doc["candidates"]:
        if any(abs(t - tau) < 1e-12 for t in cand["tau_values"]):
            if column_sets(cand["structure"]) != {frozenset(c) for c in truth}:
                return [f"candidate at tau={tau:.4f} is not the generator's structure"]
            return []
    return [f"no candidate at tau={tau:.4f}, inside the population gap"]
