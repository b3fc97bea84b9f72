"""Reference implementations for tests only.

Brute-force paths raise ``TooLarge`` beyond their size guards.

Structure metric. ``brute_force_metric`` enumerates every padded column permutation, so it
is exact by construction but capped at a few columns. ``dense_lsa_metric``
solves the padded assignment problem on the dense overlap matrix in one
solver call; it is the method the package used before the per-component
solve, and it scales to the sizes of the sparse metric's exactness tests.

Graphs. ``brute_force_independent_cliques`` enumerates every maximal
clique by Bron-Kerbosch with pivoting (Bron & Kerbosch 1973; Tomita et al.
2006) and keeps those with a vertex in no other maximal clique; it is
capped at 25 vertices. ``loop_independent_cliques`` is the package's
search as it was before it was vectorised, a Python loop over the
vertices with no size guard. ``neighborhood`` and ``is_clique`` read a graph
directly. ``per_tau_sweep`` rebuilds and searches the graph at every
threshold, as the sweep did before it became one pass.

Likelihood. ``gaussian_loglik`` evaluates the Gaussian log-likelihood of
any positive definite model directly from its Cholesky factor; it checks
the ceiling ``loglik_ceiling`` gives and the likelihoods the fitter
reports.

Population diagnostics. ``general_sufficient_check`` answers the
separability question of ``thresholdability`` by a second route: it
assembles each pair's correlation from the factor-correlation blocks of the
two parent sets, one pair at a time. ``gen_random_bipartite`` draws a
random support with independent edges, and ``ucc_probability_bound`` is
the closed-form floor on the chance that such a support keeps a unique
child for every factor.

JSON. ``dumps_json_reference`` is the stdlib encoder the package used
before its own emitter: numpy values and non-finite floats converted by a
copy of the whole document, then ``json.dumps`` with ``indent=2``.
``read_corr_json_reference`` is the correlation reader before orjson: the
stdlib decoder on a text-mode UTF-8 read, with the package's rules for
``n`` and for the matrix.
"""

import itertools
import json
import math

import numpy as np
from scipy.linalg import solve_triangular
from scipy.optimize import linear_sum_assignment

from ctfactor import (
    CliqueSet,
    MetricReport,
    Structure,
    build_graph,
    independent_maximal_cliques,
    structure_from_cliques,
)
from ctfactor.errors import (
    CtFactorError,
    DimensionMismatch,
    DomainError,
    GenerationFailure,
    ParseError,
)
from ctfactor.numerics import as_sym_matrix, cholesky
from ctfactor.simgen import MAX_REDRAWS

#: Column-count guard for the brute-force permutation oracle.
BRUTE_FORCE_MAX_COLUMNS = 8

#: Vertex-count guard for the brute-force clique enumerator.
BRUTE_FORCE_MAX_VERTICES = 25


class TooLarge(CtFactorError):
    """Input exceeds the hard guard of a brute-force code path."""


def brute_force_metric(est, truth, which):
    """Oracle value by explicit enumeration of padded column permutations.

    Parameters
    ----------
    which : str
        ``"hd"`` or ``"f1"``.

    Guarded to ``max(d_hat, d_true) <= 8``.
    """
    if which not in ("hd", "f1"):
        raise DomainError(f"which must be 'hd' or 'f1', got {which!r}")
    if est.p != truth.p:
        raise DimensionMismatch(
            f"structures cover different variable counts: {est.p} vs {truth.p}"
        )
    m = max(est.d, truth.d)
    if m > BRUTE_FORCE_MAX_COLUMNS:
        raise TooLarge(
            f"brute-force metric capped at {BRUTE_FORCE_MAX_COLUMNS} columns, got {m}"
        )
    est_sets = list(est.child_sets()) + [frozenset()] * (m - est.d)
    true_sets = list(truth.child_sets()) + [frozenset()] * (m - truth.d)
    best_hd = None
    best_f1 = None
    for perm in itertools.permutations(range(m)):
        inter = 0
        diff = 0
        for a, b in enumerate(perm):
            ca, cb = est_sets[a], true_sets[b]
            common = len(ca & cb)
            inter += common
            diff += len(ca) + len(cb) - 2 * common
        f1 = 0.0 if (2 * inter + diff) == 0 else 2.0 * inter / (2 * inter + diff)
        best_hd = diff if best_hd is None else min(best_hd, diff)
        best_f1 = f1 if best_f1 is None else max(best_f1, f1)
    return best_hd if which == "hd" else best_f1


def column_indicators(structure):
    """Dense p x d 0-1 indicator of the support."""
    cols = np.zeros((structure.p, structure.d), dtype=np.int64)
    for i, j in structure.support:
        cols[i, j] = 1
    return cols


def dense_lsa_metric(est, truth):
    """The metric from one assignment solve on the padded dense overlap matrix."""
    if est.p != truth.p:
        raise DimensionMismatch(
            f"structures cover different variable counts: {est.p} vs {truth.p}"
        )
    est_cols = column_indicators(est)
    true_cols = column_indicators(truth)
    total = int(est_cols.sum() + true_cols.sum())

    m = max(est.d, truth.d)
    overlap = np.zeros((m, m), dtype=np.int64)
    overlap[: est.d, : truth.d] = est_cols.T @ true_cols
    # maximizing overlap simultaneously minimizes the symmetric difference,
    # since |A| + |B| is fixed across matchings
    rows, cols = linear_sum_assignment(overlap, maximize=True)
    matched = int(overlap[rows, cols].sum())

    mapping = [None] * est.d
    for a, b in zip(rows, cols):
        if a < est.d and b < truth.d:
            mapping[a] = int(b)
    return MetricReport(
        hd=total - 2 * matched,
        f1=0.0 if total == 0 else (2.0 * matched) / total,
        best_permutation=tuple(mapping),
        d_hat=est.d,
        d_true=truth.d,
    )


def neighborhood(graph, vertex):
    """Closed neighborhood of ``vertex`` (the vertex plus its neighbors)."""
    if not 0 <= vertex < graph.p:
        raise DomainError(f"vertex {vertex} out of range for p={graph.p}")
    return frozenset(int(v) for v in np.flatnonzero(graph.closed[vertex]))


def is_clique(graph, vertices):
    """True when every pair in ``vertices`` is adjacent."""
    idx = np.fromiter((int(v) for v in set(vertices)), dtype=int)
    if idx.size > 0 and (idx.min() < 0 or idx.max() >= graph.p):
        raise DomainError(f"vertex out of range for p={graph.p}")
    if idx.size <= 1:
        return True
    return bool(np.all(graph.closed[np.ix_(idx, idx)]))


def _bron_kerbosch(current, candidates, excluded, neighbors, out):
    # pivoting variant; recursion depth bounded by the vertex count
    if not candidates and not excluded:
        out.append(frozenset(current))
        return
    pivot = max(candidates | excluded, key=lambda u: len(candidates & neighbors[u]))
    for v in list(candidates - neighbors[pivot]):
        _bron_kerbosch(
            current | {v},
            candidates & neighbors[v],
            excluded & neighbors[v],
            neighbors,
            out,
        )
        candidates.discard(v)
        excluded.add(v)


def brute_force_independent_cliques(graph):
    """Oracle: enumerate all maximal cliques, then filter independent ones.

    A maximal clique is independent when it contains a vertex belonging to
    no other maximal clique. Guarded to ``p <= 25``.
    """
    if graph.p > BRUTE_FORCE_MAX_VERTICES:
        raise TooLarge(
            f"brute-force clique enumeration capped at p={BRUTE_FORCE_MAX_VERTICES}, "
            f"got p={graph.p}"
        )
    neighbors = [
        set(int(v) for v in np.flatnonzero(graph.closed[i])) - {i} for i in range(graph.p)
    ]
    all_maximal = []
    _bron_kerbosch(set(), set(range(graph.p)), set(), neighbors, all_maximal)
    counts = np.zeros(graph.p, dtype=int)
    for clique in all_maximal:
        for v in clique:
            counts[v] += 1
    kept = []
    for clique in all_maximal:
        unique = frozenset(v for v in clique if counts[v] == 1)
        if unique:
            kept.append((clique, unique))
    kept.sort(key=lambda item: min(item[1]))
    return CliqueSet(
        p=graph.p,
        tau=graph.tau,
        cliques=tuple(c for c, _ in kept),
        unique_members=tuple(u for _, u in kept),
    )


def loop_independent_cliques(graph):
    """The clique search before it was vectorised: one vertex at a time.

    Scans each vertex once: the vertex's closed neighborhood is an
    independent maximal clique exactly when it is a clique, and the
    vertices generating the same clique are precisely its unique members.
    Runs in roughly the sum of degrees times ``p / 8`` bytes.
    """
    closed = graph.closed
    packed = np.packbits(closed, axis=1)
    sizes = np.count_nonzero(closed, axis=1)
    verdict_by_key = {}
    cliques = []
    members_of = []
    for i in range(graph.p):
        row = packed[i]
        key = row.tobytes()
        hit = verdict_by_key.get(key, -1)
        if hit != -1:
            if hit is not None:
                members_of[hit].append(i)
            continue
        members = np.flatnonzero(closed[i])
        # N[i] is a clique iff every member j has N[j] ⊇ N[i]; a member
        # with a smaller closed neighborhood fails without a comparison
        if sizes[members].min() < sizes[i] or not np.all(
            (packed[members] & row) == row
        ):
            verdict_by_key[key] = None
            continue
        verdict_by_key[key] = len(cliques)
        cliques.append(frozenset(int(v) for v in members))
        members_of.append([i])
    # vertices are scanned in order, so cliques come by smallest unique member
    return CliqueSet(
        p=graph.p,
        tau=graph.tau,
        cliques=tuple(cliques),
        unique_members=tuple(frozenset(m) for m in members_of),
    )


def per_tau_sweep(corr, thresholds):
    """The sweep rebuilt at every threshold: ``build_graph`` and a search each.

    Returns ``(cliques, candidates, skipped)``: the clique set of each
    threshold, the distinct structures in first-appearance order as
    ``(structure, tau_values)`` pairs, and the thresholds without cliques.
    """
    cliques_at = []
    candidates = []
    by_key = {}
    skipped = []
    for tau in thresholds:
        cliques = independent_maximal_cliques(build_graph(corr, tau))
        cliques_at.append(cliques)
        if len(cliques) == 0:
            skipped.append(float(tau))
            continue
        structure = structure_from_cliques(cliques)
        key = structure.canonical_key()
        if key not in by_key:
            by_key[key] = len(candidates)
            candidates.append((structure, []))
        candidates[by_key[key]][1].append(float(tau))
    return cliques_at, [(s, tuple(t)) for s, t in candidates], tuple(skipped)


def general_sufficient_check(theta):
    """Separability test evaluated through per-pair parent-set blocks.

    Independent route to the same yes/no answer as ``thresholdability``:
    for each pair the correlation is assembled from sub-blocks of the
    factor correlation indexed by the two parent sets (exclusive parts and
    overlap) instead of normalizing the full implied covariance. Shared
    pairs must all exceed non-shared pairs in absolute value, strictly.
    """
    lam = theta.loadings
    phi = theta.factor_corr
    # per-row implied standard deviations, assembled row by row
    row_var = np.einsum("ij,jk,ik->i", lam, phi, lam) + theta.error_var
    lam_std = lam / np.sqrt(row_var)[:, None]
    parents = [np.flatnonzero(lam[i]) for i in range(lam.shape[0])]
    parent_sets = [set(ix.tolist()) for ix in parents]

    def block(rowvec_i, rowvec_j, left, right):
        if len(left) == 0 or len(right) == 0:
            return 0.0
        li = np.fromiter(sorted(left), dtype=int)
        ri = np.fromiter(sorted(right), dtype=int)
        return float(rowvec_i[li] @ phi[np.ix_(li, ri)] @ rowvec_j[ri])

    min_shared = None
    max_unshared = None
    p = lam.shape[0]
    for i in range(p):
        for j in range(i + 1, p):
            overlap = parent_sets[i] & parent_sets[j]
            li, lj = lam_std[i], lam_std[j]
            if overlap:
                only_i = parent_sets[i] - overlap
                only_j = parent_sets[j] - overlap
                val = (
                    block(li, lj, only_i, only_j)
                    + block(li, lj, overlap, only_j)
                    + block(li, lj, only_i, overlap)
                    + block(li, lj, overlap, overlap)
                )
                val = abs(val)
                min_shared = val if min_shared is None else min(min_shared, val)
            else:
                val = abs(block(li, lj, parent_sets[i], parent_sets[j]))
                max_unshared = val if max_unshared is None else max(max_unshared, val)
    if min_shared is None:
        min_shared = 1.0
    if max_unshared is None:
        max_unshared = 0.0
    return max_unshared < min_shared


def gen_random_bipartite(p, d, alpha, rng):
    """Random bipartite support: each edge present independently w.p. alpha.

    Empty rows are re-drawn row-wise (a variable must have a parent); an
    empty column restarts the whole draw. Returns a ``Structure``.
    """
    if p < 1 or d < 1:
        raise DomainError(f"p and d must be >= 1, got p={p}, d={d}")
    if not 0.0 < alpha <= 1.0:
        raise DomainError(f"alpha must lie in (0, 1], got {alpha}")
    for _ in range(MAX_REDRAWS):
        mat = rng.random((p, d)) < alpha
        for i in range(p):
            guard = 0
            while not mat[i].any():
                mat[i] = rng.random(d) < alpha
                guard += 1
                if guard > 100_000:
                    raise GenerationFailure("row redraw budget exhausted")
        if mat.any(axis=0).all():
            support = frozenset(
                (int(i), int(j)) for i, j in zip(*np.nonzero(mat))
            )
            return Structure(p=p, d=d, support=support)
    raise GenerationFailure(
        f"no support without empty columns in {MAX_REDRAWS} draws "
        f"(p={p}, d={d}, alpha={alpha})"
    )


def ucc_probability_bound(p, d, alpha):
    """Lower bound on the chance a random bipartite support is identifiable.

    For independent edge probability ``alpha`` over a ``p x d`` support,
    the probability every factor keeps at least one unique child is at
    least ``1 - d * exp(-alpha * p * (1 - alpha)**d)``, clamped to
    ``[0, 1]``.
    """
    if p < 1 or d < 1:
        raise DomainError(f"p and d must be >= 1, got p={p}, d={d}")
    if not 0.0 <= alpha <= 1.0:
        raise DomainError(f"alpha must lie in [0, 1], got {alpha}")
    bound = 1.0 - d * math.exp(-alpha * p * (1.0 - alpha) ** d)
    return float(min(1.0, max(0.0, bound)))


def gaussian_loglik(sigma_model, s_sample, n):
    """Gaussian log-likelihood of a covariance model against a sample matrix.

    ``-(n / 2) * (p * log(2 pi) + logdet(sigma) + trace(sigma^-1 @ s))``.
    The sample matrix only needs to be symmetric; the model matrix must be
    positive definite.
    """
    if n <= 0:
        raise DomainError(f"n must be positive, got {n}")
    sig = as_sym_matrix(sigma_model, name="sigma_model")
    s = as_sym_matrix(s_sample, name="s_sample")
    if sig.shape != s.shape:
        raise DimensionMismatch(
            f"shape mismatch: model {sig.shape} vs sample {s.shape}"
        )
    lower = cholesky(sig)
    p = sig.shape[0]
    logdet = 2.0 * float(np.sum(np.log(np.diag(lower))))
    half = solve_triangular(lower, s, lower=True)
    solved = solve_triangular(lower.T, half, lower=False)
    trace = float(np.trace(solved))
    return -0.5 * n * (p * math.log(2.0 * math.pi) + logdet + trace)


def _plain(obj):
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _plain(obj.tolist())
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        return v if np.isfinite(v) else None
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def dumps_json_reference(doc):
    """The text ``io.dumps_json`` must produce for ``doc``."""
    return json.dumps(_plain(doc), indent=2, sort_keys=True, allow_nan=False)


def read_corr_json_reference(path):
    """``(corr, n)`` of a correlation JSON, or the ParseError the package's
    ``read_corr_json`` must raise."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: invalid UTF-8: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(doc, dict) or "correlation" not in doc or "n" not in doc:
        raise ParseError(f"{path}: expected keys 'correlation' and 'n'")
    try:
        corr = np.asarray(doc["correlation"], dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"{path}: {exc}") from None
    n = doc["n"]
    if isinstance(n, bool) or not isinstance(n, int):
        raise ParseError(f"{path}: n must be an integer, got {n!r}")
    if corr.ndim != 2 or corr.shape[0] != corr.shape[1]:
        raise ParseError(f"{path}: correlation must be a square matrix")
    if n < 1:
        raise ParseError(f"{path}: n must be >= 1, got {n}")
    return corr, n
