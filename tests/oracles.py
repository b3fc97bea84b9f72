"""Reference implementations of the structure metric, for tests only.

``brute_force_metric`` enumerates every padded column permutation, so it
is exact by construction but capped at a few columns. ``dense_lsa_metric``
solves the padded assignment problem on the dense overlap matrix in one
solver call; it is the method the package used before the per-component
solve, and it scales to the sizes of the sparse metric's exactness tests.
"""

import itertools

import numpy as np
from scipy.optimize import linear_sum_assignment

from ctfactor import MetricReport
from ctfactor.errors import DimensionMismatch, DomainError, TooLarge

#: Column-count guard for the brute-force permutation oracle.
BRUTE_FORCE_MAX_COLUMNS = 8


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
