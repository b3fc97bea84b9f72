"""Structure recovery metrics, invariant to factor (column) relabeling.

An estimated support is compared with a true support by matching columns
one-to-one so that matched supports overlap as much as possible. When the
factor counts differ, the short side is padded with empty columns, so an
unmatched column pays for its full support. The Hamming distance is the
minimized symmetric difference; the F1 score rewards the same overlap on a
0-1 scale.

The column overlaps are counted from the support pairs, variable by
variable, into a sparse d_hat x d matrix with at most
``sum_i |pa_est(i)| * |pa_true(i)|`` non-zeros. Overlaps are non-negative
and a zero pair adds nothing to a matching, so the padded assignment
problem splits over the connected components of the bipartite graph of
non-zero overlaps: each component is solved alone by a rectangular
assignment solver (a 1 x 1 component is its own answer), and the optimum
is the sum of the component optima.
"""

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.optimize import linear_sum_assignment
from scipy.sparse.csgraph import connected_components

from .errors import DimensionMismatch

__all__ = ["MetricReport", "hamming_distance"]


@dataclass(frozen=True)
class MetricReport:
    """Result of comparing an estimated support with a true one.

    ``best_permutation[a]`` is the true-column index matched to estimated
    column ``a``, or None when that column was matched to padding.
    """

    hd: int
    f1: float
    best_permutation: tuple
    d_hat: int
    d_true: int

    def to_json_dict(self):
        return {
            "hd": self.hd,
            "f1": self.f1,
            "best_permutation": [
                None if m is None else int(m) for m in self.best_permutation
            ],
            "d_hat": self.d_hat,
            "d_true": self.d_true,
        }


def _column_indicators(structure):
    """Sparse p x d 0-1 indicator of the support."""
    pairs = np.array(list(structure.support), dtype=np.int64).reshape(-1, 2)
    ones = np.ones(len(pairs), dtype=np.int64)
    return sparse.csr_array(
        (ones, (pairs[:, 0], pairs[:, 1])), shape=(structure.p, structure.d)
    )


def _match_components(d_hat, d_true, rows, cols, weights):
    """Maximum-weight matching of the non-zero overlaps ``(rows, cols, weights)``.

    Returns the matched total and the matched pairs as two index arrays.
    """
    graph = sparse.coo_array(
        (np.ones(len(rows)), (rows, d_hat + cols)), shape=(d_hat + d_true,) * 2
    )
    _, labels = connected_components(graph, directed=False)
    comp = labels[rows]
    n_est = np.bincount(labels[:d_hat], minlength=labels.max() + 1)
    n_true = np.bincount(labels[d_hat:], minlength=labels.max() + 1)
    single = (n_est[comp] == 1) & (n_true[comp] == 1)
    matched = int(weights[single].sum())
    est_parts, true_parts = [rows[single]], [cols[single]]

    rest = np.flatnonzero(~single)
    rest = rest[np.argsort(comp[rest], kind="stable")]
    bounds = np.flatnonzero(np.diff(comp[rest])) + 1
    for edges in np.split(rest, bounds) if rest.size else ():
        est_ids, r = np.unique(rows[edges], return_inverse=True)
        true_ids, c = np.unique(cols[edges], return_inverse=True)
        block = np.zeros((est_ids.size, true_ids.size), dtype=np.int64)
        block[r, c] = weights[edges]
        a, b = linear_sum_assignment(block, maximize=True)
        matched += int(block[a, b].sum())
        est_parts.append(est_ids[a])
        true_parts.append(true_ids[b])
    return matched, np.concatenate(est_parts), np.concatenate(true_parts)


def hamming_distance(est, truth):
    """Minimum symmetric difference between supports over column matchings.

    Returns the full :class:`MetricReport`: ``hd`` is the metric and ``f1``
    the best-matching F1 between supports (1.0 iff identical up to order).

    ``best_permutation`` is pinned as follows: inside each component of
    non-zero overlaps the solver's matching is kept; the real columns left
    over (which overlap none of the other side's leftovers) are paired in
    ascending index order, estimated with true, and the rest map to None.
    """
    if est.p != truth.p:
        raise DimensionMismatch(
            f"structures cover different variable counts: {est.p} vs {truth.p}"
        )
    overlap = (_column_indicators(est).T @ _column_indicators(truth)).tocoo()
    matched, est_idx, true_idx = _match_components(
        est.d, truth.d, overlap.row, overlap.col, overlap.data
    )

    mapping = [None] * est.d
    for a, b in zip(est_idx.tolist(), true_idx.tolist()):
        mapping[a] = b
    true_left = np.ones(truth.d, dtype=bool)
    true_left[true_idx] = False
    est_left = [a for a in range(est.d) if mapping[a] is None]
    for a, b in zip(est_left, np.flatnonzero(true_left).tolist()):
        mapping[a] = b

    total = len(est.support) + len(truth.support)
    return MetricReport(
        hd=total - 2 * matched,
        f1=0.0 if total == 0 else (2.0 * matched) / total,
        best_permutation=tuple(mapping),
        d_hat=est.d,
        d_true=truth.d,
    )
