"""Correlation thresholding and independent maximal clique search.

A graph is built by connecting every pair whose absolute correlation
strictly exceeds a threshold. The structural objects of interest are the
maximal cliques not covered by the union of the other maximal cliques;
each such clique owns at least one vertex that belongs to no other maximal
clique (a unique member), and it equals the closed neighborhood of any of
its unique members. That characterization gives a quadratic-time search:
test each vertex's closed neighborhood for cliqueness.

The search here does exactly that on bit-packed closed neighborhoods
(``p / 8`` bytes per row). A closed neighborhood ``N[i]`` is a clique
exactly when every member ``j`` has ``N[j] ⊇ N[i]``, which is one AND per
member row. Equal packed rows share one verdict, and a neighborhood with a
member whose closed neighborhood is smaller is rejected before any row is
compared.

Validating the matrix, taking its symmetric absolute value and
thresholding are separate steps, so a sweep over many thresholds does the
first two once (see ``ct.ct_run``). Each threshold then builds a single
``p x p`` boolean matrix, the closed neighborhoods, which serves both the
edge count and the search.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, DomainError, EmptyCliqueSet
from .model import Structure

__all__ = [
    "ThresholdedGraph",
    "CliqueSet",
    "build_graph",
    "independent_maximal_cliques",
    "structure_from_cliques",
]

#: Rows per tile where a matrix meets its transpose: a row tile and the
#: matching column tile stay in cache, which a whole ``arr.T`` does not.
_TILE = 128


@dataclass(frozen=True)
class ThresholdedGraph:
    """Simple undirected graph on ``p`` vertices from thresholding.

    ``closed`` is the symmetric boolean adjacency matrix with a True
    diagonal: row ``i`` is the closed neighborhood of vertex ``i``, and
    ``i`` and ``j != i`` are adjacent when ``closed[i, j]``.
    """

    p: int
    tau: float
    closed: np.ndarray

    def edge_count(self):
        return (int(np.count_nonzero(self.closed)) - self.p) // 2


@dataclass(frozen=True)
class CliqueSet:
    """Independent maximal cliques with their unique members.

    ``cliques[k]`` and ``unique_members[k]`` are parallel; every unique
    member lies in exactly its own clique and in no other maximal clique
    of the source graph. Cliques are ordered by their smallest unique
    member.
    """

    p: int
    tau: float
    cliques: tuple
    unique_members: tuple

    def __len__(self):
        return len(self.cliques)

    def to_json_dict(self):
        return {
            "p": self.p,
            "tau": self.tau,
            "cliques": [sorted(c) for c in self.cliques],
            "unique_members": [sorted(u) for u in self.unique_members],
        }


def build_graph(corr, tau):
    """Threshold a correlation-like matrix into a graph.

    Parameters
    ----------
    corr : array_like
        Non-empty symmetric matrix (within 1e-8) with unit diagonal
        (within 1e-9). Positive definiteness is not required.
    tau : float
        Threshold in ``[0, 1]``. Pairs with ``|corr[i, j]| > tau``
        (strictly) become edges.
    """
    return _threshold(_symmetric_abs(_validate_corr(corr)), tau)


def _validate_corr(corr):
    """``corr`` as a float array, or an error for a matrix no graph is built from."""
    arr = np.asarray(corr, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] == 0:
        raise DimensionMismatch(
            f"correlation must be a non-empty square matrix, got shape {arr.shape}"
        )
    if not np.all(np.isfinite(arr)):
        raise DomainError("correlation contains non-finite entries")
    for lo in range(0, arr.shape[0], _TILE):
        hi = lo + _TILE
        # |a_ij - a_ji| is symmetric, so the upper block triangle covers every pair
        if np.abs(arr[lo:hi, lo:] - arr[lo:, lo:hi].T).max() > 1e-8:
            raise DimensionMismatch("correlation matrix is not symmetric")
    if np.abs(np.diag(arr) - 1.0).max() > 1e-9:
        raise DomainError("correlation diagonal must be 1 (within 1e-9)")
    return arr


def _symmetric_abs(arr):
    """``max(|r_ij|, |r_ji|)`` at both ``(i, j)`` and ``(j, i)``.

    Thresholding this matrix makes an edge wherever either triangle exceeds
    ``tau``, so every graph is symmetric even where ``r`` is symmetric only
    within the validation tolerance.
    """
    absr = np.abs(arr)
    for lo in range(0, absr.shape[0], _TILE):
        hi = lo + _TILE
        np.maximum(absr[lo:hi, lo:], absr[lo:, lo:hi].T, out=absr[lo:hi, lo:])
        absr[lo:, lo:hi] = absr[lo:hi, lo:].T
    return absr


def _threshold(absr, tau):
    """Graph of ``absr > tau`` for ``absr`` from ``_symmetric_abs``."""
    if not 0.0 <= tau <= 1.0:
        raise DomainError(f"tau must lie in [0, 1], got {tau}")
    closed = absr > tau
    np.fill_diagonal(closed, True)
    closed.flags.writeable = False
    return ThresholdedGraph(p=absr.shape[0], tau=float(tau), closed=closed)


def independent_maximal_cliques(graph):
    """Find all independent maximal cliques via closed neighborhoods.

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


def structure_from_cliques(clique_set):
    """Turn cliques into a loading support: one factor per clique.

    Vertices in no clique become zero rows (pure noise variables).
    ``clique_set`` comes from :func:`independent_maximal_cliques`: its
    cliques are non-empty sets of ``int`` vertices below ``p``, so the
    structure is built without the checks that outside input gets.

    Raises
    ------
    EmptyCliqueSet
        If there are no cliques to map.
    """
    if len(clique_set.cliques) == 0:
        raise EmptyCliqueSet("no independent maximal cliques to map to a structure")
    support = frozenset(
        (i, k) for k, clique in enumerate(clique_set.cliques) for i in clique
    )
    return Structure._unchecked(clique_set.p, len(clique_set.cliques), support)
