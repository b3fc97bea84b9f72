"""Correlation thresholding and independent maximal clique search.

A graph is built by connecting every pair whose absolute correlation
strictly exceeds a threshold. The structural objects of interest are the
maximal cliques not covered by the union of the other maximal cliques;
each such clique owns at least one vertex that belongs to no other maximal
clique (a unique member), and it equals the closed neighborhood of any of
its unique members. That characterization gives a quadratic-time search:
test each vertex's closed neighborhood for cliqueness.

Few rows need a real test. A neighborhood of at most two vertices is
always a clique, one with a member whose neighborhood is smaller never is,
and a vertex whose smallest neighbor has a neighborhood of the same size
shares that neighbor's verdict. The rows left are tested in blocks of
``_TILE`` rows of one size ``s``: small neighborhoods check every member
pair, large ones check ``N[j] ⊇ N[i]`` for each member ``j`` on
bit-packed rows (``p / 8`` bytes each). Gathers are chunked to about
``_GATHER_BYTES``, so the search's temporaries stay bounded whatever the
graph.

The matrix is validated and made exactly symmetric by
``numerics.as_corr_matrix``, the same matrix every fit sees; the graph
thresholds its absolute value. Validation and thresholding are separate
steps, so a sweep over many thresholds validates and takes ``|r|`` once
(see ``ct.ct_run``). Each threshold then builds a single ``p x p``
boolean matrix, the closed neighborhoods, which serves both the edge
count and the search.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, EmptyCliqueSet
from .model import Structure
from .numerics import as_corr_matrix

__all__ = [
    "ThresholdedGraph",
    "CliqueSet",
    "build_graph",
    "independent_maximal_cliques",
    "structure_from_cliques",
]

#: Rows per block of the clique search.
_TILE = 128

#: Bytes a clique test gathers at once, so its temporaries do not grow
#: with the neighborhoods it tests.
_GATHER_BYTES = 1 << 21


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
        Non-empty matrix, symmetric within ``1e-8 * max(1, max|corr|)``,
        with unit diagonal (within 1e-9); see
        :func:`numerics.as_corr_matrix`. Positive definiteness is not
        required.
    tau : float
        Threshold in ``[0, 1]``. Pairs whose symmetric part has
        ``|corr[i, j]| > tau`` (strictly) become edges.
    """
    return _threshold(np.abs(as_corr_matrix(corr, "correlation")), tau)


def _threshold(absr, tau):
    """Graph of ``absr > tau`` for the absolute value ``absr`` of a matrix
    from :func:`numerics.as_corr_matrix`."""
    if not 0.0 <= tau <= 1.0:
        raise DomainError(f"tau must lie in [0, 1], got {tau}")
    closed = absr > tau
    np.fill_diagonal(closed, True)
    closed.flags.writeable = False
    return ThresholdedGraph(p=absr.shape[0], tau=float(tau), closed=closed)


def independent_maximal_cliques(graph):
    """Find all independent maximal cliques via closed neighborhoods.

    A vertex's closed neighborhood ``N[i]`` is an independent maximal
    clique exactly when it is a clique, and the vertices generating the
    same clique are precisely its unique members. With ``m = min N[i]``,
    four exact rules give every verdict:

    - ``|N[i]| <= 2``: a clique.
    - A member with a smaller closed neighborhood: not a clique.
    - ``|N[m]| == |N[i]|`` and ``m != i``: a clique exactly when ``N[m]``
      is one, and then ``N[i] == N[m]``.
    - Otherwise (``m == i`` or ``|N[m]| > |N[i]|``) the row is tested.
      Rows of ``s`` members go through in blocks of ``_TILE``; a block
      checks every member pair when ``s * s <= 8 p`` and ``N[j] ⊇ N[i]``
      for every member ``j`` on bit-packed rows otherwise, in gathers of
      about ``_GATHER_BYTES``.

    A clique's unique members are its members with a closed neighborhood
    of its own size. Each clique vertex is grouped under the smallest of
    them, so the groups come out in ``CliqueSet`` order.
    """
    closed, p = graph.closed, graph.p
    # a sum of bytes into int32 takes half the time of count_nonzero by row
    sizes = np.add.reduce(closed.view(np.uint8), axis=1, dtype=np.int32)
    first = np.empty(p, dtype=np.intp)
    for lo in range(0, p, _TILE):
        hi = lo + _TILE
        # min N[i] <= i, so the tile's columns end at its diagonal; argmax
        # copies a read-only matrix, so it gets one tile at a time
        first[lo:hi] = closed[lo:hi, :hi].argmax(axis=1)
    vertices = np.arange(p)
    small = sizes <= 2
    same = sizes[first] == sizes
    clique = small.copy()
    # a clique vertex's group is its smallest member of the same size: m
    # when |N[m]| == |N[i]|, else i itself, or found by the test below
    key = np.where(same, first, vertices)
    tested = np.flatnonzero(~small & ((first == vertices) | (sizes[first] > sizes)))
    tested_sizes = sizes[tested]
    packed = None
    if tested.size and int(tested_sizes.max()) ** 2 > 8 * p:
        packed = np.packbits(closed, axis=1)
    for s in np.unique(tested_sizes).tolist():
        group = tested[tested_sizes == s]
        for lo in range(0, group.size, _TILE):
            rows = group[lo : lo + _TILE]
            nb = np.flatnonzero(closed[rows].ravel())
            nb %= p
            nb = nb.reshape(rows.size, s)
            no_smaller = sizes[nb].min(axis=1) == s
            rows, nb = rows[no_smaller], nb[no_smaller]
            ok = _are_cliques(closed, packed, rows, nb)
            rows, nb = rows[ok], nb[ok]
            clique[rows] = True
            key[rows] = np.where(sizes[nb] == s, nb, p).min(axis=1)
    # N[m] was tested here when m == min N[m]; otherwise it is no clique
    derived = ~small & same & (first != vertices)
    clique[derived] = clique[first[derived]]
    members = np.flatnonzero(clique)
    members = members[np.argsort(key[members], kind="stable")]
    heads, counts = np.unique(key[members], return_counts=True)
    cliques = []
    for lo in range(0, heads.size, _TILE):
        rows = heads[lo : lo + _TILE]
        flat = np.flatnonzero(closed[rows].ravel()) % p
        cliques += _frozensets(flat.tolist(), np.cumsum(sizes[rows]).tolist())
    return CliqueSet(
        p=p,
        tau=graph.tau,
        cliques=tuple(cliques),
        unique_members=tuple(_frozensets(members.tolist(), np.cumsum(counts).tolist())),
    )


def _frozensets(values, ends):
    """``values[ends[k - 1]:ends[k]]`` as a frozenset for each ``k``, from 0."""
    return [frozenset(values[a:b]) for a, b in zip([0] + ends[:-1], ends)]


def _are_cliques(closed, packed, rows, nb):
    """Whether each ``N[rows[r]]``, with its members listed in ``nb[r]``, is a clique.

    ``N[i]`` is a clique exactly when every member ``j`` has
    ``N[j] ⊇ N[i]``. With ``s`` members that is ``s * s`` entries of
    ``closed`` or ``s`` packed rows of ``p / 8`` bytes; the first is
    cheaper up to ``s * s = 8 p``.
    """
    p, s = closed.shape[0], nb.shape[1]
    pairs = s * s <= 8 * p
    step = max(1, _GATHER_BYTES // (s * (s if pairs else packed.shape[1])))
    ok = np.empty(rows.size, dtype=bool)
    for lo in range(0, rows.size, step):
        hi = lo + step
        part = nb[lo:hi]
        if pairs:
            inside = closed[part[:, :, None], part[:, None, :]]
            ok[lo:hi] = inside.reshape(part.shape[0], -1).all(axis=1)
        else:
            lacking = packed[part]
            np.bitwise_not(lacking, out=lacking)
            lacking &= packed[rows[lo:hi], None, :]  # bits of N[i] outside N[j]
            ok[lo:hi] = ~lacking.reshape(part.shape[0], -1).any(axis=1)
    return ok


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
