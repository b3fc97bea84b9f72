"""Sparse latent factor models and their population-level properties.

A model is ``X = loadings @ L + e`` with latent ``L`` drawn from a
unit-diagonal positive definite factor correlation matrix and independent
errors with positive variances. The implied covariance is

    Sigma = loadings @ factor_corr @ loadings.T + diag(error_var)

and everything in this module is a deterministic function of those three
blocks: implied moments, the shared/unshared split of variable pairs, the
correlation-separation check that drives threshold selection, unique-child
bookkeeping, identifiability checks, and two closed-form probability
bounds.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, DomainError
from .numerics import as_sym_matrix, cholesky

__all__ = [
    "FactorParams",
    "Structure",
    "EdgePartition",
    "ThresholdabilityReport",
    "implied_covariance",
    "implied_correlation",
    "edge_partition",
    "thresholdability",
    "general_sufficient_check",
    "unique_children",
    "rotational_uniqueness_check",
    "consistency_bound",
    "ucc_probability_bound",
]

#: Relative singular-value cutoff for the rank test in
#: :func:`rotational_uniqueness_check`.
RANK_TOL = 1e-10


def _frozen_array(arr):
    out = np.array(arr, dtype=float)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class FactorParams:
    """Parameter triple of a sparse factor model.

    Parameters
    ----------
    loadings : (p, d) array
        Loading matrix. Zero entries are structural zeros. Columns must be
        non-zero (an empty factor is meaningless); rows may be all zero,
        which marks a pure-noise variable as produced when a fitted
        structure leaves a variable unassigned.
    factor_corr : (d, d) array
        Factor correlation matrix: symmetric, unit diagonal, positive
        definite.
    error_var : (p,) array
        Positive error variances.
    """

    loadings: np.ndarray
    factor_corr: np.ndarray
    error_var: np.ndarray

    def __post_init__(self):
        lam = np.asarray(self.loadings, dtype=float)
        if lam.ndim != 2:
            raise DimensionMismatch(f"loadings must be 2-D, got shape {lam.shape}")
        phi = as_sym_matrix(self.factor_corr, name="factor_corr")
        omega = np.asarray(self.error_var, dtype=float)
        p, d = lam.shape
        if p < 1 or d < 1:
            raise DimensionMismatch(f"loadings shape {lam.shape} is degenerate")
        if phi.shape != (d, d):
            raise DimensionMismatch(
                f"factor_corr shape {phi.shape} does not match {d} factors"
            )
        if omega.shape != (p,):
            raise DimensionMismatch(
                f"error_var shape {omega.shape} does not match {p} variables"
            )
        if not np.all(np.isfinite(lam)):
            raise DomainError("loadings contain non-finite entries")
        if not np.all(np.isfinite(omega)):
            raise DomainError("error_var contains non-finite entries")
        if np.any(omega <= 0):
            raise DomainError("error variances must be strictly positive")
        if np.abs(np.diag(phi) - 1.0).max() > 1e-9:
            raise DomainError("factor_corr must have a unit diagonal")
        cholesky(phi)  # raises NotPositiveDefinite
        if np.any(~lam.any(axis=0)):
            empty = [int(j) for j in np.flatnonzero(~lam.any(axis=0))]
            raise DomainError(f"loadings columns {empty} are all zero (empty factor)")
        object.__setattr__(self, "loadings", _frozen_array(lam))
        object.__setattr__(self, "factor_corr", _frozen_array(phi))
        object.__setattr__(self, "error_var", _frozen_array(omega))

    @property
    def p(self):
        return self.loadings.shape[0]

    @property
    def d(self):
        return self.loadings.shape[1]

    def structure(self):
        """Zero pattern of the loadings as a :class:`Structure`."""
        return Structure.from_loadings(self.loadings)

    def to_json_dict(self):
        return {
            "lambda": self.loadings.tolist(),
            "phi": self.factor_corr.tolist(),
            "omega": self.error_var.tolist(),
        }

    @classmethod
    def from_json_dict(cls, doc):
        try:
            return cls(
                loadings=np.asarray(doc["lambda"], dtype=float),
                factor_corr=np.asarray(doc["phi"], dtype=float),
                error_var=np.asarray(doc["omega"], dtype=float),
            )
        except KeyError as exc:
            raise DomainError(f"model document is missing key {exc}") from None


@dataclass(frozen=True)
class Structure:
    """Support of a loading matrix: which variable loads on which factor.

    ``support`` holds 0-based ``(variable, factor)`` pairs. Every factor
    must have at least one variable; a variable with no factor is allowed
    (pure noise).
    """

    p: int
    d: int
    support: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        if self.p < 1 or self.d < 1:
            raise DomainError(f"p and d must be >= 1, got p={self.p}, d={self.d}")
        pairs = frozenset((int(i), int(j)) for i, j in self.support)
        for i, j in pairs:
            if not (0 <= i < self.p and 0 <= j < self.d):
                raise DomainError(f"support entry ({i}, {j}) out of range")
        used = {j for _, j in pairs}
        missing = set(range(self.d)) - used
        if missing:
            raise DomainError(f"factors {sorted(missing)} have no variables")
        object.__setattr__(self, "support", pairs)

    @classmethod
    def from_loadings(cls, loadings):
        lam = np.asarray(loadings, dtype=float)
        pairs = frozenset((int(i), int(j)) for i, j in zip(*np.nonzero(lam)))
        return cls(p=lam.shape[0], d=lam.shape[1], support=pairs)

    def parent_sets(self):
        """Factor set of each variable, as a list of ``p`` frozensets."""
        out = [set() for _ in range(self.p)]
        for i, j in self.support:
            out[i].add(j)
        return [frozenset(s) for s in out]

    def child_sets(self):
        """Variable set of each factor, as a list of ``d`` frozensets."""
        out = [set() for _ in range(self.d)]
        for i, j in self.support:
            out[j].add(i)
        return [frozenset(s) for s in out]

    def zero_rows(self):
        """Indices of variables that load on no factor."""
        loaded = {i for i, _ in self.support}
        return sorted(set(range(self.p)) - loaded)

    def canonical_key(self):
        """Hashable key equal across column permutations of the support."""
        cols = [tuple(sorted(c)) for c in self.child_sets()]
        return (self.p, tuple(sorted(cols)))

    def to_json_dict(self):
        return {
            "p": self.p,
            "d": self.d,
            "support": sorted(self.support),  # (i, j) tuples: JSON arrays
        }

    @classmethod
    def from_json_dict(cls, doc):
        try:
            return cls(
                p=int(doc["p"]),
                d=int(doc["d"]),
                support=frozenset((int(i), int(j)) for i, j in doc["support"]),
            )
        except KeyError as exc:
            raise DomainError(f"structure document is missing key {exc}") from None


@dataclass(frozen=True)
class EdgePartition:
    """Variable pairs split by whether they share at least one factor.

    Both sets hold ``(i, j)`` with ``i < j``; together they cover all
    unordered pairs.
    """

    shared: frozenset
    unshared: frozenset


@dataclass(frozen=True)
class ThresholdabilityReport:
    """Outcome of the population correlation-separation check.

    ``gap`` is half the margin between the weakest shared-factor
    correlation and the strongest non-shared one; ``tau0`` is the midpoint
    and is a valid separating threshold only when ``thresholdable``.
    ``degenerate`` marks the boundary conventions used when one side of the
    partition is empty (an absent unshared side scores 0, an absent shared
    side scores 1).
    """

    thresholdable: bool
    min_shared: float
    max_unshared: float
    gap: float
    tau0: float
    degenerate: bool = False

    def to_json_dict(self):
        return {
            "thresholdable": self.thresholdable,
            "min_shared": self.min_shared,
            "max_unshared": self.max_unshared,
            "gap": self.gap,
            "tau0": self.tau0,
            "degenerate": self.degenerate,
        }


def implied_covariance(theta):
    """Population covariance implied by ``theta``."""
    lam = theta.loadings
    sigma = lam @ theta.factor_corr @ lam.T + np.diag(theta.error_var)
    return (sigma + sigma.T) / 2.0


def implied_correlation(theta):
    """Population correlation implied by ``theta`` (unit diagonal exact)."""
    sigma = implied_covariance(theta)
    scale = 1.0 / np.sqrt(np.diag(sigma))
    corr = scale[:, None] * sigma * scale[None, :]
    np.fill_diagonal(corr, 1.0)
    return (corr + corr.T) / 2.0


def edge_partition(structure):
    """Split all variable pairs by shared-factor membership."""
    parents = structure.parent_sets()
    shared, unshared = set(), set()
    for i in range(structure.p):
        for j in range(i + 1, structure.p):
            if parents[i] & parents[j]:
                shared.add((i, j))
            else:
                unshared.add((i, j))
    return EdgePartition(shared=frozenset(shared), unshared=frozenset(unshared))


def thresholdability(theta):
    """Check whether one threshold separates shared from non-shared pairs.

    Computes the implied correlation matrix, partitions the pairs with
    :func:`edge_partition` on the loading support, and compares the
    absolute correlations across the two sides. The pairs are separable
    exactly when every shared-factor pair out-correlates every
    non-shared pair in absolute value (strict).

    Returns
    -------
    ThresholdabilityReport
    """
    corr = implied_correlation(theta)
    loaded = theta.loadings != 0.0
    share = (loaded.astype(np.int64) @ loaded.astype(np.int64).T) > 0
    iu = np.triu_indices(theta.p, k=1)
    vals = np.abs(corr[iu])
    mask = share[iu]
    shared_abs = vals[mask]
    unshared_abs = vals[~mask]
    degenerate = shared_abs.size == 0 or unshared_abs.size == 0
    min_shared = float(shared_abs.min()) if shared_abs.size else 1.0
    max_unshared = float(unshared_abs.max()) if unshared_abs.size else 0.0
    return ThresholdabilityReport(
        thresholdable=max_unshared < min_shared,
        min_shared=float(min_shared),
        max_unshared=float(max_unshared),
        gap=float((min_shared - max_unshared) / 2.0),
        tau0=float((min_shared + max_unshared) / 2.0),
        degenerate=degenerate,
    )


def general_sufficient_check(theta):
    """Separability test evaluated through per-pair parent-set blocks.

    Independent route to the same yes/no answer as
    :func:`thresholdability`: for each pair the correlation is assembled
    from sub-blocks of the factor correlation indexed by the two parent
    sets (exclusive parts and overlap) instead of normalizing the full
    implied covariance. Shared pairs must all exceed non-shared pairs in
    absolute value, strictly.
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


def unique_children(structure):
    """Variables belonging to exactly one factor, per factor.

    Returns
    -------
    (list of frozenset, bool)
        Per-factor sets of unique children and whether every factor has at
        least one (the identifiability condition used throughout).
    """
    children = structure.child_sets()
    unique = []
    for k in range(structure.d):
        others = set()
        for j in range(structure.d):
            if j != k:
                others |= children[j]
        unique.append(frozenset(children[k] - others))
    return unique, all(len(u) > 0 for u in unique)


def rotational_uniqueness_check(loadings, tol=RANK_TOL):
    """Zero-pattern conditions for rotation-proof loadings.

    Condition 1: every column has at least ``d - 1`` structural zeros.
    Condition 2: for every column ``j``, deleting column ``j`` and keeping
    only the rows where column ``j`` is zero leaves a matrix of full rank
    ``d - 1``. Rank is read off singular values with a relative cutoff.

    Returns
    -------
    dict with keys ``condition1`` and ``condition2``.
    """
    lam = np.asarray(loadings, dtype=float)
    if lam.ndim != 2:
        raise DimensionMismatch(f"loadings must be 2-D, got shape {lam.shape}")
    d = lam.shape[1]
    cond1 = True
    cond2 = True
    for j in range(d):
        zero_rows = np.flatnonzero(lam[:, j] == 0.0)
        if len(zero_rows) < d - 1:
            cond1 = False
        if d == 1:
            continue  # empty submatrix, rank 0 == d - 1 holds vacuously
        sub = np.delete(lam[zero_rows, :], j, axis=1)
        if sub.shape[0] < d - 1:
            cond2 = False
            continue
        svals = np.linalg.svd(sub, compute_uv=False)
        if len(svals) == 0 or svals[0] == 0.0:
            rank = 0
        else:
            rank = int(np.sum(svals > tol * svals[0]))
        if rank != d - 1:
            cond2 = False
    return {"condition1": cond1, "condition2": cond2}


def consistency_bound(n, p, gamma, c_const=1.0):
    """Upper bound on the chance the thresholded sample graph is wrong.

    Evaluates ``c * p * (p - 1) * (n - 2) * ((4 - g^2)/(4 + g^2))^(n-4)``
    and clamps it into ``[0, 1]``. ``gamma`` is the half-margin between
    the weakest shared-pair correlation and the strongest non-shared one;
    ``c_const`` is the unknown leading constant, exposed as a parameter.
    """
    if n < 5:
        raise DomainError(f"n must be >= 5, got {n}")
    if p < 1:
        raise DomainError(f"p must be >= 1, got {p}")
    if not 0.0 <= gamma <= 2.0:
        raise DomainError(f"gamma must lie in [0, 2], got {gamma}")
    if c_const <= 0:
        raise DomainError(f"c_const must be positive, got {c_const}")
    ratio = (4.0 - gamma**2) / (4.0 + gamma**2)
    eta = c_const * p * (p - 1) * (n - 2) * ratio ** (n - 4)
    return float(min(1.0, max(0.0, eta)))


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
