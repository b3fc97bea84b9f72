"""Dense symmetric linear algebra and seeded random sampling.

All matrices are plain ``numpy.ndarray`` objects in float64. They enter
through :func:`as_sym_matrix` (:func:`as_corr_matrix` for correlations),
the one place that checks symmetry and makes it exact, so the graphs and
the fits of one input see the same matrix. Positive definiteness is
always established through a Cholesky factorization whose pivots are
checked against the relative tolerance ``DEFAULT_PIVOT_TOL``, so
near-singular inputs fail loudly instead of propagating garbage.

Randomness is drawn from :func:`philox`, a numpy ``Generator`` over the
Philox 4x64 counter-based bit generator. The generator family is fixed so
that a seed reproduces the same stream on every platform; concurrent
replicates use the streams of ``base seed + replicate index``.
"""

import numpy as np

from .errors import DimensionMismatch, DomainError, NotPositiveDefinite

__all__ = [
    "as_corr_matrix",
    "as_sym_matrix",
    "cholesky",
    "logdet_pd",
    "mvn_sample",
    "philox",
]

#: Relative pivot tolerance below which a Cholesky pivot counts as zero.
DEFAULT_PIVOT_TOL = 1e-12

#: Rows per tile where a matrix meets its transpose: a row tile and the
#: matching column tile stay in cache, which a whole ``arr.T`` does not.
_TILE = 128


def philox(seed):
    """numpy ``Generator`` over Philox 4x64 keyed by ``seed mod 2**64``, ``seed >= 0``."""
    seed = int(seed)
    if seed < 0:
        raise DomainError(f"seed must be non-negative, got {seed}")
    return np.random.Generator(np.random.Philox(key=seed % 2**64))


def as_sym_matrix(mat, name="matrix"):
    """``mat`` as an exactly symmetric, non-empty, square float64 array.

    Entries must be finite and symmetric within ``1e-8 * max(1, max|a|)``.
    The check meets each row tile of ``_TILE`` with the matching column
    tile, so its temporaries stay a few rows wide. An exactly symmetric
    input comes back as it is, without a copy; any other comes back as
    ``(a + a.T) / 2``. Every graph and every fit sees this one matrix.
    """
    arr = np.asarray(mat, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] == 0:
        raise DimensionMismatch(
            f"{name} must be a non-empty square matrix, got shape {arr.shape}"
        )
    top, bottom = float(arr.max()), float(arr.min())
    # max and min propagate NaN, so both are finite only when every entry is
    if not (np.isfinite(top) and np.isfinite(bottom)):
        raise DomainError(f"{name} contains non-finite entries")
    tol = 1e-8 * max(1.0, top, -bottom)
    worst = 0.0
    for lo in range(0, arr.shape[0], _TILE):
        hi = lo + _TILE
        # |a_ij - a_ji| is symmetric, so the upper block triangle covers every pair
        gap = arr[lo:hi, lo:] - arr[lo:, lo:hi].T
        worst = max(worst, float(np.abs(gap, out=gap).max()))
        if worst > tol:
            raise DimensionMismatch(f"{name} is not symmetric")
    if worst == 0.0:
        return arr
    sym = arr + arr.T
    sym /= 2.0
    return sym


def as_corr_matrix(mat, name="matrix"):
    """:func:`as_sym_matrix` of ``mat`` with a unit diagonal (within 1e-9)."""
    arr = as_sym_matrix(mat, name)
    if np.abs(arr.diagonal() - 1.0).max() > 1e-9:
        raise DomainError(f"{name} must have a unit diagonal (within 1e-9)")
    return arr


def cholesky(mat):
    """Lower Cholesky factor of a symmetric positive definite matrix.

    Parameters
    ----------
    mat : array_like
        Symmetric matrix. A factorization whose smallest pivot
        ``L[i, i]**2`` is at most ``DEFAULT_PIVOT_TOL * max(diag(mat))``
        is rejected.

    Returns
    -------
    numpy.ndarray
        Lower-triangular ``L`` with ``L @ L.T == mat``.

    Raises
    ------
    NotPositiveDefinite
        If the factorization fails or any pivot falls under the tolerance.
    """
    arr = as_sym_matrix(mat)
    try:
        lower = np.linalg.cholesky(arr)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(f"matrix is not positive definite: {exc}") from None
    pivots = np.diag(lower) ** 2
    bound = DEFAULT_PIVOT_TOL * max(float(arr.diagonal().max()), 0.0)
    if np.any(pivots <= bound):
        raise NotPositiveDefinite(
            f"Cholesky pivot {pivots.min():.3e} at or below tolerance {bound:.3e}"
        )
    return lower


def logdet_pd(mat):
    """Log-determinant of a positive definite matrix via its Cholesky pivots."""
    lower = cholesky(mat)
    return 2.0 * float(np.sum(np.log(np.diag(lower))))


def mvn_sample(sigma, n, rng):
    """Draw ``n`` rows from a zero-mean Gaussian with covariance ``sigma``.

    The draw is ``Z @ L.T`` for standard normal ``Z`` and the Cholesky
    factor ``L``, so output is byte-identical for identical
    ``(sigma, n, seed)``.

    Returns
    -------
    numpy.ndarray of shape ``(n, p)``.
    """
    if n < 1:
        raise DomainError(f"sample size must be >= 1, got {n}")
    lower = cholesky(sigma)
    z = rng.standard_normal(size=(int(n), lower.shape[0]))
    return z @ lower.T
