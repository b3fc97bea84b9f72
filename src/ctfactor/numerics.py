"""Dense symmetric linear algebra and seeded random sampling.

All matrices are plain ``numpy.ndarray`` objects in float64. Positive
definiteness is always established through a Cholesky factorization whose
pivots are checked against the relative tolerance ``DEFAULT_PIVOT_TOL``,
so near-singular inputs fail loudly instead of propagating garbage.

Randomness is drawn from :func:`philox`, a numpy ``Generator`` over the
Philox 4x64 counter-based bit generator. The generator family is fixed so
that a seed reproduces the same stream on every platform; concurrent
replicates use the streams of ``base seed + replicate index``.
"""

import numpy as np

from .errors import DimensionMismatch, DomainError, NotPositiveDefinite

__all__ = [
    "as_sym_matrix",
    "cholesky",
    "logdet_pd",
    "mvn_sample",
    "philox",
]

#: Relative pivot tolerance below which a Cholesky pivot counts as zero.
DEFAULT_PIVOT_TOL = 1e-12


def philox(seed):
    """numpy ``Generator`` over Philox 4x64 keyed by ``seed mod 2**64``, ``seed >= 0``."""
    seed = int(seed)
    if seed < 0:
        raise DomainError(f"seed must be non-negative, got {seed}")
    return np.random.Generator(np.random.Philox(key=seed % 2**64))


def as_sym_matrix(mat, name="matrix"):
    """Validate and return ``mat`` as a square symmetric float64 array."""
    arr = np.asarray(mat, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise DimensionMismatch(f"{name} must be square 2-D, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"{name} contains non-finite entries")
    scale = max(1.0, float(np.abs(arr).max()))
    if np.abs(arr - arr.T).max() > 1e-8 * scale:
        raise DimensionMismatch(f"{name} is not symmetric")
    # exact symmetry downstream
    return (arr + arr.T) / 2.0


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
