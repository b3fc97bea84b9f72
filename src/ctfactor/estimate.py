"""Constrained Gaussian maximum likelihood for sparse factor models.

The estimator maximizes the Gaussian log-likelihood of a sample covariance
matrix over loadings restricted to a given support, a unit-diagonal factor
correlation matrix, and positive error variances. The ascent is
expectation-maximization over the latent factors:

* E-step: posterior moments of the factors given the observed covariance.
* M-step: each loading row is a regression of its variable on that row's
  factor set only (rows off the support stay exactly zero); error
  variances absorb the residual; the factor covariance is refreshed and
  then renormalized to a unit diagonal, with the compensating scale folded
  into the loading columns, which leaves the implied covariance unchanged.

Each M-step maximizes the complete-data objective exactly, so the
log-likelihood is non-decreasing along the path up to round-off. Multiple
restarts jitter the starting loadings and ascend together as one batch
along a leading restart axis; the best final likelihood wins.
Column signs are normalized afterwards so that each factor's anchor
variable (its smallest-index unique child, falling back to the
smallest-index child) loads non-negatively.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConstantColumn,
    DimensionMismatch,
    DomainError,
    NonPDSampleWarning,
    NotPositiveDefinite,
)
from .model import FactorParams, unique_children
from .numerics import RngState, as_sym_matrix, cholesky, logdet_pd

__all__ = [
    "FitOptions",
    "FitResult",
    "saturated_loglik",
    "fit_mle",
    "count_free_params",
    "bic_value",
    "bic",
    "sample_covariance",
    "pearson_correlation",
]


@dataclass(frozen=True)
class FitOptions:
    """Knobs of the EM fit."""

    max_iterations: int = 2000
    loglik_tolerance: float = 1e-8
    omega_floor: float = 1e-6
    restarts: int = 3

    def __post_init__(self):
        if self.max_iterations < 1:
            raise DomainError("max_iterations must be >= 1")
        if self.loglik_tolerance <= 0:
            raise DomainError("loglik_tolerance must be positive")
        if self.omega_floor <= 0:
            raise DomainError("omega_floor must be positive")
        if self.restarts < 1:
            raise DomainError("restarts must be >= 1")


@dataclass(frozen=True)
class FitResult:
    """Fitted parameters plus fit diagnostics.

    ``loglik_path`` is the per-iteration log-likelihood of the winning
    restart (first entry is the initial point).
    """

    theta: FactorParams
    loglik: float
    bic: float
    converged: bool
    n_iterations: int
    n_free_params: int
    loglik_path: tuple

    def to_json_dict(self):
        doc = self.theta.to_json_dict()
        doc.update(
            {
                "loglik": self.loglik,
                "bic": self.bic,
                "converged": self.converged,
                "n_iterations": self.n_iterations,
            }
        )
        return doc


def saturated_loglik(s_sample, n):
    """Gaussian log-likelihood at ``sigma = s_sample``: the ceiling of every fit.

    ``-(n / 2) * (p * log(2 pi) + logdet(s) + p)``. Over positive definite
    models the likelihood peaks at the sample matrix itself, so no fit of
    any structure can exceed this value.

    Raises
    ------
    NotPositiveDefinite
        If the sample matrix is not positive definite (no ceiling exists).
    """
    if n <= 0:
        raise DomainError(f"n must be positive, got {n}")
    s = as_sym_matrix(s_sample, name="s_sample")
    p = s.shape[0]
    return -0.5 * n * (p * math.log(2.0 * math.pi) + logdet_pd(s) + p)


def count_free_params(structure):
    """Free parameters: support size + factor correlations + error variances."""
    d = structure.d
    return len(structure.support) + d * (d - 1) // 2 + structure.p


def bic_value(loglik, k, n):
    """``-2 * loglik + k * log(n)``."""
    if n <= 0:
        raise DomainError(f"n must be positive, got {n}")
    return -2.0 * loglik + k * math.log(n)


def bic(fit, n):
    """Bayesian information criterion of a fit at sample size ``n``."""
    return bic_value(fit.loglik, fit.n_free_params, n)


def _row_classes(structure):
    """Supported rows batched by parent-set size.

    Returns ``[(rows, pidx)]`` where ``rows`` is an index vector and
    ``pidx[r]`` lists the sorted parents of ``rows[r]``; every class shares
    one parent count so its M-step regressions solve as one stacked system.
    Rows with no parents are omitted (their error variance is the sample
    variance itself).
    """
    parents = structure.parent_sets()
    by_size = {}
    for i in range(structure.p):
        k = len(parents[i])
        if k:
            by_size.setdefault(k, []).append((i, sorted(parents[i])))
    return [
        (
            np.asarray([i for i, _ in pairs], dtype=int),
            np.asarray([ps for _, ps in pairs], dtype=int),
        )
        for _, pairs in sorted(by_size.items())
    ]


def _canonicalize_signs(lam, phi, structure):
    unique, _ = unique_children(structure)
    children = structure.child_sets()
    for j in range(structure.d):
        anchor = min(unique[j]) if unique[j] else min(children[j])
        if lam[anchor, j] < 0:
            lam[:, j] *= -1.0
            phi[j, :] *= -1.0
            phi[:, j] *= -1.0
    return lam, phi


def _per_restart(fn, *stacks):
    """``fn`` over arrays stacked along a leading restart axis.

    numpy's stacked linear algebra raises for the whole stack when one
    matrix fails; the stack is then redone one restart at a time and a
    failing restart's slot comes back NaN, so its log-likelihood turns
    non-finite and the ascent drops it alone.
    """
    try:
        return fn(*stacks)
    except np.linalg.LinAlgError:
        out = []
        for parts in zip(*stacks):
            try:
                out.append(fn(*parts))
            except np.linalg.LinAlgError:
                out.append(np.full_like(parts[-1], np.nan))
        return np.stack(out)


def _em_ascent(s, n, classes, lam0, options):
    """EM from every starting loading matrix in ``lam0`` (restarts x p x d) at once.

    Returns one entry per restart: ``(lam, phi, omega, path, converged,
    updates)``, or ``None`` for a restart that broke down numerically (a
    failed factorization, a non-positive E[LL'] diagonal or a non-finite
    log-likelihood). Each restart
    stops at its own tolerance or at the iteration cap and then leaves the
    batch, so its path is the one it would follow alone.
    """
    # Sigma = lam phi lam' + diag(omega) is never assembled: with
    # D = diag(1/omega) and M = phi^-1 + lam' D lam, the determinant lemma
    # gives logdet Sigma = logdet M + logdet phi + sum log omega, and
    # Woodbury gives Sigma^-1 lam = D lam (I - M^-1 lam' D lam). The one
    # p x p product per iteration is s @ (D lam).
    n_starts, p, d = lam0.shape
    s_diag = np.diag(s).copy()
    eye_d = np.eye(d)
    diag = np.arange(d)
    # flat gather/scatter indices of each row class in the p*d and d*d layouts
    flat = [
        (rows, rows[:, None] * d + pidx, pidx[:, :, None] * d + pidx[:, None, :])
        for rows, pidx in classes
    ]
    lam = lam0.copy()
    phi = np.tile(eye_d, (n_starts, 1, 1))
    omega = np.tile(np.maximum(0.5 * s_diag, options.omega_floor), (n_starts, 1))
    live = np.arange(n_starts)
    paths = [[] for _ in range(n_starts)]
    outcomes = [None] * n_starts
    ll_prev = None
    updates = 0
    log2pi = math.log(2.0 * math.pi)
    while True:
        dinv = 1.0 / omega
        lam_d = lam * dinv[:, :, None]
        ltd_lam = lam.transpose(0, 2, 1) @ lam_d
        phi_low = _per_restart(np.linalg.cholesky, phi)
        phi_inv = _per_restart(np.linalg.inv, phi)
        m_mat = phi_inv + ltd_lam
        m_low = _per_restart(np.linalg.cholesky, m_mat)
        m_inv = _per_restart(np.linalg.inv, m_mat)
        logdet = (
            2.0 * np.log(m_low.diagonal(axis1=1, axis2=2)).sum(axis=1)
            + 2.0 * np.log(phi_low.diagonal(axis1=1, axis2=2)).sum(axis=1)
            + np.log(omega).sum(axis=1)
        )
        sld = s @ lam_d
        tmat = lam_d.transpose(0, 2, 1) @ sld
        # trace(sigma^-1 s) via Woodbury; m_inv and tmat are symmetric
        trace = dinv @ s_diag - (m_inv * tmat).sum(axis=(1, 2))
        ll = -0.5 * n * (p * log2pi + logdet + trace)

        finite = np.isfinite(ll)
        if ll_prev is None:
            converged = np.zeros(live.size, dtype=bool)
        else:
            converged = np.abs(ll - ll_prev) < options.loglik_tolerance
        capped = updates >= options.max_iterations
        for slot, r in enumerate(live):
            if not finite[slot]:
                continue  # numerically broken restart: dropped, outcome stays None
            paths[r].append(float(ll[slot]))
            if converged[slot] or capped:
                outcomes[r] = (
                    lam[slot], phi[slot], omega[slot], paths[r], bool(converged[slot]), updates
                )
        keep = finite & ~converged & (not capped)
        if not keep.all():
            if not keep.any():
                break
            live, ll, lam, phi, lam_d, ltd_lam, m_inv, sld = (
                a[keep] for a in (live, ll, lam, phi, lam_d, ltd_lam, m_inv, sld)
            )
        ll_prev = ll

        # E-step: expected cross-moments of data with factors and of factors
        kmat = eye_d - m_inv @ ltd_lam
        inv_lam = lam_d @ kmat                    # sigma^-1 lam, p x d
        sw = sld @ kmat                           # s sigma^-1 lam
        bmat = sw @ phi                           # E[X L'] under current fit
        core = inv_lam.transpose(0, 2, 1) @ sw - lam.transpose(0, 2, 1) @ inv_lam
        cmat = phi + phi @ core @ phi
        cmat = (cmat + cmat.transpose(0, 2, 1)) / 2.0   # E[L L']

        # M-step: stacked per-row regressions, then variance refresh
        n_live = live.size
        lam_new = np.zeros_like(lam)
        omega_new = np.empty((n_live, p))
        omega_new[:] = s_diag
        cflat = cmat.reshape(n_live, d * d)
        bflat = bmat.reshape(n_live, p * d)
        lflat = lam_new.reshape(n_live, p * d)
        for rows, bidx, cidx in flat:
            rhs = bflat[:, bidx]
            coef = _per_restart(np.linalg.solve, cflat[:, cidx], rhs[..., None])[..., 0]
            lflat[:, bidx] = coef
            # at the regression optimum the residual quadratic collapses
            omega_new[:, rows] = s_diag[rows] - (coef * rhs).sum(axis=2)
        omega = np.maximum(omega_new, options.omega_floor)
        # a non-positive E[LL'] diagonal (possible on a non-PD s) breaks the
        # restart: its slot turns NaN, as after a failed factorization
        cdiag = cmat.diagonal(axis1=1, axis2=2)
        scale = np.sqrt(np.where(cdiag > 0, cdiag, np.nan))
        phi = cmat / (scale[:, :, None] * scale[:, None, :])
        phi[:, diag, diag] = 1.0
        lam = lam_new * scale[:, None, :]
        updates += 1
    return outcomes


def _start_points(structure, restarts, seed):
    """Starting loadings of every restart, stacked (restarts x p x d).

    Restart 0 starts at 0.5 on the support; restart ``r > 0`` adds uniform
    jitter on [-0.1, 0.1] drawn from ``RngState(seed).derive(r)``.
    """
    rows = np.asarray([i for i, _ in sorted(structure.support)], dtype=int)
    cols = np.asarray([j for _, j in sorted(structure.support)], dtype=int)
    lam0 = np.zeros((restarts, structure.p, structure.d))
    lam0[:, rows, cols] = 0.5
    rng = RngState(seed)
    for r in range(1, restarts):
        lam0[r, rows, cols] += rng.derive(r).generator.uniform(-0.1, 0.1, size=rows.size)
    return lam0


def fit_mle(s_sample, n, structure, options=None, seed=0):
    """Maximum likelihood fit of a factor model with a fixed support.

    Parameters
    ----------
    s_sample : array_like
        Symmetric sample covariance (or correlation) matrix. A
        non-positive-definite input is accepted with a warning.
    n : int
        Sample size behind ``s_sample``; scales the likelihood and the BIC.
    structure : Structure
        Loading support. Rows without factors are fitted as pure noise.
    options : FitOptions, optional
    seed : int
        Seeds the restart jitter.

    Returns
    -------
    FitResult
    """
    options = options or FitOptions()
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    s = as_sym_matrix(s_sample, name="s_sample")
    if s.shape[0] != structure.p:
        raise DimensionMismatch(
            f"sample matrix is {s.shape[0]} x {s.shape[0]} but structure has p={structure.p}"
        )
    if np.any(np.diag(s) <= 0):
        raise DomainError("sample matrix has non-positive diagonal entries")
    try:
        cholesky(s)
    except NotPositiveDefinite:
        warnings.warn(
            "sample matrix is not positive definite; the fit maximizes the "
            "likelihood formula as given",
            NonPDSampleWarning,
            stacklevel=2,
        )

    lam0 = _start_points(structure, options.restarts, seed)
    best = None
    for out in _em_ascent(s, n, _row_classes(structure), lam0, options):
        if out is not None and (best is None or out[3][-1] > best[3][-1]):
            best = out
    if best is None:
        raise NotPositiveDefinite(
            "every restart broke down numerically; sample matrix is too degenerate"
        )
    lam, phi, omega, path, converged, n_iter = best
    lam, phi = _canonicalize_signs(lam.copy(), phi.copy(), structure)
    theta = FactorParams(loadings=lam, factor_corr=phi, error_var=omega)
    k = count_free_params(structure)
    ll = path[-1]
    return FitResult(
        theta=theta,
        loglik=float(ll),
        bic=bic_value(ll, k, n),
        converged=converged,
        n_iterations=n_iter,
        n_free_params=k,
        loglik_path=tuple(path),
    )


def sample_covariance(data, ddof=1):
    """Mean-centered sample covariance of rows."""
    arr = np.asarray(data, dtype=float)
    if arr.ndim != 2:
        raise DimensionMismatch(f"data must be 2-D, got shape {arr.shape}")
    if arr.shape[0] <= ddof:
        raise DomainError(f"need more than {ddof} rows, got {arr.shape[0]}")
    centered = arr - arr.mean(axis=0)
    return centered.T @ centered / (arr.shape[0] - ddof)


def pearson_correlation(data):
    """Product-moment correlation of columns (unbiased-denominator scaling).

    Raises
    ------
    ConstantColumn
        If any column has zero variance.
    """
    arr = np.asarray(data, dtype=float)
    if arr.ndim != 2:
        raise DimensionMismatch(f"data must be 2-D, got shape {arr.shape}")
    if arr.shape[0] < 2:
        raise DomainError(f"need at least 2 rows, got {arr.shape[0]}")
    cov = sample_covariance(arr, ddof=1)
    sd = np.sqrt(np.diag(cov))
    flat = np.flatnonzero(sd == 0)
    if flat.size:
        raise ConstantColumn(
            f"columns {[int(i) for i in flat]} are constant; correlation undefined"
        )
    corr = cov / np.outer(sd, sd)
    np.fill_diagonal(corr, 1.0)
    return (corr + corr.T) / 2.0
