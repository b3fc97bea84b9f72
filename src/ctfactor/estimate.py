"""Constrained Gaussian maximum likelihood for sparse factor models.

The estimator maximizes the Gaussian log-likelihood of a sample covariance
matrix over loadings restricted to a given support, a unit-diagonal factor
correlation matrix, and positive error variances. The ascent has two
phases.

Expectation-maximization over the latent factors comes first:

* E-step: posterior moments of the factors given the observed covariance.
* M-step: each loading row is a regression of its variable on that row's
  factor set only (rows off the support stay exactly zero); error
  variances absorb the residual; the factor covariance is refreshed and
  then renormalized to a unit diagonal, with the compensating scale folded
  into the loading columns, which leaves the implied covariance unchanged.

Each M-step maximizes the complete-data objective exactly, so the
log-likelihood is non-decreasing along the path up to round-off.
``RESTARTS`` restarts jitter the starting loadings and ascend together as
one batch along a leading restart axis. A restart stops when ``|delta
loglik|`` falls under ``LOGLIK_TOL``. The restarts still running after
``EM_HANDOVER`` updates, where EM tends to crawl along a flat ridge, are
finished by BFGS (at most ``FINISH_STEPS`` steps each, again as one batch)
on unconstrained free parameters:

* the support loadings;
* ``phi = R R'``, where row ``a`` of the lower-triangular ``R`` is
  ``u_a / |u_a|`` with ``u_aa = 1`` and the strictly lower entries free;
* ``omega = OMEGA_FLOOR + exp(eta)``.

Every point gives a unit-diagonal positive definite ``phi`` and error
variances at or above ``OMEGA_FLOOR``: a singular ``phi`` lies at
infinity rather than behind a wall. (Rounding still walls off the points
where ``phi`` or ``Sigma`` is singular to working precision.) The gradient
is analytic, ``dloglik / dSigma = (n / 2) (Sigma^-1 S Sigma^-1 -
Sigma^-1)``, and the log-likelihood is non-decreasing along the finish
too, up to round-off.

The finish runs only under a ceiling (``loglik_ceiling``: the saturated
log-likelihood, which exists for a positive definite sample matrix with
``n > p``) and for fits with at most ``FINISH_MAX_PARAMS`` free
parameters; other fits run EM alone, to at most ``MAX_ITERATIONS``
updates.

A fit has converged when EM met ``LOGLIK_TOL`` or the finish brought the
largest gradient entry to ``GRAD_TOL``. Its ``loglik_path`` runs through
both phases: the start point, one entry per EM update and one per
accepted finish step; ``n_iterations`` is its length less one.
The fit's policy is these module constants; no caller sets it.

The best final likelihood over restarts wins. Restart ``r > 0`` jitters
with ``philox(seed + r)``. Column signs are normalized afterwards so that
each factor's anchor variable (its smallest-index unique child, falling
back to the smallest-index child) loads non-negatively.
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
from .numerics import as_sym_matrix, logdet_pd, philox

__all__ = [
    "FitResult",
    "loglik_ceiling",
    "fit_mle",
    "count_free_params",
    "bic_value",
    "sample_covariance",
    "pearson_correlation",
]


#: Floor on every error variance: a Heywood case stops here, short of zero.
OMEGA_FLOOR = 1e-6

#: Warning text for a sample matrix that is not positive definite.
NON_PD_SAMPLE = (
    "sample matrix is not positive definite; the fit maximizes the "
    "likelihood formula as given"
)

#: Most EM updates of a fit that EM runs alone.
MAX_ITERATIONS = 2000

#: EM stops a restart when its log-likelihood moves by less than this.
LOGLIK_TOL = 1e-8

#: Restarts per fit, ascending together as one batch.
RESTARTS = 3

#: EM updates after which a restart that has not converged goes to the finish.
EM_HANDOVER = 200

#: Most BFGS steps of one restart's finish: a boundary fit can crawl on for
#: a thousand steps more.
FINISH_STEPS = 300

#: The finish has converged when every entry of the log-likelihood's
#: gradient in its free parameters is at most this in absolute value.
GRAD_TOL = 1e-5

#: Most free parameters for which the finish runs. On over-factored
#: candidates it took no longer than EM to its 2000-update cap up to about
#: 140 parameters, and 1.3 to 3.4 times as long from about 175 on (though
#: it ended higher); its dense inverse Hessian estimates of 3 restarts
#: peak near 120 k^2 bytes for k parameters (45 MB at k = 610).
FINISH_MAX_PARAMS = 150

#: Most trial steps of one finish line search, each at most half the one
#: before, after which the restart leaves the finish.
_BACKTRACKS = 30

#: Relative fall of the log-likelihood, at the level of rounding, that a
#: finish step may show when its true gain is below rounding.
_ROUNDING = 16 * np.finfo(float).eps

#: Smallest Cholesky pivot of ``phi``, and of ``Sigma`` relative to its
#: largest diagonal entry, as computed in floating point, that the finish
#: steps to: a margin above ``numerics.cholesky``'s 1e-12.
_PIVOT_WALL = 1e-10


@dataclass(frozen=True)
class FitResult:
    """Fitted parameters plus fit diagnostics.

    ``loglik_path`` is the log-likelihood of the winning restart after
    each EM update and each accepted finish step (first entry is the
    initial point); ``n_iterations`` counts those updates and steps,
    ``len(loglik_path) - 1``.
    ``converged`` is true when EM met ``LOGLIK_TOL`` or the finish met
    ``GRAD_TOL``.
    """

    theta: FactorParams
    loglik: float
    bic: float
    converged: bool
    n_iterations: int
    loglik_path: tuple


def loglik_ceiling(s_sample, n):
    """The saturated log-likelihood where it bounds every fit, else None.

    The Gaussian log-likelihood at ``sigma = s_sample`` is ``-(n / 2) * (p
    * log(2 pi) + logdet(s) + p)``. Over positive definite models it peaks
    there, so no fit of any structure exceeds it, provided the sample
    matrix is positive definite and ``n > p``. With ``n <= p`` the
    supremum can sit where error variances are at ``OMEGA_FLOOR``, and a
    finish stalls there; the ceiling is then None without factoring the
    matrix. Either case without a ceiling warns once
    (``NonPDSampleWarning``), on the line that called the caller
    (``ct_run`` or ``fit_mle``).
    """
    if n <= 0:
        raise DomainError(f"n must be positive, got {n}")
    s = as_sym_matrix(s_sample, name="s_sample")
    p = s.shape[0]
    if n <= p:
        warnings.warn(
            f"n={n} <= p={p}: the sample matrix is rank deficient and likelihoods are unreliable",
            NonPDSampleWarning,
            stacklevel=3,
        )
        return None
    try:
        logdet = logdet_pd(s)
    except NotPositiveDefinite:
        warnings.warn(NON_PD_SAMPLE, NonPDSampleWarning, stacklevel=3)
        return None
    return -0.5 * n * (p * math.log(2.0 * math.pi) + logdet + p)


def count_free_params(structure):
    """Free parameters: support size + factor correlations + error variances."""
    d = structure.d
    return len(structure.support) + d * (d - 1) // 2 + structure.p


def bic_value(loglik, k, n):
    """``-2 * loglik + k * log(n)``."""
    if n <= 0:
        raise DomainError(f"n must be positive, got {n}")
    return -2.0 * loglik + k * math.log(n)


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


def _support_index(structure):
    """``(rows, cols)`` index vectors of the support in sorted order."""
    support = sorted(structure.support)
    return (
        np.asarray([i for i, _ in support], dtype=int),
        np.asarray([j for _, j in support], dtype=int),
    )


def _em_ascent(s, n, classes, lam0, cap):
    """EM from every starting loading matrix in ``lam0`` (restarts x p x d) at once.

    Returns one entry per restart: ``(lam, phi, omega, path, converged)``,
    or ``None`` for a restart that broke down numerically (a failed
    factorization, a non-positive E[LL'] diagonal or a non-finite
    log-likelihood). ``path`` holds the start point and one entry per
    update. Each restart stops at ``LOGLIK_TOL`` or after ``cap`` updates
    and then leaves the batch, so its path is the one it would follow
    alone.
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
    omega = np.tile(np.maximum(0.5 * s_diag, OMEGA_FLOOR), (n_starts, 1))
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
            converged = np.abs(ll - ll_prev) < LOGLIK_TOL
        capped = updates >= cap
        for slot, r in enumerate(live):
            if not finite[slot]:
                continue  # numerically broken restart: dropped, outcome stays None
            paths[r].append(float(ll[slot]))
            if converged[slot] or capped:
                outcomes[r] = (lam[slot], phi[slot], omega[slot], paths[r], bool(converged[slot]))
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
        omega = np.maximum(omega_new, OMEGA_FLOOR)
        # a non-positive E[LL'] diagonal (possible on a non-PD s) breaks the
        # restart: its slot turns NaN, as after a failed factorization
        cdiag = cmat.diagonal(axis1=1, axis2=2)
        scale = np.sqrt(np.where(cdiag > 0, cdiag, np.nan))
        phi = cmat / (scale[:, :, None] * scale[:, None, :])
        phi[:, diag, diag] = 1.0
        lam = lam_new * scale[:, None, :]
        updates += 1
    return outcomes


class _Finish:
    """Batched BFGS ascent of one support's log-likelihood in its free parameters.

    ``x`` stacks the support loadings (in sorted support order), the
    strictly lower entries of ``u`` and ``eta``; see the module docstring.
    Every restart handed over ascends in one batch along a leading axis,
    as in the EM phase, and leaves it when it converges or its line
    search fails. Each evaluation factors ``Sigma = B B' + diag(omega)``,
    ``B = lam R``, directly: the p x p work is affordable under
    ``FINISH_MAX_PARAMS``, and near a Heywood case it keeps digits that the
    ``diag(1 / omega)`` terms of the EM phase's Woodbury form cancel away.
    """

    def __init__(self, s, n, structure, ceiling):
        self.s = s
        self.n = n
        self.rows, self.cols = _support_index(structure)
        self.p, self.d = structure.p, structure.d
        self.low = np.tril_indices(self.d, -1)
        # the saturated log-likelihood bounds every model; an evaluation
        # above it is rounding, not a model
        self.ceiling = ceiling

    def pack(self, lam, phi, omega):
        """``x`` of one EM iterate; ``omega`` at the floor maps to a finite ``eta``."""
        r = np.linalg.cholesky(phi)
        u = r / r.diagonal()[:, None]
        eta = np.log(np.maximum(omega - OMEGA_FLOOR, np.finfo(float).tiny))
        return np.concatenate([lam[self.rows, self.cols], u[self.low], eta])

    def _split(self, xs):
        """``(lam, R, |u_a|, exp(eta), phi)`` of stacked ``xs``; ``phi = R R'``
        is made exactly symmetric with an exact unit diagonal."""
        count = xs.shape[0]
        k = self.rows.size
        m = k + self.low[0].size
        lam = np.zeros((count, self.p, self.d))
        lam[:, self.rows, self.cols] = xs[:, :k]
        u = np.tile(np.eye(self.d), (count, 1, 1))
        u[:, self.low[0], self.low[1]] = xs[:, k:m]
        norms = np.sqrt((u * u).sum(axis=2))
        r = u / norms[:, :, None]
        phi = r @ r.transpose(0, 2, 1)
        phi = (phi + phi.transpose(0, 2, 1)) / 2.0
        phi[:, np.arange(self.d), np.arange(self.d)] = 1.0
        return lam, r, norms, np.exp(xs[:, m:]), phi

    def unpack(self, x):
        """``(lam, phi, omega)`` of one ``x``."""
        lam, _, _, excess, phi = self._split(x[None])
        return lam[0], phi[0], OMEGA_FLOOR + excess[0]

    def objective(self, xs):
        """``(-loglik, -gradient)`` at each row of ``xs`` (restarts x params).

        A row gets ``(inf, 0)`` where a value overflows, a Cholesky pivot
        of ``phi`` or (relative to its largest diagonal entry) of
        ``Sigma`` falls to ``_PIVOT_WALL``, or the log-likelihood passes
        its ceiling, so a line search backs off from there. ``phi`` and
        ``Sigma`` are singular only at infinity, but rounding reaches them
        sooner, and the ``phi`` a fit reports must pass
        ``numerics.cholesky``.
        """
        n, p = self.n, self.p
        diag = np.arange(p)
        with np.errstate(all="ignore"):
            lam, r, norms, excess, phi = self._split(xs)
            pivots = _per_restart(np.linalg.cholesky, phi).diagonal(axis1=1, axis2=2) ** 2
            b = lam @ r
            sigma = b @ b.transpose(0, 2, 1)
            sigma[:, diag, diag] += OMEGA_FLOOR + excess
            low = _per_restart(np.linalg.cholesky, sigma)
            linv = _per_restart(np.linalg.inv, low)
            # through E = s - Sigma, the two large terms of Sigma^-1 s Sigma^-1
            # - Sigma^-1 near a Heywood case never meet
            y = linv @ (self.s - sigma) @ linv.transpose(0, 2, 1)   # L^-1 E L^-T
            logdet = 2.0 * np.log(low.diagonal(axis1=1, axis2=2)).sum(axis=1)
            trace = y.trace(axis1=1, axis2=2)
            ll = -0.5 * n * (p * math.log(2.0 * math.pi) + logdet + p + trace)
            # dloglik/dSigma = (n / 2) Sigma^-1 E Sigma^-1
            g = linv.transpose(0, 2, 1) @ y @ linv
            g = 0.25 * n * (g + g.transpose(0, 2, 1))
            gb = g @ b
            g_r = np.tril(2.0 * lam.transpose(0, 2, 1) @ gb)
            # row a of R is u_a / |u_a|: project out r_a, then divide by |u_a|
            g_u = (g_r - r * (r * g_r).sum(axis=2)[:, :, None]) / norms[:, :, None]
            grad = np.concatenate([
                2.0 * (gb @ r.transpose(0, 2, 1))[:, self.rows, self.cols],
                g_u[:, self.low[0], self.low[1]],
                g[:, diag, diag] * excess,
            ], axis=1)
            wall = _PIVOT_WALL * sigma.diagonal(axis1=1, axis2=2).max(axis=1)
            ok = (
                (pivots.min(axis=1) > _PIVOT_WALL)
                & ((low.diagonal(axis1=1, axis2=2) ** 2).min(axis=1) > wall)
                & (ll <= self.ceiling + 1e-8 * abs(self.ceiling))
                & np.isfinite(grad).all(axis=1)
            )
        return np.where(ok, -ll, math.inf), np.where(ok[:, None], -grad, 0.0)

    def run(self, starts, budget):
        """At most ``budget`` BFGS steps from each EM iterate in ``starts``.

        Returns one ``(lam, phi, omega, logliks, converged)`` per start:
        the last accepted iterate (the start itself when no step is
        accepted), the log-likelihood after each accepted step, and whether
        the largest gradient entry there is at most ``GRAD_TOL``. A step is
        accepted on sufficient increase (Armijo) or, where the increase is
        lost in rounding, on no decrease beyond ``_ROUNDING`` with the slope
        along the step mostly spent (Hager and Zhang's approximate Wolfe
        conditions). The
        inverse Hessian estimate starts as the identity, is rescaled after
        the first step, and skips an update without positive curvature.
        """
        xs = np.stack([self.pack(*start) for start in starts])
        count, size = xs.shape
        f, g = self.objective(xs)
        hinv = np.tile(np.eye(size), (count, 1, 1))
        steps = [[] for _ in range(count)]
        live = np.flatnonzero(np.isfinite(f) & (np.abs(g).max(axis=1) > GRAD_TOL))
        for _ in range(budget):
            if live.size == 0:
                break
            direction = -(hinv[live] @ g[live][:, :, None])[:, :, 0]
            slope = (g[live] * direction).sum(axis=1)
            # a first step, or one whose estimate lost descent, goes along -g
            reset = np.array([not steps[r] for r in live]) | ~(slope < 0)
            hinv[live[reset]] = np.eye(size)
            direction[reset] = -g[live[reset]]
            slope[reset] = -(g[live[reset]] ** 2).sum(axis=1)
            alpha = np.where(reset, np.minimum(1.0, 1.0 / np.sqrt(-slope)), 1.0)
            x_new, f_new, g_new = xs[live].copy(), f[live].copy(), g[live].copy()
            done = np.zeros(live.size, dtype=bool)
            pending = np.arange(live.size)
            for _ in range(_BACKTRACKS):
                trial = xs[live[pending]] + alpha[pending, None] * direction[pending]
                ft, gt = self.objective(trial)
                fall = ft - f[live[pending]]
                s0 = slope[pending]
                # sufficient decrease, or else (where the decrease is lost
                # in rounding) no rise beyond rounding and the slope mostly spent
                ends = (gt * direction[pending]).sum(axis=1)
                good = (fall <= 1e-4 * alpha[pending] * s0) | (
                    (fall <= _ROUNDING * np.abs(f[live[pending]]))
                    & (ends >= 0.9 * s0) & (ends <= -0.8 * s0)
                )
                hit = pending[good]
                x_new[hit], f_new[hit], g_new[hit] = trial[good], ft[good], gt[good]
                done[hit] = True
                pending, fall, a = pending[~good], fall[~good], alpha[pending[~good]]
                if pending.size == 0:
                    break
                # minimizer of the quadratic through f, the slope and the trial
                s0 = s0[~good]
                with np.errstate(all="ignore"):
                    quad = -s0 * a * a / (2.0 * (fall - s0 * a))
                alpha[pending] = np.where(
                    np.isfinite(fall), np.clip(quad, 0.1 * a, 0.5 * a), 0.1 * a
                )
            moved = live[done]
            step = x_new[done] - xs[moved]
            change = g_new[done] - g[moved]
            curv = (step * change).sum(axis=1)
            ok = curv > 1e-12 * np.sqrt((step * step).sum(axis=1) * (change * change).sum(axis=1))
            h = hinv[moved]
            hy = (h @ change[:, :, None])[:, :, 0]
            # Shanno-Phua: scale an identity estimate to the curvature just seen
            scale = np.where(reset[done] & ok, curv / (change * change).sum(axis=1), 1.0)
            h *= scale[:, None, None]
            hy *= scale[:, None]
            rho = np.where(ok, 1.0 / np.where(ok, curv, 1.0), 0.0)
            yhy = (change * hy).sum(axis=1)
            h += (
                ((1.0 + rho * yhy) * rho)[:, None, None] * step[:, :, None] * step[:, None, :]
                - rho[:, None, None] * (hy[:, :, None] * step[:, None, :]
                                        + step[:, :, None] * hy[:, None, :])
            )
            hinv[moved] = h
            xs[moved], f[moved], g[moved] = x_new[done], f_new[done], g_new[done]
            for r, value in zip(moved, f_new[done]):
                steps[r].append(-float(value))
            live = moved[np.abs(g[moved]).max(axis=1) > GRAD_TOL]
        out = []
        for r, start in enumerate(starts):
            converged = bool(np.isfinite(f[r]) and np.abs(g[r]).max() <= GRAD_TOL)
            lam, phi, omega = self.unpack(xs[r]) if steps[r] else start
            out.append((lam, phi, omega, steps[r], converged))
        return out


def _start_points(structure, restarts, seed):
    """Starting loadings of every restart, stacked (restarts x p x d).

    Restart 0 starts at 0.5 on the support; restart ``r > 0`` adds uniform
    jitter on [-0.1, 0.1] drawn from ``philox(seed + r)``.
    """
    if seed < 0:
        raise DomainError(f"seed must be non-negative, got {seed}")
    rows, cols = _support_index(structure)
    lam0 = np.zeros((restarts, structure.p, structure.d))
    lam0[:, rows, cols] = 0.5
    for r in range(1, restarts):
        lam0[r, rows, cols] += philox(seed + r).uniform(-0.1, 0.1, size=rows.size)
    return lam0


#: ``fit_mle``'s default ``ceiling``: work it out from the sample matrix.
_FACTOR = object()


def fit_mle(s_sample, n, structure, seed=0, *, ceiling=_FACTOR):
    """Maximum likelihood fit of a factor model with a fixed support.

    Its policy is the module's constants; see the module docstring.

    Parameters
    ----------
    s_sample : array_like
        Symmetric sample covariance (or correlation) matrix. A
        non-positive-definite input is accepted with a warning.
    n : int
        Sample size behind ``s_sample``; scales the likelihood and the BIC.
    structure : Structure
        Loading support. Rows without factors are fitted as pure noise.
    seed : int
        Seeds the restart jitter.
    ceiling : float or None, optional
        ``loglik_ceiling(s_sample, n)``. By default it is worked out here,
        which warns when there is none (``n <= p``, or ``s_sample`` not
        positive definite); a caller that fits many structures to one
        matrix passes it instead, and then nothing is factored or warned
        here.

    Returns
    -------
    FitResult
    """
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    s = as_sym_matrix(s_sample, name="s_sample")
    if s.shape[0] != structure.p:
        raise DimensionMismatch(
            f"sample matrix is {s.shape[0]} x {s.shape[0]} but structure has p={structure.p}"
        )
    if np.any(np.diag(s) <= 0):
        raise DomainError("sample matrix has non-positive diagonal entries")
    if ceiling is _FACTOR:
        ceiling = loglik_ceiling(s, n)

    finish = ceiling is not None and count_free_params(structure) <= FINISH_MAX_PARAMS
    lam0 = _start_points(structure, RESTARTS, seed)
    outcomes = _em_ascent(
        s, n, _row_classes(structure), lam0, EM_HANDOVER if finish else MAX_ITERATIONS
    )
    handed = [r for r, out in enumerate(outcomes) if out is not None and not out[4]]
    if finish and handed:
        ends = _Finish(s, n, structure, ceiling).run(
            [outcomes[r][:3] for r in handed], FINISH_STEPS
        )
        for r, (lam, phi, omega, steps, converged) in zip(handed, ends):
            outcomes[r] = (lam, phi, omega, outcomes[r][3] + steps, converged)
    best = None
    for out in outcomes:
        if out is not None and (best is None or out[3][-1] > best[3][-1]):
            best = out
    if best is None:
        raise NotPositiveDefinite(
            "every restart broke down numerically; sample matrix is too degenerate"
        )
    lam, phi, omega, path, converged = best
    lam, phi = _canonicalize_signs(lam.copy(), phi.copy(), structure)
    theta = FactorParams(loadings=lam, factor_corr=phi, error_var=omega)
    ll = path[-1]
    return FitResult(
        theta=theta,
        loglik=float(ll),
        bic=bic_value(ll, count_free_params(structure), n),
        converged=converged,
        n_iterations=len(path) - 1,
        loglik_path=tuple(path),
    )


def sample_covariance(data):
    """Mean-centered sample covariance of rows (denominator ``n - 1``)."""
    arr = np.asarray(data, dtype=float)
    if arr.ndim != 2:
        raise DimensionMismatch(f"data must be 2-D, got shape {arr.shape}")
    if arr.shape[0] < 2:
        raise DomainError(f"need at least 2 rows, got {arr.shape[0]}")
    centered = arr - arr.mean(axis=0)
    return centered.T @ centered / (arr.shape[0] - 1)


def pearson_correlation(data):
    """Product-moment correlation of columns (unbiased-denominator scaling).

    Raises
    ------
    ConstantColumn
        If any column has zero variance.
    """
    cov = sample_covariance(data)
    sd = np.sqrt(np.diag(cov))
    flat = np.flatnonzero(sd == 0)
    if flat.size:
        raise ConstantColumn(
            f"columns {[int(i) for i in flat]} are constant; correlation undefined"
        )
    corr = cov / np.outer(sd, sd)
    np.fill_diagonal(corr, 1.0)
    return (corr + corr.T) / 2.0
