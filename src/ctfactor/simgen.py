"""Seeded generators for benchmark factor models and datasets.

All generators produce standardized models: implied variances are exactly
one, so the implied covariance is already a correlation matrix. Loading
magnitudes and the factor-correlation scale are the two difficulty knobs:
raising the factor-correlation scale drives cross-factor correlations into
the within-factor range (breaking threshold separability), and the
unique-child generator rewires factors so a chosen fraction of them keep
no variable of their own (breaking structural identifiability while
leaving separability intact).
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DomainError,
    GenerationFailure,
    InvalidSpec,
    NotPositiveDefinite,
)
from .model import FactorParams
from .numerics import cholesky, mvn_sample, philox

__all__ = [
    "SimSpec",
    "HIGHDIM_PRESETS",
    "gen_phi",
    "gen_independent_cluster",
    "gen_ucc_violation",
    "sample_dataset",
    "data_rng",
]

#: (n, p, d) per named high-dimensional preset.
HIGHDIM_PRESETS = {
    250: (250, 375, 25),
    500: (500, 750, 50),
    1000: (1000, 1500, 100),
}

#: Redraw budget for randomized generators.
MAX_REDRAWS = 100

#: Key offset separating the data-sampling stream from the model-generation
#: stream of the same spec seed. Replicate seeds advance by +1, so streams
#: cannot collide for fewer than 2**32 replicates.
DATA_STREAM_OFFSET = 2**32


def data_rng(spec):
    """Sampling stream of a spec, independent of its generation stream."""
    return philox((spec.seed + DATA_STREAM_OFFSET) % 2**64)


@dataclass(frozen=True)
class SimSpec:
    """Settings of one simulated model/dataset.

    ``children_per_factor`` fixes ``p = d * children_per_factor``.
    ``phi_scale`` multiplies the generated factor-correlation off-diagonals
    (0 gives an identity factor correlation). ``ucc_fraction`` is the
    share of factors rewired to have no unique children.
    """

    d: int = 3
    children_per_factor: int = 5
    n: int = 1000
    seed: int = 0
    phi_scale: float = 0.0
    lambda_range: tuple = (0.6, 0.8)
    ucc_fraction: float = 0.0

    def __post_init__(self):
        if self.d < 1:
            raise InvalidSpec(f"d must be >= 1, got {self.d}")
        if self.children_per_factor < 1:
            raise InvalidSpec(
                f"children_per_factor must be >= 1, got {self.children_per_factor}"
            )
        if self.n < 1:
            raise InvalidSpec(f"n must be >= 1, got {self.n}")
        if not 0.0 <= self.phi_scale <= 1.0:
            raise InvalidSpec(f"phi_scale must lie in [0, 1], got {self.phi_scale}")
        lo, hi = self.lambda_range
        if not 0.0 < lo <= hi < 1.0:
            raise InvalidSpec(
                f"lambda_range must satisfy 0 < lo <= hi < 1, got {self.lambda_range}"
            )
        if not 0.0 <= self.ucc_fraction <= 1.0:
            raise InvalidSpec(
                f"ucc_fraction must lie in [0, 1], got {self.ucc_fraction}"
            )

    @property
    def p(self):
        return self.d * self.children_per_factor


def gen_phi(d, scale, rng):
    """Random unit-diagonal positive definite factor correlation matrix.

    Draws a d x d uniform matrix A, maps the off-diagonals of A'A affinely
    onto [0.6, 0.8], scales them by ``scale``, resets the diagonal to one,
    and verifies positive definiteness, redrawing on failure.
    """
    if d < 1:
        raise DomainError(f"d must be >= 1, got {d}")
    if not 0.0 <= scale <= 1.0:
        raise DomainError(f"scale must lie in [0, 1], got {scale}")
    if d == 1:
        return np.ones((1, 1))
    if scale == 0.0:
        return np.eye(d)
    for _ in range(MAX_REDRAWS):
        a = rng.uniform(0.0, 1.0, size=(d, d))
        gram = a.T @ a
        off = ~np.eye(d, dtype=bool)
        vals = gram[off]
        lo, hi = vals.min(), vals.max()
        if hi > lo:
            rescaled = 0.6 + 0.2 * (gram - lo) / (hi - lo)
        else:
            # single off-diagonal value (d = 2): use the midpoint
            rescaled = np.full((d, d), 0.7)
        phi = np.where(off, scale * rescaled, 1.0)
        phi = (phi + phi.T) / 2.0
        try:
            cholesky(phi)
        except NotPositiveDefinite:
            continue
        return phi
    raise GenerationFailure(
        f"no positive definite factor correlation in {MAX_REDRAWS} draws "
        f"(d={d}, scale={scale})"
    )


def gen_independent_cluster(spec):
    """Independent-cluster model: each variable loads on exactly one factor.

    Factor ``k`` owns the contiguous block of ``children_per_factor``
    variables; loadings are uniform on ``lambda_range``; error variances
    complete each implied variance to exactly one.
    """
    rng = philox(spec.seed)
    d, cpf = spec.d, spec.children_per_factor
    p = spec.p
    lo, hi = spec.lambda_range
    values = rng.uniform(lo, hi, size=p)
    lam = np.zeros((p, d))
    lam[np.arange(p), np.arange(p) // cpf] = values
    phi = gen_phi(d, spec.phi_scale, rng)
    omega = 1.0 - values**2
    return FactorParams(loadings=lam, factor_corr=phi, error_var=omega)


def gen_ucc_violation(spec):
    """Independent-cluster model rewired to break unique children.

    The factor correlation is forced to identity. ``ceil(ucc_fraction*d)``
    factors are selected; all children of a selected factor gain one
    common extra parent (uniform over the other factors), so the selected
    factor keeps no unique child. Per variable, a communality ``r2`` is
    drawn uniformly on the squared ``lambda_range``; a single-parent
    variable loads ``sqrt(r2)``, a two-parent variable splits the
    communality 5:1 between main and extra parent (both positive), and the
    error variance is ``1 - r2``.
    """
    rng = philox(spec.seed)
    d, cpf = spec.d, spec.children_per_factor
    p = spec.p
    n_violate = math.ceil(spec.ucc_fraction * d)
    if n_violate > 0 and d < 2:
        raise InvalidSpec("ucc_fraction > 0 requires at least two factors")
    main = np.arange(p) // cpf
    extra = np.full(p, -1)
    selected = sorted(int(k) for k in rng.choice(d, size=n_violate, replace=False))
    for k in selected:
        choices = [j for j in range(d) if j != k]
        e = int(choices[rng.integers(len(choices))])
        extra[main == k] = e
    lo2, hi2 = spec.lambda_range[0] ** 2, spec.lambda_range[1] ** 2
    r2 = rng.uniform(lo2, hi2, size=p)
    lam = np.zeros((p, d))
    for i in range(p):
        if extra[i] < 0:
            lam[i, main[i]] = math.sqrt(r2[i])
        else:
            lam[i, main[i]] = math.sqrt(5.0 * r2[i] / 6.0)
            lam[i, extra[i]] = math.sqrt(r2[i] / 6.0)
    omega = 1.0 - r2
    return FactorParams(loadings=lam, factor_corr=np.eye(d), error_var=omega)


def sample_dataset(theta, n, rng):
    """Draw ``n`` rows from the model via its structural equations.

    Factors are sampled from the factor correlation, errors from the
    per-variable error variances, and rows are assembled as
    ``factors @ loadings.T + errors``. Agrees in distribution with direct
    sampling from the implied covariance.
    """
    factors = mvn_sample(theta.factor_corr, n, rng)
    errors = rng.standard_normal((int(n), theta.p)) * np.sqrt(theta.error_var)
    return factors @ theta.loadings.T + errors
