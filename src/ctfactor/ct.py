"""Threshold sweep: candidate structures from a correlation matrix.

For every threshold in a grid, the correlation matrix is thresholded into
a graph, the graph's independent maximal cliques become factors (clique
membership is the loading support), duplicate structures across thresholds
are merged, and, under likelihood selection, each distinct structure is
fitted so the lowest BIC wins. Selection can also defer to an oracle
structure (smallest Hamming distance) or be skipped.

The sweep is one pass: the matrix is validated and made exactly
symmetric once (``numerics.as_corr_matrix``) and its absolute value taken
once, so the graphs threshold the same matrix that the saturated
likelihood and every fit see. Thresholds ascend, so each graph's edge set
lies inside the previous one's, and a threshold whose graph keeps the
previous edge count keeps the previous graph; it reuses that graph's
cliques and candidate (or its skip) without searching again.

BIC selection fits candidates in ascending free-parameter count ``k`` and
skips (prunes) any whose BIC could not reach the best one so far even at
the saturated log-likelihood ``l_sat``, the ceiling of every fit: a
candidate is pruned when ``-2 l_sat + k log n`` exceeds the best BIC
strictly, so the selection equals that of fitting every candidate. The
ceiling exists only for a positive definite sample matrix with ``n > p``;
otherwise every candidate is fitted, by EM alone (``estimate`` finishes a
fit only under a ceiling). The one p x p factorization of the
sample matrix behind ``l_sat`` also decides the not-positive-definite
warning, given once per run; the fits do not factor it again.
"""

import math
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, MissingTruth, NonPDSampleWarning, NotPositiveDefinite
from .estimate import NON_PD_SAMPLE, count_free_params, fit_mle, saturated_loglik
from .graph import _threshold, independent_maximal_cliques, structure_from_cliques
from .metrics import hamming_distance
from .numerics import as_corr_matrix

__all__ = ["CtConfig", "CtCandidate", "CtResult", "default_thresholds", "ct_run"]

SELECTIONS = ("bic", "min-hd-oracle", "none")


def default_thresholds():
    """40 equidistant thresholds spanning [0, 1] inclusive."""
    return np.linspace(0.0, 1.0, 40)


@dataclass(frozen=True)
class CtConfig:
    """Sweep settings.

    ``selection`` is one of ``"bic"`` (lowest BIC wins; candidates that
    cannot win are pruned unfitted), ``"min-hd-oracle"`` (closest support
    to ``truth`` wins, no fitting), or ``"none"`` (candidates only).
    ``seed`` (non-negative) seeds candidate ``k``'s fit as ``seed + k``.
    """

    thresholds: tuple = field(default_factory=lambda: tuple(default_thresholds()))
    selection: str = "bic"
    truth: object = None
    seed: int = 0

    def __post_init__(self):
        taus = tuple(float(t) for t in self.thresholds)
        if len(taus) == 0:
            raise DomainError("thresholds must be non-empty")
        for t in taus:
            if not 0.0 <= t <= 1.0:
                raise DomainError(f"threshold {t} outside [0, 1]")
        object.__setattr__(self, "thresholds", tuple(sorted(set(taus))))
        if self.selection not in SELECTIONS:
            raise DomainError(
                f"selection must be one of {SELECTIONS}, got {self.selection!r}"
            )
        if self.selection == "min-hd-oracle" and self.truth is None:
            raise MissingTruth("min-hd-oracle selection requires a truth structure")
        if self.seed < 0:
            raise DomainError(f"seed must be non-negative, got {self.seed}")


@dataclass
class CtCandidate:
    """One distinct structure found by the sweep.

    ``pruned`` marks a candidate that BIC selection skipped unfitted
    because its BIC bound already exceeded the best fitted BIC.
    """

    structure: object
    tau_values: tuple
    flags: tuple = ()
    fit: object = None
    bic: float = None
    loglik: float = None
    hd: int = None
    error: str = None
    pruned: bool = False

    def to_json_dict(self):
        fitdoc = None
        if self.fit is not None:
            fitdoc = {
                "converged": self.fit.converged,
                "n_iterations": self.fit.n_iterations,
            }
        return {
            "tau_values": list(self.tau_values),
            "structure": self.structure.to_json_dict(),
            "flags": list(self.flags),
            "bic": self.bic,
            "loglik": self.loglik,
            "hd": self.hd,
            "fit": fitdoc,
            "error": self.error,
            "pruned": self.pruned,
        }


@dataclass
class CtResult:
    """Sweep outcome: deduplicated candidates plus the selection.

    ``models_evaluated`` counts the distinct candidates and
    ``models_fitted`` the ones handed to the fitter.
    """

    candidates: list
    selected_index: int
    models_evaluated: int
    skipped_taus: tuple
    timings_s: dict
    selection: str
    models_fitted: int = 0

    @property
    def selected(self):
        if self.selected_index is None:
            return None
        return self.candidates[self.selected_index]

    @property
    def selected_converged(self):
        """Whether the selected candidate's fit converged (None: no fitted selection).

        False flags a BIC winner whose fit met neither EM's tolerance nor
        the finish's gradient test (``estimate.FitResult.converged``).
        """
        selected = self.selected
        if selected is None or selected.fit is None:
            return None
        return selected.fit.converged

    def to_json_dict(self):
        return {
            "selection": self.selection,
            "candidates": [c.to_json_dict() for c in self.candidates],
            "selected_index": self.selected_index,
            "selected_converged": self.selected_converged,
            "models_evaluated": self.models_evaluated,
            "models_fitted": self.models_fitted,
            "skipped_taus": list(self.skipped_taus),
            "timings_s": {k: float(v) for k, v in self.timings_s.items()},
        }


def ct_run(corr, n, config=None):
    """Run the full threshold sweep on a correlation matrix.

    Parameters
    ----------
    corr : array_like
        Symmetric unit-diagonal matrix (sample or population correlation).
    n : int
        Sample size behind ``corr``; drives likelihoods and the BIC.
    config : CtConfig, optional

    Returns
    -------
    CtResult
    """
    config = config or CtConfig()
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    t0 = time.perf_counter()
    corr = as_corr_matrix(corr, "correlation")
    p = corr.shape[0]
    if config.selection == "bic" and n < p:
        warnings.warn(
            f"BIC selection with n={n} < p={p}: the sample correlation matrix "
            "is rank deficient and likelihoods are unreliable",
            NonPDSampleWarning,
            stacklevel=2,
        )

    absr = np.abs(corr)
    candidates = []
    by_key = {}
    skipped = []
    prev_edges = None
    at = None  # candidate of the current graph; None when it has no cliques
    for tau in config.thresholds:
        graph = _threshold(absr, tau)
        edges = graph.edge_count()
        # thresholds ascend, so edge sets are nested: an unchanged edge
        # count is an unchanged graph, with the previous tau's outcome
        if edges != prev_edges:
            prev_edges = edges
            cliques = independent_maximal_cliques(graph)
            at = None
            if len(cliques) > 0:
                structure = structure_from_cliques(cliques)
                key = structure.canonical_key()
                at = by_key.get(key)
                if at is None:
                    flags = []
                    if structure.d == structure.p:
                        flags.append("trivial")
                    if structure.zero_rows():
                        flags.append("zero_rows")
                    at = by_key[key] = len(candidates)
                    candidates.append(
                        CtCandidate(structure=structure, tau_values=(), flags=tuple(flags))
                    )
        if at is None:
            skipped.append(float(tau))
        else:
            candidates[at].tau_values += (float(tau),)
    sweep_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    models_fitted = 0
    if config.selection == "bic" and candidates:
        # one factorization of the sample matrix decides the warning and the ceiling
        try:
            l_sat = saturated_loglik(corr, n)
        except NotPositiveDefinite:
            l_sat = None
            warnings.warn(NON_PD_SAMPLE, NonPDSampleWarning, stacklevel=2)
        # -2 l_sat: no candidate's BIC can fall below floor + k log n
        bic_floor = -2.0 * l_sat if l_sat is not None and n > p else None
        params = [count_free_params(c.structure) for c in candidates]
        best = math.inf
        for k in sorted(range(len(candidates)), key=lambda k: (params[k], k)):
            cand = candidates[k]
            if bic_floor is not None and bic_floor + params[k] * math.log(n) > best:
                cand.pruned = True
                continue
            models_fitted += 1
            try:
                fit = fit_mle(corr, n, cand.structure, seed=config.seed + k, l_sat=l_sat)
            except Exception as exc:  # a broken fit excludes the candidate only
                cand.error = f"{type(exc).__name__}: {exc}"
                continue
            cand.fit = fit
            cand.bic = fit.bic
            cand.loglik = fit.loglik
            best = min(best, fit.bic)
    fit_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    selected = None
    if config.selection == "bic":
        fitted = [k for k, c in enumerate(candidates) if c.bic is not None]
        if fitted:
            selected = min(fitted, key=lambda k: candidates[k].bic)
    elif config.selection == "min-hd-oracle":
        for cand in candidates:
            cand.hd = hamming_distance(cand.structure, config.truth).hd
        if candidates:
            selected = min(range(len(candidates)), key=lambda k: candidates[k].hd)
    select_s = time.perf_counter() - t0

    return CtResult(
        candidates=candidates,
        selected_index=selected,
        models_evaluated=len(candidates),
        skipped_taus=tuple(skipped),
        timings_s={"sweep": sweep_s, "fit": fit_s, "select": select_s},
        selection=config.selection,
        models_fitted=models_fitted,
    )
