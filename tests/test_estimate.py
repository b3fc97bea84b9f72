"""Constrained maximum likelihood and BIC."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from scipy.linalg import cho_solve

import ctfactor as cf
from ctfactor import CtConfig, FitOptions, Structure, ct_run
from ctfactor.errors import (
    ConstantColumn,
    DimensionMismatch,
    DomainError,
    NonPDSampleWarning,
    NotPositiveDefinite,
)
from ctfactor.estimate import (
    EM_HANDOVER,
    FINISH_MAX_PARAMS,
    FINISH_STEPS,
    GRAD_TOL,
    OMEGA_FLOOR,
    _em_ascent,
    _Finish,
    _per_restart,
    _row_classes,
    _start_points,
    pearson_correlation,
    sample_covariance,
    saturated_loglik,
)
from ctfactor.model import implied_covariance
from ctfactor.numerics import cholesky, philox
from ctfactor.simgen import data_rng
from oracles import gaussian_loglik

TIGHT = FitOptions(max_iterations=20000, loglik_tolerance=1e-13)


def one_factor_structure(p=3):
    return Structure(p=p, d=1, support=frozenset((i, 0) for i in range(p)))


def sample_setup(seed=0, phi_scale=0.25, n=800, d=3, children=5):
    spec = cf.SimSpec(d=d, children_per_factor=children, n=n, seed=seed, phi_scale=phi_scale)
    theta = cf.gen_independent_cluster(spec)
    data = cf.sample_dataset(theta, n, data_rng(spec))
    return theta, pearson_correlation(data)


class TestFitOptions:
    def test_defaults(self):
        opts = FitOptions()
        assert opts.max_iterations == 2000
        assert opts.loglik_tolerance == 1e-8
        assert opts.restarts == 3
        assert [f.name for f in dataclasses.fields(FitOptions)] == [
            "max_iterations", "loglik_tolerance", "restarts"]
        assert OMEGA_FLOOR == 1e-6

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_iterations": 0},
            {"loglik_tolerance": 0.0},
            {"loglik_tolerance": -1.0},
            {"restarts": 0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(DomainError):
            FitOptions(**kwargs)


class TestGaussianLoglik:
    def test_identity_oracle(self):
        # p log(2 pi) + 0 + p, scaled by -n/2, at p = 2 and n = 10
        got = gaussian_loglik(np.eye(2), np.eye(2), 10)
        assert got == pytest.approx(-10.0 * (math.log(2 * math.pi) + 1.0), rel=1e-14)

    def test_maximized_at_sample_matrix(self):
        gen = philox(3)
        base = gen.standard_normal((4, 4))
        s = base @ base.T + 4 * np.eye(4)
        at_s = gaussian_loglik(s, s, 25)
        for _ in range(10):
            bump = gen.standard_normal((4, 4)) * 0.1
            other = s + bump @ bump.T
            assert gaussian_loglik(other, s, 25) <= at_s + 1e-9

    def test_rejects_mismatched_shapes(self):
        with pytest.raises(DimensionMismatch):
            gaussian_loglik(np.eye(2), np.eye(3), 5)


class TestCountsAndBic:
    def test_free_parameter_count(self):
        s = Structure(
            p=15,
            d=3,
            support=frozenset((i, i // 5) for i in range(15)),
        )
        assert cf.count_free_params(s) == 15 + 3 + 15

    def test_bic_value(self):
        assert cf.bic_value(0.0, 10, math.e) == pytest.approx(10.0, rel=1e-14)

    def test_bic_of_fit(self):
        theta, corr = sample_setup(seed=5)
        fit = cf.fit_mle(corr, 800, theta.structure(), seed=0)
        k = cf.count_free_params(theta.structure())
        assert fit.bic == pytest.approx(cf.bic_value(fit.loglik, k, 800))


class TestFitMle:
    def test_one_factor_closed_form(self):
        lam_true = np.array([0.7, 0.6, 0.8])
        corr = np.eye(3)
        for i in range(3):
            for j in range(3):
                if i != j:
                    corr[i, j] = lam_true[i] * lam_true[j]
        fit = cf.fit_mle(corr, 500, one_factor_structure(), options=TIGHT, seed=0)
        r12, r13, r23 = corr[0, 1], corr[0, 2], corr[1, 2]
        closed = np.array(
            [
                math.sqrt(r12 * r13 / r23),
                math.sqrt(r12 * r23 / r13),
                math.sqrt(r13 * r23 / r12),
            ]
        )
        assert np.abs(fit.theta.loadings[:, 0] - closed).max() < 1e-6
        assert np.abs(fit.theta.error_var - (1 - closed**2)).max() < 1e-6

    def test_population_recovery(self):
        theta, _ = sample_setup(seed=21)
        sigma = implied_covariance(theta)
        fit = cf.fit_mle(sigma, 1000, theta.structure(), options=TIGHT, seed=1)
        assert np.abs(fit.theta.loadings - theta.loadings).max() < 1e-4
        assert np.abs(fit.theta.factor_corr - theta.factor_corr).max() < 1e-4
        assert np.abs(fit.theta.error_var - theta.error_var).max() < 1e-4

    def test_loglik_path_monotone(self):
        theta, corr = sample_setup(seed=9)
        fit = cf.fit_mle(corr, 800, theta.structure(), seed=2)
        diffs = np.diff(np.asarray(fit.loglik_path))
        assert diffs.size == 0 or diffs.min() > -1e-10

    def test_reported_loglik_matches_direct_formula(self):
        theta, corr = sample_setup(seed=14)
        fit = cf.fit_mle(corr, 800, theta.structure(), seed=3)
        direct = gaussian_loglik(implied_covariance(fit.theta), corr, 800)
        assert fit.loglik == pytest.approx(direct, rel=1e-10)

    def test_deterministic_given_seed(self):
        theta, corr = sample_setup(seed=30)
        a = cf.fit_mle(corr, 800, theta.structure(), seed=7)
        b = cf.fit_mle(corr, 800, theta.structure(), seed=7)
        assert np.array_equal(a.theta.loadings, b.theta.loadings)
        assert a.loglik == b.loglik

    def test_support_respected_exactly(self):
        theta, corr = sample_setup(seed=11)
        structure = theta.structure()
        fit = cf.fit_mle(corr, 800, structure, seed=0)
        off = np.ones_like(fit.theta.loadings, dtype=bool)
        for i, j in structure.support:
            off[i, j] = False
        assert np.all(fit.theta.loadings[off] == 0.0)

    def test_sign_anchors_nonnegative(self):
        theta, corr = sample_setup(seed=16)
        structure = theta.structure()
        fit = cf.fit_mle(corr, 800, structure, seed=4)
        unique, _ = cf.unique_children(structure)
        children = structure.child_sets()
        for j in range(structure.d):
            anchor = min(unique[j]) if unique[j] else min(children[j])
            assert fit.theta.loadings[anchor, j] >= 0.0

    def test_zero_row_variable_is_pure_noise(self):
        corr = np.eye(3)
        corr[0, 1] = corr[1, 0] = 0.5
        structure = Structure(p=3, d=1, support=frozenset({(0, 0), (1, 0)}))
        fit = cf.fit_mle(corr, 200, structure, options=TIGHT, seed=0)
        assert fit.theta.loadings[2, 0] == 0.0
        assert fit.theta.error_var[2] == pytest.approx(1.0, abs=1e-10)

    def test_rank_deficient_sample_warns(self):
        gen = philox(50)
        data = gen.standard_normal((4, 6))  # n < p
        s = data.T @ data / 3
        structure = Structure(p=6, d=1, support=frozenset((i, 0) for i in range(6)))
        with pytest.warns(NonPDSampleWarning):
            cf.fit_mle(s, 4, structure, seed=0)

    def test_restarts_do_not_hurt(self):
        # the multi-restart winner is at least as good as a single run
        theta, corr = sample_setup(seed=44)
        one = cf.fit_mle(corr, 800, theta.structure(),
                         options=FitOptions(restarts=1), seed=5)
        three = cf.fit_mle(corr, 800, theta.structure(),
                           options=FitOptions(restarts=3), seed=5)
        assert three.loglik >= one.loglik - 1e-9


class TestSaturatedLoglik:
    def test_equals_loglik_at_sample_matrix(self):
        gen = philox(7)
        base = gen.standard_normal((5, 5))
        s = base @ base.T + np.eye(5)
        assert saturated_loglik(s, 40) == pytest.approx(gaussian_loglik(s, s, 40), rel=1e-12)

    def test_bounds_every_fit(self):
        theta, corr = sample_setup(seed=12)
        ceiling = saturated_loglik(corr, 800)
        for d in (1, 3):
            structure = Structure(
                p=15, d=d, support=frozenset((i, i * d // 15) for i in range(15))
            )
            assert cf.fit_mle(corr, 800, structure, seed=0).loglik <= ceiling

    def test_rejects_non_pd(self):
        corr = np.eye(3)
        corr[0, 1] = corr[1, 0] = corr[1, 2] = corr[2, 1] = 0.9
        corr[0, 2] = corr[2, 0] = -0.9
        with pytest.raises(NotPositiveDefinite):
            saturated_loglik(corr, 100)


def sequential_em(s, n, classes, lam0, options):
    """One restart of the EM ascent, one matrix at a time.

    The reference for the batched ascent: same updates, same stopping rule,
    ``None`` on a numerical breakdown.
    """
    p, d = lam0.shape
    s_diag = np.diag(s).copy()
    eye_d = np.eye(d)
    lam = lam0.copy()
    phi = eye_d.copy()
    omega = np.maximum(0.5 * s_diag, OMEGA_FLOOR)
    path = []
    ll_prev = None
    converged = False
    updates = 0
    while True:
        dinv = 1.0 / omega
        lam_d = lam * dinv[:, None]
        ltd_lam = lam.T @ lam_d
        try:
            phi_low = np.linalg.cholesky(phi)
            phi_inv = cho_solve((phi_low, True), eye_d, check_finite=False)
            m_low = np.linalg.cholesky(phi_inv + ltd_lam)
        except np.linalg.LinAlgError:
            return None
        m_inv = cho_solve((m_low, True), eye_d, check_finite=False)
        logdet = (
            2.0 * np.log(m_low.diagonal()).sum()
            + 2.0 * np.log(phi_low.diagonal()).sum()
            + np.log(omega).sum()
        )
        sld = s @ lam_d
        trace = dinv @ s_diag - (m_inv * (lam_d.T @ sld)).sum()
        ll = float(-0.5 * n * (p * math.log(2.0 * math.pi) + logdet + trace))
        if not math.isfinite(ll):
            return None
        path.append(ll)
        if ll_prev is not None and abs(ll - ll_prev) < options.loglik_tolerance:
            converged = True
            break
        if updates >= options.max_iterations:
            break
        ll_prev = ll

        kmat = eye_d - m_inv @ ltd_lam
        inv_lam = lam_d @ kmat
        sw = sld @ kmat
        bmat = sw @ phi
        cmat = phi + phi @ (inv_lam.T @ sw - lam.T @ inv_lam) @ phi
        cmat = (cmat + cmat.T) / 2.0

        lam_new = np.zeros_like(lam)
        omega_new = s_diag.copy()
        for rows, pidx in classes:
            csub = cmat[pidx[:, :, None], pidx[:, None, :]]
            rhs = bmat[rows[:, None], pidx]
            coef = np.linalg.solve(csub, rhs[:, :, None])[:, :, 0]
            lam_new[rows[:, None], pidx] = coef
            omega_new[rows] = s_diag[rows] - (coef * rhs).sum(axis=1)
        omega = np.maximum(omega_new, OMEGA_FLOOR)
        scale = np.sqrt(cmat.diagonal())
        phi = cmat / np.outer(scale, scale)
        np.fill_diagonal(phi, 1.0)
        lam = lam_new * scale[None, :]
        updates += 1
    return lam, phi, omega, path, converged, updates


def final_logliks(outcomes):
    return [None if out is None else out[3][-1] for out in outcomes]


def assert_matches_oracle(s, n, structure, lam0, options):
    classes = _row_classes(structure)
    batched = _em_ascent(s, n, classes, lam0, options)
    oracle = [sequential_em(s, n, classes, start, options) for start in lam0]
    assert [o is None for o in batched] == [o is None for o in oracle]
    for got, want in zip(batched, oracle):
        if want is None:
            continue
        assert got[5] == want[5]  # iterations
        assert got[4] == want[4]  # converged
        assert len(got[3]) == len(want[3])
        assert got[3][-1] == pytest.approx(want[3][-1], rel=1e-10, abs=0)
    lls, ref = final_logliks(batched), final_logliks(oracle)
    alive = [r for r, ll in enumerate(ref) if ll is not None]
    assert max(alive, key=lambda r: lls[r]) == max(alive, key=lambda r: ref[r])
    return batched


def family_candidates():
    """``(corr, n, [(seed, structure)])``: the candidates with d <= 5 of one
    acceptance-family draw (seed 2000, phi_scale 0.75), each with the fit
    seed ``ct_run`` gives it. They include over-factored ones that EM alone
    runs to the iteration cap."""
    spec = cf.SimSpec(d=3, children_per_factor=5, n=1000, seed=2000, phi_scale=0.75)
    theta = cf.gen_independent_cluster(spec)
    corr = pearson_correlation(cf.sample_dataset(theta, spec.n, data_rng(spec)))
    sweep = ct_run(corr, spec.n, CtConfig(selection="none"))
    return corr, spec.n, [
        (spec.seed + k, cand.structure)
        for k, cand in enumerate(sweep.candidates)
        if cand.structure.d <= 5
    ]


def best_outcome(outcomes):
    return max((out for out in outcomes if out is not None), key=lambda out: out[3][-1])


class TestBatchedRestarts:
    def test_matches_sequential_oracle_on_sweep_candidates(self):
        corr, n, candidates = family_candidates()
        capped = 0
        for seed, structure in candidates:
            lam0 = _start_points(structure, 3, seed)
            outs = assert_matches_oracle(corr, n, structure, lam0, FitOptions())
            capped += sum(not out[4] for out in outs)
        assert capped > 0

    def test_restarts_stop_at_different_iterations(self):
        theta, corr = sample_setup(seed=9)
        lam0 = _start_points(theta.structure(), 4, 3)
        outs = assert_matches_oracle(corr, 800, theta.structure(), lam0, FitOptions())
        assert len({out[5] for out in outs}) > 1

    def test_broken_restart_dropped_alone(self):
        theta, corr = sample_setup(seed=5)
        structure = theta.structure()
        lam0 = _start_points(structure, 3, 0)
        i, j = min(structure.support)
        lam0[1, i, j] = np.nan
        outs = assert_matches_oracle(corr, 800, structure, lam0, FitOptions())
        assert outs[1] is None
        assert outs[0] is not None and outs[2] is not None

    def test_fallback_isolates_failed_factorization(self):
        bad = np.array([[1.0, 2.0], [2.0, 1.0]])
        stack = np.stack([np.eye(2), bad, 4.0 * np.eye(2)])
        low = _per_restart(np.linalg.cholesky, stack)
        assert np.array_equal(low[0], np.eye(2))
        assert np.all(np.isnan(low[1]))
        assert np.array_equal(low[2], 2.0 * np.eye(2))

    def test_fit_picks_best_restart(self):
        # the oracle runs each restart alone: sequential EM up to the
        # hand-over, then the finish from where it stands; one fit ends
        # within EM, the other (an over-factored candidate) in the finish
        theta, corr = sample_setup(seed=44)
        family_corr, family_n, candidates = family_candidates()
        over = next((s, st) for s, st in candidates if st.d == 4)
        for corr, n, (seed, structure), finished in (
            (corr, 800, (5, theta.structure()), False),
            (family_corr, family_n, over, True),
        ):
            fit = cf.fit_mle(corr, n, structure, seed=seed)
            oracle = []
            for start in _start_points(structure, 3, seed):
                lam, phi, omega, path, converged, _ = sequential_em(
                    corr, n, _row_classes(structure), start,
                    FitOptions(max_iterations=EM_HANDOVER))
                if not converged:
                    finish = _Finish(corr, n, structure, saturated_loglik(corr, n))
                    lam, phi, omega, steps, converged = finish.run(
                        [(lam, phi, omega)], FINISH_STEPS)[0]
                    path = path + steps
                oracle.append(path[-1])
            assert (fit.n_iterations > EM_HANDOVER) == finished
            assert fit.loglik == pytest.approx(max(oracle), rel=1e-10, abs=0)


def finish_point(d, seed=0):
    """A finish, its sample matrix and a start ``(lam, phi, omega)`` with
    ``d`` factors on 15 variables: variable 14 loads on nothing, and
    variable 0 is a Heywood case with its error variance at the floor."""
    corr, n, _ = family_candidates()
    structure = Structure(p=15, d=d, support=frozenset((i, i * d // 14) for i in range(14)))
    gen = philox(seed)
    lam = np.zeros((15, d))
    for i, j in structure.support:
        lam[i, j] = gen.uniform(0.3, 0.8)
    base = gen.standard_normal((d, d))
    phi = base @ base.T + d * np.eye(d)
    scale = np.sqrt(np.diag(phi))
    phi = phi / np.outer(scale, scale)
    np.fill_diagonal(phi, 1.0)
    omega = gen.uniform(0.2, 0.8, size=15)
    omega[0] = OMEGA_FLOOR
    return _Finish(corr, n, structure, saturated_loglik(corr, n)), corr, n, (lam, phi, omega)


def finish_loglik(finish, corr, n, x):
    lam, phi, omega = finish.unpack(x)
    return gaussian_loglik(lam @ phi @ lam.T + np.diag(omega), corr, n)


class TestFinish:
    @pytest.mark.parametrize("d", [1, 2, 5])
    def test_gradient_matches_central_differences(self, d):
        finish, corr, n, start = finish_point(d)
        x = finish.pack(*start)
        assert np.isfinite(x).all()  # eta of the Heywood start stays finite
        value, grad = (a[0] for a in finish.objective(x[None]))
        assert -value == pytest.approx(finish_loglik(finish, corr, n, x), rel=1e-12)
        numeric = np.empty_like(x)
        for k in range(x.size):
            step = np.zeros_like(x)
            step[k] = 1e-6 * max(1.0, abs(x[k]))
            numeric[k] = (finish_loglik(finish, corr, n, x + step)
                          - finish_loglik(finish, corr, n, x - step)) / (2 * step[k])
        assert np.abs(-grad - numeric).max() <= 1e-7 * np.abs(numeric).max()

    @pytest.mark.parametrize("d", [1, 2, 5])
    def test_every_point_is_a_valid_model(self, d):
        # unit-diagonal positive definite phi and omega at or above the
        # floor at every point the finish can accept, also far out
        # towards a singular phi or Sigma, where rounding puts up a wall
        finish, _, _, start = finish_point(d, seed=1)
        x0 = finish.pack(*start)
        gen = philox(2)
        accepted = 0
        for spread in (1.0, 3.0, 30.0, 300.0):
            x = x0 + spread * gen.standard_normal(x0.size)
            x[-15:] = np.clip(x[-15:], -700.0, 5.0)
            lam, phi, omega = finish.unpack(x)
            assert np.array_equal(np.diag(phi), np.ones(d))
            assert np.array_equal(phi, phi.T)
            assert omega.min() >= OMEGA_FLOOR
            value, grad = (a[0] for a in finish.objective(x[None]))
            if value < math.inf:
                cholesky(phi)
                accepted += 1
            else:
                assert not grad.any()
        assert accepted >= 2

    def test_pack_inverts_unpack(self):
        finish, _, _, start = finish_point(5, seed=3)
        lam, phi, omega = start
        omega = omega.copy()
        omega[0] = 0.3
        got = finish.unpack(finish.pack(lam, phi, omega))
        for a, b in zip(got, (lam, phi, omega)):
            assert np.abs(a - b).max() < 1e-12

    def test_overflow_is_a_wall_without_warnings(self):
        finish, _, _, start = finish_point(2)
        x = finish.pack(*start)
        x[-1] = 800.0  # exp(eta) overflows
        value, grad = finish.objective(x[None])
        assert value[0] == math.inf and not grad.any()


class TestFinishContract:
    """The finish's promises on the seed-2000 acceptance-family candidates."""

    def test_fits_keep_or_gain_over_em_alone(self):
        corr, n, candidates = family_candidates()
        kinds = {"early": 0, "later": 0, "capped": 0}
        for seed, structure in candidates:
            lam0 = _start_points(structure, 3, seed)
            em_only = _em_ascent(corr, n, _row_classes(structure), lam0, FitOptions())
            head = best_outcome(em_only)
            fit = cf.fit_mle(corr, n, structure, seed=seed)
            if all(out[4] and out[5] <= EM_HANDOVER for out in em_only):
                # converged before the hand-over: the EM-only fit, bit for bit
                kinds["early"] += 1
                assert fit.loglik_path == tuple(head[3])
                assert fit.n_iterations == head[5] and fit.converged
            elif head[4]:
                kinds["later"] += 1
                k = cf.count_free_params(structure)
                assert fit.bic == pytest.approx(cf.bic_value(head[3][-1], k, n), rel=1e-8, abs=0)
            else:
                # capped under EM alone: only gains on the sequential oracle
                kinds["capped"] += 1
                oracle = [sequential_em(corr, n, _row_classes(structure), start, FitOptions())
                          for start in lam0]
                assert fit.loglik >= max(out[3][-1] for out in oracle if out is not None)
        assert all(kinds.values()), kinds

    def test_path_model_and_convergence(self):
        # every candidate, and the over-factored one cut short in the finish
        corr, n, candidates = family_candidates()
        over = next((s, st) for s, st in candidates if st.d == 4)
        runs = [(s, st, FitOptions()) for s, st in candidates]
        runs.append((*over, FitOptions(max_iterations=EM_HANDOVER + 5)))
        finished = []
        for seed, structure, options in runs:
            fit = cf.fit_mle(corr, n, structure, seed=seed, options=options)
            path = np.asarray(fit.loglik_path)
            assert fit.n_iterations == path.size - 1
            assert np.diff(path).min() > -1e-10
            theta = fit.theta
            assert theta.error_var.min() >= OMEGA_FLOOR
            assert np.array_equal(np.diag(theta.factor_corr), np.ones(structure.d))
            cholesky(theta.factor_corr)
            if fit.n_iterations <= EM_HANDOVER:
                assert fit.converged == (abs(path[-1] - path[-2]) < 1e-8)
                continue
            # a finished fit has converged iff its largest gradient entry is
            # at most GRAD_TOL (up to the round-off of re-packing it)
            finish = _Finish(corr, n, structure, saturated_loglik(corr, n))
            x = finish.pack(theta.loadings, theta.factor_corr, theta.error_var)
            gmax = np.abs(finish.objective(x[None])[1]).max()
            assert gmax <= 2 * GRAD_TOL if fit.converged else gmax > GRAD_TOL / 2
            finished.append(fit.converged)
        assert True in finished and False in finished

    @pytest.mark.parametrize("case", ["rank-deficient", "n-equals-p"])
    def test_no_finish_without_ceiling(self, case):
        # without a positive definite sample matrix and n > p the supremum
        # can sit where error variances are at the floor, where the finish
        # stalls: such fits are EM alone, bit for bit
        if case == "rank-deficient":
            corr = np.round(pearson_correlation(philox(0).standard_normal((5, 8))), 6)
            n, seed = 5, 11
            structure = Structure(p=8, d=8, support=frozenset((i, i) for i in range(8)))
        else:
            corr, _, candidates = family_candidates()
            seed, structure = next((s, st) for s, st in candidates if st.d == 4)
            n = structure.p
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NonPDSampleWarning)
            fit = cf.fit_mle(corr, n, structure, seed=seed)
        lam0 = _start_points(structure, 3, seed)
        head = best_outcome(_em_ascent(corr, n, _row_classes(structure), lam0, FitOptions()))
        assert fit.loglik_path == tuple(head[3]) and fit.converged == head[4]
        assert fit.n_iterations == head[5] > EM_HANDOVER

    def test_options_past_the_hand_over(self):
        # a finish takes at most FINISH_STEPS steps and stops on GRAD_TOL,
        # whatever max_iterations and loglik_tolerance would allow: under
        # TIGHT every finished fit is the default one
        corr, n, candidates = family_candidates()
        ends = []
        for seed, structure in candidates:
            fit = cf.fit_mle(corr, n, structure, seed=seed)
            if fit.n_iterations > EM_HANDOVER:
                tight = cf.fit_mle(corr, n, structure, seed=seed, options=TIGHT)
                assert tight.loglik_path == fit.loglik_path
                assert tight.converged == fit.converged
                ends.append((fit.n_iterations, fit.converged))
        assert (EM_HANDOVER + FINISH_STEPS, False) in ends
        assert any(converged for _, converged in ends), ends

    def test_max_iterations_caps_both_phases(self):
        corr, n, candidates = family_candidates()
        seed, structure = next((s, st) for s, st in candidates if st.d == 4)
        fit = cf.fit_mle(corr, n, structure, seed=seed, options=FitOptions(max_iterations=150))
        assert fit.n_iterations == 150 and not fit.converged
        fit = cf.fit_mle(corr, n, structure, seed=seed,
                         options=FitOptions(max_iterations=EM_HANDOVER + 5))
        assert fit.n_iterations == EM_HANDOVER + 5 and not fit.converged

    def test_large_fits_run_em_alone(self):
        # more free parameters than the finish takes: EM runs to the cap
        data = philox(8).standard_normal((200, 40))
        corr = pearson_correlation(data + data[:, :1])
        structure = Structure(p=40, d=17, support=frozenset((i, i % 17) for i in range(40)))
        assert cf.count_free_params(structure) > FINISH_MAX_PARAMS
        options = FitOptions(max_iterations=EM_HANDOVER + 50)
        fit = cf.fit_mle(corr, 200, structure, seed=0, options=options)
        lam0 = _start_points(structure, 3, 0)
        head = best_outcome(_em_ascent(corr, 200, _row_classes(structure), lam0, options))
        assert fit.loglik_path == tuple(head[3])
        assert fit.n_iterations == head[5] > EM_HANDOVER


class TestSampleMoments:
    def test_sample_covariance_matches_numpy(self):
        gen = philox(60)
        data = gen.standard_normal((40, 3))
        assert np.allclose(sample_covariance(data), np.cov(data, rowvar=False), atol=1e-12)

    def test_pearson_matches_numpy(self):
        gen = philox(61)
        data = gen.standard_normal((50, 4))
        assert np.allclose(pearson_correlation(data), np.corrcoef(data, rowvar=False), atol=1e-12)

    def test_constant_column_rejected(self):
        data = np.ones((10, 2))
        data[:, 0] = np.arange(10)
        with pytest.raises(ConstantColumn):
            pearson_correlation(data)
