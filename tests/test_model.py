"""Factor model parameters, structures, and population diagnostics."""

import math

import numpy as np
import pytest

import ctfactor as cf
from ctfactor import FactorParams, Structure
from ctfactor.errors import DimensionMismatch, DomainError, InvalidSpec, NotPositiveDefinite
from ctfactor.model import implied_correlation, implied_covariance
from ctfactor.numerics import philox
from oracles import general_sufficient_check, ucc_probability_bound


def two_block_params(lam_a=0.7, lam_b=0.7, phi12=0.3, rows=2):
    """rows-per-factor two-block model with unit implied variances."""
    p = 2 * rows
    lam = np.zeros((p, 2))
    lam[:rows, 0] = lam_a
    lam[rows:, 1] = lam_b
    phi = np.array([[1.0, phi12], [phi12, 1.0]])
    comm = np.einsum("ij,jk,ik->i", lam, phi, lam)
    return FactorParams(loadings=lam, factor_corr=phi, error_var=1.0 - comm)


class TestFactorParams:
    def test_accessors(self):
        theta = two_block_params()
        assert theta.p == 4 and theta.d == 2
        assert theta.structure().support == frozenset({(0, 0), (1, 0), (2, 1), (3, 1)})

    def test_rejects_shape_mismatch(self):
        with pytest.raises(DimensionMismatch):
            FactorParams(
                loadings=np.ones((3, 2)),
                factor_corr=np.eye(3),
                error_var=np.ones(3) * 0.5,
            )

    def test_rejects_nonpositive_error_var(self):
        with pytest.raises(DomainError):
            FactorParams(
                loadings=np.ones((2, 1)) * 0.5,
                factor_corr=np.eye(1),
                error_var=np.array([0.5, 0.0]),
            )

    def test_rejects_offunit_diagonal(self):
        with pytest.raises(DomainError):
            FactorParams(
                loadings=np.ones((2, 1)) * 0.5,
                factor_corr=np.array([[1.1]]),
                error_var=np.ones(2) * 0.5,
            )

    def test_rejects_indefinite_phi(self):
        phi = np.array([[1.0, 0.99, -0.99], [0.99, 1.0, 0.99], [-0.99, 0.99, 1.0]])
        with pytest.raises(NotPositiveDefinite):
            FactorParams(
                loadings=np.ones((3, 3)) * 0.3, factor_corr=phi, error_var=np.ones(3)
            )

    def test_rejects_empty_factor_column(self):
        lam = np.array([[0.5, 0.0], [0.6, 0.0]])
        with pytest.raises(DomainError):
            FactorParams(
                loadings=lam, factor_corr=np.eye(2), error_var=np.ones(2) * 0.5
            )

    def test_zero_rows_allowed(self):
        lam = np.array([[0.5], [0.0]])
        theta = FactorParams(
            loadings=lam, factor_corr=np.eye(1), error_var=np.ones(2) * 0.5
        )
        assert theta.structure().zero_rows() == [1]

    def test_arrays_frozen(self):
        theta = two_block_params()
        with pytest.raises(ValueError):
            theta.loadings[0, 0] = 9.0

    def test_json_round_trip(self):
        theta = two_block_params(phi12=0.4)
        doc = theta.to_json_dict()
        assert set(doc) == {"lambda", "phi", "omega"}
        back = FactorParams.from_json_dict(doc)
        assert np.array_equal(back.loadings, theta.loadings)
        assert np.array_equal(back.factor_corr, theta.factor_corr)
        assert np.array_equal(back.error_var, theta.error_var)


class TestStructure:
    def test_basic_sets(self):
        s = Structure(p=3, d=2, support=frozenset({(0, 0), (1, 0), (1, 1), (2, 1)}))
        assert s.parent_sets()[1] == frozenset({0, 1})
        assert s.child_sets()[0] == frozenset({0, 1})
        assert s.zero_rows() == []

    def test_rejects_out_of_range(self):
        with pytest.raises(DomainError):
            Structure(p=2, d=1, support=frozenset({(2, 0)}))

    def test_rejects_empty_factor(self):
        with pytest.raises(DomainError):
            Structure(p=3, d=2, support=frozenset({(0, 0), (1, 0)}))

    @pytest.mark.parametrize(
        "doc",
        [{"p": 2, "d": 1, "support": [[2, 0]]}, {"p": 2, "d": 1, "support": [[0, -1]]},
         {"p": 3, "d": 2, "support": [[0, 0], [1, 0]]}, {"p": 0, "d": 1, "support": []}],
        ids=["row-out-of-range", "negative-column", "empty-factor", "no-variables"],
    )
    def test_json_document_checked(self, doc):
        with pytest.raises(DomainError):
            Structure.from_json_dict(doc)

    def test_loadings_with_empty_column_rejected(self):
        with pytest.raises(DomainError):
            Structure.from_loadings(np.array([[0.5, 0.0], [0.7, 0.0]]))

    def test_numpy_pairs_become_ints(self):
        s = Structure(p=2, d=1, support=frozenset({(np.int64(1), np.int32(0))}))
        assert s.support == frozenset({(1, 0)})
        assert {type(v) for pair in s.support for v in pair} == {int}

    def test_canonical_key_ignores_column_order(self):
        a = Structure(p=3, d=2, support=frozenset({(0, 0), (1, 1), (2, 1)}))
        b = Structure(p=3, d=2, support=frozenset({(0, 1), (1, 0), (2, 0)}))
        assert a.canonical_key() == b.canonical_key()

    def test_canonical_key_separates_distinct(self):
        a = Structure(p=3, d=1, support=frozenset({(0, 0), (1, 0)}))
        b = Structure(p=3, d=1, support=frozenset({(0, 0), (2, 0)}))
        assert a.canonical_key() != b.canonical_key()

    def test_from_loadings(self):
        lam = np.array([[0.5, 0.0], [0.0, -0.3], [0.2, 0.1]])
        s = Structure.from_loadings(lam)
        assert s.support == frozenset({(0, 0), (1, 1), (2, 0), (2, 1)})

    def test_json_round_trip(self):
        s = Structure(p=4, d=2, support=frozenset({(0, 0), (3, 1)}))
        back = Structure.from_json_dict(s.to_json_dict())
        assert back == s


class TestImpliedMoments:
    def test_single_factor_oracle(self):
        # lam = (1, 1), phi = 1, omega = (1, 1) gives [[2, 1], [1, 2]]
        theta = FactorParams(
            loadings=np.ones((2, 1)),
            factor_corr=np.eye(1),
            error_var=np.ones(2),
        )
        assert np.allclose(implied_covariance(theta), [[2.0, 1.0], [1.0, 2.0]])
        corr = implied_correlation(theta)
        assert np.allclose(corr, [[1.0, 0.5], [0.5, 1.0]])
        assert np.array_equal(np.diag(corr), np.ones(2))

    def test_standardized_model_has_unit_variances(self):
        theta = two_block_params(phi12=0.5)
        assert np.allclose(np.diag(implied_covariance(theta)), 1.0, atol=1e-12)


def assert_split(theta, shared, unshared):
    """``thresholdability`` reads its two sides off exactly these pairs."""
    corr = np.abs(implied_correlation(theta))
    rep = cf.thresholdability(theta)
    assert rep.min_shared == min(corr[i, j] for i, j in shared)
    assert rep.max_unshared == max(corr[i, j] for i, j in unshared)
    return rep


class TestSharedPairs:
    def test_two_blocks(self):
        # within-block 0.7 * 0.7, cross-block 0.7 * 0.3 * 0.7
        theta = two_block_params()
        rep = assert_split(
            theta, shared=[(0, 1), (2, 3)], unshared=[(0, 2), (0, 3), (1, 2), (1, 3)]
        )
        assert rep.min_shared == pytest.approx(0.49, abs=1e-12)
        assert rep.max_unshared == pytest.approx(0.147, abs=1e-12)

    def test_shared_means_common_parent(self):
        # support {(0,0), (1,0), (1,1), (2,1)}: variable 1 links 0 and 2,
        # which share no factor themselves
        lam = np.array([[0.8, 0.0], [0.5, 0.4], [0.0, 0.7]])
        phi = np.array([[1.0, 0.2], [0.2, 1.0]])
        comm = np.einsum("ij,jk,ik->i", lam, phi, lam)
        theta = FactorParams(loadings=lam, factor_corr=phi, error_var=1.0 - comm)
        rep = assert_split(theta, shared=[(0, 1), (1, 2)], unshared=[(0, 2)])
        # |r_01| = 0.8 * 0.58, |r_12| = 0.5 * 0.7, |r_02| = 0.8 * 0.2 * 0.7
        assert rep.min_shared == pytest.approx(0.35, abs=1e-12)
        assert rep.max_unshared == pytest.approx(0.112, abs=1e-12)


class TestThresholdability:
    def test_shared_correlations_dominate(self):
        # within-block 0.49 vs cross-block 0.7 * 0.525 * 0.7 = 0.257
        theta = two_block_params(phi12=0.525)
        rep = cf.thresholdability(theta)
        assert rep.thresholdable
        assert rep.min_shared == pytest.approx(0.49, abs=1e-12)
        assert rep.max_unshared == pytest.approx(0.7 * 0.525 * 0.7, abs=1e-12)
        assert rep.tau0 == pytest.approx((0.49 + 0.25725) / 2, abs=1e-12)
        assert rep.gap == pytest.approx((0.49 - 0.25725) / 2, abs=1e-12)
        assert not rep.degenerate

    def test_strong_factor_correlation_breaks_it(self):
        # one strong and one weak block with phi12 = 0.95: the cross edge
        # 0.9 * 0.95 * 0.9 beats the weak within edge 0.5 * 0.5
        lam = np.zeros((4, 2))
        lam[:2, 0] = 0.9
        lam[2:, 1] = 0.5
        phi = np.array([[1.0, 0.95], [0.95, 1.0]])
        comm = np.einsum("ij,jk,ik->i", lam, phi, lam)
        theta = FactorParams(loadings=lam, factor_corr=phi, error_var=1.0 - comm)
        rep = cf.thresholdability(theta)
        assert not rep.thresholdable
        assert rep.max_unshared > rep.min_shared

    def test_single_factor_degenerate_boundary(self):
        theta = FactorParams(
            loadings=np.full((3, 1), 0.7),
            factor_corr=np.eye(1),
            error_var=np.full(3, 1 - 0.49),
        )
        rep = cf.thresholdability(theta)
        assert rep.thresholdable
        assert rep.degenerate
        assert rep.max_unshared == 0.0

    def test_strictness_at_equality(self):
        # weakest within edge 0.36 ties the cross edge 0.9 * (2/3) * 0.6
        lam = np.zeros((4, 2))
        lam[:2, 0] = 0.9
        lam[2:, 1] = 0.6
        phi = np.array([[1.0, 2.0 / 3.0], [2.0 / 3.0, 1.0]])
        comm = np.einsum("ij,jk,ik->i", lam, phi, lam)
        theta = FactorParams(loadings=lam, factor_corr=phi, error_var=1.0 - comm)
        rep = cf.thresholdability(theta)
        assert rep.min_shared == pytest.approx(rep.max_unshared, abs=1e-12)
        assert not rep.thresholdable


class TestGeneralSufficientCheck:
    def test_agrees_on_small_random_models(self):
        gen = philox(17)
        for _ in range(60):
            d = int(gen.integers(1, 4))
            p = int(gen.integers(max(d, 2), 9))
            lam = np.zeros((p, d))
            for i in range(p):
                k = int(gen.integers(1, d + 1))
                cols = gen.choice(d, size=k, replace=False)
                lam[i, cols] = gen.uniform(0.3, 0.8, size=k)
            if np.any((lam != 0).sum(axis=0) < 1):
                continue
            if d == 1:
                phi = np.eye(1)
            else:
                base = gen.uniform(-1, 1, size=(d, d + 2))
                gram = base @ base.T
                sd = np.sqrt(np.diag(gram))
                phi = gram / np.outer(sd, sd)
                np.fill_diagonal(phi, 1.0)
            comm = np.einsum("ij,jk,ik->i", lam, phi, lam)
            lam *= np.sqrt(np.minimum(0.9 / np.maximum(comm, 1e-12), 1.0))[:, None]
            comm = np.einsum("ij,jk,ik->i", lam, phi, lam)
            theta = FactorParams(loadings=lam, factor_corr=phi, error_var=1 - comm)
            assert general_sufficient_check(theta) == cf.thresholdability(theta).thresholdable

    def test_route_is_not_correlation_based(self):
        # sanity: the check never forms the implied correlation matrix, so
        # it must agree with the direct route on a non-unit-variance model
        lam = np.zeros((4, 2))
        lam[:2, 0] = 1.4
        lam[2:, 1] = 1.1
        phi = np.array([[1.0, 0.3], [0.3, 1.0]])
        theta = FactorParams(loadings=lam, factor_corr=phi, error_var=np.full(4, 2.0))
        assert general_sufficient_check(theta) == cf.thresholdability(theta).thresholdable


class TestUniqueChildren:
    def test_independent_cluster_all_unique(self):
        theta = two_block_params()
        unique, holds = cf.unique_children(theta.structure())
        assert holds
        assert unique == [frozenset({0, 1}), frozenset({2, 3})]

    def test_shared_child_not_unique(self):
        s = Structure(p=3, d=2, support=frozenset({(0, 0), (1, 0), (1, 1), (2, 1)}))
        unique, holds = cf.unique_children(s)
        assert holds
        assert unique == [frozenset({0}), frozenset({2})]

    def test_violating_factor_detected(self):
        s = Structure(
            p=3, d=2, support=frozenset({(0, 0), (0, 1), (1, 0), (1, 1), (2, 0)})
        )
        unique, holds = cf.unique_children(s)
        assert not holds
        assert unique[1] == frozenset()


class TestRotationalUniqueness:
    def test_reference_pattern_satisfies_both(self):
        rows = [(0, 0), (1, 0), (1, 1), (2, 0), (3, 1), (4, 1), (4, 2), (5, 1),
                (6, 2), (7, 2), (8, 0), (8, 2)]
        lam = np.zeros((9, 3))
        for i, j in rows:
            lam[i, j] = 0.7
        out = cf.rotational_uniqueness_check(lam)
        assert out == {"condition1": True, "condition2": True}

    def test_dense_column_fails_condition1(self):
        lam = np.full((4, 2), 0.5)
        lam[0, 1] = 0.0
        out = cf.rotational_uniqueness_check(lam)
        assert not out["condition1"]

    def test_single_factor_vacuous(self):
        out = cf.rotational_uniqueness_check(np.full((3, 1), 0.6))
        assert out == {"condition1": True, "condition2": True}

    def test_rank_deficient_submatrix_fails_condition2(self):
        # zero rows of column 1 load identically on columns 0 and 2, so the
        # deleted-column submatrix collapses to rank 1 < d - 1 = 2
        lam = np.zeros((6, 3))
        lam[0, 0] = lam[1, 0] = 0.7
        lam[2, 1] = lam[3, 1] = 0.7
        lam[4, 2] = lam[5, 2] = 0.7
        lam[0, 2] = 0.7
        lam[1, 2] = 0.7
        out = cf.rotational_uniqueness_check(lam)
        assert not out["condition2"]


class TestConsistencyBound:
    def test_high_precision_oracle(self):
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 50
        n, p, gamma = 1000, 15, 0.2
        g2 = mpmath.mpf(gamma) ** 2
        exact = mpmath.mpf(p) * (p - 1) * (n - 2) * ((4 - g2) / (4 + g2)) ** (n - 4)
        got = cf.consistency_bound(n, p, gamma, c_const=1.0)
        assert got == pytest.approx(float(exact), rel=1e-10)

    def test_monotone_decreasing_in_n(self):
        vals = [cf.consistency_bound(n, 15, 0.3) for n in (200, 400, 800, 1600)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_clamped_to_unit_interval(self):
        assert cf.consistency_bound(5, 100, 0.01) == 1.0
        assert cf.consistency_bound(100000, 5, 1.9) == 0.0

    def test_gamma_zero_allowed(self):
        assert cf.consistency_bound(1000, 15, 0.0) == 1.0

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            cf.consistency_bound(4, 10, 0.5)
        with pytest.raises(DomainError):
            cf.consistency_bound(100, 10, 2.5)
        with pytest.raises(DomainError):
            cf.consistency_bound(100, 10, 0.5, c_const=0.0)


class TestUccProbabilityBound:
    def test_closed_form_value(self):
        # 1 - d exp(-alpha p (1 - alpha)^d) at d=1, alpha=0.5, p=20
        assert ucc_probability_bound(20, 1, 0.5) == pytest.approx(
            1.0 - math.exp(-5.0), rel=1e-12
        )

    def test_clamps(self):
        assert ucc_probability_bound(5, 50, 0.5) == 0.0
        assert ucc_probability_bound(10, 1, 0.0) == 0.0

    def test_monotone_in_p(self):
        vals = [ucc_probability_bound(p, 5, 0.05) for p in (50, 100, 200, 400)]
        assert all(a <= b for a, b in zip(vals, vals[1:]))

    def test_domain(self):
        with pytest.raises(DomainError):
            ucc_probability_bound(10, 2, 1.5)
