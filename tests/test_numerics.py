"""Linear algebra and RNG plumbing."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest

import ctfactor.numerics as numerics_module
from ctfactor import (
    CtConfig,
    FactorParams,
    NotPositiveDefinite,
    Structure,
    build_graph,
    cholesky,
    ct_run,
    fit_mle,
    logdet_pd,
    mvn_sample,
    philox,
)
from ctfactor.errors import DimensionMismatch, DomainError
from ctfactor.estimate import _start_points, loglik_ceiling
from ctfactor.numerics import as_corr_matrix, as_sym_matrix


class TestRngState:
    """Seeded streams from ``philox``: one stream per key, streams derived as
    ``seed + index``, keys wrapping at 2**64 and negative seeds refused."""

    def test_same_seed_same_stream(self):
        a = philox(123).random(8)
        b = philox(123).random(8)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = philox(1).random(8)
        b = philox(2).random(8)
        assert not np.array_equal(a, b)

    def test_derive_offsets_seed(self):
        # restart r of a fit at seed 10 draws its jitter from philox(10 + r)
        structure = Structure(p=3, d=1, support=frozenset((i, 0) for i in range(3)))
        lam0 = _start_points(structure, 3, 10)
        for r in (1, 2):
            assert np.array_equal(lam0[r, :, 0], 0.5 + philox(10 + r).uniform(-0.1, 0.1, 3))

    def test_derive_wraps_modulo_64_bits(self):
        assert np.array_equal(philox(2**64).random(4), philox(0).random(4))

    def test_negative_seed_raises(self):
        with pytest.raises(DomainError, match=r"^seed must be non-negative, got -1$"):
            philox(-1)
        with pytest.raises(DomainError, match=r"^seed must be non-negative, got -1$"):
            _start_points(Structure(p=1, d=1, support=frozenset({(0, 0)})), 1, -1)


class TestAsSymMatrix:
    def test_symmetrizes_roundoff(self):
        m = np.array([[1.0, 0.5 + 1e-12], [0.5, 1.0]])
        out = as_sym_matrix(m, name="m")
        assert np.array_equal(out, out.T)

    def test_rejects_nonsquare(self):
        with pytest.raises(DimensionMismatch):
            as_sym_matrix(np.ones((2, 3)), name="m")

    def test_rejects_asymmetric(self):
        with pytest.raises(DimensionMismatch):
            as_sym_matrix(np.array([[1.0, 0.2], [0.6, 1.0]]), name="m")

    def test_rejects_nonfinite(self):
        with pytest.raises(DomainError):
            as_sym_matrix(np.array([[1.0, np.nan], [np.nan, 1.0]]), name="m")


def within_tolerance(a):
    """The whole-matrix form of the symmetry rule."""
    return np.abs(a - a.T).max() <= 1e-8 * max(1.0, np.abs(a).max())


class TestTiledSymmetry:
    """The symmetry check meets row tiles with column tiles; its verdict and
    bits are those of the whole-matrix rule and ``(a + a.T) / 2``."""

    @pytest.mark.parametrize("tile", [1, 7, 128])
    @pytest.mark.parametrize("p", [1, 127, 128, 129, 300])
    def test_matches_whole_matrix(self, p, tile):
        gen = np.random.default_rng(p)
        half = gen.uniform(-2.0, 2.0, (p, p))
        exact = half + half.T
        scale = max(1.0, np.abs(exact).max())
        near = exact + np.triu(gen.uniform(-0.9e-8, 0.9e-8, (p, p)), k=1) * scale
        with mock.patch.object(numerics_module, "_TILE", tile):
            assert as_sym_matrix(exact) is exact
            for a in (exact, near):
                assert within_tolerance(a)
                np.testing.assert_array_equal(
                    as_sym_matrix(a).view(np.uint64), ((a + a.T) / 2.0).view(np.uint64)
                )
            if p > 1:
                far = near.copy()
                i, j = gen.choice(p, size=2, replace=False)
                far[i, j] = far[j, i] + 2e-8 * scale
                assert not within_tolerance(far)
                with pytest.raises(DimensionMismatch, match="^m is not symmetric$"):
                    as_sym_matrix(far, "m")

    @pytest.mark.parametrize("tile", [7, 128])
    @pytest.mark.parametrize("i, j", [(0, 299), (299, 0), (130, 129), (255, 256), (299, 298)])
    def test_asymmetry_found_in_every_tile(self, i, j, tile):
        corr = np.eye(300)
        corr[i, j] = 0.3 + 2e-8
        corr[j, i] = 0.3
        with mock.patch.object(numerics_module, "_TILE", tile):
            with pytest.raises(DimensionMismatch):
                as_corr_matrix(corr)
            corr[i, j] = 0.3 + 0.5e-8
            out = as_corr_matrix(corr)
        assert out[i, j] == out[j, i] == (corr[i, j] + corr[j, i]) / 2.0
        assert np.count_nonzero(out != corr) == 2

    def test_peak_allocation_at_p2000(self):
        # the sweep holds the input and |r|; validation adds a few row tiles
        p = 2000
        half = philox(0).uniform(-1.0, 1.0, (p, p))
        a = half + half.T
        del half
        tracemalloc.start()
        try:
            out = as_sym_matrix(a)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out is a
        assert peak <= p * p * 8 / 4


class TestAsCorrMatrix:
    def test_unit_diagonal_within_1e9(self):
        a = np.eye(2)
        a[1, 1] = 1.0 + 0.5e-9
        assert as_corr_matrix(a) is a
        a[1, 1] = 1.0 + 2e-9
        with pytest.raises(DomainError, match=r"^m must have a unit diagonal \(within 1e-9\)$"):
            as_corr_matrix(a, "m")


EMPTY = np.zeros((0, 0))


class TestEmptyMatrix:
    """A 0x0 matrix is a ``DimensionMismatch`` wherever a matrix is taken."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda: cholesky(EMPTY),
            lambda: logdet_pd(EMPTY),
            lambda: loglik_ceiling(EMPTY, 10),
            lambda: fit_mle(EMPTY, 10, Structure(p=1, d=1, support=frozenset({(0, 0)}))),
            lambda: FactorParams(loadings=np.ones((1, 1)), factor_corr=EMPTY, error_var=np.ones(1)),
            lambda: build_graph(EMPTY, 0.5),
            lambda: ct_run(EMPTY, 10, CtConfig(selection="none")),
        ],
        ids=["cholesky", "logdet_pd", "loglik_ceiling", "fit_mle", "FactorParams",
             "build_graph", "ct_run"],
    )
    def test_rejected(self, call):
        with pytest.raises(DimensionMismatch, match="must be a non-empty square matrix"):
            call()


class TestCholesky:
    def test_known_factor(self):
        lower = cholesky(np.array([[4.0, 2.0], [2.0, 5.0]]))
        assert np.allclose(lower, [[2.0, 0.0], [1.0, 2.0]], atol=1e-12)

    def test_indefinite_raises(self):
        with pytest.raises(NotPositiveDefinite):
            cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_semidefinite_raises(self):
        with pytest.raises(NotPositiveDefinite):
            cholesky(np.ones((3, 3)))

    def test_reconstruction_random(self):
        gen = philox(4)
        base = gen.standard_normal((6, 6))
        mat = base @ base.T + 6 * np.eye(6)
        lower = cholesky(mat)
        assert np.allclose(lower @ lower.T, mat, atol=1e-10)


class TestLogdetSolve:
    def test_logdet_diagonal(self):
        assert logdet_pd(np.diag([2.0, 3.0])) == pytest.approx(np.log(6.0), abs=1e-12)


class TestMvnSample:
    def test_shape_and_determinism(self):
        sigma = np.array([[2.0, 1.0], [1.0, 2.0]])
        a = mvn_sample(sigma, 50, philox(3))
        b = mvn_sample(sigma, 50, philox(3))
        assert a.shape == (50, 2)
        assert np.array_equal(a, b)

    def test_covariance_converges(self):
        sigma = np.array([[1.0, 0.6, 0.0], [0.6, 1.0, 0.3], [0.0, 0.3, 1.0]])
        draws = mvn_sample(sigma, 200000, philox(8))
        emp = draws.T @ draws / draws.shape[0]
        assert np.abs(emp - sigma).max() < 0.02

    def test_rejects_bad_n(self):
        with pytest.raises(DomainError):
            mvn_sample(np.eye(2), 0, philox(0))
