"""Linear algebra and RNG plumbing."""

import numpy as np
import pytest

from ctfactor import NotPositiveDefinite, Structure, cholesky, logdet_pd, mvn_sample, philox
from ctfactor.errors import DimensionMismatch, DomainError
from ctfactor.estimate import _start_points
from ctfactor.numerics import as_sym_matrix


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
