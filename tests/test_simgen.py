"""Ground-truth generators and dataset sampling."""

import math

import numpy as np
import pytest
from scipy import stats

import ctfactor as cf
from ctfactor import HIGHDIM_PRESETS, SimSpec, Structure
from ctfactor.errors import DomainError, InvalidSpec
from ctfactor.estimate import _start_points
from ctfactor.model import implied_covariance
from ctfactor.numerics import mvn_sample, philox
from ctfactor.simgen import DATA_STREAM_OFFSET, data_rng, gen_phi
from oracles import gen_random_bipartite


class TestSimSpec:
    def test_p_property(self):
        assert SimSpec(d=3, children_per_factor=5).p == 15

    def test_presets(self):
        assert HIGHDIM_PRESETS == {
            250: (250, 375, 25),
            500: (500, 750, 50),
            1000: (1000, 1500, 100),
        }
        for n, p, d in HIGHDIM_PRESETS.values():
            assert p == 15 * d  # children held at 15 across presets

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"d": 0},
            {"children_per_factor": 0},
            {"n": 0},
            {"phi_scale": 1.5},
            {"lambda_range": (0.8, 0.6)},
            {"lambda_range": (0.0, 0.5)},
            {"lambda_range": (0.5, 1.0)},
            {"ucc_fraction": -0.1},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises((DomainError, InvalidSpec)):
            SimSpec(**kwargs)


class TestGenPhi:
    def test_full_scale_band(self):
        phi = gen_phi(5, 1.0, philox(2))
        off = phi[np.triu_indices(5, k=1)]
        assert off.min() >= 0.6 - 1e-12 and off.max() <= 0.8 + 1e-12
        assert np.array_equal(np.diag(phi), np.ones(5))
        np.linalg.cholesky(phi)  # must be PD

    def test_scale_shrinks_band(self):
        phi = gen_phi(4, 0.25, philox(3))
        off = phi[np.triu_indices(4, k=1)]
        assert off.min() >= 0.15 - 1e-12 and off.max() <= 0.2 + 1e-12

    def test_scale_zero_is_identity_without_consuming_rng(self):
        rng = philox(77)
        phi = gen_phi(6, 0.0, rng)
        assert np.array_equal(phi, np.eye(6))
        assert np.array_equal(rng.random(4), philox(77).random(4))

    def test_two_factor_midpoint(self):
        phi = gen_phi(2, 1.0, philox(5))
        assert phi[0, 1] == pytest.approx(0.7)

    def test_single_factor(self):
        assert np.array_equal(gen_phi(1, 1.0, philox(0)), np.eye(1))


class TestIndependentCluster:
    def test_block_pattern_and_band(self):
        spec = SimSpec(d=3, children_per_factor=4, seed=10, phi_scale=0.25)
        theta = cf.gen_independent_cluster(spec)
        lam = theta.loadings
        assert lam.shape == (12, 3)
        for i in range(12):
            nz = np.flatnonzero(lam[i])
            assert list(nz) == [i // 4]
            assert 0.6 <= lam[i, nz[0]] <= 0.8
        assert np.allclose(theta.error_var, 1 - np.sum(lam**2, axis=1))

    def test_unit_implied_variances(self):
        spec = SimSpec(d=4, children_per_factor=3, seed=11, phi_scale=0.75)
        theta = cf.gen_independent_cluster(spec)
        assert np.allclose(np.diag(implied_covariance(theta)), 1.0, atol=1e-12)

    def test_deterministic(self):
        spec = SimSpec(d=3, children_per_factor=5, seed=12, phi_scale=0.5)
        a = cf.gen_independent_cluster(spec)
        b = cf.gen_independent_cluster(spec)
        assert np.array_equal(a.loadings, b.loadings)
        assert np.array_equal(a.factor_corr, b.factor_corr)

    def test_custom_lambda_range(self):
        spec = SimSpec(d=2, children_per_factor=6, seed=13, lambda_range=(0.3, 0.4))
        theta = cf.gen_independent_cluster(spec)
        vals = theta.loadings[theta.loadings != 0]
        assert vals.min() >= 0.3 and vals.max() <= 0.4


class TestUccViolation:
    def test_selected_factors_lose_unique_children(self):
        spec = SimSpec(d=4, children_per_factor=5, seed=3, ucc_fraction=0.5)
        theta = cf.gen_ucc_violation(spec)
        unique, holds = cf.unique_children(theta.structure())
        assert not holds
        assert sum(1 for u in unique if not u) == math.ceil(0.5 * 4)

    def test_orthogonal_factors_forced(self):
        spec = SimSpec(d=3, children_per_factor=4, seed=4, ucc_fraction=0.4, phi_scale=0.9)
        theta = cf.gen_ucc_violation(spec)
        assert np.array_equal(theta.factor_corr, np.eye(3))

    def test_unit_variances_and_split(self):
        spec = SimSpec(d=5, children_per_factor=4, seed=5, ucc_fraction=0.6)
        theta = cf.gen_ucc_violation(spec)
        assert np.allclose(np.diag(implied_covariance(theta)), 1.0, atol=1e-12)
        lam = theta.loadings
        dual = [i for i in range(lam.shape[0]) if np.count_nonzero(lam[i]) == 2]
        assert dual, "violation must add second parents"
        for i in dual:
            a, b = sorted(lam[i, np.flatnonzero(lam[i])] ** 2)
            assert b / a == pytest.approx(5.0, rel=1e-9)

    def test_r2_band(self):
        spec = SimSpec(d=4, children_per_factor=5, seed=6, ucc_fraction=0.5,
                       lambda_range=(0.6, 0.8))
        theta = cf.gen_ucc_violation(spec)
        comm = 1.0 - theta.error_var
        assert comm.min() >= 0.36 - 1e-12 and comm.max() <= 0.64 + 1e-12

    def test_fraction_zero_keeps_ucc(self):
        spec = SimSpec(d=3, children_per_factor=4, seed=7, ucc_fraction=0.0)
        theta = cf.gen_ucc_violation(spec)
        _, holds = cf.unique_children(theta.structure())
        assert holds

    def test_single_factor_rejected(self):
        with pytest.raises(InvalidSpec):
            cf.gen_ucc_violation(SimSpec(d=1, children_per_factor=5, ucc_fraction=0.5))


class TestRandomBipartite:
    def test_every_row_and_column_covered(self):
        for seed in range(20):
            s = gen_random_bipartite(30, 4, 0.1, philox(seed))
            assert s.p == 30 and s.d == 4
            assert s.zero_rows() == []
            assert all(len(c) >= 1 for c in s.child_sets())

    def test_deterministic(self):
        a = gen_random_bipartite(20, 3, 0.2, philox(9))
        b = gen_random_bipartite(20, 3, 0.2, philox(9))
        assert a == b

    def test_alpha_one_is_complete(self):
        s = gen_random_bipartite(6, 2, 1.0, philox(0))
        assert len(s.support) == 12

    def test_domain(self):
        with pytest.raises(DomainError):
            gen_random_bipartite(5, 2, 1.5, philox(0))
        with pytest.raises(DomainError):
            gen_random_bipartite(0, 2, 0.5, philox(0))


class TestSampleDataset:
    def test_shape_and_determinism(self):
        spec = SimSpec(d=2, children_per_factor=3, n=64, seed=21)
        theta = cf.gen_independent_cluster(spec)
        a = cf.sample_dataset(theta, 64, data_rng(spec))
        b = cf.sample_dataset(theta, 64, data_rng(spec))
        assert a.shape == (64, 6)
        assert np.array_equal(a, b)

    def test_covariance_converges(self):
        spec = SimSpec(d=2, children_per_factor=3, seed=22, phi_scale=0.5)
        theta = cf.gen_independent_cluster(spec)
        draws = cf.sample_dataset(theta, 200000, philox(100))
        emp = draws.T @ draws / draws.shape[0]
        assert np.abs(emp - implied_covariance(theta)).max() < 0.02

    def test_matches_direct_mvn_distribution(self):
        # same law as sampling the implied covariance directly
        spec = SimSpec(d=2, children_per_factor=2, seed=23, phi_scale=0.25)
        theta = cf.gen_independent_cluster(spec)
        via_factors = cf.sample_dataset(theta, 50000, philox(7))
        direct = mvn_sample(implied_covariance(theta), 50000, philox(8))
        for col in range(4):
            p_value = stats.ks_2samp(via_factors[:, col], direct[:, col]).pvalue
            assert p_value > 1e-3

    def test_data_stream_independent_of_generation_stream(self):
        assert DATA_STREAM_OFFSET == 2**32
        spec = SimSpec(d=2, children_per_factor=3, n=16, seed=31)
        theta = cf.gen_independent_cluster(spec)
        draws_a = cf.sample_dataset(theta, 16, data_rng(spec))
        draws_b = cf.sample_dataset(theta, 16, philox(spec.seed + DATA_STREAM_OFFSET))
        assert np.array_equal(draws_a, draws_b)


def hex_array(rows):
    return np.array([[float.fromhex(x) for x in row] for row in rows])


Z = "0x0.0p+0"


class TestPinnedStreams:
    """Draws pinned as bits, so a change to how any seed becomes a stream
    fails here; none of them goes through BLAS, so the bits do not depend on
    the machine."""

    def test_independent_cluster_loadings(self):
        theta = cf.gen_independent_cluster(SimSpec(d=2, children_per_factor=3, seed=7))
        assert np.array_equal(theta.loadings, hex_array([
            ["0x1.8c801516772a6p-1", Z],
            ["0x1.517206b8c9f5bp-1", Z],
            ["0x1.5e37ceff535dep-1", Z],
            [Z, "0x1.5cb6508247176p-1"],
            [Z, "0x1.3baedf0fcc52cp-1"],
            [Z, "0x1.7a890367a9961p-1"],
        ]))

    def test_ucc_violation_loadings(self):
        spec = SimSpec(d=3, children_per_factor=2, seed=7, ucc_fraction=0.5)
        assert np.array_equal(cf.gen_ucc_violation(spec).loadings, hex_array([
            ["0x1.419edea2bf933p-1", "0x1.1faa8bd3d4c24p-2", Z],
            ["0x1.2153da88ede7bp-1", "0x1.02c84d6290c38p-2", Z],
            [Z, "0x1.7d73793074842p-1", Z],
            [Z, "0x1.54c54425c0500p-1", Z],
            ["0x1.316b4dbb64f38p-2", Z, "0x1.5578101e1430ap-1"],
            ["0x1.f86675e44ea59p-3", Z, "0x1.19f7e2c7273ddp-1"],
        ]))

    def test_data_stream_normals(self):
        draws = data_rng(SimSpec(seed=7)).standard_normal(3)
        assert np.array_equal(draws, hex_array([
            ["0x1.9663e32fa5f60p-1", "0x1.c938a9dd35a6cp+0", "-0x1.26820ffffb99cp-1"],
        ])[0])

    def test_restart_start_points(self):
        structure = Structure(p=3, d=2, support=frozenset({(0, 0), (1, 0), (1, 1), (2, 1)}))
        half = "0x1.0000000000000p-1"
        assert np.array_equal(_start_points(structure, 3, 5), np.stack([
            hex_array([[half, Z], [half, half], [Z, half]]),
            hex_array([
                ["0x1.12f4e2567bc67p-1", Z],
                ["0x1.cfd5d4d235696p-2", "0x1.9ccec2950bff2p-2"],
                [Z, "0x1.cda76e7fb3f8cp-2"],
            ]),
            hex_array([
                ["0x1.2619aeb010c40p-1", Z],
                ["0x1.d61740a4c71eap-2", "0x1.efa2d131d9eefp-2"],
                [Z, "0x1.ec9fd437c161fp-2"],
            ]),
        ]))
