"""Threshold sweep orchestration and model selection."""

import math
import warnings

import numpy as np
import pytest

import ctfactor as cf
from ctfactor import CtConfig, Structure, ct_run, dedupe_structures, default_thresholds
from ctfactor.errors import DomainError, MissingTruth, NonPDSampleWarning
from ctfactor.model import implied_correlation
from ctfactor.simgen import data_rng


class TestDefaultThresholds:
    def test_grid(self):
        taus = default_thresholds()
        assert len(taus) == 40
        assert taus[0] == 0.0 and taus[-1] == 1.0
        assert np.allclose(np.diff(taus), 1.0 / 39.0)


class TestCtConfig:
    def test_rejects_empty(self):
        with pytest.raises(DomainError):
            CtConfig(thresholds=())

    def test_rejects_out_of_range(self):
        with pytest.raises(DomainError):
            CtConfig(thresholds=(0.5, 1.2))

    def test_rejects_unknown_selection(self):
        with pytest.raises(DomainError):
            CtConfig(selection="aic")

    def test_oracle_needs_truth(self):
        with pytest.raises(MissingTruth):
            CtConfig(selection="min-hd-oracle")

    def test_thresholds_sorted_and_deduped(self):
        cfg = CtConfig(thresholds=(0.7, 0.1, 0.7, 0.4))
        assert cfg.thresholds == (0.1, 0.4, 0.7)


class TestDedupe:
    def test_column_swap_merged(self):
        a = Structure(p=4, d=2, support=frozenset({(0, 0), (1, 0), (2, 1), (3, 1)}))
        b = Structure(p=4, d=2, support=frozenset({(0, 1), (1, 1), (2, 0), (3, 0)}))
        unique, groups = dedupe_structures([a, b])
        assert len(unique) == 1
        assert groups == [[0, 1]]

    def test_distinct_d_never_merged(self):
        a = Structure(p=3, d=1, support=frozenset({(0, 0), (1, 0), (2, 0)}))
        b = Structure(p=3, d=2, support=frozenset({(0, 0), (1, 0), (2, 1)}))
        unique, groups = dedupe_structures([a, b])
        assert len(unique) == 2

    def test_multiplicities_sum_to_input_length(self):
        base = Structure(p=3, d=1, support=frozenset({(0, 0), (1, 0)}))
        other = Structure(p=3, d=1, support=frozenset({(1, 0), (2, 0)}))
        unique, groups = dedupe_structures([base, other, base, base])
        assert sum(len(g) for g in groups) == 4
        assert [len(g) for g in groups] == [3, 1]

    def test_merged_structures_have_zero_distance(self):
        gen = np.random.default_rng(5)
        structures = []
        for _ in range(40):
            d = int(gen.integers(1, 4))
            mat = gen.random((6, d)) < 0.5
            if not np.all(mat.sum(axis=0) >= 1):
                continue
            support = frozenset((int(i), int(j)) for i, j in zip(*np.nonzero(mat)))
            structures.append(Structure(p=6, d=d, support=support))
        unique, groups = dedupe_structures(structures)
        for u, g in zip(unique, groups):
            for idx in g:
                assert cf.hamming_distance(structures[idx], u).hd == 0


class TestCtRunPopulation:
    def test_true_structure_recovered_at_population(self):
        spec = cf.SimSpec(d=3, children_per_factor=5, seed=40, phi_scale=0.25)
        theta = cf.gen_independent_cluster(spec)
        rep = cf.thresholdability(theta)
        assert rep.thresholdable
        corr = implied_correlation(theta)
        taus = tuple(sorted(set(default_thresholds()) | {rep.tau0}))
        cfg = CtConfig(thresholds=taus, selection="min-hd-oracle", truth=theta.structure())
        result = ct_run(corr, 1000, cfg)
        assert result.selected.hd == 0
        keys = [c.structure.canonical_key() for c in result.candidates]
        assert theta.structure().canonical_key() in keys

    def test_identity_matrix_gives_singletons(self):
        result = ct_run(np.eye(4), 100, CtConfig(selection="none"))
        assert result.models_evaluated == 1
        only = result.candidates[0]
        assert only.structure.d == 4
        assert "trivial" in only.flags
        assert result.selected_index is None

    def test_zero_clique_thresholds_logged(self):
        # a 4-cycle at tau < 0.5 yields no independent cliques at all
        corr = np.eye(4)
        for i, j in ((0, 1), (1, 2), (2, 3), (3, 0)):
            corr[i, j] = corr[j, i] = 0.6
        result = ct_run(corr, 100, CtConfig(thresholds=(0.3, 0.9), selection="none"))
        assert result.skipped_taus == (0.3,)
        assert result.models_evaluated == 1  # the empty graph's singletons at 0.9


@pytest.fixture(scope="module")
def sampled():
    spec = cf.SimSpec(d=3, children_per_factor=5, n=700, seed=41, phi_scale=0.25)
    theta = cf.gen_independent_cluster(spec)
    data = cf.sample_dataset(theta, spec.n, data_rng(spec))
    return theta, cf.pearson_correlation(data), spec.n


@pytest.fixture(scope="module")
def bic_result(sampled):
    _, corr, n = sampled
    return ct_run(corr, n, CtConfig(selection="bic", seed=1))


class TestCtRunSampling:
    def test_bic_selects_minimum(self, bic_result):
        fitted = [c for c in bic_result.candidates if c.bic is not None]
        assert fitted
        assert bic_result.selected.bic == min(c.bic for c in fitted)

    def test_bic_recovers_truth_here(self, sampled, bic_result):
        theta = sampled[0]
        assert cf.hamming_distance(bic_result.selected.structure, theta.structure()).hd == 0

    def test_selection_none_skips_fitting(self, sampled):
        _, corr, n = sampled
        result = ct_run(corr, n, CtConfig(selection="none"))
        assert result.selected_index is None
        assert all(c.fit is None and c.bic is None for c in result.candidates)
        assert result.models_fitted == 0
        assert not any(c.pruned for c in result.candidates)
        assert result.selected_converged is None

    def test_oracle_mode_populates_hd(self, sampled):
        theta, corr, n = sampled
        cfg = CtConfig(selection="min-hd-oracle", truth=theta.structure())
        result = ct_run(corr, n, cfg)
        assert all(c.hd is not None for c in result.candidates)
        assert result.selected.hd == min(c.hd for c in result.candidates)
        assert all(c.fit is None for c in result.candidates)

    def test_models_evaluated_counts_unique(self, sampled):
        _, corr, n = sampled
        result = ct_run(corr, n, CtConfig(selection="none"))
        assert result.models_evaluated == len(result.candidates)
        assert result.models_evaluated <= 40
        keys = [c.structure.canonical_key() for c in result.candidates]
        assert len(keys) == len(set(keys))

    def test_tau_values_cover_grid(self, sampled):
        _, corr, n = sampled
        result = ct_run(corr, n, CtConfig(selection="none"))
        covered = sorted(
            t for c in result.candidates for t in c.tau_values
        ) + sorted(result.skipped_taus)
        assert sorted(covered) == sorted(float(t) for t in default_thresholds())

    def test_deterministic(self, sampled, bic_result):
        _, corr, n = sampled
        again = ct_run(corr, n, CtConfig(selection="bic", seed=1))
        assert again.selected_index == bic_result.selected_index
        assert again.selected.bic == bic_result.selected.bic
        assert np.array_equal(
            again.selected.fit.theta.loadings, bic_result.selected.fit.theta.loadings
        )

    def test_timings_present(self, sampled):
        _, corr, n = sampled
        result = ct_run(corr, n, CtConfig(selection="none"))
        assert set(result.timings_s) == {"sweep", "fit", "select"}

    def test_warns_when_n_below_p(self, sampled):
        _, corr, _ = sampled
        with pytest.warns(NonPDSampleWarning):
            ct_run(corr, 10, CtConfig(thresholds=(0.9,), selection="bic", seed=0))

    def test_json_document(self, bic_result):
        doc = bic_result.to_json_dict()
        assert doc["selection"] == "bic"
        assert doc["models_evaluated"] == len(doc["candidates"])
        sel = doc["candidates"][doc["selected_index"]]
        assert sel["fit"]["converged"] in (True, False)
        assert doc["selected_converged"] is sel["fit"]["converged"]
        assert isinstance(sel["structure"]["support"], list)
        assert doc["models_fitted"] == sum(not c["pruned"] for c in doc["candidates"])
        for cand in doc["candidates"]:
            if cand["pruned"]:
                assert cand["bic"] is None and cand["loglik"] is None and cand["fit"] is None


def acceptance_draw(seed, phi_scale):
    """One dataset of the low-dimensional acceptance family (d=3, 5 children, n=1000)."""
    spec = cf.SimSpec(d=3, children_per_factor=5, n=1000, seed=seed, phi_scale=phi_scale)
    theta = cf.gen_independent_cluster(spec)
    return cf.pearson_correlation(cf.sample_dataset(theta, spec.n, data_rng(spec))), spec.n


class TestBicPruning:
    def test_selection_and_bics_match_fitting_everything(self):
        draws = [(1000 + r, 0.25) for r in range(10)] + [(2000 + r, 0.75) for r in range(10)]
        pruned = 0
        for seed, phi_scale in draws:
            corr, n = acceptance_draw(seed, phi_scale)
            result = ct_run(corr, n, CtConfig(selection="bic", seed=seed))
            reference = [
                cf.fit_mle(corr, n, c.structure, seed=seed + k).bic
                for k, c in enumerate(result.candidates)
            ]
            assert result.selected_index == int(np.argmin(reference)), seed
            p = corr.shape[0]
            floor = n * (p * math.log(2 * math.pi) + np.linalg.slogdet(corr)[1] + p)
            winner = reference[result.selected_index]
            for k, cand in enumerate(result.candidates):
                if cand.pruned:
                    assert cand.fit is None and cand.bic is None and cand.loglik is None
                    bound = floor + cf.count_free_params(cand.structure) * math.log(n)
                    assert bound > winner, (seed, k)
                else:
                    assert cand.bic == pytest.approx(reference[k], rel=1e-8, abs=0), (seed, k)
            assert result.models_fitted == sum(not c.pruned for c in result.candidates)
            pruned += result.models_evaluated - result.models_fitted
        assert pruned > 0

    @staticmethod
    def assert_fits_everything(corr, n):
        taus = tuple(default_thresholds()[4:36:4])
        with pytest.warns(NonPDSampleWarning):
            result = ct_run(corr, n, CtConfig(thresholds=taus, selection="bic", seed=0))
        assert result.models_evaluated > 1
        assert result.models_fitted == result.models_evaluated
        assert not any(c.pruned for c in result.candidates)

    def test_off_when_n_not_above_p(self):
        spec = cf.SimSpec(d=3, children_per_factor=5, n=15, seed=3, phi_scale=0.25)
        theta = cf.gen_independent_cluster(spec)
        corr = cf.pearson_correlation(cf.sample_dataset(theta, spec.n, data_rng(spec)))
        self.assert_fits_everything(corr, spec.n)

    @staticmethod
    def non_pd_draw():
        corr, n = acceptance_draw(2000, 0.75)
        # push the smallest eigenvalue below zero, then restore the unit diagonal
        vals, vecs = np.linalg.eigh(corr)
        bent = corr - (vals[0] + 0.05) * np.outer(vecs[:, 0], vecs[:, 0])
        scale = 1.0 / np.sqrt(np.diag(bent))
        bent = bent * np.outer(scale, scale)
        np.fill_diagonal(bent, 1.0)
        bent = (bent + bent.T) / 2.0
        assert np.linalg.eigvalsh(bent)[0] < 0
        return bent, n

    def test_off_for_non_pd_matrix(self):
        self.assert_fits_everything(*self.non_pd_draw())

    def test_non_pd_matrix_raises_no_runtime_warning(self):
        # a restart whose E[LL'] diagonal turns non-positive is dropped
        # silently, like one whose factorization fails
        bent, n = self.non_pd_draw()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            self.assert_fits_everything(bent, n)
