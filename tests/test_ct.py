"""Threshold sweep orchestration and model selection."""

import dataclasses
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import ctfactor as cf
import ctfactor.ct as ct_module
import ctfactor.graph as graph_module
import ctfactor.numerics as numerics_module
from ctfactor import CtConfig, Structure, build_graph, ct_run, default_thresholds
from ctfactor.errors import DimensionMismatch, DomainError, MissingTruth, NonPDSampleWarning
from ctfactor.estimate import NON_PD_SAMPLE
from ctfactor.model import implied_correlation
from ctfactor.simgen import data_rng
from oracles import BRUTE_FORCE_MAX_VERTICES, brute_force_independent_cliques, per_tau_sweep

GRID = tuple(float(t) for t in default_thresholds())


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

    def test_rejects_negative_seed(self):
        with pytest.raises(DomainError, match=r"^seed must be non-negative, got -1$"):
            CtConfig(selection="none", seed=-1)

    def test_fields(self):
        names = [f.name for f in dataclasses.fields(CtConfig)]
        assert names == ["thresholds", "selection", "truth", "seed"]


class TestDedupe:
    """Candidates are merged by ``Structure.canonical_key``, in first-appearance order."""

    def test_column_swap_merged(self):
        a = Structure(p=4, d=2, support=frozenset({(0, 0), (1, 0), (2, 1), (3, 1)}))
        b = Structure(p=4, d=2, support=frozenset({(0, 1), (1, 1), (2, 0), (3, 0)}))
        assert a.canonical_key() == b.canonical_key()

    def test_distinct_d_never_merged(self):
        a = Structure(p=3, d=1, support=frozenset({(0, 0), (1, 0), (2, 0)}))
        b = Structure(p=3, d=2, support=frozenset({(0, 0), (1, 0), (2, 1)}))
        assert a.canonical_key() != b.canonical_key()

    def test_multiplicities_sum_to_input_length(self):
        # edge {0, 1} up to tau 0.6: cliques {0, 1} and {2} at three taus,
        # then the singletons at one
        corr = np.eye(3)
        corr[0, 1] = corr[1, 0] = 0.6
        cfg = CtConfig(thresholds=(0.1, 0.2, 0.3, 0.7), selection="none")
        result = ct_run(corr, 100, cfg)
        assert [c.tau_values for c in result.candidates] == [(0.1, 0.2, 0.3), (0.7,)]
        counts = [len(c.tau_values) for c in result.candidates]
        assert sum(counts) + len(result.skipped_taus) == len(cfg.thresholds)

    def test_merged_structures_have_zero_distance(self):
        gen = np.random.default_rng(5)
        groups = {}
        for _ in range(40):
            d = int(gen.integers(1, 4))
            mat = gen.random((6, d)) < 0.5
            if not np.all(mat.sum(axis=0) >= 1):
                continue
            support = frozenset((int(i), int(j)) for i, j in zip(*np.nonzero(mat)))
            s = Structure(p=6, d=d, support=support)
            groups.setdefault(s.canonical_key(), []).append(s)
        assert any(len(g) > 1 for g in groups.values())
        for first, *rest in groups.values():
            for s in rest:
                assert cf.hamming_distance(s, first).hd == 0


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


def _asymmetric():
    corr = np.eye(3)
    corr[0, 1], corr[1, 0] = 0.3, 0.3 + 2e-8
    return corr


def _nan_entry():
    corr = np.eye(3)
    corr[0, 2] = corr[2, 0] = np.nan
    return corr


def _bad_diagonal():
    corr = np.eye(3)
    corr[1, 1] = 1.0 + 2e-9
    return corr


class TestCtRunRejectsBadMatrix:
    @pytest.mark.parametrize(
        "corr, error",
        [
            (np.zeros((0, 0)), DimensionMismatch),
            (np.zeros((2, 3)), DimensionMismatch),
            (_asymmetric(), DimensionMismatch),
            (_nan_entry(), DomainError),
            (_bad_diagonal(), DomainError),
        ],
        ids=["empty", "not-square", "asymmetric", "nan", "diagonal"],
    )
    @pytest.mark.parametrize("selection", ["bic", "none"])
    def test_same_error_as_build_graph(self, corr, error, selection):
        with pytest.raises(error):
            build_graph(corr, 0.0)
        with pytest.raises(error):
            ct_run(corr, 100, CtConfig(selection=selection))


def _count_calls(monkeypatch, module, name, calls):
    real = getattr(module, name)

    def counted(*args):
        calls.append(name)
        return real(*args)

    monkeypatch.setattr(module, name, counted)


class TestOnePassSweep:
    @staticmethod
    def blocks():
        # two 4-cliques at |r| 0.5 joined by one 0.3 edge: 40 taus, 3 edge counts
        corr = np.eye(8)
        for block in (range(4), range(4, 8)):
            for i in block:
                for j in block:
                    if i != j:
                        corr[i, j] = 0.5
        corr[3, 4] = corr[4, 3] = -0.3
        return corr

    def test_validates_once(self, monkeypatch):
        calls = []
        for module in (ct_module, graph_module):
            _count_calls(monkeypatch, module, "as_corr_matrix", calls)
        _count_calls(monkeypatch, numerics_module, "as_sym_matrix", calls)
        result = ct_run(self.blocks(), 100, CtConfig(selection="none"))
        assert len(CtConfig().thresholds) == 40
        assert calls == ["as_corr_matrix", "as_sym_matrix"]
        assert result.models_evaluated == 2  # the two 4-cliques, then singletons

    def test_sweeps_symmetric_part(self):
        # a matrix symmetric only within tolerance sweeps as (r + r.T) / 2:
        # its graphs, candidates and fits all come from that one matrix
        r = np.eye(3)
        r[0, 1] = r[1, 0] = 0.6
        r[0, 2], r[2, 0] = 0.5 + 0.5e-8, 0.5
        tau = 0.5 + 0.3e-8  # between the symmetric part and r[0, 2]
        config = CtConfig(thresholds=(0.3, tau), selection="bic", seed=3)
        got = ct_run(r, 100, config)
        want = ct_run((r + r.T) / 2.0, 100, config)
        assert [(c.structure, c.tau_values, c.bic, c.pruned) for c in got.candidates] == [
            (c.structure, c.tau_values, c.bic, c.pruned) for c in want.candidates
        ]
        assert got.selected_index == want.selected_index
        at_tau = [c for c in got.candidates if tau in c.tau_values]
        assert sorted(sorted(k) for k in at_tau[0].structure.child_sets()) == [[0, 1], [2]]

    def test_equal_edge_counts_reuse_search(self, monkeypatch):
        corr = self.blocks()
        taus = CtConfig().thresholds
        distinct = {build_graph(corr, t).edge_count() for t in taus}
        assert distinct == {13, 12, 0}
        calls = []
        _count_calls(monkeypatch, ct_module, "independent_maximal_cliques", calls)
        _count_calls(monkeypatch, ct_module, "structure_from_cliques", calls)
        result = ct_run(corr, 100, CtConfig(selection="none"))
        assert calls.count("independent_maximal_cliques") == 3
        assert calls.count("structure_from_cliques") == 3
        assert sum(len(c.tau_values) for c in result.candidates) == 40


@st.composite
def sweep_inputs(draw):
    """A matrix whose |r| values lie on the tau grid, a sub-grid and a tile size.

    Few distinct levels give runs of taus with equal edge counts; entries
    that sit exactly on a tau test the strict ``|r| > tau``; the lower
    triangle may differ from the upper by up to 0.5e-8 and the diagonal
    from 1 by up to 0.5e-9, inside the validation tolerances. Small tiles
    split these matrices the way the default tile splits large ones.
    """
    p = draw(st.integers(1, 40))
    taus = draw(st.lists(st.sampled_from(GRID), min_size=1, max_size=40, unique=True))
    levels = np.array(draw(st.lists(st.sampled_from(GRID), min_size=1, max_size=4)))
    kind = draw(st.sampled_from(("levels", "clusters", "complete", "edgeless")))
    asymmetric = draw(st.booleans())
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "levels":
        upper = gen.choice(levels, size=(p, p))
    elif kind == "clusters":
        labels = gen.integers(0, max(1, p // 3), size=p)
        within = labels[:, None] == labels[None, :]
        upper = gen.choice(levels, size=(p, p)) * (within | (gen.random((p, p)) < 0.1))
    elif kind == "complete":
        upper = np.full((p, p), max(levels.max(), GRID[1]))
    else:
        upper = np.zeros((p, p))
    upper = np.triu(upper * gen.choice((-1.0, 1.0), size=(p, p)), k=1)
    corr = upper + upper.T
    if asymmetric:
        corr += np.tril(gen.choice((-0.5e-8, 0.0, 0.5e-8), size=(p, p)), k=-1)
        corr += np.diag(gen.choice((-0.5e-9, 0.0, 0.5e-9), size=p))
    corr += np.eye(p)
    return corr, tuple(taus), draw(st.sampled_from((1, 3, 8, numerics_module._TILE)))


class TestOnePassSweepMatchesRebuild:
    @settings(
        max_examples=300,
        deadline=None,
        derandomize=True,
        database=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(sweep_inputs())
    def test_matches_per_tau_rebuild(self, case):
        corr, taus, tile = case
        config = CtConfig(thresholds=taus, selection="none")
        # the tile splits both the symmetry check and the clique search
        with mock.patch.object(numerics_module, "_TILE", tile), mock.patch.object(
            graph_module, "_TILE", tile
        ):
            result = ct_run(corr, 100, config)
        cliques_at, ref_candidates, ref_skipped = per_tau_sweep(corr, config.thresholds)
        assert result.skipped_taus == ref_skipped
        assert [(c.structure, c.tau_values) for c in result.candidates] == ref_candidates
        owner = {t: c for c in result.candidates for t in c.tau_values}
        p = corr.shape[0]
        for tau, cliques in zip(config.thresholds, cliques_at):
            expected = sorted(sorted(c) for c in cliques.cliques)
            found = sorted(sorted(c) for c in owner[tau].structure.child_sets()) if tau in owner else []
            assert found == expected
            if p <= BRUTE_FORCE_MAX_VERTICES:
                brute = brute_force_independent_cliques(build_graph(corr, tau))
                assert cliques.cliques == brute.cliques
                assert cliques.unique_members == brute.unique_members


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


class TestOneSampleFactorization:
    """A BIC run factors the p x p sample matrix once, for the ceiling and
    the not-positive-definite warning alike; its fits do not again."""

    @staticmethod
    def count_factorizations(monkeypatch, p):
        calls = []
        real = numerics_module.cholesky

        def counted(mat):
            if np.shape(mat) == (p, p):
                calls.append(p)
            return real(mat)

        monkeypatch.setattr(numerics_module, "cholesky", counted)
        return calls

    def test_once_per_bic_run(self, monkeypatch):
        corr, n = acceptance_draw(2000, 0.75)
        calls = self.count_factorizations(monkeypatch, corr.shape[0])
        result = ct_run(corr, n, CtConfig(selection="bic", seed=2000))
        assert result.models_fitted > 1
        assert calls == [corr.shape[0]]

    def test_direct_fit_still_checks(self, monkeypatch):
        corr, n = acceptance_draw(2000, 0.75)
        calls = self.count_factorizations(monkeypatch, corr.shape[0])
        structure = Structure(p=15, d=3, support=frozenset((i, i // 5) for i in range(15)))
        cf.fit_mle(corr, n, structure, seed=0)
        assert calls == [corr.shape[0]]

    def test_non_pd_warning_once_per_run(self):
        bent, n = TestBicPruning.non_pd_draw()
        taus = tuple(default_thresholds()[4:36:4])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = ct_run(bent, n, CtConfig(thresholds=taus, selection="bic", seed=0))
        assert result.models_fitted > 1
        assert [str(w.message) for w in caught] == [NON_PD_SAMPLE]
        assert caught[0].category is NonPDSampleWarning
