"""Thresholded graphs and the independent maximal clique search."""

import numpy as np
import pytest

import ctfactor.graph as graph_module
from ctfactor import (
    EmptyCliqueSet,
    TooLarge,
    build_graph,
    independent_maximal_cliques,
    structure_from_cliques,
)
from ctfactor.errors import DimensionMismatch, DomainError
from ctfactor.numerics import RngState
from oracles import brute_force_independent_cliques, is_clique, neighborhood


def edge_list(graph):
    """Sorted (i, j) pairs with i < j."""
    return [(int(i), int(j)) for i, j in zip(*np.nonzero(np.triu(graph.adjacency, k=1)))]


def graph_from_edges(p, edges, weight=0.5, tau=0.25):
    corr = np.eye(p)
    for i, j in edges:
        corr[i, j] = corr[j, i] = weight
    return build_graph(corr, tau)


class TestBuildGraph:
    def test_strict_threshold(self):
        corr = np.array([[1.0, 0.5], [0.5, 1.0]])
        assert build_graph(corr, 0.5).edge_count() == 0
        assert build_graph(corr, 0.49).edge_count() == 1

    def test_absolute_value(self):
        corr = np.array([[1.0, -0.8], [-0.8, 1.0]])
        assert edge_list(build_graph(corr, 0.5)) == [(0, 1)]

    def test_rejects_asymmetric(self):
        bad = np.array([[1.0, 0.3], [0.6, 1.0]])
        with pytest.raises(DimensionMismatch):
            build_graph(bad, 0.2)

    def test_rejects_bad_diagonal(self):
        with pytest.raises(DomainError):
            build_graph(np.array([[2.0, 0.1], [0.1, 1.0]]), 0.2)

    def test_rejects_empty(self):
        with pytest.raises(DimensionMismatch):
            build_graph(np.zeros((0, 0)), 0.2)

    def test_rejects_tau_outside_unit(self):
        with pytest.raises(DomainError):
            build_graph(np.eye(2), 1.5)

    def test_rejects_nonfinite(self):
        bad = np.array([[1.0, np.inf], [np.inf, 1.0]])
        with pytest.raises(DomainError):
            build_graph(bad, 0.2)

    def test_pd_not_required(self):
        corr = np.ones((3, 3)) * 0.99
        np.fill_diagonal(corr, 1.0)
        corr[0, 2] = corr[2, 0] = -0.99  # wildly non-PD, still a valid graph
        assert build_graph(corr, 0.5).edge_count() == 3


class TestNeighborhoodAndClique:
    def test_closed_neighborhood(self):
        g = graph_from_edges(4, [(0, 1), (1, 2)])
        assert neighborhood(g, 1) == frozenset({0, 1, 2})
        assert neighborhood(g, 3) == frozenset({3})

    def test_vertex_out_of_range(self):
        g = graph_from_edges(2, [])
        with pytest.raises(DomainError):
            neighborhood(g, 5)

    def test_is_clique(self):
        g = graph_from_edges(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
        assert is_clique(g, [0, 1, 2])
        assert not is_clique(g, [0, 1, 2, 3])
        assert is_clique(g, [3])
        assert is_clique(g, [])


class TestTiledTranspose:
    """The symmetry check and ``|r|`` symmetrisation run tile by tile."""

    @pytest.mark.parametrize("p", [1, 127, 128, 129, 300])
    def test_symmetric_abs_matches_whole_matrix(self, p):
        a = np.random.default_rng(p).uniform(-1.0, 1.0, (p, p))
        whole = np.maximum(np.abs(a), np.abs(a).T)
        np.testing.assert_array_equal(graph_module._symmetric_abs(a), whole)

    @pytest.mark.parametrize("i, j", [(0, 299), (299, 0), (130, 129), (255, 256), (299, 298)])
    def test_asymmetry_found_in_every_tile(self, i, j):
        corr = np.eye(300)
        corr[i, j] = 0.3 + 2e-8
        corr[j, i] = 0.3
        with pytest.raises(DimensionMismatch):
            build_graph(corr, 0.5)
        corr[i, j] = 0.3 + 0.5e-8
        assert edge_list(build_graph(corr, 0.3)) == [(min(i, j), max(i, j))]


class TestIndependentMaximalCliques:
    def test_path_graph(self):
        g = graph_from_edges(3, [(0, 1), (1, 2)])
        out = independent_maximal_cliques(g)
        assert [sorted(c) for c in out.cliques] == [[0, 1], [1, 2]]
        assert [sorted(u) for u in out.unique_members] == [[0], [2]]

    def test_four_cycle_has_none(self):
        g = graph_from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert len(independent_maximal_cliques(g)) == 0

    def test_empty_graph_gives_singletons(self):
        g = graph_from_edges(5, [])
        out = independent_maximal_cliques(g)
        assert [sorted(c) for c in out.cliques] == [[i] for i in range(5)]

    def test_complete_graph_gives_one(self):
        edges = [(i, j) for i in range(4) for j in range(i + 1, 4)]
        g = graph_from_edges(4, edges)
        out = independent_maximal_cliques(g)
        assert [sorted(c) for c in out.cliques] == [[0, 1, 2, 3]]
        assert sorted(out.unique_members[0]) == [0, 1, 2, 3]

    def test_shared_vertex_blocks_uniqueness(self):
        # two triangles glued at vertex 2: each triangle still owns two
        # vertices of its own, so both are independent
        g = graph_from_edges(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])
        out = independent_maximal_cliques(g)
        assert [sorted(c) for c in out.cliques] == [[0, 1, 2], [2, 3, 4]]
        assert [sorted(u) for u in out.unique_members] == [[0, 1], [3, 4]]

    def test_matches_brute_force_on_random_graphs(self):
        gen = RngState(202).generator
        for _ in range(300):
            p = int(gen.integers(2, 13))
            density = 0.1 + 0.8 * gen.random()
            corr = np.zeros((p, p))
            iu = np.triu_indices(p, k=1)
            corr[iu] = (gen.random(iu[0].size) < density) * 0.5
            corr = corr + corr.T
            np.fill_diagonal(corr, 1.0)
            g = build_graph(corr, 0.25)
            fast = independent_maximal_cliques(g)
            slow = brute_force_independent_cliques(g)
            assert [sorted(c) for c in fast.cliques] == [sorted(c) for c in slow.cliques]
            assert [sorted(u) for u in fast.unique_members] == [
                sorted(u) for u in slow.unique_members
            ]

    def test_unique_member_neighborhood_is_its_clique(self):
        gen = RngState(203).generator
        for _ in range(50):
            p = int(gen.integers(3, 12))
            corr = np.zeros((p, p))
            iu = np.triu_indices(p, k=1)
            corr[iu] = (gen.random(iu[0].size) < 0.4) * 0.5
            corr = corr + corr.T
            np.fill_diagonal(corr, 1.0)
            g = build_graph(corr, 0.25)
            out = independent_maximal_cliques(g)
            for clique, members in zip(out.cliques, out.unique_members):
                for v in members:
                    assert neighborhood(g, v) == clique


class TestBruteForce:
    def test_size_guard(self):
        g = graph_from_edges(26, [])
        with pytest.raises(TooLarge):
            brute_force_independent_cliques(g)


class TestStructureFromCliques:
    def test_maps_cliques_to_columns(self):
        g = graph_from_edges(4, [(0, 1), (2, 3)])
        s = structure_from_cliques(independent_maximal_cliques(g))
        assert s.d == 2
        assert s.support == frozenset({(0, 0), (1, 0), (2, 1), (3, 1)})

    def test_glue_vertex_joins_both_factors(self):
        g = graph_from_edges(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])
        s = structure_from_cliques(independent_maximal_cliques(g))
        assert s.zero_rows() == []
        assert s.parent_sets()[2] == frozenset({0, 1})

    def test_empty_raises(self):
        g = graph_from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        with pytest.raises(EmptyCliqueSet):
            structure_from_cliques(independent_maximal_cliques(g))

    def test_cliqueset_json(self):
        g = graph_from_edges(3, [(0, 1), (1, 2)])
        doc = independent_maximal_cliques(g).to_json_dict()
        assert doc["cliques"] == [[0, 1], [1, 2]]
        assert doc["unique_members"] == [[0], [2]]
        assert doc["p"] == 3 and doc["tau"] == 0.25
