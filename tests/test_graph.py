"""Thresholded graphs and the independent maximal clique search."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import ctfactor.graph as graph_module
from ctfactor import (
    EmptyCliqueSet,
    SimSpec,
    Structure,
    ThresholdedGraph,
    build_graph,
    gen_independent_cluster,
    independent_maximal_cliques,
    structure_from_cliques,
)
from ctfactor.errors import DimensionMismatch, DomainError
from ctfactor.model import implied_correlation
from ctfactor.numerics import philox
from oracles import (
    TooLarge,
    brute_force_independent_cliques,
    is_clique,
    loop_independent_cliques,
    neighborhood,
)


def edge_list(graph):
    """Sorted (i, j) pairs with i < j."""
    return [(int(i), int(j)) for i, j in zip(*np.nonzero(np.triu(graph.closed, k=1)))]


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

    def test_thresholds_symmetric_part(self):
        # graphs threshold (r + r.T) / 2, the matrix the fits see, not
        # either triangle of an r that is symmetric only within tolerance
        r = np.eye(3)
        r[0, 1] = r[1, 0] = 0.6
        r[0, 2], r[2, 0] = 0.5 + 0.5e-8, 0.5
        tau = 0.5 + 0.3e-8  # above the symmetric part 0.5 + 0.25e-8, below r[0, 2]
        assert edge_list(build_graph(r, tau)) == [(0, 1)]
        assert edge_list(build_graph(r, 0.5)) == [(0, 1), (0, 2)]

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
    """``build_graph`` rejects an asymmetry in any tile of the symmetry
    check, and thresholds the symmetric part of a matrix within tolerance."""

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
        gen = philox(202)
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
        gen = philox(203)
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


@st.composite
def search_graphs(draw):
    """A graph on 1 to 200 vertices, a row tile and a gather budget.

    Sparse random graphs give many closed neighbourhoods of at most two
    vertices; denser ones give vertices whose smallest member has a
    neighbourhood of the same size but other members. Disjoint cliques
    have glue vertices joined to parts of two of them. Complete graphs
    lack up to eight edges (none: complete). Large cliques and
    near-complete graphs have neighbourhoods of ``s`` members with
    ``s * s > 8 p``. Small tiles and budgets split the tested rows into
    many blocks and each block's gathers into many chunks.
    """
    p = draw(st.integers(1, 200))
    kind = draw(st.sampled_from(("random", "blocks", "near-complete", "empty")))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "random":
        adj = gen.random((p, p)) < draw(st.sampled_from((0.005, 0.02, 0.1, 0.5, 0.9)))
    elif kind == "blocks":
        labels = np.searchsorted(
            np.sort(gen.integers(0, p, size=draw(st.integers(0, 12)))), np.arange(p), side="right"
        )
        adj = labels[:, None] == labels[None, :]
        for _ in range(draw(st.integers(0, 6))):
            glue = gen.integers(p)
            joined = np.isin(labels, gen.integers(0, labels.max() + 1, size=2))
            joined &= gen.random(p) < draw(st.sampled_from((0.5, 1.0)))
            adj[glue] |= joined
            adj[:, glue] |= joined
    elif kind == "near-complete":
        adj = np.ones((p, p), dtype=bool)
        missing = gen.integers(0, p, size=(draw(st.integers(0, 8)), 2))
        adj[missing[:, 0], missing[:, 1]] = False
    else:
        adj = np.zeros((p, p), dtype=bool)
    adj = np.triu(adj, k=1)
    adj |= adj.T
    np.fill_diagonal(adj, True)
    perm = gen.permutation(p)
    closed = adj[np.ix_(perm, perm)]
    closed.flags.writeable = False
    tile = draw(st.sampled_from((1, 2, 7, graph_module._TILE)))
    budget = draw(st.sampled_from((1, 64, 4096, graph_module._GATHER_BYTES)))
    return ThresholdedGraph(p=p, tau=0.5, closed=closed), tile, budget


def assert_same_cliques(fast, slow):
    assert (fast.p, fast.tau) == (slow.p, slow.tau)
    assert fast.cliques == slow.cliques
    assert fast.unique_members == slow.unique_members
    assert {type(v) for s in fast.cliques + fast.unique_members for v in s} <= {int}


class TestVectorisedSearchMatchesLoop:
    """The vectorised search returns the per-vertex loop's ``CliqueSet``."""

    @settings(
        max_examples=300,
        deadline=None,
        derandomize=True,
        database=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(search_graphs())
    def test_matches_loop(self, case):
        graph, tile, budget = case
        with mock.patch.object(graph_module, "_TILE", tile), mock.patch.object(
            graph_module, "_GATHER_BYTES", budget
        ):
            fast = independent_maximal_cliques(graph)
        assert_same_cliques(fast, loop_independent_cliques(graph))


@pytest.fixture(scope="module")
def block_model():
    """Population correlation of 80 factors of 25 children, and the child sets.

    Loadings on [0.6, 0.8] and an identity factor correlation put every
    within-block |r| in [0.36, 0.64] and every other one at 0. The
    variables are shuffled, so no block is a run of indices.
    """
    theta = gen_independent_cluster(SimSpec(d=80, children_per_factor=25, seed=0))
    perm = philox(0).permutation(theta.p)
    corr = implied_correlation(theta)[np.ix_(perm, perm)]
    loads = theta.loadings[perm] != 0.0
    blocks = [frozenset(np.flatnonzero(loads[:, k]).tolist()) for k in range(theta.d)]
    return corr, sorted(blocks, key=min)


def near_complete_graph(p=2000, missing=39):
    """The complete graph on ``p`` vertices less ``missing`` disjoint edges."""
    ends = philox(1).permutation(p)[: 2 * missing].reshape(missing, 2)
    corr = np.full((p, p), 0.5)
    corr[ends[:, 0], ends[:, 1]] = corr[ends[:, 1], ends[:, 0]] = 0.0
    np.fill_diagonal(corr, 1.0)
    return build_graph(corr, 0.25)


class TestThousandsOfVertices:
    """Searches at p = 2000 on graphs that have cliques, and their memory."""

    def test_gap_tau_gives_the_blocks(self, block_model):
        corr, blocks = block_model
        out = independent_maximal_cliques(build_graph(corr, 0.2))
        assert out.cliques == tuple(blocks)
        assert out.unique_members == tuple(blocks)

    def test_sparse_tau_matches_loop(self, block_model):
        graph = build_graph(block_model[0], 0.5)
        fast = independent_maximal_cliques(graph)
        assert len(fast) > 80
        assert_same_cliques(fast, loop_independent_cliques(graph))

    def test_near_complete_matches_loop(self):
        graph = near_complete_graph()
        assert graph.edge_count() == 2000 * 1999 // 2 - 39
        assert_same_cliques(independent_maximal_cliques(graph), loop_independent_cliques(graph))

    @pytest.mark.parametrize("which", ["block-model", "near-complete"])
    def test_peak_allocation_is_bounded(self, block_model, which):
        # tested rows go through in tiles and gathers in chunks: the peaks
        # read 1.2 MB and 5.8 MB, and 40.8 MB near-complete with one tile
        # and one gather, against the bound of 8 MB
        graph = build_graph(block_model[0], 0.5) if which == "block-model" else near_complete_graph()
        tracemalloc.start()
        try:
            independent_maximal_cliques(graph)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * graph.p**2, f"peak traced allocation {peak} bytes"


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

    def test_passes_the_checked_constructor(self):
        # built without Structure's checks: the same value they would give
        gen = philox(204)
        for _ in range(100):
            p = int(gen.integers(1, 30))
            corr = np.zeros((p, p))
            iu = np.triu_indices(p, k=1)
            corr[iu] = (gen.random(iu[0].size) < gen.random()) * 0.5
            corr = corr + corr.T
            np.fill_diagonal(corr, 1.0)
            cliques = independent_maximal_cliques(build_graph(corr, 0.25))
            if len(cliques) == 0:
                continue
            s = structure_from_cliques(cliques)
            assert s == Structure(p=s.p, d=s.d, support=s.support)
            assert isinstance(s.support, frozenset)
            assert {type(v) for pair in s.support for v in pair} == {int}

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
