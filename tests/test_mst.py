"""Tests for the MST algorithms, fragments and the distributed wrapper."""

from __future__ import annotations

import math

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.congest.cost_model import CostModel
from repro.graphs.generators import random_k_edge_connected_graph
from repro.mst.distributed import build_mst_with_fragments
from repro.mst.fragments import decompose_tree_into_fragments
from repro.mst.sequential import minimum_spanning_tree, mst_weight
from repro.trees.rooted import RootedTree

from _helpers import random_tree, random_tree_edges
from oracles import prim_mst


def _weight(graph: nx.Graph, edges) -> int:
    return sum(graph[u][v].get("weight", 1) for u, v in edges)


class TestSequentialMst:
    def test_matches_networkx_weight(self, small_weighted_graph):
        ours = minimum_spanning_tree(small_weighted_graph)
        reference = nx.minimum_spanning_tree(small_weighted_graph)
        assert _weight(small_weighted_graph, ours) == reference.size(weight="weight")

    def test_prim_matches_kruskal_weight(self, small_weighted_graph):
        kruskal = minimum_spanning_tree(small_weighted_graph)
        prim = prim_mst(small_weighted_graph)
        assert _weight(small_weighted_graph, kruskal) == _weight(small_weighted_graph, prim)

    def test_result_is_a_spanning_tree(self, medium_weighted_graph):
        edges = minimum_spanning_tree(medium_weighted_graph)
        tree = nx.Graph(edges)
        assert set(tree.nodes()) == set(medium_weighted_graph.nodes())
        assert len(edges) == tree.number_of_nodes() - 1
        assert nx.is_connected(tree)
        assert all(u < v and medium_weighted_graph.has_edge(u, v) for u, v in edges)

    def test_edges_come_in_kruskal_order(self, medium_weighted_graph):
        edges = minimum_spanning_tree(medium_weighted_graph)
        keys = [(medium_weighted_graph[u][v]["weight"], (u, v)) for u, v in edges]
        assert keys == sorted(keys)

    def test_deterministic_under_ties(self):
        graph = nx.cycle_graph(6)
        for _, _, data in graph.edges(data=True):
            data["weight"] = 1
        assert minimum_spanning_tree(graph) == minimum_spanning_tree(graph)

    def test_comparable_labels_keep_the_plain_tie_order(self):
        # On a unit-weight 12-cycle the plain order leaves out (10, 11), the
        # largest edge id; the repr order would leave out "(9, 10)" instead.
        graph = nx.cycle_graph(12)
        nx.set_edge_attributes(graph, 1, "weight")
        tree = minimum_spanning_tree(graph)
        assert (10, 11) not in tree and (9, 10) in tree

    def test_mst_weight_helper(self, small_weighted_graph):
        assert mst_weight(small_weighted_graph) == int(
            nx.minimum_spanning_tree(small_weighted_graph).size(weight="weight")
        )

    def test_rejects_disconnected_or_empty(self):
        disconnected = nx.Graph()
        disconnected.add_edges_from([(0, 1), (2, 3)])
        with pytest.raises(ValueError):
            minimum_spanning_tree(disconnected)
        with pytest.raises(ValueError):
            minimum_spanning_tree(nx.Graph())
        with pytest.raises(ValueError):
            prim_mst(disconnected)

    def test_mixed_int_and_str_labels(self):
        # Equal weights force the edge-id tie-break across int/str labels.
        graph = nx.relabel_nodes(nx.cycle_graph(6), {0: "a", 3: "b"})
        nx.set_edge_attributes(graph, 1, "weight")
        for edges in (minimum_spanning_tree(graph), prim_mst(graph)):
            tree = nx.Graph(edges)
            assert nx.is_tree(tree) and set(tree.nodes()) == set(graph.nodes())
            assert _weight(graph, edges) == 5

    @given(seed=st.integers(0, 200))
    @settings(max_examples=15, deadline=None)
    def test_property_kruskal_equals_prim(self, seed):
        graph = random_k_edge_connected_graph(12, 2, extra_edge_prob=0.3, seed=seed)
        assert _weight(graph, minimum_spanning_tree(graph)) == _weight(graph, prim_mst(graph))


class TestFragmentDecomposition:
    def _decompose(self, n, seed, cap=None):
        tree = random_tree(n, seed)
        return tree, decompose_tree_into_fragments(tree, cap=cap)

    def test_fragments_partition_the_vertices(self):
        tree, decomposition = self._decompose(60, 1)
        seen = set()
        for fragment in decomposition.fragments:
            assert not (fragment.vertices & seen)
            seen.update(fragment.vertices)
        assert seen == set(tree.nodes())

    def test_fragment_count_bound(self):
        for seed in range(4):
            tree, decomposition = self._decompose(100, seed)
            cap = decomposition.cap
            assert len(decomposition.fragments) <= 100 // cap + 1

    def test_fragment_diameter_bound(self):
        tree, decomposition = self._decompose(100, 2)
        cap = decomposition.cap
        assert decomposition.max_fragment_diameter() <= 2 * cap

    def test_fragments_are_connected_subtrees(self):
        _, decomposition = self._decompose(50, 3)
        reference = nx.Graph(random_tree_edges(50, 3))
        for fragment in decomposition.fragments:
            induced = reference.subgraph(fragment.vertices)
            assert nx.is_connected(induced)

    def test_fragment_root_is_an_ancestor_of_all_members(self):
        tree, decomposition = self._decompose(40, 4)
        for fragment in decomposition.fragments:
            for vertex in fragment.vertices:
                assert tree.is_ancestor(fragment.root, vertex)

    def test_global_edges_connect_different_fragments(self):
        tree, decomposition = self._decompose(64, 5)
        for u, v in decomposition.global_edges():
            assert decomposition.fragment_of[u] != decomposition.fragment_of[v]

    def test_global_edge_count_is_fragment_count_minus_one(self):
        tree, decomposition = self._decompose(64, 6)
        assert len(decomposition.global_edges()) == len(decomposition.fragments) - 1

    def test_cap_one_gives_singleton_fragments(self):
        tree, decomposition = self._decompose(10, 7, cap=1)
        assert len(decomposition.fragments) == 10

    def test_invalid_cap(self):
        tree = random_tree(5, 0)
        with pytest.raises(ValueError):
            decompose_tree_into_fragments(tree, cap=0)

    @given(n=st.integers(2, 80), seed=st.integers(0, 500))
    @settings(max_examples=25, deadline=None)
    def test_property_count_and_diameter(self, n, seed):
        tree = random_tree(n, seed)
        decomposition = decompose_tree_into_fragments(tree)
        cap = decomposition.cap
        assert len(decomposition.fragments) <= n // cap + 1
        assert decomposition.max_fragment_diameter() <= 2 * cap
        assert set(decomposition.fragment_of) == set(tree.nodes())


class TestBuildMstWithFragments:
    def test_returns_consistent_structures(self, small_weighted_graph):
        result = build_mst_with_fragments(small_weighted_graph)
        assert isinstance(result.mst, RootedTree)
        assert result.mst.root == min(small_weighted_graph.nodes())
        assert set(result.mst.tree_edges()) == set(minimum_spanning_tree(small_weighted_graph))
        assert result.fragments.tree is result.mst
        assert result.ledger.total_rounds > 0
        # The simulated BFS entry is present by default.
        assert result.ledger.simulated_rounds > 0

    def test_fragment_cap_is_isqrt_n(self, medium_weighted_graph):
        result = build_mst_with_fragments(medium_weighted_graph, simulate_bfs=False)
        assert result.fragments.cap == math.isqrt(medium_weighted_graph.number_of_nodes())

    def test_modelled_bfs_when_simulation_disabled(self, small_weighted_graph):
        result = build_mst_with_fragments(small_weighted_graph, simulate_bfs=False)
        assert result.ledger.simulated_rounds == 0
        assert result.ledger.modelled_rounds > 0

    def test_rejects_disconnected_graph(self):
        graph = nx.Graph()
        graph.add_edges_from([(0, 1), (2, 3)])
        cost_model = CostModel(n=4, diameter=1)
        for simulate_bfs in (True, False):
            with pytest.raises(ValueError, match="not connected|not reachable"):
                build_mst_with_fragments(graph, simulate_bfs=simulate_bfs)
            with pytest.raises(ValueError, match="not connected|not reachable"):
                build_mst_with_fragments(
                    graph, simulate_bfs=simulate_bfs, cost_model=cost_model
                )
