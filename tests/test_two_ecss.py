"""End-to-end tests for the weighted 2-ECSS algorithm (Theorem 1.1)."""

from __future__ import annotations

import math

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines.exact import exact_k_ecss_weight
from repro.baselines.khuller_vishkin import mst_plus_greedy_two_ecss
from repro.baselines.mst_baseline import mst_lower_bound
from repro.core.k_ecss import k_ecss
from repro.core.three_ecss import three_ecss
from repro.core.two_ecss import two_ecss, weighted_tap
from repro.graphs.connectivity import verify_spanning_subgraph
from repro.graphs.generators import (
    clique_chain,
    cycle_with_chords,
    grid_torus,
    random_k_edge_connected_graph,
)
from repro.mst.sequential import minimum_spanning_tree
from repro.trees.rooted import RootedTree


class TestTwoEcss:
    @pytest.mark.parametrize("seed", range(4))
    def test_output_is_2_edge_connected_and_spanning(self, seed):
        graph = random_k_edge_connected_graph(20, 2, extra_edge_prob=0.25, seed=seed)
        result = two_ecss(graph, seed=seed, simulate_bfs=False)
        ok, reason = result.verify()
        assert ok, reason
        assert result.k == 2

    def test_works_on_structured_families(self):
        for graph in [
            cycle_with_chords(18, extra_edges=5, seed=1),
            clique_chain(4, 4, 2),
            grid_torus(4, 4),
        ]:
            result = two_ecss(graph, seed=0, simulate_bfs=False)
            ok, reason = result.verify()
            assert ok, reason

    def test_weight_at_least_mst_and_at_least_optimum(self):
        graph = random_k_edge_connected_graph(16, 2, extra_edge_prob=0.3, seed=5)
        result = two_ecss(graph, seed=5, simulate_bfs=False)
        assert result.weight >= mst_lower_bound(graph)
        assert result.weight >= exact_k_ecss_weight(graph, 2)

    def test_logarithmic_approximation_in_practice(self):
        ratios = []
        for seed in range(3):
            graph = random_k_edge_connected_graph(18, 2, extra_edge_prob=0.3, seed=seed)
            result = two_ecss(graph, seed=seed, simulate_bfs=False)
            optimum = exact_k_ecss_weight(graph, 2)
            ratios.append(result.weight / optimum)
        assert max(ratios) <= 1 + 2 * math.log2(18)

    def test_competitive_with_mst_plus_greedy_baseline(self):
        graph = random_k_edge_connected_graph(24, 2, extra_edge_prob=0.25, seed=8)
        distributed = two_ecss(graph, seed=8, simulate_bfs=False)
        baseline = mst_plus_greedy_two_ecss(graph)
        assert distributed.weight <= 3 * baseline.weight

    def test_metadata_and_ledger_contents(self):
        graph = random_k_edge_connected_graph(25, 2, extra_edge_prob=0.2, seed=9)
        result = two_ecss(graph, seed=9, simulate_bfs=False)
        metadata = result.metadata
        assert metadata["mst_weight"] + metadata["tap_weight"] == result.weight
        assert metadata["tap_iterations"] == result.iterations
        assert metadata["segments"] >= 1
        assert metadata["diameter"] == nx.diameter(graph)
        labels = result.ledger.by_label()
        assert "mst-kutten-peleg" in labels
        assert "segment-decomposition" in labels
        assert "tap-iteration" in labels

    def test_rounds_below_theorem_bound(self):
        for seed in range(3):
            graph = random_k_edge_connected_graph(30, 2, extra_edge_prob=0.15, seed=seed)
            result = two_ecss(graph, seed=seed, simulate_bfs=False)
            assert result.rounds <= result.metadata["round_bound"]

    def test_simulated_bfs_included_when_requested(self):
        graph = random_k_edge_connected_graph(15, 2, extra_edge_prob=0.3, seed=10)
        result = two_ecss(graph, seed=10, simulate_bfs=True)
        assert result.ledger.simulated_rounds > 0
        ok, _ = result.verify()
        assert ok

    def test_deterministic_given_seed(self):
        graph = random_k_edge_connected_graph(18, 2, extra_edge_prob=0.25, seed=11)
        a = two_ecss(graph, seed=123, simulate_bfs=False)
        b = two_ecss(graph, seed=123, simulate_bfs=False)
        assert a.edges == b.edges
        assert a.weight == b.weight

    def test_rejects_graphs_that_are_not_2_edge_connected(self):
        graph = nx.path_graph(6)
        with pytest.raises(ValueError):
            two_ecss(graph)

    def test_rejects_a_negative_weight(self):
        graph = nx.cycle_graph(6)
        nx.set_edge_attributes(graph, 1, "weight")
        graph[0][1]["weight"] = -5
        with pytest.raises(ValueError, match=r"non-negative integer edge weights.*-5"):
            two_ecss(graph, seed=0)

    def test_rejects_float_weights(self):
        graph = nx.cycle_graph(6)
        nx.set_edge_attributes(graph, 1.5, "weight")
        with pytest.raises(ValueError, match=r"non-negative integer edge weights.*1\.5"):
            two_ecss(graph, seed=0)

    def test_rejects_a_multigraph_with_parallel_edges(self):
        graph = nx.MultiGraph(nx.path_graph(5))
        graph.add_edges_from(nx.path_graph(5).edges())  # double every edge
        with pytest.raises(ValueError, match="simple graph.*MultiGraph"):
            two_ecss(graph, seed=0)

    def test_zero_weights_are_inside_the_contract(self):
        graph = nx.cycle_graph(6)
        nx.set_edge_attributes(graph, 0, "weight")
        result = two_ecss(graph, seed=0)
        assert result.weight == 0 and result.verify()[0]

    @pytest.mark.parametrize("solver", ["2-ECSS", "k-ECSS k=3", "3-ECSS"])
    def test_mixed_int_and_str_labels(self, solver):
        k = 2 if solver == "2-ECSS" else 3
        for seed in range(3):
            graph = random_k_edge_connected_graph(14, k, seed=seed)
            graph = nx.relabel_nodes(graph, {v: f"v{v}" for v in graph if v % 2})
            if solver == "2-ECSS":
                result = two_ecss(graph, seed=seed)
            elif solver == "k-ECSS k=3":
                result = k_ecss(graph, 3, seed=seed)
            else:
                result = three_ecss(graph, seed=seed)
            assert verify_spanning_subgraph(graph, result.edges, k)

    def test_mst_edges_are_always_included(self):
        graph = random_k_edge_connected_graph(16, 2, extra_edge_prob=0.3, seed=12)
        result = two_ecss(graph, seed=12, simulate_bfs=False)
        mst_edges = set(
            RootedTree(minimum_spanning_tree(graph), root=0).tree_edges()
        )
        assert mst_edges <= set(result.edges)

    @given(seed=st.integers(0, 100))
    @settings(max_examples=8, deadline=None)
    def test_property_always_valid(self, seed):
        graph = random_k_edge_connected_graph(14, 2, extra_edge_prob=0.25, seed=seed)
        result = two_ecss(graph, seed=seed, simulate_bfs=False)
        ok, reason = result.verify()
        assert ok, reason


class TestWeightedTapWrapper:
    def test_uses_decomposition_diameter_for_charges(self):
        graph = random_k_edge_connected_graph(20, 2, extra_edge_prob=0.2, seed=13)
        tree = RootedTree(minimum_spanning_tree(graph), root=0)
        result = weighted_tap(graph, tree, seed=13)
        assert result.iterations >= 1
        assert result.ledger.total_rounds > 0
