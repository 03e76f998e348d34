"""Tests for the baseline algorithms and exact references."""

from __future__ import annotations

import itertools

import networkx as nx
import pytest

from repro.baselines.exact import exact_k_ecss, exact_k_ecss_weight, exact_tap
from repro.baselines.khuller_vishkin import dfs_unweighted_two_ecss, mst_plus_greedy_two_ecss
from repro.baselines.mst_baseline import (
    degree_lower_bound,
    k_ecss_lower_bound,
    mst_lower_bound,
)
from repro.baselines.thurimella import sparse_certificate_k_ecss
from repro.graphs.connectivity import is_k_edge_connected, subgraph_weight
from repro.graphs.generators import (
    cycle_with_chords,
    harary_graph,
    random_k_edge_connected_graph,
)
from repro.mst.sequential import minimum_spanning_tree, mst_weight
from repro.tap.fastcover import FastCoverage
from repro.trees.rooted import RootedTree


class TestSparseCertificate:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_preserves_k_edge_connectivity(self, k):
        graph = random_k_edge_connected_graph(16, k, extra_edge_prob=0.3, seed=k)
        result = sparse_certificate_k_ecss(graph, k)
        subgraph = nx.Graph()
        subgraph.add_nodes_from(graph.nodes())
        subgraph.add_edges_from(result.edges)
        assert is_k_edge_connected(subgraph, k)

    def test_size_at_most_k_times_n_minus_1(self):
        graph = random_k_edge_connected_graph(20, 3, extra_edge_prob=0.4, seed=3)
        result = sparse_certificate_k_ecss(graph, 3)
        assert result.size <= 3 * (graph.number_of_nodes() - 1)

    def test_forests_are_disjoint_and_acyclic(self):
        graph = random_k_edge_connected_graph(15, 2, extra_edge_prob=0.3, seed=4)
        result = sparse_certificate_k_ecss(graph, 2)
        seen = set()
        for forest in result.forests:
            assert not (forest & seen)
            seen.update(forest)
            assert nx.is_forest(nx.Graph(list(forest)))

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            sparse_certificate_k_ecss(nx.cycle_graph(4), 0)

    def test_stops_early_when_edges_run_out(self):
        graph = nx.cycle_graph(6)
        result = sparse_certificate_k_ecss(graph, 5)
        assert result.edges == frozenset((min(u, v), max(u, v)) for u, v in graph.edges())


class TestDfsUnweightedTwoEcss:
    @pytest.mark.parametrize("seed", range(3))
    def test_valid_and_within_factor_two(self, seed):
        graph = cycle_with_chords(16, extra_edges=6, seed=seed)
        result = dfs_unweighted_two_ecss(graph)
        subgraph = nx.Graph()
        subgraph.add_nodes_from(graph.nodes())
        subgraph.add_edges_from(result.edges)
        assert is_k_edge_connected(subgraph, 2)
        n = graph.number_of_nodes()
        assert len(result.edges) <= 2 * (n - 1)

    def test_weight_accounting(self):
        graph = random_k_edge_connected_graph(14, 2, extra_edge_prob=0.3, seed=5)
        result = dfs_unweighted_two_ecss(graph)
        assert result.weight == subgraph_weight(graph, result.edges)
        assert result.weight == result.tree_weight + result.augmentation_weight

    def test_rejects_disconnected_graph(self):
        graph = nx.disjoint_union(nx.cycle_graph(4), nx.cycle_graph(3))
        with pytest.raises(ValueError, match="not connected"):
            dfs_unweighted_two_ecss(graph)


class TestMstPlusGreedy:
    def test_valid_2_ecss(self):
        graph = random_k_edge_connected_graph(18, 2, extra_edge_prob=0.25, seed=6)
        result = mst_plus_greedy_two_ecss(graph)
        subgraph = nx.Graph()
        subgraph.add_nodes_from(graph.nodes())
        subgraph.add_edges_from(result.edges)
        assert is_k_edge_connected(subgraph, 2)

    def test_tree_weight_is_mst_weight(self):
        graph = random_k_edge_connected_graph(15, 2, extra_edge_prob=0.25, seed=7)
        result = mst_plus_greedy_two_ecss(graph)
        assert result.tree_weight == mst_weight(graph)


class TestExactTap:
    def test_matches_brute_force_on_tiny_instances(self):
        graph = random_k_edge_connected_graph(8, 2, extra_edge_prob=0.3, seed=8)
        tree = RootedTree(minimum_spanning_tree(graph), root=0)
        chosen, weight = exact_tap(graph, tree)
        fast = FastCoverage(graph, tree)
        assert fast.covers_everything(fast.nt_index[edge] for edge in chosen)
        # Brute force over all subsets of links.
        best = None
        for r in range(fast.m_nt + 1):
            for subset in itertools.combinations(range(fast.m_nt), r):
                if fast.covers_everything(subset):
                    cost = sum(fast.nt_weight[j] for j in subset)
                    best = cost if best is None else min(best, cost)
            if best is not None and r >= 3:
                break
        assert weight <= best if best is not None else True

    def test_infeasible_instances_rejected(self):
        graph = nx.path_graph(5)
        tree = RootedTree(nx.path_graph(5).edges(), root=0)
        with pytest.raises(ValueError):
            exact_tap(graph, tree)


class TestExactKEcss:
    def test_result_is_feasible_and_minimal_on_a_cycle(self):
        # The unique 2-ECSS of a cycle is the cycle itself.
        graph = nx.cycle_graph(7)
        edges, weight = exact_k_ecss(graph, 2)
        assert len(edges) == 7
        assert weight == 7

    def test_beats_or_matches_every_feasible_solution_we_know(self):
        graph = random_k_edge_connected_graph(12, 2, extra_edge_prob=0.3, seed=9)
        _, optimal = exact_k_ecss(graph, 2)
        heuristic = mst_plus_greedy_two_ecss(graph)
        assert optimal <= heuristic.weight
        assert optimal >= k_ecss_lower_bound(graph, 2)

    def test_weight_only_helper(self):
        graph = harary_graph(8, 2)
        assert exact_k_ecss_weight(graph, 2) == 8

    def test_exact_solution_is_k_edge_connected(self):
        graph = random_k_edge_connected_graph(10, 3, extra_edge_prob=0.4, seed=10)
        edges, _ = exact_k_ecss(graph, 3)
        subgraph = nx.Graph()
        subgraph.add_nodes_from(graph.nodes())
        subgraph.add_edges_from(edges)
        assert is_k_edge_connected(subgraph, 3)

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            exact_k_ecss(nx.cycle_graph(5), 0)


class TestLowerBounds:
    def test_mst_lower_bound_is_below_optimum(self):
        graph = random_k_edge_connected_graph(12, 2, extra_edge_prob=0.3, seed=11)
        assert mst_lower_bound(graph) <= exact_k_ecss_weight(graph, 2)

    def test_degree_lower_bound_is_below_optimum(self):
        graph = random_k_edge_connected_graph(12, 3, extra_edge_prob=0.4, seed=12)
        assert degree_lower_bound(graph, 3) <= exact_k_ecss_weight(graph, 3)

    def test_combined_bound_takes_the_maximum(self):
        graph = random_k_edge_connected_graph(12, 2, extra_edge_prob=0.3, seed=13)
        assert k_ecss_lower_bound(graph, 2) == max(
            mst_lower_bound(graph), degree_lower_bound(graph, 2)
        )

    def test_degree_bound_unweighted_is_kn_over_2(self):
        graph = harary_graph(10, 4)
        assert degree_lower_bound(graph, 4) == 20

    def test_degree_bound_rejects_low_degree_vertices(self):
        with pytest.raises(ValueError):
            degree_lower_bound(nx.path_graph(4), 2)
