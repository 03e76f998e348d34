"""Tests for coverage bookkeeping and the TAP algorithms (Section 3)."""

from __future__ import annotations

import math
import random

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines.exact import exact_tap
from repro.graphs.connectivity import canonical_edge, is_k_edge_connected
from repro.graphs.generators import cycle_with_chords, random_k_edge_connected_graph
from repro.mst.sequential import minimum_spanning_tree
from repro.tap.fastcover import FastCoverage
from repro.tap.distributed import distributed_tap
from repro.tap.greedy import greedy_tap
from repro.trees.rooted import RootedTree


def _mst_instance(n: int, seed: int, prob: float = 0.3):
    graph = random_k_edge_connected_graph(n, 2, extra_edge_prob=prob, seed=seed)
    tree = RootedTree(minimum_spanning_tree(graph), root=min(graph.nodes()))
    return graph, tree


def _covers_every_tree_edge(graph, tree, edges) -> bool:
    """Independent re-check on a fresh kernel: do *edges* cover the whole tree?"""
    fast = FastCoverage(graph, tree)
    return fast.covers_everything(fast.nt_index[canonical_edge(*edge)] for edge in edges)


class TestFastCoverage:
    def test_partitions_tree_and_non_tree_edges(self):
        graph, tree = _mst_instance(14, 0)
        fast = FastCoverage(graph, tree)
        tree_edges = set(fast.tree_edges)
        non_tree = set(fast.nt_edges)
        assert tree_edges | non_tree == {canonical_edge(u, v) for u, v in graph.edges()}
        assert not (tree_edges & non_tree)

    def test_paths_match_lca_paths(self):
        graph, tree = _mst_instance(12, 1)
        fast = FastCoverage(graph, tree)
        reference = nx.Graph(minimum_spanning_tree(graph))
        for j, (u, v) in enumerate(fast.nt_edges):
            path_edges = {fast.tree_edges[t] for t in fast.path_indices(j)}
            assert len(path_edges) == nx.shortest_path_length(reference, u, v)

    def test_cover_updates_counts(self):
        graph, tree = _mst_instance(12, 2)
        fast = FastCoverage(graph, tree)
        before = fast.nt_uncovered[0]
        newly = fast.cover(0)
        assert len(newly) == before
        assert fast.nt_uncovered[0] == 0
        for index in newly:
            assert fast.covered[index]

    def test_all_covered_and_verify(self):
        graph, tree = _mst_instance(12, 3)
        fast = FastCoverage(graph, tree)
        assert not fast.all_covered()
        fast.cover_many(range(fast.m_nt))
        assert fast.all_covered()
        assert _covers_every_tree_edge(graph, tree, fast.nt_edges)

    def test_weight_lookup(self):
        graph, tree = _mst_instance(10, 4)
        fast = FastCoverage(graph, tree)
        for (u, v), weight in zip(fast.nt_edges, fast.nt_weight):
            assert weight == graph[u][v]["weight"]

    def test_uncovered_indices_shrink(self):
        graph, tree = _mst_instance(12, 5)
        fast = FastCoverage(graph, tree)
        total = fast.n_tree
        assert fast.uncovered_total() == len(fast.uncovered) == total
        fast.cover(0)
        assert fast.uncovered_total() < total


class TestDistributedTap:
    def test_augmentation_makes_tree_2_edge_connected(self):
        for seed in range(4):
            graph, tree = _mst_instance(18, seed)
            result = distributed_tap(graph, tree, seed=seed)
            augmented = nx.Graph()
            augmented.add_nodes_from(graph.nodes())
            augmented.add_edges_from(tree.tree_edges())
            augmented.add_edges_from(result.augmentation)
            assert is_k_edge_connected(augmented, 2)

    def test_weight_is_sum_of_augmentation_weights(self):
        graph, tree = _mst_instance(14, 9)
        result = distributed_tap(graph, tree, seed=9)
        assert result.weight == sum(
            graph[u][v]["weight"] for u, v in result.augmentation
        )

    def test_iteration_count_is_recorded_in_ledger_and_history(self):
        graph, tree = _mst_instance(16, 10)
        result = distributed_tap(graph, tree, seed=10)
        assert result.iterations == len(result.history)
        assert result.ledger.count("tap-iteration") == result.iterations
        assert result.ledger.total_rounds > 0

    def test_history_is_monotone_in_uncovered_edges(self):
        graph, tree = _mst_instance(16, 11)
        result = distributed_tap(graph, tree, seed=11)
        remaining = [entry.uncovered_remaining for entry in result.history]
        assert all(a >= b for a, b in zip(remaining, remaining[1:]))
        assert remaining[-1] == 0

    def test_deterministic_given_seed(self):
        graph, tree = _mst_instance(16, 12)
        a = distributed_tap(graph, tree, seed=42)
        b = distributed_tap(graph, tree, seed=42)
        assert a.augmentation == b.augmentation
        assert a.iterations == b.iterations

    def test_zero_weight_edges_taken_first(self):
        graph, tree = _mst_instance(12, 13)
        # Make one non-tree edge free.
        free_edge = FastCoverage(graph, tree).nt_edges[0]
        graph[free_edge[0]][free_edge[1]]["weight"] = 0
        result = distributed_tap(graph, tree, seed=13)
        assert free_edge in result.augmentation
        assert result.ledger.count("tap-zero-weight-setup") == 1

    def test_no_symmetry_breaking_still_valid_but_usually_heavier(self):
        heavier = 0
        for seed in range(3):
            graph, tree = _mst_instance(20, 20 + seed)
            voting = distributed_tap(graph, tree, seed=seed, symmetry_breaking=True)
            naive = distributed_tap(graph, tree, seed=seed, symmetry_breaking=False)
            augmented = nx.Graph()
            augmented.add_nodes_from(graph.nodes())
            augmented.add_edges_from(tree.tree_edges())
            augmented.add_edges_from(naive.augmentation)
            assert is_k_edge_connected(augmented, 2)
            if naive.weight >= voting.weight:
                heavier += 1
        # Adding every maximum candidate should not beat the voting rule on
        # most instances (it is allowed to tie).
        assert heavier >= 1

    def test_approximation_against_exact_tap(self):
        ratios = []
        for seed in range(4):
            graph, tree = _mst_instance(14, 30 + seed)
            result = distributed_tap(graph, tree, seed=seed)
            _, optimum = exact_tap(graph, tree)
            assert result.weight >= optimum
            ratios.append(result.weight / optimum)
        n = 14
        assert max(ratios) <= 4 * math.log2(n)

    def test_raises_on_graph_that_is_not_2_edge_connected(self):
        graph = nx.path_graph(6)
        for _, _, data in graph.edges(data=True):
            data["weight"] = 1
        tree = RootedTree(nx.path_graph(6).edges(), root=0)
        with pytest.raises(RuntimeError):
            distributed_tap(graph, tree, seed=0)

    def test_max_iterations_guard(self):
        graph, tree = _mst_instance(16, 40)
        with pytest.raises(RuntimeError):
            distributed_tap(graph, tree, seed=0, max_iterations=0)

    @given(seed=st.integers(0, 200))
    @settings(max_examples=10, deadline=None)
    def test_property_augmentation_always_covers_every_tree_edge(self, seed):
        graph, tree = _mst_instance(12, seed, prob=0.25)
        result = distributed_tap(graph, tree, seed=seed)
        assert _covers_every_tree_edge(graph, tree, result.augmentation)


class TestGreedyTap:
    def test_produces_a_valid_cover(self):
        graph, tree = _mst_instance(16, 50)
        result = greedy_tap(graph, tree)
        assert _covers_every_tree_edge(graph, tree, result.augmentation)
        assert result.weight == sum(graph[u][v]["weight"] for u, v in result.augmentation)

    def test_matches_exact_on_easy_instances(self):
        # On a plain cycle the optimum augmentation of the BFS tree is one edge.
        graph = cycle_with_chords(10, extra_edges=0)
        tree = RootedTree(minimum_spanning_tree(graph), root=0)
        result = greedy_tap(graph, tree)
        assert len(result.augmentation) == 1

    def test_close_to_exact_on_random_instances(self):
        for seed in range(3):
            graph, tree = _mst_instance(12, 60 + seed)
            greedy = greedy_tap(graph, tree)
            _, optimum = exact_tap(graph, tree)
            assert greedy.weight <= 3 * optimum

    def test_zero_weight_edges_taken_first(self):
        graph, tree = _mst_instance(12, 70)
        free_edge = FastCoverage(graph, tree).nt_edges[0]
        graph[free_edge[0]][free_edge[1]]["weight"] = 0
        result = greedy_tap(graph, tree)
        assert free_edge in result.augmentation

    def test_raises_when_graph_cannot_be_augmented(self):
        graph = nx.path_graph(5)
        tree = RootedTree(nx.path_graph(5).edges(), root=0)
        with pytest.raises(RuntimeError):
            greedy_tap(graph, tree)


class TestTreeMustSpanTheGraph:
    """Both TAP solvers reject a tree that is not a spanning tree of the graph."""

    @pytest.mark.parametrize("solve", [distributed_tap, greedy_tap])
    def test_tree_edge_missing_from_the_graph(self, solve):
        graph = nx.cycle_graph(6)
        # 0-2 and 1-3 are not edges of the cycle.
        tree = RootedTree([(0, 2), (2, 1), (1, 3), (3, 4), (4, 5)], root=0)
        with pytest.raises(ValueError, match=r"tree edge \(0, 2\) is not an edge of the graph"):
            solve(graph, tree)

    @pytest.mark.parametrize("solve", [distributed_tap, greedy_tap])
    def test_graph_vertex_missing_from_the_tree(self, solve):
        graph = nx.cycle_graph(6)
        tree = RootedTree(nx.path_graph(5).edges(), root=0)
        with pytest.raises(ValueError, match="vertex 5 of the graph is not a vertex of the tree"):
            solve(graph, tree)

    def test_tree_vertex_missing_from_the_graph(self):
        graph = nx.cycle_graph(5)
        tree = RootedTree(nx.path_graph(6).edges(), root=0)
        with pytest.raises(ValueError, match=r"tree edge \(4, 5\) is not an edge"):
            distributed_tap(graph, tree, seed=0)
