"""The flat-array TAP/labelling kernels: unit tests and differential sweeps.

Four layers:

* direct unit tests of :class:`repro.graphs.fastgraph.TreePathIndex` (the
  Euler-tour LCA / path extractor) against brute-force parent walks, and of
  its vectorised ``path_csr`` builder against ``path_edges`` element for
  element (random trees, a 2,000-vertex path, a star, n = 1 and 2, empty
  ``u == v`` paths);
* direct unit tests of :class:`repro.tap.fastcover.FastCoverage` -- CSR path
  parity with ``RootedTree.tree_path_edges``, ``|C_e|`` counters vs
  recomputation, the on-demand covering lists, and the voting round vs the
  historical set-based implementation;
* oracle parity of both TAP solvers on deep trees (clique chains, n = 256)
  and on weights past int64 (exact integer scoring);
* the seeded differential sweep: 50 instances of **every** registered
  generator family per solver, each asserting bit-identical output
  (augmentations, weights, iteration counts, histories, label maps) against
  the historical reference implementations of ``tests/oracles.py``.
"""

from __future__ import annotations

import random

import networkx as nx
import numpy as np
import pytest

from _helpers import SWEEP_FAMILIES, sweep_instance
from oracles import CoverageStateNX, compute_labels_nx, distributed_tap_nx, greedy_tap_nx
from repro.cycle_space.cut_pairs import cut_pairs_from_labels
from repro.cycle_space.labels import compute_labels
from repro.graphs.fastgraph import TreePathIndex
from repro.graphs.generators import make_family, random_k_edge_connected_graph
from repro.mst.sequential import minimum_spanning_tree
from repro.tap.distributed import distributed_tap
from repro.tap.fastcover import FastCoverage
from repro.tap.greedy import greedy_tap
from repro.trees.rooted import RootedTree

N_GRAPHS = 50


def _mst_instance(n: int, seed: int, prob: float = 0.3):
    graph = random_k_edge_connected_graph(n, 2, extra_edge_prob=prob, seed=seed)
    tree = RootedTree(minimum_spanning_tree(graph), root=min(graph.nodes()))
    return graph, tree


def _random_parent_arrays(n: int, seed: int) -> tuple[list[int], list[int]]:
    """A random rooted tree as (parent, depth) arrays (root 0)."""
    rng = random.Random(seed)
    parent = [-1] * n
    depth = [0] * n
    for v in range(1, n):
        parent[v] = rng.randrange(v)
        depth[v] = depth[parent[v]] + 1
    return parent, depth


# ---------------------------------------------------------------- TreePathIndex
class TestTreePathIndex:
    def test_lca_matches_brute_force_ancestor_walk(self):
        for seed in range(5):
            parent, depth = _random_parent_arrays(40, seed)
            index = TreePathIndex(parent, depth)

            def ancestors(v):
                chain = [v]
                while parent[chain[-1]] >= 0:
                    chain.append(parent[chain[-1]])
                return chain

            rng = random.Random(100 + seed)
            for _ in range(50):
                u, v = rng.randrange(40), rng.randrange(40)
                expected = next(a for a in ancestors(u) if a in set(ancestors(v)))
                assert index.lca(u, v) == expected

    def test_path_edges_order_and_distance(self):
        # Path graph 0-1-2-3-4 rooted at 0: path(1, 4) climbs 4, 3, 2 after 1.
        parent = [-1, 0, 1, 2, 3]
        depth = [0, 1, 2, 3, 4]
        index = TreePathIndex(parent, depth)
        assert index.path_edges(1, 4) == [4, 3, 2]
        assert index.path_edges(4, 1) == [4, 3, 2]
        assert index.path_edges(2, 2) == []
        assert index.distance(1, 4) == 3
        assert index.lca(1, 4) == 1

    def test_two_sided_path_lists_u_side_first(self):
        # Star with two arms: 0 - 1 - 2 and 0 - 3 - 4.
        parent = [-1, 0, 1, 0, 3]
        depth = [0, 1, 2, 1, 2]
        index = TreePathIndex(parent, depth)
        assert index.lca(2, 4) == 0
        assert index.path_edges(2, 4) == [2, 1, 4, 3]

    def test_rejects_malformed_parent_arrays(self):
        with pytest.raises(ValueError):
            TreePathIndex([0, -1, -1], [0, 0, 0])  # two roots
        with pytest.raises(ValueError):
            TreePathIndex([0, 0], [0, 1])  # no root

    def test_matches_rooted_tree_on_random_trees(self):
        for seed in range(4):
            graph = random_k_edge_connected_graph(30, 2, extra_edge_prob=0.2, seed=seed)
            tree = RootedTree(minimum_spanning_tree(graph), root=min(graph.nodes()))
            order = tree.bfs_order()
            rng = random.Random(seed)
            nodes = list(tree.nodes())
            for _ in range(40):
                u, v = rng.choice(nodes), rng.choice(nodes)
                iu, iv = tree.index[u], tree.index[v]
                assert tree.lca(u, v) == order[tree.paths.lca(iu, iv)]
                assert tree.paths.distance(iu, iv) == len(tree.tree_path_edges(u, v))


class TestPathCsr:
    """``path_csr`` equals ``path_edges`` element for element, order included."""

    @staticmethod
    def _assert_matches(index: TreePathIndex, us, vs):
        indptr, child = index.path_csr(us, vs)
        assert len(indptr) == len(us) + 1 and indptr[0] == 0
        assert child.dtype == np.int32
        for i, (u, v) in enumerate(zip(us, vs)):
            assert child[indptr[i]:indptr[i + 1]].tolist() == index.path_edges(u, v)

    @staticmethod
    def _all_pairs(n):
        return [u for u in range(n) for _ in range(n)], [v for _ in range(n) for v in range(n)]

    def test_random_trees(self):
        for seed in range(6):
            n = 10 + 40 * seed
            index = TreePathIndex(*_random_parent_arrays(n, seed))
            rng = random.Random(seed)
            us = [rng.randrange(n) for _ in range(300)]
            vs = [rng.randrange(n) for _ in range(300)]
            self._assert_matches(index, us, vs)

    def test_long_path_climbs_to_full_height(self):
        n = 2000
        index = TreePathIndex([-1] + list(range(n - 1)), list(range(n)))
        rng = random.Random(7)
        us = [0, n - 1, 1, n - 2] + [rng.randrange(n) for _ in range(40)]
        vs = [n - 1, 0, n - 1, 3] + [rng.randrange(n) for _ in range(40)]
        self._assert_matches(index, us, vs)
        indptr, _ = index.path_csr([0], [n - 1])
        assert indptr[-1] == n - 1

    def test_star(self):
        n = 12
        index = TreePathIndex([-1] + [0] * (n - 1), [0] + [1] * (n - 1))
        self._assert_matches(index, *self._all_pairs(n))

    def test_one_and_two_vertices(self):
        self._assert_matches(TreePathIndex([-1], [0]), [0], [0])
        self._assert_matches(TreePathIndex([-1, 0], [0, 1]), *self._all_pairs(2))
        self._assert_matches(TreePathIndex([1, -1], [1, 0]), *self._all_pairs(2))

    def test_equal_endpoints_give_empty_paths(self):
        index = TreePathIndex(*_random_parent_arrays(30, 3))
        indptr, child = index.path_csr(range(30), range(30))
        assert indptr.tolist() == [0] * 31 and len(child) == 0
        self._assert_matches(index, [4, 5, 5, 9], [4, 9, 5, 9])

    def test_no_pairs(self):
        indptr, child = TreePathIndex([-1, 0], [0, 1]).path_csr([], [])
        assert indptr.tolist() == [0] and len(child) == 0


# ----------------------------------------------------------------- FastCoverage
class TestFastCoverage:
    def test_paths_match_rooted_tree(self):
        graph, tree = _mst_instance(16, 0)
        fast = FastCoverage(graph, tree)
        for j, edge in enumerate(fast.nt_edges):
            expected = {
                fast.tree_edge_index[e] for e in tree.tree_path_edges(*edge)
            }
            assert set(fast.path_indices(j)) == expected
            assert fast.path_indptr[j + 1] - fast.path_indptr[j] == len(expected)

    def test_covering_is_the_exact_transpose(self):
        graph, tree = _mst_instance(14, 1)
        fast = FastCoverage(graph, tree)
        for t in range(fast.n_tree):
            expected = [
                j for j in range(fast.m_nt) if t in set(fast.path_indices(j))
            ]
            assert fast.covering(t) == expected

    def test_uncovered_counters_stay_consistent_under_covering(self):
        graph, tree = _mst_instance(18, 2)
        fast = FastCoverage(graph, tree)
        rng = random.Random(2)
        ids = list(range(fast.m_nt))
        rng.shuffle(ids)
        for j in ids[: fast.m_nt // 2]:
            fast.cover(j)
            for k in range(fast.m_nt):
                recomputed = sum(
                    1 for t in fast.path_indices(k) if not fast.covered[t]
                )
                assert fast.nt_uncovered[k] == recomputed
            assert fast.uncovered == {
                t for t in range(fast.n_tree) if not fast.covered[t]
            }
            assert fast.uncovered_total() == len(fast.uncovered)

    def test_cover_many_reports_each_tree_edge_once(self):
        graph, tree = _mst_instance(16, 3)
        fast = FastCoverage(graph, tree)
        newly = fast.cover_many(range(fast.m_nt))
        assert sorted(newly) == sorted(set(newly))
        assert fast.all_covered()
        assert fast.uncovered_total() == 0
        assert fast.cover_many(range(fast.m_nt)) == []

    def test_kernel_matches_reference_state_step_by_step(self):
        graph, tree = _mst_instance(15, 4)
        fast = FastCoverage(graph, tree)
        oracle = CoverageStateNX(graph, tree)
        assert fast.tree_edges == oracle.tree_edges
        assert fast.nt_edges == oracle.non_tree_edges
        for j, edge in enumerate(fast.nt_edges):
            assert frozenset(fast.path_indices(j)) == oracle.path(edge)
            assert fast.nt_weight[j] == oracle.weight(edge)
        for j in range(0, fast.m_nt, 2):
            assert set(fast.cover(j)) == oracle.cover_with(fast.nt_edges[j])
            assert frozenset(fast.uncovered) == oracle.uncovered_indices()
            covered = frozenset(t for t in range(fast.n_tree) if fast.covered[t])
            assert covered == oracle.covered_indices()
            for k, probe in enumerate(fast.nt_edges):
                assert fast.nt_uncovered[k] == oracle.uncovered_count(probe)
                assert frozenset(fast.uncovered_path_indices(k)) == oracle.uncovered_on_path(probe)
        assert fast.all_covered() == oracle.all_covered()

    def test_zero_weight_ids(self):
        graph, tree = _mst_instance(12, 5)
        free = CoverageStateNX(graph, tree).non_tree_edges[0]
        graph[free[0]][free[1]]["weight"] = 0
        fast = FastCoverage(graph, tree)
        assert fast.zero_weight_ids() == [fast.nt_index[free]]

    def test_verify_augmentation_parity(self):
        graph, tree = _mst_instance(14, 6)
        fast = FastCoverage(graph, tree)
        oracle = CoverageStateNX(graph, tree)
        edges = fast.nt_edges
        for subset in (edges, edges[:1], edges[: len(edges) // 2]):
            ids = [fast.nt_index[edge] for edge in subset]
            assert fast.covers_everything(ids) == oracle.verify_augmentation(subset)


def _assert_tap_parity(graph, tree, seed):
    for symmetry_breaking in (True, False):
        fast = distributed_tap(graph, tree, seed=seed, symmetry_breaking=symmetry_breaking)
        oracle = distributed_tap_nx(
            graph, tree, seed=seed, symmetry_breaking=symmetry_breaking
        )
        assert fast.augmentation == oracle.augmentation
        assert (fast.weight, fast.iterations) == (oracle.weight, oracle.iterations)
        assert fast.history == oracle.history
        assert fast.ledger.total_rounds == oracle.ledger.total_rounds
    greedy, greedy_oracle = greedy_tap(graph, tree), greedy_tap_nx(graph, tree)
    assert (greedy.augmentation, greedy.weight, greedy.steps) == (
        greedy_oracle.augmentation, greedy_oracle.weight, greedy_oracle.steps
    )


class TestTapOracleParity:
    """Cases the differential sweep (n <= 30, small weights) never reaches."""

    @pytest.mark.parametrize("seed", range(3))
    def test_deep_clique_chain_mst(self, seed):
        graph = make_family("clique-chain")(256, seed=seed)
        tree = RootedTree(minimum_spanning_tree(graph), root=min(graph.nodes(), key=repr))
        assert tree.height() >= 60
        _assert_tap_parity(graph, tree, seed)

    @pytest.mark.parametrize(
        "low, high",
        [(2 ** 63, 2 ** 80), (2 ** 53, 2 ** 63 - 1)],
        ids=["past-int64", "past-float53"],
    )
    @pytest.mark.parametrize("seed", range(4))
    def test_huge_weights_mixed_with_zero_and_one(self, low, high, seed):
        graph, _ = _mst_instance(24, seed, prob=0.35)
        rng = random.Random(seed)
        for u, v in graph.edges():
            roll = rng.random()
            weight = 0 if roll < 0.1 else 1 if roll < 0.3 else rng.randint(low, high)
            graph[u][v]["weight"] = weight
        # Powers of two sit exactly on the rounding boundaries.
        for (u, v), power in zip(list(graph.edges())[::7], range(53, 81)):
            graph[u][v]["weight"] = min(max(2 ** power, low), high)
        tree = RootedTree(minimum_spanning_tree(graph), root=min(graph.nodes()))
        _assert_tap_parity(graph, tree, seed)


# ------------------------------------------------------ differential sweep
def _tap_instance(family: str, seed: int) -> tuple[nx.Graph, RootedTree]:
    """One seeded family instance plus its rooted MST (as the TAP stage sees it)."""
    graph = sweep_instance(family, seed)
    tree = RootedTree(minimum_spanning_tree(graph), root=min(graph.nodes(), key=repr))
    return graph, tree


@pytest.mark.parametrize("family", SWEEP_FAMILIES)
class TestTapLabelsDifferentialSweep:
    """50 seeded graphs per generator family, per ported solver."""

    @pytest.mark.parametrize("symmetry_breaking", [True, False])
    def test_distributed_tap_matches_oracle(self, family, symmetry_breaking):
        """Fast distributed TAP vs the set-algebra oracle: bit-identical runs.

        Both consume the same RNG stream, so augmentation set, weight,
        iteration count and every per-iteration history record (including
        the maximum rounded cost-effectiveness fractions) must match exactly.
        """
        for seed in range(N_GRAPHS):
            graph, tree = _tap_instance(family, seed)
            fast = distributed_tap(
                graph, tree, seed=seed, symmetry_breaking=symmetry_breaking
            )
            oracle = distributed_tap_nx(
                graph, tree, seed=seed, symmetry_breaking=symmetry_breaking
            )
            assert fast.augmentation == oracle.augmentation, seed
            assert (fast.weight, fast.iterations) == (oracle.weight, oracle.iterations), seed
            assert fast.history == oracle.history, seed
            assert fast.ledger.total_rounds == oracle.ledger.total_rounds, seed

    def test_greedy_tap_matches_oracle(self, family):
        """Array-scan greedy TAP vs the per-step rescan oracle: identical output."""
        for seed in range(N_GRAPHS):
            graph, tree = _tap_instance(family, seed)
            fast, oracle = greedy_tap(graph, tree), greedy_tap_nx(graph, tree)
            assert (fast.augmentation, fast.weight, fast.steps) == (
                oracle.augmentation, oracle.weight, oracle.steps
            ), seed

    def test_random_labels_match_oracle(self, family):
        """O(m+n) XOR labelling vs the per-path oracle: identical label maps."""
        for seed in range(N_GRAPHS):
            graph = sweep_instance(family, seed)
            fast = compute_labels(graph, seed=seed)
            oracle = compute_labels_nx(graph, seed=seed)
            assert fast.bits == oracle.bits, seed
            assert fast.labels == oracle.labels, seed
            assert fast.tree_paths == oracle.tree_paths, seed

    def test_exact_labels_and_cut_pairs_match_oracle(self, family):
        """Exact covering-set labels and the cut pairs detected from them."""
        for seed in range(N_GRAPHS):
            graph = sweep_instance(family, seed)
            fast = compute_labels(graph, mode="exact")
            oracle = compute_labels_nx(graph, mode="exact")
            assert fast.labels == oracle.labels, seed
            assert fast.tree_paths == oracle.tree_paths, seed
            assert cut_pairs_from_labels(fast) == cut_pairs_from_labels(oracle), seed
