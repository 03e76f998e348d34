"""Tests for the weighted k-ECSS algorithm and the Aug_k framework (Section 4)."""

from __future__ import annotations

import math
import random

import networkx as nx
import pytest

from repro.baselines.exact import exact_k_ecss_weight
from repro.baselines.mst_baseline import k_ecss_lower_bound
from oracles import _mst_filter, augment_to_k_nx, build_subgraph, k_ecss_nx
from repro.core.k_ecss import (
    AugmentationResult,
    _forest_filter,
    _k_ecss_impl,
    augment_to_k,
    k_ecss,
)
from repro.congest.metrics import RoundLedger
from repro.graphs.connectivity import canonical_edge, is_k_edge_connected
from repro.graphs.fastgraph import ArrayUnionFind, FastGraph
from repro.graphs.generators import (
    harary_graph,
    hypercube_graph,
    random_k_edge_connected_graph,
)
from repro.mst.sequential import minimum_spanning_tree, mst_weight


class TestAugmentToK:
    def _mst_edges(self, graph):
        return frozenset(minimum_spanning_tree(graph))

    def test_raises_connectivity_from_1_to_2(self):
        graph = random_k_edge_connected_graph(14, 2, extra_edge_prob=0.3, seed=0)
        current = self._mst_edges(graph)
        result = augment_to_k(graph, current, 2, seed=0)
        combined = build_subgraph(graph, current | result.added)
        assert is_k_edge_connected(combined, 2)

    def test_a_snapshot_of_g_gives_the_same_level(self):
        graph = _relabelled(
            random_k_edge_connected_graph(16, 3, extra_edge_prob=0.3, seed=2), "mixed"
        )
        current = self._mst_edges(graph)
        on_graph = augment_to_k(graph, current, 2, seed=5)
        on_snapshot = augment_to_k(FastGraph.from_nx(graph), current, 2, seed=5)
        assert on_snapshot.added == on_graph.added
        assert on_snapshot.weight == on_graph.weight
        assert on_snapshot.metadata == on_graph.metadata
        assert on_snapshot.ledger.total_rounds == on_graph.ledger.total_rounds

    def test_added_edges_do_not_overlap_h(self):
        graph = random_k_edge_connected_graph(14, 2, extra_edge_prob=0.3, seed=1)
        current = self._mst_edges(graph)
        result = augment_to_k(graph, current, 2, seed=1)
        assert not (result.added & current)

    def test_claim_4_1_at_most_n_minus_1_edges(self):
        for seed in range(3):
            graph = random_k_edge_connected_graph(14, 3, extra_edge_prob=0.4, seed=seed)
            current = self._mst_edges(graph)
            stage2 = augment_to_k(graph, current, 2, seed=seed)
            current = frozenset(current | stage2.added)
            stage3 = augment_to_k(graph, current, 3, seed=seed)
            n = graph.number_of_nodes()
            assert len(stage2.added) <= n - 1
            assert len(stage3.added) <= n - 1

    def test_added_edges_are_acyclic_with_mst_filter(self):
        graph = random_k_edge_connected_graph(16, 2, extra_edge_prob=0.3, seed=3)
        current = self._mst_edges(graph)
        result = augment_to_k(graph, current, 2, seed=3)
        added_graph = nx.Graph(list(result.added))
        assert nx.is_forest(added_graph)

    def test_already_k_connected_subgraph_needs_nothing(self):
        graph = harary_graph(10, 3)
        all_edges = frozenset(canonical_edge(u, v) for u, v in graph.edges())
        result = augment_to_k(graph, all_edges, 3, seed=0)
        assert result.added == frozenset()
        assert result.iterations == 0

    @pytest.mark.parametrize("level_solver", [augment_to_k, augment_to_k_nx])
    def test_no_cut_metadata_names_the_level(self, level_solver):
        graph = harary_graph(10, 3)
        all_edges = frozenset(canonical_edge(u, v) for u, v in graph.edges())
        early = level_solver(graph, all_edges, 3, seed=0)
        assert early.metadata == {"cuts": 0, "history": [], "k": 3}
        full = level_solver(graph, self._mst_edges(graph), 2, seed=0)
        assert full.metadata["k"] == 2
        assert set(early.metadata) == set(full.metadata)

    def test_history_and_ledger_are_consistent(self):
        graph = random_k_edge_connected_graph(12, 2, extra_edge_prob=0.3, seed=4)
        result = augment_to_k(graph, self._mst_edges(graph), 2, seed=4)
        assert result.iterations == len(result.metadata["history"])
        assert result.ledger.count("aug-iteration") == result.iterations
        assert result.ledger.count("aug-state-broadcast") == 1

    def test_without_mst_filter_still_valid(self):
        graph = random_k_edge_connected_graph(12, 2, extra_edge_prob=0.3, seed=5)
        current = self._mst_edges(graph)
        result = augment_to_k(graph, current, 2, seed=5, use_mst_filter=False)
        combined = build_subgraph(graph, current | result.added)
        assert is_k_edge_connected(combined, 2)

    def test_probability_schedule_starts_small_and_grows(self):
        graph = random_k_edge_connected_graph(14, 2, extra_edge_prob=0.3, seed=6)
        result = augment_to_k(graph, self._mst_edges(graph), 2, seed=6)
        history = result.metadata["history"]
        assert history[0].probability <= 1.0 / graph.number_of_edges() * 2
        assert all(entry.probability <= 1.0 for entry in history)

    def test_max_iterations_guard(self):
        graph = random_k_edge_connected_graph(12, 2, extra_edge_prob=0.3, seed=7)
        with pytest.raises(RuntimeError):
            augment_to_k(graph, self._mst_edges(graph), 2, seed=7, max_iterations=1)


def _relabelled(graph: nx.Graph, labels: str) -> nx.Graph:
    """*graph* with int, str (``v<i>``) or mixed (odd ids as str) labels."""
    if labels == "int":
        return graph
    return nx.relabel_nodes(
        graph, {v: f"v{v}" for v in graph if labels == "str" or v % 2}
    )


class TestForestFilter:
    """The persistent union-find filter against the rebuilt-MST oracle."""

    @pytest.mark.parametrize("labels", ["int", "str", "mixed"])
    def test_matches_mst_filter_on_random_forests(self, labels):
        for seed in range(6):
            rng = random.Random(seed)
            graph = _relabelled(
                random_k_edge_connected_graph(18, 3, extra_edge_prob=0.3, seed=seed),
                labels,
            )
            pool = [canonical_edge(u, v) for u, v in graph.edges()]
            rng.shuffle(pool)
            node_id = {node: i for i, node in enumerate(graph.nodes())}
            ends = [(node_id[u], node_id[v]) for u, v in pool]
            edges, order = FastGraph.from_nx(graph).canonical_edges()
            position = dict(zip(edges, order))
            rank = [position[edge] for edge in pool]

            # A random forest A: a random prefix of a random spanning forest.
            spanning_forest = ArrayUnionFind(len(node_id))
            spanning = [j for j in range(len(pool)) if spanning_forest.union(*ends[j])]
            forest = ArrayUnionFind(len(node_id))
            added: set = set()
            for j in spanning[: rng.randrange(len(spanning))]:
                forest.union(*ends[j])
                added.add(pool[j])

            # Several rounds on the same forest, as Aug_k runs them.
            for _ in range(4):
                free = [j for j in range(len(pool)) if pool[j] not in added]
                active_ids = sorted(
                    rng.sample(free, rng.randrange(1, len(free) + 1)),
                    key=lambda j: repr(pool[j]),
                )
                active = [pool[j] for j in active_ids]
                expected = _mst_filter(graph, added, active)
                kept = _forest_filter(forest, ends, rank, active_ids)
                assert [pool[j] for j in kept] == expected
                added.update(expected)
                assert nx.is_forest(nx.Graph(list(added)))


class TestKEcss:
    def test_k_equal_one_returns_a_spanning_tree_of_mst_weight(self):
        graph = random_k_edge_connected_graph(15, 2, extra_edge_prob=0.2, seed=8)
        result = k_ecss(graph, 1, seed=8)
        assert result.num_edges == graph.number_of_nodes() - 1
        assert result.weight == mst_weight(graph)
        ok, reason = result.verify()
        assert ok, reason

    @pytest.mark.parametrize("k", [2, 3])
    def test_output_is_k_edge_connected(self, k):
        graph = random_k_edge_connected_graph(12, k, extra_edge_prob=0.35, seed=10 + k)
        result = k_ecss(graph, k, seed=k)
        ok, reason = result.verify()
        assert ok, reason
        assert result.k == k

    def test_k4_on_a_small_instance(self):
        graph = random_k_edge_connected_graph(10, 4, extra_edge_prob=0.4, seed=20)
        result = k_ecss(graph, 4, seed=20)
        ok, reason = result.verify()
        assert ok, reason

    def test_k5_on_the_hypercube_covers_4_edge_cuts(self):
        graph = hypercube_graph(5)  # n = 32, 5-regular, edge connectivity 5
        result = k_ecss(graph, 5, seed=5)
        ok, reason = result.verify()
        assert ok, reason
        # Every edge is needed, and Aug_5 had 4-edge cuts of H to cover.
        assert result.num_edges == graph.number_of_edges()
        assert result.metadata["stages"][-1]["level"] == 5
        assert result.metadata["stages"][-1]["cuts"] > 0

    def test_weight_between_lower_bound_and_klogn_times_optimum(self):
        graph = random_k_edge_connected_graph(12, 3, extra_edge_prob=0.4, seed=21)
        result = k_ecss(graph, 3, seed=21)
        optimum = exact_k_ecss_weight(graph, 3)
        lower = k_ecss_lower_bound(graph, 3)
        assert lower <= optimum <= result.weight
        assert result.weight <= 3 * math.log2(graph.number_of_nodes()) * optimum

    def test_stage_metadata_matches_claim_2_1(self, weighted_k3_graph):
        result = k_ecss(weighted_k3_graph, 3, seed=22)
        stages = result.metadata["stages"]
        assert [stage["level"] for stage in stages] == [1, 2, 3]
        assert sum(stage["weight"] for stage in stages) == result.weight
        n = weighted_k3_graph.number_of_nodes()
        assert all(stage["added"] <= n - 1 for stage in stages)

    def test_rounds_below_theorem_bound(self, weighted_k3_graph):
        result = k_ecss(weighted_k3_graph, 3, seed=23)
        assert result.rounds <= result.metadata["round_bound"]

    def test_rejects_invalid_inputs(self):
        graph = random_k_edge_connected_graph(10, 2, extra_edge_prob=0.3, seed=24)
        with pytest.raises(ValueError):
            k_ecss(graph, 0)
        cycle = nx.cycle_graph(10)  # exactly 2-edge-connected: 3-ECSS is infeasible
        with pytest.raises(ValueError):
            k_ecss(cycle, 3)

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_mixed_labels_match_the_oracle(self, k):
        for seed in range(2):
            graph = _relabelled(
                random_k_edge_connected_graph(16, k, extra_edge_prob=0.3, seed=seed),
                "mixed",
            )
            fast = k_ecss(graph, k, seed=seed)
            oracle = k_ecss_nx(graph, k, seed=seed)
            assert fast.edges == oracle.edges
            assert (fast.weight, fast.iterations) == (oracle.weight, oracle.iterations)
            assert fast.metadata["stages"] == oracle.metadata["stages"]

    def test_deterministic_given_seed(self, weighted_k3_graph):
        a = k_ecss(weighted_k3_graph, 3, seed=99)
        b = k_ecss(weighted_k3_graph, 3, seed=99)
        assert a.edges == b.edges


class TestComposeAugmentations:
    """The Claim 2.1 loop of ``_k_ecss_impl``: the MST, then the level solver."""

    @staticmethod
    def _stub_solver(calls, added=lambda fast, current, level: frozenset()):
        def stub(fast, current, level, **options):
            calls.append((fast, current, level, sorted(options)))
            ledger = RoundLedger()
            ledger.add("stage", 5)
            edges = added(fast, current, level)
            return AugmentationResult(
                added=edges, weight=len(edges), iterations=2, ledger=ledger
            )

        return stub

    def test_level_one_is_the_mst_and_the_rest_go_to_the_level_solver(self):
        graph = harary_graph(8, 4)
        calls: list = []
        result = _k_ecss_impl(graph, 3, 0, 2, True, self._stub_solver(calls))
        mst = frozenset(minimum_spanning_tree(graph))
        assert [level for _, _, level, _ in calls] == [2, 3]
        assert all(isinstance(fast, FastGraph) for fast, _, _, _ in calls)
        assert calls[0][0] is calls[1][0]
        assert all(current == mst for _, current, _, _ in calls)
        assert calls[0][3] == ["cost_model", "schedule_constant", "seed", "use_mst_filter"]
        assert result.edges == mst
        assert result.metadata["stages"][0] == {
            "level": 1, "added": len(mst), "weight": mst_weight(graph),
            "iterations": 1, "cuts": None,
        }

    def test_overlapping_stage_output_rejected(self):
        graph = harary_graph(8, 2)

        def overlap(fast, current, level):
            return frozenset(list(current)[:1])

        with pytest.raises(RuntimeError, match="Aug_2 returned 1 edges already present in H"):
            _k_ecss_impl(graph, 2, 0, 2, True, self._stub_solver([], overlap))

    def test_build_subgraph_copies_weights(self):
        graph = nx.Graph()
        graph.add_edge(0, 1, weight=5)
        graph.add_edge(1, 2, weight=7)
        subgraph = build_subgraph(graph, [(0, 1)])
        assert subgraph[0][1]["weight"] == 5
        assert subgraph.number_of_nodes() == 3
        assert subgraph.number_of_edges() == 1

    def test_composition_accumulates_ledgers_and_iterations(self):
        graph = harary_graph(8, 4)

        def some_new_edges(fast, current, level):
            return frozenset(
                canonical_edge(u, v) for u, v in graph.edges() if (u + v + level) % 7 == 0
            ) - current

        result = _k_ecss_impl(graph, 3, 0, 2, True, self._stub_solver([], some_new_edges))
        stages = result.metadata["stages"]
        assert result.iterations == 1 + 2 + 2
        assert result.ledger.by_label()["stage"] == 10
        assert [entry.label for entry in result.ledger.entries][:2] == [
            "mst-kutten-peleg", "aug-1-compose",
        ]
        assert [result.ledger.count(f"aug-{level}-compose") for level in (1, 2, 3)] == [1, 1, 1]
        assert [stage["level"] for stage in stages] == [1, 2, 3]
        assert sum(stage["added"] for stage in stages) == len(result.edges)
