"""Tests for cycle space sampling, labels and cut-pair detection (Section 5.1)."""

from __future__ import annotations

import itertools
import random

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from _helpers import shuffled_string_copy
from oracles import _labels_nx, compute_labels_nx
from repro.cycle_space.circulation import (
    fundamental_cycle,
    is_binary_circulation,
    random_circulation,
)
from repro.cycle_space.cut_pairs import (
    covered_cut_pairs,
    cut_pairs_from_labels,
    exact_cut_pairs,
    is_cut_pair,
    label_multiplicities,
)
from repro.cycle_space.labels import CycleSpace, compute_labels, draw_labels
from repro.graphs.connectivity import canonical_edge
from repro.graphs.generators import cycle_with_chords, harary_graph
from repro.trees.rooted import RootedTree


class TestCirculations:
    def test_cycle_is_a_circulation(self):
        graph = nx.cycle_graph(6)
        assert is_binary_circulation(graph, graph.edges())

    def test_single_edge_is_not(self):
        graph = nx.cycle_graph(6)
        assert not is_binary_circulation(graph, [(0, 1)])

    def test_unknown_edge_rejected(self):
        graph = nx.cycle_graph(4)
        with pytest.raises(KeyError):
            is_binary_circulation(graph, [(0, 2)])

    def test_fundamental_cycle_contains_the_edge_and_its_path(self):
        graph = cycle_with_chords(8, extra_edges=0)
        tree = RootedTree.bfs_tree(graph, root=0)
        non_tree = next(
            canonical_edge(u, v)
            for u, v in graph.edges()
            if canonical_edge(u, v) not in set(tree.tree_edges())
        )
        cycle = fundamental_cycle(tree, non_tree)
        assert non_tree in cycle
        assert is_binary_circulation(graph, cycle)

    @given(seed=st.integers(0, 300))
    @settings(max_examples=25, deadline=None)
    def test_property_random_circulation_has_even_degrees(self, seed):
        graph = cycle_with_chords(12, extra_edges=5, seed=seed)
        tree = RootedTree.bfs_tree(graph, root=0)
        circulation = random_circulation(graph, tree, seed=seed)
        assert is_binary_circulation(graph, circulation)


class TestLabels:
    def test_exact_labels_characterise_cut_pairs(self):
        graph = cycle_with_chords(12, extra_edges=4, seed=3)
        labelling = compute_labels(graph, mode="exact")
        edges = [canonical_edge(u, v) for u, v in graph.edges()]
        for e, f in itertools.combinations(edges, 2):
            same_label = labelling.labels[e] == labelling.labels[f]
            assert same_label == is_cut_pair(graph, e, f)

    def test_random_labels_error_is_one_sided(self):
        graph = cycle_with_chords(14, extra_edges=5, seed=4)
        labelling = compute_labels(graph, bits=32, seed=4)
        truth = exact_cut_pairs(graph)
        detected = cut_pairs_from_labels(labelling)
        # Every true cut pair is detected (no false negatives, Lemma 5.4).
        assert truth <= detected

    def test_wide_labels_are_exact_whp(self):
        graph = cycle_with_chords(16, extra_edges=6, seed=5)
        labelling = compute_labels(graph, seed=5)  # default ~4 log n + 8 bits
        assert cut_pairs_from_labels(labelling) == exact_cut_pairs(graph)

    def test_narrow_labels_produce_false_positives_eventually(self):
        graph = cycle_with_chords(16, extra_edges=8, seed=6)
        truth = exact_cut_pairs(graph)
        false_positive_seen = False
        for seed in range(30):
            labelling = compute_labels(graph, bits=1, seed=seed)
            if cut_pairs_from_labels(labelling) - truth:
                false_positive_seen = True
                break
        assert false_positive_seen

    def test_tree_edge_label_is_xor_of_covering_edges(self):
        graph = cycle_with_chords(10, extra_edges=3, seed=7)
        labelling = compute_labels(graph, bits=16, seed=7)
        tree_edges = set(labelling.tree.tree_edges())
        for t in tree_edges:
            expected = 0
            for non_tree in labelling.non_tree_edges():
                if t in labelling.covering_path(non_tree):
                    expected ^= labelling.labels[non_tree]
            assert labelling.labels[t] == expected

    def test_each_bit_is_a_circulation(self):
        graph = cycle_with_chords(10, extra_edges=4, seed=8)
        labelling = compute_labels(graph, bits=8, seed=8)
        for bit in range(8):
            edges_with_bit = [
                edge for edge, label in labelling.labels.items() if (label >> bit) & 1
            ]
            assert is_binary_circulation(graph, edges_with_bit)

    def test_label_accessor_and_validation(self):
        graph = cycle_with_chords(8, extra_edges=2, seed=9)
        labelling = compute_labels(graph, bits=8, seed=9)
        u, v = next(iter(graph.edges()))
        assert labelling.label(u, v) == labelling.label(v, u)
        with pytest.raises(ValueError):
            compute_labels(graph, mode="bogus")
        single = nx.Graph()
        single.add_node(0)
        with pytest.raises(ValueError):
            compute_labels(single)

    def test_disconnected_graph_names_an_unreached_vertex(self):
        # Used to die with a bare KeyError: 4 inside the labelling.
        graph = nx.disjoint_union(nx.cycle_graph(4), nx.cycle_graph(3))
        with pytest.raises(ValueError, match="vertex 4 is not reachable from root 0"):
            compute_labels(graph, seed=1)


def _shuffled_string_graph(n: int, rng: random.Random) -> nx.Graph:
    """A 2-edge-connected graph with string names and shuffled insertion orders."""
    base = cycle_with_chords(n, extra_edges=n // 3, seed=rng.randrange(1 << 30))
    return shuffled_string_copy(base, rng.randrange(1 << 30))


#: Label settings of the parity property: widths 1, 10, the default and a
#: multi-word 100, plus exact (covering-set) labels.
_LABEL_SETTINGS = [
    {"bits": 1}, {"bits": 10}, {"bits": None}, {"bits": 100}, {"mode": "exact"},
]


class TestCycleSpaceOrder:
    @given(seed=st.integers(0, 10_000), n=st.integers(4, 14))
    @settings(max_examples=30, deadline=None)
    def test_property_appended_space_labels_in_append_order(self, seed, n):
        # A CycleSpace draws one label per non-tree edge: the graph's in
        # graph.edges() order, then every appended edge in append order
        # (tree edges skipped) -- the order a 3-ECSS redraw of H ∪ A uses.
        rng = random.Random(seed)
        graph = _shuffled_string_graph(n, rng)
        tree = RootedTree.bfs_tree(graph)
        tree_edges = set(tree.tree_edges())
        nodes = list(graph.nodes())
        extra = [tuple(rng.sample(nodes, 2)) for _ in range(rng.randrange(6))]
        extra = list({canonical_edge(*e): e for e in extra if not graph.has_edge(*e)}.values())
        order = [
            edge for edge in (canonical_edge(u, v) for u, v in graph.edges())
            if edge not in tree_edges
        ] + [canonical_edge(*e) for e in extra]
        for setting in _LABEL_SETTINGS:
            space = CycleSpace(graph.edges(), tree)
            space.add_edges(extra[:1])
            space.add_edges(extra[1:])
            fast_rng, oracle_rng = random.Random(seed), random.Random(seed)
            fast = compute_labels(space, seed=fast_rng, **setting)
            bits = fast.bits
            labels, _ = _labels_nx(order, tree, bits, setting.get("mode", "random"), oracle_rng)
            assert fast.non_tree_edges() == order
            assert fast.labels == labels
            assert fast_rng.getstate() == oracle_rng.getstate()

    def test_draw_labels_continues_the_one_hot_positions(self):
        assert draw_labels(3, 0, random.Random(1), start=2) == [4, 8, 16]
        rng, again = random.Random(5), random.Random(5)
        assert draw_labels(4, 12, rng) == [again.getrandbits(12) for _ in range(4)]

    def test_random_labels_need_a_positive_width(self):
        graph = cycle_with_chords(8, extra_edges=2, seed=1)
        with pytest.raises(ValueError, match="bits"):
            compute_labels(graph, bits=0, seed=1)

    @pytest.mark.parametrize("mode", ["random", "exact"])
    def test_nx_input_matches_the_oracle(self, mode):
        for seed in range(5):
            graph = _shuffled_string_graph(12, random.Random(seed))
            fast = compute_labels(graph, mode=mode, seed=seed)
            oracle = compute_labels_nx(graph, mode=mode, seed=seed)
            assert fast.labels == oracle.labels
            assert fast.bits == oracle.bits
            assert fast.tree_paths == oracle.tree_paths

    def test_space_brings_its_own_tree(self):
        graph = cycle_with_chords(8, extra_edges=2, seed=1)
        space = CycleSpace(graph.edges(), RootedTree.bfs_tree(graph))
        assert compute_labels(space, tree=space.tree, seed=1).labels == (
            compute_labels(graph, seed=1).labels
        )
        with pytest.raises(ValueError, match="own tree"):
            compute_labels(space, tree=RootedTree.bfs_tree(graph, root=3))

    def test_labelling_keeps_its_edge_set_after_add_edges(self):
        graph = cycle_with_chords(10, extra_edges=1, seed=2)
        assert not graph.has_edge(0, 5) and not graph.has_edge(2, 7)
        space = CycleSpace(graph.edges(), RootedTree.bfs_tree(graph))
        before = compute_labels(space, seed=3)
        edges = before.non_tree_edges()
        space.add_edges([(0, 5), (2, 7)])
        assert len(space.edges) == len(edges) + 2
        assert before.non_tree_edges() == edges
        assert set(before.labels) == {canonical_edge(u, v) for u, v in graph.edges()}


class TestCutPairHelpers:
    def test_label_multiplicities_count_edges(self):
        graph = nx.cycle_graph(5)
        labelling = compute_labels(graph, mode="exact")
        counts = label_multiplicities(labelling)
        # All 5 edges of a cycle share the single non-tree edge as their cover,
        # except the non-tree edge itself whose label is the singleton set.
        assert sum(counts.values()) == graph.number_of_edges()
        assert max(counts.values()) == 5

    def test_three_edge_connected_graph_has_no_cut_pairs(self):
        graph = harary_graph(10, 3)
        assert exact_cut_pairs(graph) == set()

    def test_is_cut_pair_ground_truth(self):
        graph = nx.cycle_graph(6)
        assert is_cut_pair(graph, (0, 1), (3, 4))
        triangle_rich = harary_graph(8, 4)
        assert not is_cut_pair(triangle_rich, (0, 1), (2, 3))

    def test_covered_cut_pairs_matches_brute_force(self):
        graph = cycle_with_chords(10, extra_edges=2, seed=11)
        full = nx.complete_graph(10)
        labelling = compute_labels(graph, mode="exact")
        truth = exact_cut_pairs(graph)
        for candidate in [(0, 5), (1, 6), (2, 7)]:
            if graph.has_edge(*candidate):
                continue
            expected = 0
            for pair in truth:
                pruned = graph.copy()
                pruned.remove_edges_from(pair)
                pruned.add_edge(*candidate)
                if nx.is_connected(pruned):
                    expected += 1
            assert covered_cut_pairs(labelling, candidate) == expected
        del full
