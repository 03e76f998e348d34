"""Tests for the segment decomposition and skeleton tree (Section 3.2)."""

from __future__ import annotations

import math

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.decomposition.marking import lca_closure, mark_vertices
from repro.decomposition.segments import build_decomposition
from repro.graphs.connectivity import canonical_edge
from repro.graphs.generators import random_k_edge_connected_graph
from repro.mst.distributed import build_mst_with_fragments

from _helpers import random_tree
from oracles import skeleton_as_networkx


def _pipeline(n: int, seed: int):
    graph = random_k_edge_connected_graph(n, 2, extra_edge_prob=0.2, seed=seed)
    stage = build_mst_with_fragments(graph, simulate_bfs=False)
    decomposition = build_decomposition(stage.mst, stage.fragments)
    return graph, stage, decomposition


class TestLcaClosure:
    def test_already_closed_set_is_unchanged(self, path_tree):
        assert lca_closure(path_tree, {0, 3, 7}) == {0, 3, 7}

    def test_adds_missing_lcas(self, star_tree):
        closed = lca_closure(star_tree, {3, 7})
        assert closed == {0, 3, 7}

    def test_empty_input(self, path_tree):
        assert lca_closure(path_tree, []) == set()

    @given(n=st.integers(3, 50), seed=st.integers(0, 300))
    @settings(max_examples=20, deadline=None)
    def test_property_closure_is_closed_under_pairwise_lca(self, n, seed):
        tree = random_tree(n, seed)
        import random as _random

        rng = _random.Random(seed)
        sample = {rng.randrange(n) for _ in range(min(6, n))}
        closed = lca_closure(tree, sample)
        for a in closed:
            for b in closed:
                assert tree.lca(a, b) in closed
        # The closure adds at most |sample| - 1 vertices.
        assert len(closed) <= 2 * max(len(sample), 1)


class TestMarkedVertices:
    def test_lemma_3_4_properties(self):
        for seed in range(3):
            graph, stage, _ = _pipeline(49, seed)
            marked = mark_vertices(stage.mst, stage.fragments)
            n = graph.number_of_nodes()
            # (1) the root is marked.
            assert stage.mst.root in marked
            # (2) closed under pairwise LCA.
            marked_list = sorted(marked, key=repr)
            for a in marked_list:
                for b in marked_list:
                    assert stage.mst.lca(a, b) in marked
            # (3) O(sqrt n) marked vertices: endpoints of <= 2 sqrt(n) global
            # edges plus at most that many LCAs.
            global_edges = stage.fragments.global_edges()
            assert len(marked) <= 4 * len(global_edges) + 2
            assert len(global_edges) <= math.isqrt(n) + 1


class TestSegments:
    def test_structural_validation_passes(self):
        for seed in range(3):
            _, _, decomposition = _pipeline(36, seed)
            assert decomposition.validate() == []

    def test_segment_count_is_o_sqrt_n(self):
        _, stage, decomposition = _pipeline(81, 7)
        n = stage.mst.number_of_nodes()
        # segments <= 2 * |marked| <= 2 (4 |global edges| + 1) = O(sqrt n).
        assert decomposition.segment_count() <= 10 * math.isqrt(n) + 4

    def test_max_segment_diameter_is_o_sqrt_n(self):
        _, stage, decomposition = _pipeline(81, 8)
        n = stage.mst.number_of_nodes()
        assert decomposition.max_segment_diameter() <= 6 * math.isqrt(n) + 2

    def test_segment_roots_are_ancestors_of_their_vertices(self):
        _, stage, decomposition = _pipeline(40, 9)
        for segment in decomposition.segments:
            for vertex in segment.vertices:
                assert stage.mst.is_ancestor(segment.root, vertex)

    def test_highways_run_from_root_to_descendant(self):
        _, stage, decomposition = _pipeline(40, 10)
        for segment in decomposition.segments:
            if not segment.has_highway:
                assert segment.root == segment.descendant
                continue
            assert segment.highway_vertices[0] == segment.root
            assert segment.highway_vertices[-1] == segment.descendant
            # Consecutive highway vertices are parent/child in the MST.
            for parent, child in zip(segment.highway_vertices, segment.highway_vertices[1:]):
                assert stage.mst.parent(child) == parent

    def test_segment_ids_are_marked_pairs(self):
        _, _, decomposition = _pipeline(40, 11)
        for segment in decomposition.segments:
            assert segment.root in decomposition.marked
            assert segment.descendant in decomposition.marked

    def test_every_vertex_has_a_home_segment(self):
        _, stage, decomposition = _pipeline(40, 12)
        for vertex in stage.mst.nodes():
            segment = decomposition.segment_of(vertex)
            assert vertex in segment

    def test_internal_vertices_touch_only_their_segment(self):
        _, stage, decomposition = _pipeline(40, 13)
        for segment in decomposition.segments:
            for vertex in segment.internal_vertices():
                neighbors = stage.mst.children(vertex) + [stage.mst.parent(vertex)]
                for neighbor in neighbors:
                    assert neighbor is None or neighbor in segment.vertices

    def test_segments_of_edge_partition(self):
        _, stage, decomposition = _pipeline(30, 14)
        for edge in stage.mst.tree_edges():
            segment = decomposition.segments_of_edge(edge)
            u, v = edge
            assert u in segment.vertices and v in segment.vertices

    def test_single_vertex_graph_corner_case(self):
        graph = nx.Graph()
        graph.add_node(0)
        stage = build_mst_with_fragments(graph, simulate_bfs=False)
        decomposition = build_decomposition(stage.mst, stage.fragments)
        assert decomposition.segment_count() >= 1
        assert decomposition.segment_of(0) is not None


class TestSkeletonTree:
    def test_nodes_are_the_marked_vertices(self):
        _, _, decomposition = _pipeline(40, 15)
        assert decomposition.skeleton.nodes() == decomposition.marked

    def test_edges_correspond_to_highways(self):
        _, _, decomposition = _pipeline(40, 16)
        highway_ids = {
            canonical_edge(s.root, s.descendant)
            for s in decomposition.segments
            if s.has_highway
        }
        assert set(decomposition.skeleton.edges()) == highway_ids

    def test_skeleton_is_a_tree(self):
        _, _, decomposition = _pipeline(60, 17)
        skeleton_graph = skeleton_as_networkx(decomposition.skeleton)
        assert nx.is_connected(skeleton_graph)
        assert skeleton_graph.number_of_edges() == skeleton_graph.number_of_nodes() - 1

    def test_expand_path_matches_tree_path(self):
        _, stage, decomposition = _pipeline(60, 18)
        tree = decomposition.tree
        marked = sorted(decomposition.marked, key=repr)
        for a in marked[:5]:
            for b in marked[-5:]:
                expanded = decomposition.skeleton.expand_path_to_tree_edges(a, b)
                expected = tree.tree_path_edges(a, b)
                assert sorted(expanded) == sorted(expected)

    def test_path_endpoints_must_be_marked(self):
        _, stage, decomposition = _pipeline(30, 19)
        unmarked = next(
            v for v in stage.mst.nodes() if v not in decomposition.marked
        )
        some_marked = next(iter(decomposition.marked))
        with pytest.raises(KeyError):
            decomposition.skeleton.path(unmarked, some_marked)

    def test_skeleton_depth_and_parent(self):
        _, stage, decomposition = _pipeline(50, 20)
        skeleton = decomposition.skeleton
        assert skeleton.parent(skeleton.root) is None
        assert skeleton.depth(skeleton.root) == 0
        for node in skeleton.nodes():
            parent = skeleton.parent(node)
            if parent is not None:
                assert skeleton.depth(node) == skeleton.depth(parent) + 1
                # Skeleton parents are proper tree ancestors.
                assert stage.mst.is_ancestor(parent, node)
