"""Tests for RootedTree: bookkeeping, integer vertex ids, LCA and tree paths."""

from __future__ import annotations

import random

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.three_ecss import three_ecss
from repro.core.two_ecss import two_ecss
from repro.graphs.fastgraph import TreePathIndex
from repro.graphs.generators import grid_torus, make_family
from repro.trees.rooted import RootedTree

from _helpers import random_tree


class TestRootedTreeConstruction:
    def test_rejects_non_tree(self):
        with pytest.raises(ValueError):
            RootedTree(nx.cycle_graph(4))

    def test_rejects_disconnected_forest(self):
        forest = nx.Graph()
        forest.add_edges_from([(0, 1), (2, 3)])
        with pytest.raises(ValueError):
            RootedTree(forest)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            RootedTree(nx.Graph())

    def test_rejects_foreign_root(self):
        with pytest.raises(ValueError):
            RootedTree(nx.path_graph(3), root=99)

    def test_default_root_is_minimum_id(self):
        tree = RootedTree(nx.path_graph(5))
        assert tree.root == 0

    def test_single_vertex_tree(self):
        graph = nx.Graph()
        graph.add_node(7)
        tree = RootedTree(graph)
        assert tree.root == 7
        assert tree.height() == 0
        assert tree.tree_edges() == []


class TestRootedTreeQueries:
    def test_parents_and_depths_on_path(self, path_tree):
        assert path_tree.parent(0) is None
        assert path_tree.parent(5) == 4
        assert path_tree.depth(9) == 9
        assert path_tree.height() == 9

    def test_children_on_star(self, star_tree):
        assert sorted(star_tree.children(0)) == list(range(1, 10))
        assert star_tree.children(3) == []

    def test_deeper_endpoint(self, path_tree):
        assert path_tree.deeper_endpoint((3, 4)) == 4
        with pytest.raises(ValueError):
            path_tree.deeper_endpoint((0, 9))

    def test_is_ancestor(self, path_tree):
        assert path_tree.is_ancestor(0, 9)
        assert path_tree.is_ancestor(4, 4)
        assert not path_tree.is_ancestor(5, 4)

    def test_subtree_nodes(self, star_tree, path_tree):
        assert star_tree.subtree_nodes(0) == set(range(10))
        assert star_tree.subtree_nodes(4) == {4}
        assert path_tree.subtree_nodes(7) == {7, 8, 9}

    def test_path_vertices_to_ancestor(self, path_tree):
        assert path_tree.path_vertices_to_ancestor(4, 1) == [4, 3, 2, 1]
        with pytest.raises(ValueError):
            path_tree.path_vertices_to_ancestor(1, 4)

    def test_bfs_and_leaves_to_root_order(self, path_tree):
        order = path_tree.bfs_order()
        assert order[0] == 0
        assert set(order) == set(range(10))
        reverse = path_tree.leaves_to_root_order()
        assert reverse[-1] == 0
        # Every child appears before its parent in leaves-to-root order.
        position = {node: i for i, node in enumerate(reverse)}
        for node in path_tree.nodes():
            parent = path_tree.parent(node)
            if parent is not None:
                assert position[node] < position[parent]

    def test_bfs_tree_from_graph(self):
        graph = nx.cycle_graph(8)
        tree = RootedTree.bfs_tree(graph, root=0)
        assert tree.root == 0
        assert tree.number_of_nodes() == 8
        # BFS depths match shortest path distances.
        for node in graph.nodes():
            assert tree.depth(node) == nx.shortest_path_length(graph, 0, node)

    def test_from_edges(self):
        tree = RootedTree.from_edges([(0, 1), (1, 2)], root=2)
        assert tree.root == 2
        assert tree.depth(0) == 2


class TestRootedTreeIndex:
    def test_vertex_ids_follow_bfs_order(self, star_tree):
        order = star_tree.bfs_order()
        assert star_tree.index == {node: i for i, node in enumerate(order)}
        assert star_tree.index[star_tree.root] == 0

    def test_parent_edges_are_canonical_child_edges(self, path_tree):
        edges = path_tree.parent_edges
        assert edges[path_tree.index[0]] is None
        assert edges[path_tree.index[4]] == (3, 4)
        assert sorted(e for e in edges if e is not None) == sorted(path_tree.tree_edges())

    def test_path_index_is_built_lazily_once(self, monkeypatch):
        built = TestSolversBuildOnePathIndex._count_builds(monkeypatch)
        tree = random_tree(20, 3)
        assert built == []
        paths = tree.paths
        tree.lca(1, 2)
        tree.tree_path_edges(3, 4)
        assert tree.paths is paths
        assert built == [20]

    def test_path_index_mirrors_parents_and_depths(self):
        tree = random_tree(25, 8)
        paths = tree.paths
        for node, vid in tree.index.items():
            parent = tree.parent(node)
            assert paths.parent[vid] == (-1 if parent is None else tree.index[parent])
            assert paths.depth[vid] == tree.depth(node)


class TestRootedTreePaths:
    def test_path_tree_lca_is_shallower_vertex(self, path_tree):
        assert path_tree.lca(3, 8) == 3
        assert path_tree.lca(8, 3) == 3
        assert path_tree.lca(5, 5) == 5

    def test_star_tree_lca_is_centre(self, star_tree):
        assert star_tree.lca(3, 7) == 0
        assert star_tree.lca(0, 7) == 0

    def test_matches_networkx_on_random_trees(self):
        for seed in range(5):
            tree = random_tree(30, seed)
            pairs = [(a, b) for a in range(0, 30, 7) for b in range(3, 30, 5)]
            expected = dict(
                nx.tree_all_pairs_lowest_common_ancestor(
                    nx.bfs_tree(tree.graph, tree.root), root=tree.root, pairs=pairs
                )
            )
            for pair, answer in expected.items():
                assert tree.lca(*pair) == answer

    def test_tree_path_edges(self, path_tree):
        assert path_tree.tree_path_edges(2, 5) == [(4, 5), (3, 4), (2, 3)]
        assert path_tree.tree_path_edges(4, 4) == []

    def test_distance(self, path_tree, star_tree):
        for tree, (u, v), expected in ((path_tree, (2, 9), 7), (star_tree, (1, 2), 2)):
            assert tree.paths.distance(tree.index[u], tree.index[v]) == expected

    def test_mixed_label_tree(self):
        tree = RootedTree(nx.relabel_nodes(nx.path_graph(5), {0: "a", 3: "b"}), root=1)
        assert tree.lca("a", 4) == 1
        # Mixed endpoints are ordered by repr, as canonical_edge does.
        assert tree.tree_path_edges("a", "b") == [("a", 1), ("b", 2), (1, 2)]

    @given(n=st.integers(min_value=2, max_value=40), seed=st.integers(0, 1000))
    @settings(max_examples=25, deadline=None)
    def test_property_path_edges_form_the_unique_tree_path(self, n, seed):
        tree = random_tree(n, seed)
        rng = random.Random(seed)
        u, v = rng.randrange(n), rng.randrange(n)
        edges = tree.tree_path_edges(u, v)
        expected = nx.shortest_path_length(tree.graph, u, v)
        assert len(edges) == expected == tree.paths.distance(tree.index[u], tree.index[v])
        # The edges really form a u-v path in the tree.
        if edges:
            path_graph = nx.Graph(edges)
            assert nx.has_path(path_graph, u, v)
            assert path_graph.number_of_edges() == expected


class TestSolversBuildOnePathIndex:
    """Every stage of a solve shares its tree's cached path index."""

    @staticmethod
    def _count_builds(monkeypatch) -> list:
        built = []
        original = TreePathIndex.__init__

        def counting(self, parent, depth):
            built.append(len(parent))
            original(self, parent, depth)

        monkeypatch.setattr(TreePathIndex, "__init__", counting)
        return built

    def test_two_ecss_indexes_the_mst_once(self, monkeypatch):
        graph = make_family("weighted-sparse")(256, 1)
        built = self._count_builds(monkeypatch)
        two_ecss(graph, seed=1)
        assert built == [256]

    def test_three_ecss_indexes_the_bfs_tree_once(self, monkeypatch):
        graph = grid_torus(16, 16)
        built = self._count_builds(monkeypatch)
        three_ecss(graph, seed=1)
        assert built == [256]
