"""Tests for RootedTree: bookkeeping, integer vertex ids, LCA and tree paths."""

from __future__ import annotations

import random

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.three_ecss import three_ecss
from repro.core.two_ecss import two_ecss
from repro.graphs.connectivity import canonical_edge
from repro.graphs.fastgraph import TreePathIndex
from repro.graphs.generators import grid_torus, make_family
from repro.trees.rooted import RootedTree

from _helpers import random_tree, random_tree_edges
from oracles import bfs_tree_nx


class TestRootedTreeConstruction:
    def test_rejects_non_tree(self):
        with pytest.raises(ValueError, match="do not form a tree"):
            RootedTree(nx.cycle_graph(4).edges())

    def test_rejects_disconnected_forest(self):
        with pytest.raises(ValueError, match="do not form a tree"):
            RootedTree([(0, 1), (2, 3)])

    def test_rejects_forest_with_n_minus_1_edges(self):
        # Four edges on five vertices, but a triangle plus a separate edge.
        with pytest.raises(ValueError, match="do not form a tree"):
            RootedTree([(0, 1), (1, 2), (2, 0), (3, 4)])

    def test_rejects_a_graph_in_place_of_its_edges(self):
        with pytest.raises(TypeError, match=r"graph\.edges\(\)"):
            RootedTree(nx.path_graph(["ab", "bc"]))

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="empty"):
            RootedTree([])

    def test_rejects_foreign_root(self):
        with pytest.raises(ValueError, match="99"):
            RootedTree([(0, 1), (1, 2)], root=99)

    def test_default_root_is_minimum_id(self):
        tree = RootedTree([(3, 4), (1, 2), (0, 1), (2, 3)])
        assert tree.root == 0

    def test_single_vertex_tree(self):
        tree = RootedTree([], root=7)
        assert tree.root == 7
        assert tree.height() == 0
        assert tree.tree_edges() == []
        assert tree.bfs_order() == [7]
        assert tree.parent_edges == [None]

    def test_rooted_at_any_vertex(self):
        tree = RootedTree([(0, 1), (1, 2)], root=2)
        assert tree.root == 2
        assert tree.depth(0) == 2

    def test_tree_edges_follow_the_vertex_ids(self):
        tree = RootedTree([(2, 1), (0, 2), (3, 0)])
        assert tree.bfs_order() == [0, 2, 3, 1]
        assert tree.tree_edges() == [(0, 2), (0, 3), (1, 2)]
        assert tree.parent_ids == [-1, 0, 0, 1]

    @given(
        n=st.integers(min_value=1, max_value=30),
        seed=st.integers(0, 10_000),
        root_choice=st.integers(0, 10_000),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_matches_networkx_bfs(self, n, seed, root_choice):
        """Shuffled edge orders, mixed int/str labels: same BFS as networkx."""
        rng = random.Random(seed)
        labels = [i if rng.random() < 0.5 else f"v{i}" for i in range(n)]
        edges = [(labels[i], labels[rng.randrange(i)]) for i in range(1, n)]
        edges = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in edges]
        rng.shuffle(edges)
        root = labels[root_choice % n]
        tree = RootedTree(edges, root=root)
        order, parent = bfs_tree_nx(edges, root)
        assert tree.bfs_order() == order
        assert {node: tree.parent(node) for node in order} == parent
        for node in order:
            assert tree.children(node) == [w for w in order if parent[w] == node]
        assert tree.parent_edges == [None] + [
            canonical_edge(node, parent[node]) for node in order[1:]
        ]
        assert tree.parent_ids == [-1] + [order.index(parent[node]) for node in order[1:]]


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

    def test_bfs_tree_matches_networkx_bfs_on_the_graph(self):
        graph = make_family("weighted-sparse")(64, seed=3)
        tree = RootedTree.bfs_tree(graph)
        root = min(graph.nodes())
        assert tree.bfs_order() == [root] + [v for _, v in nx.bfs_edges(graph, root)]

    def test_bfs_tree_rejects_a_disconnected_graph(self):
        graph = nx.disjoint_union(nx.cycle_graph(4), nx.cycle_graph(3))
        with pytest.raises(ValueError, match="vertex 4 is not reachable from root 0"):
            RootedTree.bfs_tree(graph)
        with pytest.raises(ValueError, match=r"vertex 0 is not reachable from root 5 \(the graph"):
            RootedTree.bfs_tree(graph, root=5)


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
                    nx.bfs_tree(nx.Graph(random_tree_edges(30, seed)), 0),
                    root=0,
                    pairs=pairs,
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
        tree = RootedTree([("a", 1), (1, 2), (2, "b"), ("b", 4)], root=1)
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
        expected = nx.shortest_path_length(nx.Graph(random_tree_edges(n, seed)), u, v)
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
