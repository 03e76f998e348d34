"""A rooted spanning tree: parent pointers, depths, traversals and tree paths.

Every non-tree edge ``e = {u, v}`` of the paper's algorithms covers exactly
the tree edges on the unique tree path ``P_e`` between ``u`` and ``v``
(Section 3).  :class:`RootedTree` answers that question itself: it numbers
its vertices in BFS order (root 0) and lazily builds one flat-array
Euler-tour index (:class:`repro.graphs.fastgraph.TreePathIndex`) over those
ids, cached on the tree, so every stage that shares the tree object -- the
segment decomposition, the TAP coverage kernel, the labelling and scoring
kernels -- shares one index.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Iterator

import networkx as nx

from repro.graphs.connectivity import canonical_edge
from repro.graphs.fastgraph import TreePathIndex

Edge = tuple[Hashable, Hashable]

__all__ = ["RootedTree"]


class RootedTree:
    """An undirected spanning tree rooted at a designated vertex.

    The class wraps a ``networkx.Graph`` tree with the bookkeeping the paper's
    algorithms use throughout: parent pointers ``p(v)``, depths, subtree
    membership, the canonical tree-edge identifier ``(child, parent)``, and the
    BFS/DFS orders used for convergecasts.

    Args:
        tree: A connected acyclic graph (a tree).
        root: The root vertex (the paper uses the minimum-id vertex).

    Attributes:
        index: Vertex label -> integer vertex id, the vertex's position in
            :meth:`bfs_order` (the root is 0).
        parent_edges: Vertex id -> canonical tree edge to its parent
            (``None`` for the root).  Kernels that key tree edges by their
            child vertex id use it with :attr:`paths`.
    """

    def __init__(self, tree: nx.Graph, root: Hashable | None = None) -> None:
        if tree.number_of_nodes() == 0:
            raise ValueError("cannot root an empty tree")
        if tree.number_of_edges() != tree.number_of_nodes() - 1 or not nx.is_connected(tree):
            raise ValueError("input graph is not a tree")
        if root is None:
            root = min(tree.nodes(), key=repr)
        if root not in tree:
            raise ValueError(f"root {root!r} is not a vertex of the tree")
        self._tree = tree
        self._root = root
        self._parent: dict[Hashable, Hashable | None] = {root: None}
        self._depth: dict[Hashable, int] = {root: 0}
        self._children: dict[Hashable, list[Hashable]] = {v: [] for v in tree.nodes()}
        self._bfs_order: list[Hashable] = [root]
        for parent, child in nx.bfs_edges(tree, root):
            self._parent[child] = parent
            self._depth[child] = self._depth[parent] + 1
            self._children[parent].append(child)
            self._bfs_order.append(child)
        self.index: dict[Hashable, int] = {
            node: i for i, node in enumerate(self._bfs_order)
        }
        self.parent_edges: list[Edge | None] = [None] + [
            canonical_edge(child, self._parent[child]) for child in self._bfs_order[1:]
        ]
        self._paths: TreePathIndex | None = None

    # ------------------------------------------------------------------ basic
    @property
    def root(self) -> Hashable:
        """The root vertex."""
        return self._root

    @property
    def graph(self) -> nx.Graph:
        """The underlying undirected tree."""
        return self._tree

    def nodes(self) -> Iterator[Hashable]:
        """Iterate over the vertices of the tree."""
        return iter(self._tree.nodes())

    def number_of_nodes(self) -> int:
        return self._tree.number_of_nodes()

    def parent(self, node: Hashable) -> Hashable | None:
        """Return ``p(node)``, or ``None`` for the root."""
        return self._parent[node]

    def depth(self, node: Hashable) -> int:
        """Return the distance from *node* to the root."""
        return self._depth[node]

    def children(self, node: Hashable) -> list[Hashable]:
        """Return the children of *node* (in BFS discovery order)."""
        return list(self._children[node])

    def height(self) -> int:
        """Return the height of the tree (max depth)."""
        return max(self._depth.values())

    # ------------------------------------------------------------------ edges
    def tree_edges(self) -> list[Edge]:
        """Return every tree edge in canonical (sorted-endpoint) form."""
        return [canonical_edge(u, v) for u, v in self._tree.edges()]

    def deeper_endpoint(self, edge: Edge) -> Hashable:
        """Return the endpoint of a tree *edge* farther from the root (the child)."""
        u, v = edge
        if not self._tree.has_edge(u, v):
            raise ValueError(f"{edge!r} is not a tree edge")
        return u if self._depth[u] > self._depth[v] else v

    # -------------------------------------------------------------- traversal
    def bfs_order(self) -> list[Hashable]:
        """Vertices in BFS (top-down) order from the root."""
        return list(self._bfs_order)

    def leaves_to_root_order(self) -> list[Hashable]:
        """Vertices in an order where every child precedes its parent."""
        return list(reversed(self._bfs_order))

    def is_ancestor(self, ancestor: Hashable, node: Hashable) -> bool:
        """Return ``True`` iff *ancestor* lies on the path from *node* to the root."""
        if self._depth[ancestor] > self._depth[node]:
            return False
        current = node
        while current is not None and self._depth[current] > self._depth[ancestor]:
            current = self._parent[current]
        return current == ancestor

    def subtree_nodes(self, node: Hashable) -> set[Hashable]:
        """Return the vertex set of the subtree rooted at *node*."""
        result = set()
        stack = [node]
        while stack:
            current = stack.pop()
            result.add(current)
            stack.extend(self._children[current])
        return result

    def path_vertices_to_ancestor(self, node: Hashable, ancestor: Hashable) -> list[Hashable]:
        """Return the vertices on the path from *node* up to *ancestor* (inclusive)."""
        if not self.is_ancestor(ancestor, node):
            raise ValueError(f"{ancestor!r} is not an ancestor of {node!r}")
        vertices = [node]
        current = node
        while current != ancestor:
            current = self._parent[current]
            vertices.append(current)
        return vertices

    # ------------------------------------------------------------ tree paths
    @property
    def paths(self) -> TreePathIndex:
        """The Euler-tour path index over the vertex ids (built once, on first use).

        Building it is ``O(n log n)``; ``lca`` is then ``O(1)`` and path
        extraction ``O(|path|)`` per query.
        """
        if self._paths is None:
            index, parent_of, order = self.index, self._parent, self._bfs_order
            parent = [-1] + [index[parent_of[node]] for node in order[1:]]
            self._paths = TreePathIndex(parent, [self._depth[node] for node in order])
        return self._paths

    def lca(self, u: Hashable, v: Hashable) -> Hashable:
        """Return the lowest common ancestor of *u* and *v*."""
        return self._bfs_order[self.paths.lca(self.index[u], self.index[v])]

    def tree_path_edges(self, u: Hashable, v: Hashable) -> list[Edge]:
        """Return the tree edges on the unique path between *u* and *v*.

        This is the set ``S_e`` of cuts of size 1 covered by the non-tree edge
        ``e = {u, v}`` in the weighted-TAP algorithm: edges from *u* up to the
        LCA first, then edges from *v* up to the LCA.
        """
        parent_edges = self.parent_edges
        return [
            parent_edges[child]
            for child in self.paths.path_edges(self.index[u], self.index[v])
        ]

    # ----------------------------------------------------------- construction
    @staticmethod
    def from_edges(edges: Iterable[Edge], root: Hashable | None = None) -> "RootedTree":
        """Build a :class:`RootedTree` from an iterable of edges."""
        tree = nx.Graph()
        tree.add_edges_from(edges)
        return RootedTree(tree, root=root)

    @staticmethod
    def bfs_tree(graph: nx.Graph, root: Hashable | None = None) -> "RootedTree":
        """Build the BFS spanning tree of *graph* rooted at *root* (min-id default)."""
        if root is None:
            root = min(graph.nodes(), key=repr)
        tree = nx.Graph()
        tree.add_node(root)
        for parent, child in nx.bfs_edges(graph, root):
            tree.add_edge(parent, child)
        return RootedTree(tree, root=root)
