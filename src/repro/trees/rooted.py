"""A rooted spanning tree: parent pointers, depths, traversals and tree paths.

Every non-tree edge ``e = {u, v}`` of the paper's algorithms covers exactly
the tree edges on the unique tree path ``P_e`` between ``u`` and ``v``
(Section 3).  :class:`RootedTree` answers that question itself: built from
an ordered edge list (the MST's Kruskal order, a BFS's discovery order), it
keeps plain adjacency lists in that order, numbers its vertices in BFS order
(root 0) with one BFS from the root, and lazily builds one flat-array
Euler-tour index (:class:`repro.graphs.fastgraph.TreePathIndex`) over those
ids, cached on the tree, so every stage that shares the tree object -- the
segment decomposition, the TAP coverage kernel, the labelling and scoring
kernels -- shares one index.  Equal edge orders give the BFS order that
``nx.bfs_edges`` gives on an ``nx.Graph`` built from the same edges.
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

    The class holds the bookkeeping the paper's algorithms use throughout:
    parent pointers ``p(v)``, depths, subtree membership, the canonical
    tree-edge identifier ``(child, parent)``, and the BFS/DFS orders used for
    convergecasts.

    Args:
        edges: The tree's edges, in the order that fixes the order of every
            vertex's neighbours (and so the BFS order).
        root: The root vertex (the paper uses the minimum-id vertex, the
            default).  A single-vertex tree has no edges and names its
            vertex here.

    Attributes:
        index: Vertex label -> integer vertex id, the vertex's position in
            :meth:`bfs_order` (the root is 0).
        parent_ids: Vertex id -> parent vertex id (``-1`` for the root).
        parent_edges: Vertex id -> canonical tree edge to its parent
            (``None`` for the root).  Kernels that key tree edges by their
            child vertex id use it with :attr:`paths`.
    """

    def __init__(self, edges: Iterable[Edge], root: Hashable | None = None) -> None:
        if isinstance(edges, nx.Graph):
            raise TypeError("RootedTree takes an edge list: pass graph.edges(), not the graph")
        adjacency: dict[Hashable, list[Hashable]] = {}
        count = 0
        for u, v in edges:
            adjacency.setdefault(u, []).append(v)
            adjacency.setdefault(v, []).append(u)
            count += 1
        if not adjacency:
            if root is None:
                raise ValueError("cannot root an empty tree")
            adjacency[root] = []
        if count != len(adjacency) - 1:
            raise ValueError("the edges do not form a tree")
        if root is None:
            root = min(adjacency, key=repr)
        if root not in adjacency:
            raise ValueError(f"root {root!r} is not a vertex of the tree")
        self._root = root
        self._parent: dict[Hashable, Hashable | None] = {root: None}
        self._depth: dict[Hashable, int] = {root: 0}
        self._children: dict[Hashable, list[Hashable]] = {v: [] for v in adjacency}
        order = self._bfs_order = [root]
        for parent in order:
            child_depth = self._depth[parent] + 1
            for child in adjacency[parent]:
                if child not in self._parent:
                    self._parent[child] = parent
                    self._depth[child] = child_depth
                    self._children[parent].append(child)
                    order.append(child)
        if len(order) != len(adjacency):
            raise ValueError("the edges do not form a tree")
        self.index: dict[Hashable, int] = {node: i for i, node in enumerate(order)}
        parents = [self._parent[child] for child in order[1:]]
        self.parent_ids: list[int] = [-1] + [self.index[p] for p in parents]
        self.parent_edges: list[Edge | None] = [None] + [
            canonical_edge(child, p) for child, p in zip(order[1:], parents)
        ]
        self._paths: TreePathIndex | None = None

    # ------------------------------------------------------------------ basic
    @property
    def root(self) -> Hashable:
        """The root vertex."""
        return self._root

    def nodes(self) -> Iterator[Hashable]:
        """Iterate over the vertices of the tree in vertex-id (BFS) order."""
        return iter(self._bfs_order)

    def number_of_nodes(self) -> int:
        return len(self._bfs_order)

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
        return self._depth[self._bfs_order[-1]]

    # ------------------------------------------------------------------ edges
    def tree_edges(self) -> list[Edge]:
        """Return every tree edge in canonical form, in vertex-id (BFS) order."""
        return self.parent_edges[1:]

    def deeper_endpoint(self, edge: Edge) -> Hashable:
        """Return the endpoint of a tree *edge* farther from the root (the child)."""
        u, v = edge
        if u in self._parent and self._parent[u] == v:
            return u
        if v in self._parent and self._parent[v] == u:
            return v
        raise ValueError(f"{edge!r} is not a tree edge")

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
            depth = self._depth
            self._paths = TreePathIndex(
                self.parent_ids, [depth[node] for node in self._bfs_order]
            )
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
    def bfs_tree(graph: nx.Graph, root: Hashable | None = None) -> "RootedTree":
        """Build the BFS spanning tree of *graph* rooted at *root* (min-id default).

        Raises ``ValueError`` naming a vertex the BFS did not reach when
        *graph* is disconnected.
        """
        if root is None:
            root = min(graph.nodes(), key=repr)
        tree = RootedTree(nx.bfs_edges(graph, root), root=root)
        if tree.number_of_nodes() != graph.number_of_nodes():
            missing = next(node for node in graph if node not in tree.index)
            raise ValueError(
                f"bfs-tree: vertex {missing!r} is not reachable from root {root!r} "
                "(the graph is disconnected)"
            )
        return tree
