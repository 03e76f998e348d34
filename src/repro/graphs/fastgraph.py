"""Flat-array CSR graph kernel for the solver hot paths.

Every solver in :mod:`repro.core` bottoms out in the same verification and
enumeration primitives -- connectivity checks, bridge finding, cut-pair
and small-cut enumeration, MST union-find, BFS/diameter -- and going
through networkx's hashable-node dict-of-dicts representation makes those
primitives pay for Python dict traffic rather than algorithmic work.

:class:`FastGraph` is an integer-relabelled compressed-sparse-row view of an
undirected graph: vertices are ``0..n-1``, edges are ``0..m-1``, and the
adjacency structure is three flat lists (``indptr``, ``adj``, ``adj_eid``).
All kernels below are loops over those flat lists:

* :meth:`FastGraph.bridges` -- iterative (non-recursive) Tarjan low-link,
  safe for deep graphs that would blow the Python recursion limit;
  :meth:`FastGraph.bridge_sides` reads every bridge's side off the same
  DFS as a preorder interval;
* :meth:`FastGraph.cut_pairs` -- the exact spanning-tree covering-set
  characterisation of Claim 5.6 on exact integer cover bitmasks;
* :meth:`FastGraph.cuts_of_size` / :meth:`FastGraph.has_cut_triple` --
  exact, seed-free enumeration of cuts of size ``s >= 3`` on graphs with
  ``2 * lambda > s``: cycle-space XOR labels propose a superset of the cuts
  by hash lookup, and the exact cover bitmasks confirm each candidate in
  the cut space, where a non-empty element of size ``s`` is then exactly
  one cut.  Every cut's side is read off a preorder of the spanning tree
  as at most ``s + 1`` intervals; no search runs per cut;
* :meth:`FastGraph.hop_diameter` -- the exact hop diameter from three BFS
  sweeps plus one bit-parallel (64 sources per ``uint64`` word) NumPy BFS
  over the vertices whose eccentricity bound survives the sweeps, with no
  all-pairs distance matrix; :meth:`FastGraph.eccentricity` is one sweep;
* :class:`ArrayUnionFind` -- path-compressed, size-united union-find over
  plain lists, shared by Kruskal and the k-ECSS Line 4 forest filter;
* :class:`TreePathIndex` -- Euler-tour LCA (sparse-table RMQ, O(1) per
  query) plus ancestor-array tree-path extraction over integer parent/depth
  arrays, one pair at a time (``path_edges``) or for whole arrays of pairs
  at once as a NumPy CSR (``path_csr``); every
  :class:`~repro.trees.rooted.RootedTree` (built from an ordered edge list,
  with no networkx graph behind it) builds one lazily (``tree.paths``) from
  its own ``parent_ids``, and its LCA/path queries, the TAP coverage kernel
  (:mod:`repro.tap.fastcover`) and the labelling kernels all run on it.

``from_nx`` / ``to_nx`` converters preserve node labels (``labels[i]`` is the
original label of vertex ``i``), so the kernel slots under the existing
networkx-facing APIs without changing any observable output: the networkx
implementations are the reference oracles in ``tests/oracles.py``.  A solve
converts its input once: :func:`~repro.graphs.connectivity.check_solver_input`
returns the snapshot, and every function that reads a graph through
:meth:`FastGraph.of` -- the connectivity and cut queries, ``hop_diameter``,
the TAP kernel -- takes that snapshot as it is and converts anything else.
"""

from __future__ import annotations

import itertools
import random
from collections import deque
from typing import Hashable, Iterable, Iterator, NamedTuple, Sequence

import networkx as nx
import numpy as np

__all__ = [
    "ArrayUnionFind",
    "CUT_LABEL_BITS",
    "FastGraph",
    "TreePathIndex",
    "canonical_edge",
    "concat_ranges",
    "hop_diameter",
]

Edge = tuple[Hashable, Hashable]

#: Width (at most 64) of the cycle-space labels that propose candidate cuts
#: (:meth:`FastGraph.cuts_of_size`).  Every candidate is confirmed exactly in
#: the cut space, so any width gives the same cuts; narrower labels only let
#: more false candidates through to the confirmation.
CUT_LABEL_BITS = 64
#: Seed of the fixed label draw; like the width, it cannot change a result.
CUT_LABEL_SEED = 0
#: Label lookups made per NumPy pass of :meth:`FastGraph._cut_candidates`.
_LOOKUP_BLOCK = 1 << 18


def canonical_edge(u: Hashable, v: Hashable) -> Edge:
    """Return the endpoints of an undirected edge in a canonical (sorted) order.

    Falls back to ordering by ``repr`` when the endpoints are not mutually
    comparable (e.g. mixed int/str node labels).
    """
    try:
        return (u, v) if u <= v else (v, u)
    except TypeError:
        return (u, v) if repr(u) <= repr(v) else (v, u)


class TreePathIndex:
    """Euler-tour LCA and tree-path extraction over integer arrays.

    Vertices are ``0..n-1``; *parent* maps each vertex to its parent id
    (``-1`` for the unique root) and *depth* to its distance from the root.
    Construction is an iterative Euler tour plus a sparse table over it
    (O(n log n)); ``lca`` is two RMQ lookups (O(1)) and ``path_edges``
    returns the path as the *child endpoints* of its tree edges, so callers
    that key tree edges by their child vertex (every solver kernel does)
    never touch a hashable edge object.
    """

    __slots__ = ("n", "parent", "depth", "root", "_first", "_table", "_logs", "_arrays")

    def __init__(self, parent: Sequence[int], depth: Sequence[int]) -> None:
        self.parent = list(parent)
        self.depth = list(depth)
        n = len(self.parent)
        self.n = n
        children: list[list[int]] = [[] for _ in range(n)]
        root = -1
        for v, p in enumerate(self.parent):
            if p < 0:
                if root >= 0:
                    raise ValueError("parent array has more than one root")
                root = v
            else:
                children[p].append(v)
        if root < 0:
            raise ValueError("parent array has no root")
        self.root = root

        # Iterative Euler tour: every vertex is appended on entry and again
        # after each child returns, so any (u, v) range of the tour contains
        # their LCA as its minimum-depth entry.
        euler: list[int] = [root]
        first = [-1] * n
        first[root] = 0
        stack_v = [root]
        stack_ci = [0]
        while stack_v:
            v = stack_v[-1]
            ci = stack_ci[-1]
            kids = children[v]
            if ci < len(kids):
                stack_ci[-1] = ci + 1
                w = kids[ci]
                first[w] = len(euler)
                euler.append(w)
                stack_v.append(w)
                stack_ci.append(0)
            else:
                stack_v.pop()
                stack_ci.pop()
                if stack_v:
                    euler.append(stack_v[-1])
        self._first = first

        # Sparse table for range-minimum (by depth) over the tour.
        m = len(euler)
        logs = [0] * (m + 1)
        for i in range(2, m + 1):
            logs[i] = logs[i >> 1] + 1
        self._logs = logs
        depth_of = self.depth
        table = [euler]
        level = 1
        while (1 << level) <= m:
            prev = table[-1]
            half = 1 << (level - 1)
            row = [0] * (m - (1 << level) + 1)
            for i in range(len(row)):
                a, b = prev[i], prev[i + half]
                row[i] = a if depth_of[a] <= depth_of[b] else b
            table.append(row)
            level += 1
        self._table = table
        self._arrays: tuple[np.ndarray, ...] | None = None

    def lca(self, u: int, v: int) -> int:
        """The lowest common ancestor of vertices *u* and *v*."""
        left, right = self._first[u], self._first[v]
        if left > right:
            left, right = right, left
        level = self._logs[right - left + 1]
        a = self._table[level][left]
        b = self._table[level][right - (1 << level) + 1]
        return a if self.depth[a] <= self.depth[b] else b

    def distance(self, u: int, v: int) -> int:
        """The number of tree edges between *u* and *v*."""
        return self.depth[u] + self.depth[v] - 2 * self.depth[self.lca(u, v)]

    def path_edges(self, u: int, v: int) -> list[int]:
        """Tree edges on the ``u``-``v`` path, as child-endpoint vertex ids.

        The order matches ``RootedTree.tree_path_edges``: first the edges
        climbing from *u* to the LCA, then those climbing from *v*.
        """
        if u == v:
            return []
        ancestor = self.lca(u, v)
        parent = self.parent
        out: list[int] = []
        x = u
        while x != ancestor:
            out.append(x)
            x = parent[x]
        x = v
        while x != ancestor:
            out.append(x)
            x = parent[x]
        return out

    def arrays(self) -> tuple[np.ndarray, ...]:
        """``(parent, depth, first, logs, min_depth)`` as NumPy arrays, built on first use.

        ``min_depth[level, i]`` is the depth of the minimum-depth vertex of
        the Euler-tour window ``[i, i + 2^level)`` -- the sparse table
        :meth:`lca` reads, as depths, zero-padded to one rectangle -- and
        ``logs[w]`` is ``floor(log2(w))``.  All are int32: they hold vertex
        ids, depths and tour positions, all below ``2n``.
        """
        if self._arrays is None:
            table = np.zeros((len(self._table), len(self._table[0])), dtype=np.int32)
            for level, row in enumerate(self._table):
                table[level, :len(row)] = row
            depth = np.asarray(self.depth, dtype=np.int32)
            self._arrays = (
                np.asarray(self.parent, dtype=np.int32),
                depth,
                np.asarray(self._first, dtype=np.int32),
                np.asarray(self._logs, dtype=np.int32),
                depth[table],
            )
        return self._arrays

    def path_csr(
        self, us: Sequence[int] | np.ndarray, vs: Sequence[int] | np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """The tree paths of many vertex pairs at once, as a CSR pair.

        Returns ``(indptr, child)``: the path of pair ``i`` is
        ``child[indptr[i]:indptr[i + 1]]``, element for element equal to
        ``path_edges(us[i], vs[i])`` (``indptr`` is int64, ``child`` int32).

        No per-pair Python loop and no sort of path entries: one vectorised
        sparse-table lookup gives every LCA depth, so each side's length --
        and with a cumulative sum every slot -- is known up front.  The 2q
        sides (u-side and v-side of every pair) are ordered once by length,
        longest first, so the sides still climbing at step ``s`` are a
        prefix; a scatter climb then moves that prefix one step up per
        NumPy pass, writing the vertex each side leaves into its slot
        ``s``.  The climb takes as many passes as the longest side.
        """
        parent, depth, first, logs, min_depth = self.arrays()
        q = len(us)
        # Temporaries are int32 and dropped as soon as they are used: on
        # dense graphs q is large, and they would otherwise set the peak.
        start = np.concatenate((us, vs)).astype(np.int32)
        order = first[start]
        left = np.minimum(order[:q], order[q:])
        right = np.maximum(order[:q], order[q:])
        del order
        level = logs[right - left + 1]
        right -= (1 << level) - 1
        top = np.minimum(min_depth[level, left], min_depth[level, right])
        del left, right, level
        length = depth[start]
        length[:q] -= top
        length[q:] -= top
        indptr = np.zeros(q + 1, dtype=np.int64)
        (length[:q] + length[q:]).cumsum(dtype=np.int64, out=indptr[1:])
        child = np.empty(indptr[-1], dtype=np.int32)

        by_length = (-length).argsort()
        node = start[by_length]
        slot = np.concatenate((indptr[:-1], indptr[:-1] + length[:q]))[by_length]
        # climbing[s]: how many sides are longer than s.
        climbing = np.bincount(length)[:0:-1].cumsum()[::-1].tolist()
        del start, length, by_length
        for step, k in enumerate(climbing):
            child[slot[:k] + step] = node[:k]
            node[:k] = parent[node[:k]]
        return indptr, child


class _CutTree(NamedTuple):
    """A spanning tree of a :class:`FastGraph` as the cut methods read it.

    Vertex-indexed: ``parent``/``parent_eid`` (-1 at the root), ``order``
    (preorder), ``first`` (preorder position) and ``size`` (subtree vertex
    count).  Edge-indexed: ``child_of`` (the child endpoint of a tree edge,
    -1 for a non-tree edge) and ``cover`` (the bitmask of the non-tree edges
    covering a tree edge, 0 for a non-tree edge).
    """

    parent: list[int]
    parent_eid: list[int]
    child_of: list[int]
    order: list[int]
    first: list[int]
    size: list[int]
    cover: list[int]


class ArrayUnionFind:
    """Union-find over ``0..n-1`` with path compression and union by size."""

    __slots__ = ("parent", "size", "components")

    def __init__(self, n: int) -> None:
        self.parent = list(range(n))
        self.size = [1] * n
        self.components = n

    def find(self, item: int) -> int:
        parent = self.parent
        root = item
        while parent[root] != root:
            root = parent[root]
        while parent[item] != root:
            parent[item], item = root, parent[item]
        return root

    def union(self, a: int, b: int) -> bool:
        """Merge the sets of *a* and *b*; returns False when already joined."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        size = self.size
        if size[ra] < size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        size[ra] += size[rb]
        self.components -= 1
        return True


class FastGraph:
    """An integer-relabelled CSR snapshot of an undirected networkx graph.

    Attributes:
        n: Number of vertices (ids ``0..n-1``).
        m: Number of edges (ids ``0..m-1``, in ``graph.edges()`` order).
        labels: Vertex id -> original node label.
        tail / head: Edge id -> endpoint vertex ids (as encountered).
        weight: Edge id -> integer ``weight`` attribute (1 when absent).
        indptr: CSR row pointer, length ``n + 1``.
        adj: Neighbour vertex id per adjacency slot (length ``2m``).
        adj_eid: Edge id per adjacency slot (length ``2m``).
    """

    __slots__ = (
        "n", "m", "labels", "tail", "head", "weight",
        "indptr", "adj", "adj_eid", "_cut_space", "_canonical",
    )

    def __init__(
        self,
        labels: Sequence[Hashable],
        edges: Iterable[tuple[int, int, int]],
    ) -> None:
        """Build from relabelled data: *edges* yields ``(u, v, weight)`` ids."""
        self.labels = list(labels)
        self.n = len(self.labels)
        tail: list[int] = []
        head: list[int] = []
        weight: list[int] = []
        degree = [0] * self.n
        for u, v, w in edges:
            tail.append(u)
            head.append(v)
            weight.append(w)
            degree[u] += 1
            degree[v] += 1
        self.tail, self.head, self.weight = tail, head, weight
        self.m = len(tail)
        indptr = [0] * (self.n + 1)
        for v in range(self.n):
            indptr[v + 1] = indptr[v] + degree[v]
        cursor = indptr[:-1].copy()
        adj = [0] * (2 * self.m)
        adj_eid = [0] * (2 * self.m)
        for eid in range(self.m):
            u, v = tail[eid], head[eid]
            slot = cursor[u]
            adj[slot], adj_eid[slot] = v, eid
            cursor[u] = slot + 1
            slot = cursor[v]
            adj[slot], adj_eid[slot] = u, eid
            cursor[v] = slot + 1
        self.indptr, self.adj, self.adj_eid = indptr, adj, adj_eid
        self._cut_space: _CutTree | None = None
        self._canonical: tuple[list[Edge], list[int]] | None = None

    # ------------------------------------------------------------ converters
    @classmethod
    def of(cls, graph: "nx.Graph | FastGraph") -> "FastGraph":
        """*graph* itself when it is a snapshot, else :meth:`from_nx` of it."""
        return graph if isinstance(graph, FastGraph) else cls.from_nx(graph)

    @classmethod
    def from_nx(cls, graph: nx.Graph) -> "FastGraph":
        """Snapshot *graph* (node order = ``graph.nodes()``, edge order = ``graph.edges()``)."""
        labels = list(graph.nodes())
        index = {label: i for i, label in enumerate(labels)}
        edges = (
            (index[u], index[v], data.get("weight", 1))
            for u, v, data in graph.edges(data=True)
        )
        return cls(labels, edges)

    def to_nx(self) -> nx.Graph:
        """Rebuild a networkx graph with the original node labels and weights."""
        graph = nx.Graph()
        graph.add_nodes_from(self.labels)
        labels = self.labels
        for eid in range(self.m):
            graph.add_edge(
                labels[self.tail[eid]], labels[self.head[eid]],
                weight=self.weight[eid],
            )
        return graph

    def edge_labels(self, eid: int) -> tuple[Hashable, Hashable]:
        """The original-label endpoints of edge *eid*."""
        return self.labels[self.tail[eid]], self.labels[self.head[eid]]

    def canonical_edges(self) -> tuple[list[Edge], list[int]]:
        """``(edges, rank)``: per edge id, its :func:`canonical_edge` and its sort position.

        ``rank`` orders the canonical edges as tuples, or by ``repr`` when
        the labels do not compare -- the tie order of Kruskal in
        :func:`repro.mst.sequential.minimum_spanning_tree`.  Built on first
        use; the snapshot never changes.
        """
        if self._canonical is None:
            labels = self.labels
            edges = [
                canonical_edge(labels[u], labels[v]) for u, v in zip(self.tail, self.head)
            ]
            try:
                order = sorted(range(self.m), key=edges.__getitem__)
            except TypeError:
                keys = [repr(edge) for edge in edges]
                order = sorted(range(self.m), key=keys.__getitem__)
            rank = [0] * self.m
            for position, eid in enumerate(order):
                rank[eid] = position
            self._canonical = (edges, rank)
        return self._canonical

    # ------------------------------------------------------------ basic facts
    def degree(self, v: int) -> int:
        return self.indptr[v + 1] - self.indptr[v]

    def min_degree(self) -> int:
        if self.n == 0:
            return 0
        indptr = self.indptr
        return min(indptr[v + 1] - indptr[v] for v in range(self.n))

    # -------------------------------------------------------------------- BFS
    def bfs_levels(self, source: int) -> list[int]:
        """Hop distance from *source* to every vertex (-1 when unreachable).

        Level-synchronous frontier BFS: the inner loop iterates a CSR slice,
        which is a flat C-level list walk.
        """
        dist = [-1] * self.n
        dist[source] = 0
        frontier = [source]
        indptr, adj = self.indptr, self.adj
        level = 0
        while frontier:
            level += 1
            next_frontier: list[int] = []
            for v in frontier:
                for w in adj[indptr[v]:indptr[v + 1]]:
                    if dist[w] < 0:
                        dist[w] = level
                        next_frontier.append(w)
            frontier = next_frontier
        return dist

    def eccentricity(self, source: int) -> int:
        """Maximum hop distance from *source*; raises on a disconnected graph."""
        dist = self.bfs_levels(source)
        furthest = max(dist)
        if min(dist) < 0:
            raise ValueError("graph is not connected; eccentricity is infinite")
        return furthest

    def hop_diameter(self) -> int:
        """The exact hop diameter; raises when the graph is empty or disconnected.

        Eccentricity-bound pruning (Takes & Kosters, CIKM 2011): three BFS
        sweeps -- from vertex 0, from its farthest vertex ``a``, and from
        the midpoint ``c`` of a longest ``a``-``b`` path out of ``a`` --
        give a lower bound ``LB`` (the largest eccentricity seen) and, for
        every vertex ``v``, the upper bound
        ``ub(v) = min_s ecc(s) + d(s, v)`` over the swept sources.  Only
        vertices with ``ub(v) > LB`` can raise the diameter; one
        bit-parallel BFS from all of them (:meth:`_max_eccentricity`)
        settles the rest.  No ``n x n`` distance matrix is ever built.
        """
        n = self.n
        if n == 0:
            raise ValueError("diameter of an empty graph is undefined")
        if n == 1:
            return 0
        dist0 = self.bfs_levels(0)
        if min(dist0) < 0:
            raise ValueError("graph is not connected; eccentricity is infinite")
        ecc0 = max(dist0)
        a = dist0.index(ecc0)
        dist_a = self.bfs_levels(a)
        ecc_a = max(dist_a)
        # Walk back from the farthest vertex b to the middle of the a-b path.
        indptr, adj = self.indptr, self.adj
        c = dist_a.index(ecc_a)
        while dist_a[c] > ecc_a // 2:
            step = dist_a[c] - 1
            c = next(w for w in adj[indptr[c]:indptr[c + 1]] if dist_a[w] == step)
        dist_c = self.bfs_levels(c)
        ecc_c = max(dist_c)
        lower = max(ecc0, ecc_a, ecc_c)
        candidates = [
            v for v in range(n)
            if min(ecc0 + dist0[v], ecc_a + dist_a[v], ecc_c + dist_c[v]) > lower
        ]
        if not candidates:
            return lower
        return max(lower, self._max_eccentricity(candidates))

    def _max_eccentricity(self, sources: Sequence[int]) -> int:
        """The largest eccentricity among *sources* (graph connected, n >= 2).

        Bit-parallel BFS: ``reach[v]`` holds one bit per source (64 sources
        per ``uint64`` word), and one level ORs every vertex's neighbour
        rows together with a single ``np.bitwise_or.reduceat`` over the CSR
        ``adj`` slices.  A block of sources is done when every source's bit
        is set on all ``n`` rows; its level count is its largest
        eccentricity.  Blocks are sized so the per-level ``2m x words``
        gather stays within the ``n x n x 8`` bytes of an all-pairs
        distance matrix.
        """
        n = self.n
        adj = np.asarray(self.adj, dtype=np.intp)
        starts = np.asarray(self.indptr[:-1], dtype=np.intp)
        words_per_block = max(1, (n * n) // len(adj))
        block = 64 * words_per_block
        best = 0
        for first in range(0, len(sources), block):
            chunk = np.asarray(sources[first:first + block], dtype=np.intp)
            words = (len(chunk) + 63) // 64
            bits = np.arange(len(chunk))
            reach = np.zeros((n, words), dtype=np.uint64)
            reach[chunk, bits >> 6] = np.left_shift(
                np.uint64(1), (bits & 63).astype(np.uint64)
            )
            full = np.full(words, np.iinfo(np.uint64).max, dtype=np.uint64)
            if len(chunk) & 63:
                full[-1] = np.uint64((1 << (len(chunk) & 63)) - 1)
            levels = 0
            while not np.array_equal(np.bitwise_and.reduce(reach, axis=0), full):
                reach |= np.bitwise_or.reduceat(reach[adj], starts, axis=0)
                levels += 1
            best = max(best, levels)
        return best

    def is_connected(self) -> bool:
        if self.n == 0:
            return False
        seen = self._component_of(0)
        return len(seen) == self.n

    def _component_of(self, source: int) -> list[int]:
        """Vertex ids of the connected component containing *source*."""
        seen = [False] * self.n
        seen[source] = True
        queue = deque([source])
        members = [source]
        indptr, adj = self.indptr, self.adj
        while queue:
            v = queue.popleft()
            for slot in range(indptr[v], indptr[v + 1]):
                w = adj[slot]
                if not seen[w]:
                    seen[w] = True
                    members.append(w)
                    queue.append(w)
        return members

    def connected_components(self) -> list[list[int]]:
        """Connected components as vertex-id lists, in first-vertex order."""
        comp = [-1] * self.n
        components: list[list[int]] = []
        indptr, adj = self.indptr, self.adj
        for start in range(self.n):
            if comp[start] >= 0:
                continue
            label = len(components)
            comp[start] = label
            members = [start]
            queue = deque([start])
            while queue:
                v = queue.popleft()
                for slot in range(indptr[v], indptr[v + 1]):
                    w = adj[slot]
                    if comp[w] < 0:
                        comp[w] = label
                        members.append(w)
                        queue.append(w)
            components.append(members)
        return components

    # ---------------------------------------------------------------- bridges
    def bridges(self) -> list[int]:
        """Edge ids of all bridges (iterative Tarjan low-link, any # components)."""
        return [eid for eid, _ in self._bridge_dfs()[0]]

    def bridge_sides(self) -> list[tuple[int, list[int]]]:
        """Every bridge of a connected graph with its smaller side, as vertex ids.

        On a tie the side is the one holding the bridge's ``tail`` endpoint.
        One DFS: a bridge is a DFS tree edge, so the side below it is the
        preorder interval of its child endpoint's subtree, and the side above
        it is the rest of the preorder.  Same bridges, in the same order, as
        :meth:`bridges`; raises when the graph is disconnected.
        """
        found, order, first, size = self._bridge_dfs()
        tail, n = self.tail, self.n
        if n and size[0] != n:
            raise ValueError("graph is not connected; a bridge does not split it in two")
        sides: list[tuple[int, list[int]]] = []
        for eid, child in found:
            low, high = first[child], first[child] + size[child]
            if 2 * size[child] != n:
                below = 2 * size[child] < n
            else:
                below = tail[eid] == child
            sides.append((eid, order[low:high] if below else order[:low] + order[high:]))
        return sides

    def _bridge_dfs(
        self,
    ) -> tuple[list[tuple[int, int]], list[int], list[int], list[int]]:
        """Iterative Tarjan low-link over every component.

        Returns ``(found, order, first, size)``: ``found`` lists each bridge
        as ``(edge id, child endpoint)``; ``order`` is the DFS preorder,
        ``first[v]`` the position of ``v`` in it and ``size[v]`` the vertex
        count of the DFS subtree of ``v``, so a subtree is the interval
        ``order[first[v]:first[v] + size[v]]``.
        """
        n = self.n
        first = [-1] * n  # preorder position; -1 = unvisited
        low = [0] * n
        size = [1] * n
        order: list[int] = []
        found: list[tuple[int, int]] = []
        indptr, adj, adj_eid = self.indptr, self.adj, self.adj_eid
        # Explicit DFS stack: per frame the vertex, the edge id to its parent
        # and the next adjacency slot to scan.
        stack_v: list[int] = []
        stack_peid: list[int] = []
        stack_slot: list[int] = []
        for root in range(n):
            if first[root] >= 0:
                continue
            first[root] = low[root] = len(order)
            order.append(root)
            stack_v.append(root)
            stack_peid.append(-1)
            stack_slot.append(indptr[root])
            while stack_v:
                v = stack_v[-1]
                slot = stack_slot[-1]
                if slot < indptr[v + 1]:
                    stack_slot[-1] = slot + 1
                    eid = adj_eid[slot]
                    if eid == stack_peid[-1]:
                        continue  # the tree edge back to the parent
                    w = adj[slot]
                    if first[w] >= 0:
                        if first[w] < low[v]:
                            low[v] = first[w]
                    else:
                        first[w] = low[w] = len(order)
                        order.append(w)
                        stack_v.append(w)
                        stack_peid.append(eid)
                        stack_slot.append(indptr[w])
                else:
                    stack_v.pop()
                    peid = stack_peid.pop()
                    stack_slot.pop()
                    if stack_v:
                        u = stack_v[-1]
                        size[u] += size[v]
                        if low[v] < low[u]:
                            low[u] = low[v]
                        if low[v] > first[u]:
                            found.append((peid, v))
        return found, order, first, size

    # ---------------------------------------------------------- spanning tree
    def bfs_tree(self, root: int = 0) -> tuple[list[int], list[int], list[int]]:
        """BFS spanning tree of a connected graph from *root*.

        Returns ``(parent, parent_eid, depth)`` arrays (-1 for the root);
        raises when the graph is disconnected.
        """
        parent = [-1] * self.n
        parent_eid = [-1] * self.n
        depth = [-1] * self.n
        depth[root] = 0
        queue = deque([root])
        reached = 1
        indptr, adj, adj_eid = self.indptr, self.adj, self.adj_eid
        while queue:
            v = queue.popleft()
            d = depth[v] + 1
            for slot in range(indptr[v], indptr[v + 1]):
                w = adj[slot]
                if depth[w] < 0:
                    depth[w] = d
                    parent[w] = v
                    parent_eid[w] = adj_eid[slot]
                    reached += 1
                    queue.append(w)
        if reached != self.n:
            raise ValueError("graph is not connected; it has no spanning tree")
        return parent, parent_eid, depth

    # -------------------------------------------------------------- cut space
    def _cut_tree(self) -> _CutTree:
        """The BFS tree of vertex 0 with the cut-space data, built on first use.

        ``cover[t]`` is the exact Python-int bitmask (bit = edge id) of the
        non-tree edges covering tree edge ``t`` -- endpoint XOR tags folded
        leaves-to-root, O(n * m / 64) word operations -- and ``0`` for a
        non-tree edge.  ``order``/``first``/``size`` are a preorder of the
        tree: the subtree of ``v`` is ``order[first[v]:first[v] + size[v]]``.
        The snapshot never changes, so every cut method shares one build.
        """
        if self._cut_space is None:
            n, m = self.n, self.m
            parent, parent_eid, _ = self.bfs_tree(0)
            child_of = [-1] * m
            children: list[list[int]] = [[] for _ in range(n)]
            for v in range(n):
                if parent[v] >= 0:
                    child_of[parent_eid[v]] = v
                    children[parent[v]].append(v)
            order: list[int] = []
            stack = [0]
            while stack:
                v = stack.pop()
                order.append(v)
                stack.extend(reversed(children[v]))
            first = [0] * n
            for position, v in enumerate(order):
                first[v] = position
            size = [1] * n
            tag = [0] * n
            tail, head = self.tail, self.head
            for eid in range(m):
                if child_of[eid] < 0:
                    bit = 1 << eid
                    tag[tail[eid]] ^= bit
                    tag[head[eid]] ^= bit
            cover = [0] * m
            # Reverse preorder: every subtree is complete before it folds
            # into its parent, and the subtree XOR at v covers the edge above v.
            for v in reversed(order[1:]):
                p = parent[v]
                size[p] += size[v]
                cover[parent_eid[v]] = tag[v]
                tag[p] ^= tag[v]
            self._cut_space = _CutTree(parent, parent_eid, child_of, order, first, size, cover)
        return self._cut_space

    def _is_cut(self, edges: Sequence[int]) -> bool:
        """Is the edge set *edges* an element of the cut space?

        It is iff the non-tree edges covering an odd number of its tree
        edges are exactly its non-tree edges: the XOR of their exact labels
        (``cover[t]`` for a tree edge, ``1 << f`` for a non-tree edge) is 0.
        """
        tree = self._cut_tree()
        cover, child_of = tree.cover, tree.child_of
        parity = 0
        for eid in edges:
            parity ^= cover[eid] if child_of[eid] >= 0 else 1 << eid
        return parity == 0

    def _cut_side(self, edges: Iterable[int]) -> list[int]:
        """Vertex ids of the smaller side of the cut *edges* (without vertex 0 on a tie).

        The side without vertex 0 holds the vertices whose root path has an
        odd number of the cut's tree edges.  Each tree edge flips the
        preorder interval of its child's subtree, so a preorder position is
        on that side iff an odd number of the sorted interval bounds lie at
        or before it: the side is the runs ``[b0, b1), [b2, b3), ...``.
        """
        tree = self._cut_tree()
        first, size, child_of = tree.first, tree.size, tree.child_of
        bounds = sorted(
            bound
            for eid in edges
            if child_of[eid] >= 0
            for bound in (first[child_of[eid]], first[child_of[eid]] + size[child_of[eid]])
        )
        if 2 * sum(bounds[1::2]) - 2 * sum(bounds[::2]) > self.n:
            bounds = [0, *bounds, self.n]  # the side of vertex 0 is smaller
        order = tree.order
        side: list[int] = []
        for low, high in zip(bounds[::2], bounds[1::2]):
            side += order[low:high]
        return side

    # -------------------------------------------------------------- cut pairs
    def cut_pairs(self) -> list[tuple[int, int]]:
        """All 2-edge cuts of a connected graph, as sorted edge-id pairs (exact).

        The characterisation of Claim 5.6 over the BFS tree's exact cover
        sets: ``{t, f}`` when ``f`` is the only non-tree edge covering tree
        edge ``t``, and ``{t1, t2}`` when two tree edges share one non-empty
        cover set.  On a connected graph each such pair is exactly one cut:
        the tree splits into two (or, for ``{t1, t2}``, three) connected
        parts and the cover sets say which non-tree edges join which.  A
        bridge has an empty cover set, and pairs of bridges leave three
        components, so they are never listed.
        """
        if self.n < 2:
            return []
        cover = self._cut_tree().cover
        pairs: list[tuple[int, int]] = []
        by_cover: dict[int, list[int]] = {}
        for t, mask in enumerate(cover):
            if not mask:
                continue  # a non-tree edge or a bridge
            if not mask & (mask - 1):
                f = mask.bit_length() - 1
                pairs.append((t, f) if t < f else (f, t))
            by_cover.setdefault(mask, []).append(t)
        for group in by_cover.values():
            pairs.extend(itertools.combinations(group, 2))
        pairs.sort()
        return pairs

    def has_cut_pair(self) -> bool:
        """True iff the connected graph has a 2-edge cut; stops at the first one found."""
        if self.n < 2:
            return False
        seen: set[int] = set()
        for mask in self._cut_tree().cover:
            if mask:
                if not mask & (mask - 1) or mask in seen:
                    return True
                seen.add(mask)
        return False

    # ------------------------------------------------------------ small cuts
    def cuts_of_size(self, size: int) -> list[tuple[tuple[int, ...], list[int]]]:
        """Every cut of exactly *size* >= 3 edges (exact; needs ``2 * lambda > size``).

        A cut here is an edge set whose removal leaves exactly two
        components with every removed edge between them (Definition 2.1).
        Returns ``(sorted edge ids, vertex ids of the smaller side)`` pairs
        (on a tie, the side without vertex 0).  Candidates come from
        :meth:`_cut_candidates` and each is confirmed in the cut space
        (:meth:`_is_cut`), so the result does not depend on the label draw.

        Precondition: the graph is connected with edge connectivity
        ``lambda`` and ``2 * lambda > size``.  A non-empty cut-space element
        is a disjoint union of bonds of at least ``lambda`` edges each, so
        one of *size* edges is then exactly one bond.  Every caller holds
        ``lambda >= size``.
        """
        return [
            (edges, self._cut_side(edges))
            for edges in self._cut_candidates(size)
            if self._is_cut(edges)
        ]

    def has_cut_triple(self) -> bool:
        """True iff the graph has a 3-edge cut (connected, ``lambda >= 2``).

        Stops at the first candidate that survives confirmation; the
        ``2 * lambda > 3`` precondition of :meth:`cuts_of_size` applies.
        """
        return any(self._is_cut(edges) for edges in self._cut_candidates(3))

    def _cut_candidates(self, size: int) -> Iterator[tuple[int, ...]]:
        """Sorted edge-id tuples that include every cut of *size* edges.

        Cycle space sampling (Pritchard & Thurimella, TALG 2011): every
        non-tree edge of the BFS tree draws a :data:`CUT_LABEL_BITS`-bit
        label and each tree edge gets the XOR of the labels of the non-tree
        edges covering it -- folded leaves-to-root like the exact covers.
        A cut meets every cycle in an even number of edges, so the labels of
        its edges XOR to 0 whatever the draw; and it contains a tree edge.
        So a cut ``C`` is proposed when ``t`` is its lowest-id tree edge and
        ``X`` the ``size - 2`` lowest-id edges of ``C - t``: the one edge
        left carries the label ``phi(t) ^ phi(X)``.  Each edge set is
        proposed at most once, in the order of ``t``, then ``X``
        lexicographically, then the last edge.  NumPy passes look the ``X``
        up in blocks in the sorted label array -- one pass per tree edge
        for size 3 -- for ``O(n * m^(size-2) * log m)`` work.
        """
        if size < 3:
            raise ValueError("cut candidates by label lookup need size >= 3")
        n, m = self.n, self.m
        if n < 2:
            return
        tree = self._cut_tree()
        child_of = tree.child_of
        rng = random.Random(CUT_LABEL_SEED)
        bits = CUT_LABEL_BITS
        label = [0] * m
        tag = [0] * n
        tail, head = self.tail, self.head
        for eid in range(m):
            if child_of[eid] < 0:
                draw = rng.getrandbits(bits)
                label[eid] = draw
                tag[tail[eid]] ^= draw
                tag[head[eid]] ^= draw
        parent, parent_eid = tree.parent, tree.parent_eid
        for v in reversed(tree.order[1:]):
            label[parent_eid[v]] = tag[v]
            tag[parent[v]] ^= tag[v]
        labels = np.array(label, dtype=np.uint64)
        # Edge ids by label; the stable sort keeps equal labels in id order.
        # run_end[i]: one past the last sorted position with the label at i.
        by_label = np.argsort(labels, kind="stable")
        sorted_labels = labels[by_label]
        run_end = np.searchsorted(sorted_labels, sorted_labels, side="right")
        eids = np.arange(m)
        is_tree = np.asarray(child_of) >= 0

        for t in np.flatnonzero(is_tree).tolist():
            # Edges that may share a cut with t as its lowest tree edge.
            allowed = ~(is_tree & (eids < t))
            allowed[t] = False
            pool = np.flatnonzero(allowed)
            # X = a prefix (pool positions, lexicographic) plus one later
            # pool edge, all of them at once.
            combos = list(itertools.combinations(range(len(pool)), size - 3))
            # Blocks of prefixes bound the (X, match) arrays to ~_LOOKUP_BLOCK.
            block = max(1, _LOOKUP_BLOCK // max(1, len(pool)))
            for begin in range(0, len(combos), block):
                chunk = combos[begin:begin + block]
                prefixes = np.array(chunk, dtype=np.intp).reshape(len(chunk), size - 3)
                first = prefixes.max(axis=1, initial=-1) + 1
                owner = np.repeat(np.arange(len(prefixes)), len(pool) - first)
                last = pool[concat_ranges(first, len(pool) - first)]
                wanted = labels[last] ^ (
                    labels[t] ^ np.bitwise_xor.reduce(labels[pool[prefixes]], axis=1)
                )[owner]
                low = np.searchsorted(sorted_labels, wanted)
                hit = np.minimum(low, m - 1)
                counts = np.where(sorted_labels[hit] == wanted, run_end[hit] - low, 0)
                # Every (X, match) pair, X-major, matches by id.
                match = by_label[concat_ranges(low, counts)]
                owner, last = owner.repeat(counts), last.repeat(counts)
                keep = allowed[match] & (match > last)
                rest = pool[prefixes[owner[keep]]].tolist()
                for prefix, r, eid in zip(rest, last[keep].tolist(), match[keep].tolist()):
                    yield tuple(sorted((t, *prefix, r, eid)))

def concat_ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The concatenated ranges ``[starts[i], starts[i] + counts[i])``."""
    ends = counts.cumsum()
    out = np.repeat(starts - ends + counts, counts)
    out += np.arange(len(out))
    return out

def hop_diameter(graph: nx.Graph | FastGraph) -> int:
    """The hop diameter of a connected graph (or snapshot) via the CSR kernel.

    Drop-in fast path for ``nx.diameter`` on unweighted connected graphs;
    raises ``ValueError`` when the graph is empty or disconnected.
    """
    return FastGraph.of(graph).hop_diameter()
