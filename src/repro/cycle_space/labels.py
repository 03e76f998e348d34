"""Edge labelling ``phi`` from cycle space sampling (Section 5.1).

Every non-tree edge draws an independent uniform ``b``-bit string; the label
of a tree edge is the XOR of the labels of the non-tree edges covering it.
The resulting map ``phi`` is a random b-bit circulation (each bit position is
a uniformly random binary circulation), and Property 5.1 -- ``phi(e) = phi(f)``
iff ``{e, f}`` is a cut pair -- holds with high probability for
``b = O(log n)``.

Two label modes are provided:

* ``mode="random"`` -- the paper's randomised labels (default),
* ``mode="exact"``  -- labels equal to the frozenset of covering non-tree
  edges; equality of exact labels characterises cut pairs *deterministically*
  (Claim 5.6), which the tests use as ground truth and the algorithms can use
  to factor out label-collision effects.

Random-mode tree labels are produced in O(m + n): each non-tree edge XOR-tags
its two endpoints and one leaves-to-root scan accumulates subtree XORs --
the label of tree edge ``(v, p(v))`` is the subtree XOR at ``v``, because the
tags of a non-tree edge with both endpoints inside the subtree cancel.  This
is exactly the single convergecast the distributed implementation performs
(Theorem 4.2 of [32]).  Exact-mode covering sets are materialised over the
flat-array path extractor.  The historical per-path accumulation survives as
:func:`compute_labels_nx`, the oracle of the ``diff-labels-*`` suite.
"""

from __future__ import annotations

import math
import random
from typing import Hashable

import networkx as nx

from repro.graphs.connectivity import canonical_edge
from repro.trees.rooted import RootedTree

Edge = tuple[Hashable, Hashable]
Label = object  # int (random mode) or frozenset (exact mode)

__all__ = ["EdgeLabelling", "compute_labels", "compute_labels_nx"]


class EdgeLabelling:
    """The labelling ``phi`` of all edges of a 2-edge-connected graph.

    Attributes:
        graph: The labelled graph ``H`` (2-edge-connected).
        tree: The spanning tree used for the fundamental-cycle basis.
        labels: Map from canonical edge to its label.
        bits: Number of label bits (0 for exact mode).
        mode: ``"random"`` or ``"exact"``.

    The map from non-tree edge to the tree edges it covers (``S^1_e`` in the
    paper's notation) is exposed as :attr:`tree_paths` /
    :meth:`covering_path`; it is materialised lazily, so the O(m + n)
    random-mode labelling never pays the O(sum of path lengths) it replaced.
    """

    def __init__(
        self,
        graph: nx.Graph,
        tree: RootedTree,
        labels: dict[Edge, Label],
        bits: int,
        mode: str,
        tree_paths: dict[Edge, frozenset[Edge]] | None = None,
    ) -> None:
        self.graph = graph
        self.tree = tree
        self.labels = labels
        self.bits = bits
        self.mode = mode
        self._tree_paths = tree_paths

    def label(self, u: Hashable, v: Hashable) -> Label:
        """Return ``phi({u, v})``."""
        return self.labels[canonical_edge(u, v)]

    def tree_edges(self) -> list[Edge]:
        return self.tree.tree_edges()

    def non_tree_edges(self) -> list[Edge]:
        tree_edges = set(self.tree.tree_edges())
        return [
            canonical_edge(u, v)
            for u, v in self.graph.edges()
            if canonical_edge(u, v) not in tree_edges
        ]

    @property
    def tree_paths(self) -> dict[Edge, frozenset[Edge]]:
        """Map from non-tree edge to the tree edges it covers (lazy)."""
        if self._tree_paths is None:
            tree = self.tree
            self._tree_paths = {
                edge: frozenset(tree.tree_path_edges(*edge))
                for edge in self.non_tree_edges()
            }
        return self._tree_paths

    def covering_path(self, non_tree_edge: Edge) -> frozenset[Edge]:
        """Return ``S^1_e``, the tree edges on the fundamental cycle of *non_tree_edge*."""
        return self.tree_paths[canonical_edge(*non_tree_edge)]


def _prepare(
    graph: nx.Graph,
    tree: RootedTree | None,
    bits: int | None,
    mode: str,
) -> tuple[RootedTree, int, list[Edge]]:
    """Shared validation + defaults of both labelling implementations."""
    if graph.number_of_nodes() < 2:
        raise ValueError("labelling needs at least two vertices")
    if mode not in {"random", "exact"}:
        raise ValueError("mode must be 'random' or 'exact'")
    if tree is None:
        tree = RootedTree.bfs_tree(graph)
    n = graph.number_of_nodes()
    if bits is None:
        bits = 4 * max(1, math.ceil(math.log2(max(n, 2)))) + 8
    # parent_edges holds the same canonical tree edges as tree_edges(),
    # without walking the tree's nx edges (slot 0 is the root's ``None``).
    tree_edge_set = set(tree.parent_edges[1:])
    non_tree_edges = [
        edge
        for edge in (canonical_edge(u, v) for u, v in graph.edges())
        if edge not in tree_edge_set
    ]
    return tree, bits, non_tree_edges


def compute_labels(
    graph: nx.Graph,
    tree: RootedTree | None = None,
    bits: int | None = None,
    mode: str = "random",
    seed: int | random.Random | None = None,
) -> EdgeLabelling:
    """Compute the cycle-space labelling of a connected graph.

    Args:
        graph: The graph ``H`` to label (the 3-ECSS algorithm labels ``H ∪ A``).
        tree: Spanning tree to use; defaults to a BFS tree from the minimum-id
            vertex, matching the O(D)-depth requirement of Section 5.
        bits: Label width; defaults to ``4 * ceil(log2 n) + 8`` so that the
            union bound of Lemma 5.4 leaves polynomially small error.
        mode: ``"random"`` (paper) or ``"exact"`` (covering-set labels).
        seed: Randomness for the random mode.

    In the distributed implementation the tree-edge labels are produced by a
    single leaves-to-root scan of the BFS tree (Theorem 4.2 of [32], O(D)
    rounds); here the same recurrence -- endpoint XOR tags, subtree
    accumulation -- is evaluated centrally in O(m + n) and charged O(D) by
    the callers' ledgers.
    """
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    tree, bits, non_tree_edges = _prepare(graph, tree, bits, mode)

    labels: dict[Edge, Label] = {}

    if mode == "random":
        for edge in non_tree_edges:
            labels[edge] = rng.getrandbits(bits)
        # Endpoint XOR tags: tree edge (v, p(v)) is crossed by exactly the
        # non-tree edges with an odd number of endpoints in the subtree of v,
        # so its label is the subtree XOR of the tags (Theorem 4.2 of [32]).
        order = tree.bfs_order()
        index, parent_edges = tree.index, tree.parent_edges
        tags = [0] * len(order)
        for edge in non_tree_edges:
            label = labels[edge]
            u, v = edge
            tags[index[u]] ^= label
            tags[index[v]] ^= label
        # Vertex ids follow bfs_order, which puts every parent before its
        # children, so the reverse scan sees each subtree complete before
        # folding it into the parent.
        for i in range(len(order) - 1, 0, -1):
            labels[parent_edges[i]] = tags[i]
            tags[index[tree.parent(order[i])]] ^= tags[i]
        return EdgeLabelling(graph=graph, tree=tree, labels=labels, bits=bits, mode=mode)

    # Exact mode: the label of a tree edge is its covering set, materialised
    # per child vertex over the integer-array path extractor.
    index_of, paths, parent_edges = tree.index, tree.paths, tree.parent_edges
    covering: list[set[Edge]] = [set() for _ in range(len(index_of))]
    tree_paths: dict[Edge, frozenset[Edge]] = {}
    for edge in non_tree_edges:
        labels[edge] = frozenset({edge})
        u, v = edge
        children = paths.path_edges(index_of[u], index_of[v])
        for child in children:
            covering[child].add(edge)
        tree_paths[edge] = frozenset(parent_edges[child] for child in children)
    for child, tree_edge in enumerate(parent_edges):
        if tree_edge is not None:
            labels[tree_edge] = frozenset(covering[child])
    return EdgeLabelling(
        graph=graph, tree=tree, labels=labels, bits=0, mode=mode, tree_paths=tree_paths
    )


# --------------------------------------------------------------------- oracle
def compute_labels_nx(
    graph: nx.Graph,
    tree: RootedTree | None = None,
    bits: int | None = None,
    mode: str = "random",
    seed: int | random.Random | None = None,
) -> EdgeLabelling:
    """The historical per-path accumulation (reference oracle).

    Draws the same RNG stream and produces identical labels to
    :func:`compute_labels`, but XORs every non-tree label onto each tree edge
    of its path individually -- O(sum of path lengths).  The
    ``diff-labels-*`` differential suite asserts the parity.
    """
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    tree, bits, non_tree_edges = _prepare(graph, tree, bits, mode)
    tree_edge_set = set(tree.tree_edges())

    labels: dict[Edge, Label] = {}
    tree_paths: dict[Edge, frozenset[Edge]] = {}
    for edge in non_tree_edges:
        tree_paths[edge] = frozenset(tree.tree_path_edges(*edge))

    if mode == "random":
        for edge in non_tree_edges:
            labels[edge] = rng.getrandbits(bits)
        accumulator: dict[Edge, int] = {t: 0 for t in tree_edge_set}
        for edge in non_tree_edges:
            for t in tree_paths[edge]:
                accumulator[t] ^= labels[edge]
        labels.update(accumulator)
    else:
        for edge in non_tree_edges:
            labels[edge] = frozenset({edge})
        covering: dict[Edge, set[Edge]] = {t: set() for t in tree_edge_set}
        for edge in non_tree_edges:
            for t in tree_paths[edge]:
                covering[t].add(edge)
        for t, cover in covering.items():
            labels[t] = frozenset(cover)
        bits = 0

    return EdgeLabelling(
        graph=graph, tree=tree, labels=labels, bits=bits, mode=mode, tree_paths=tree_paths
    )
