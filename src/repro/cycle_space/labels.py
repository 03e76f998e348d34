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

Both modes run one code path over a :class:`CycleSpace` -- the labelled
graph as integer arrays over the tree's BFS vertex ids.  Non-tree edge ``i``
gets a random ``b``-bit Python int (random mode) or the one-hot ``1 << i``
(exact mode); each XOR-tags its two endpoints and one leaves-to-root scan
accumulates subtree XORs -- the label of tree edge ``(v, p(v))`` is the
subtree XOR at ``v``, because the tags of a non-tree edge with both
endpoints inside the subtree cancel.  This is exactly the single convergecast
the distributed implementation performs (Theorem 4.2 of [32]), O(n + m) per
labelling for any label width.  With one-hot labels the subtree XOR is the
covering set as a bitmask, so exact-mode label equality is covering-set
equality; :attr:`EdgeLabelling.labels` turns the masks back into frozensets
on first use.  The historical per-path accumulation is the
``compute_labels_nx`` oracle in ``tests/oracles.py``.

The labelling is linear in the edge set (Pritchard & Thurimella): adding a
non-tree edge with a fresh label ``r`` XORs ``r`` into exactly the tree
edges of its fundamental cycle and leaves a uniformly random circulation of
the grown graph.  The 3-ECSS solver therefore labels ``H`` once with
:func:`compute_labels` and extends that labelling as ``A`` grows --
:func:`draw_labels` gives each edge that joins ``A`` its label, and
:class:`repro.core.fastaug.PathLabelKernel` XORs it into the tree path.
Lemma 5.4 bounds the chance that one labelling breaks Property 5.1 by
``2^-b`` per pair of edges, so a solve's union bound ranges over at most
``|A| + 1`` labellings (the first, and one after each iteration that adds
to ``A``).
"""

from __future__ import annotations

import math
import random
from typing import Hashable, Iterable

import networkx as nx

from repro.graphs.connectivity import canonical_edge
from repro.trees.rooted import RootedTree

Edge = tuple[Hashable, Hashable]
Label = object  # int (random mode) or frozenset (exact mode)

__all__ = ["CycleSpace", "EdgeLabelling", "compute_labels", "draw_labels"]


class CycleSpace:
    """A labelled graph as append-only integer arrays over a spanning tree.

    Args:
        edges: The edges of the graph to label, in label draw order; *tree*
            must be a spanning tree of that graph.
        tree: The spanning tree of the fundamental-cycle basis.

    Attributes:
        tree: The spanning tree.
        parent: Vertex id -> parent vertex id (BFS ids of *tree*, root -1);
            the tree's own :attr:`~repro.trees.rooted.RootedTree.parent_ids`.
        u, v: Endpoint vertex ids of every non-tree edge.
        edges: The canonical form of every non-tree edge.

    The non-tree edges start in *edges* order, and :meth:`add_edges`
    appends after them, so labelling the space draws one label per non-tree
    edge in that order: labelling ``H ∪ A`` draws ``H`` first, then ``A``
    in the order it was added.
    """

    __slots__ = ("tree", "parent", "u", "v", "edges")

    def __init__(self, edges: Iterable[Edge], tree: RootedTree) -> None:
        self.tree = tree
        self.parent = tree.parent_ids
        self.u: list[int] = []
        self.v: list[int] = []
        self.edges: list[Edge] = []
        self.add_edges(edges)

    @property
    def n(self) -> int:
        """Number of vertices."""
        return len(self.parent)

    def add_edges(self, edges: Iterable[Edge]) -> None:
        """Append *edges* to the labelled graph (tree edges are skipped).

        Each non-tree edge must be added once: a repeat would cancel its own
        label out of every tree edge it covers.
        """
        index, parent = self.tree.index, self.parent
        for a, b in edges:
            ia, ib = index[a], index[b]
            if parent[ia] == ib or parent[ib] == ia:
                continue
            self.u.append(ia)
            self.v.append(ib)
            self.edges.append(canonical_edge(a, b))


class EdgeLabelling:
    """The labelling ``phi`` of all edges of a 2-edge-connected graph.

    Attributes:
        graph: The labelled ``nx.Graph`` (``None`` when a :class:`CycleSpace`
            was labelled).
        tree: The spanning tree used for the fundamental-cycle basis.
        non_tree_labels: Label of each non-tree edge, in label draw order
            (:meth:`non_tree_edges` order; ints, one-hot in exact mode).
        tree_labels: Label of the tree edge of vertex id ``i + 1``, i.e. in
            ``tree.parent_edges[1:]`` order (ints; covering-set bitmasks in
            exact mode).
        bits: Number of label bits (0 for exact mode).
        mode: ``"random"`` or ``"exact"``.

    :attr:`labels` (canonical edge -> label, frozensets in exact mode) and
    the map from non-tree edge to the tree edges it covers (``S^1_e``,
    :attr:`tree_paths` / :meth:`covering_path`) are materialised lazily, so
    a labelling that is only scored never builds them.
    """

    def __init__(
        self,
        tree: RootedTree,
        non_tree_edges: list[Edge],
        non_tree_labels: list,
        tree_labels: list,
        bits: int,
        mode: str,
        graph: nx.Graph | None = None,
        labels: dict[Edge, Label] | None = None,
        tree_paths: dict[Edge, frozenset[Edge]] | None = None,
    ) -> None:
        self.graph = graph
        self.tree = tree
        self._non_tree_edges = non_tree_edges
        self.non_tree_labels = non_tree_labels
        self.tree_labels = tree_labels
        self.bits = bits
        self.mode = mode
        self._labels = labels
        self._tree_paths = tree_paths

    @property
    def labels(self) -> dict[Edge, Label]:
        """Map from canonical edge to its label (lazy)."""
        if self._labels is None:
            edges, tree_edges = self._non_tree_edges, self.tree.parent_edges[1:]
            if self.mode == "exact":
                labels: dict[Edge, Label] = {edge: frozenset((edge,)) for edge in edges}
                for tree_edge, mask in zip(tree_edges, self.tree_labels):
                    cover = []
                    while mask:
                        low = mask & -mask
                        cover.append(edges[low.bit_length() - 1])
                        mask ^= low
                    labels[tree_edge] = frozenset(cover)
            else:
                labels = dict(zip(edges, self.non_tree_labels))
                labels.update(zip(tree_edges, self.tree_labels))
            self._labels = labels
        return self._labels

    def label(self, u: Hashable, v: Hashable) -> Label:
        """Return ``phi({u, v})``."""
        return self.labels[canonical_edge(u, v)]

    def tree_edges(self) -> list[Edge]:
        return self.tree.tree_edges()

    def non_tree_edges(self) -> list[Edge]:
        return list(self._non_tree_edges)

    @property
    def tree_paths(self) -> dict[Edge, frozenset[Edge]]:
        """Map from non-tree edge to the tree edges it covers (lazy)."""
        if self._tree_paths is None:
            tree = self.tree
            self._tree_paths = {
                edge: frozenset(tree.tree_path_edges(*edge))
                for edge in self._non_tree_edges
            }
        return self._tree_paths

    def covering_path(self, non_tree_edge: Edge) -> frozenset[Edge]:
        """Return ``S^1_e``, the tree edges on the fundamental cycle of *non_tree_edge*."""
        return self.tree_paths[canonical_edge(*non_tree_edge)]


def _check(n: int, mode: str) -> None:
    """Validation shared with the reference oracle."""
    if n < 2:
        raise ValueError("labelling needs at least two vertices")
    if mode not in {"random", "exact"}:
        raise ValueError("mode must be 'random' or 'exact'")


def _default_bits(n: int) -> int:
    """``4 * ceil(log2 n) + 8``: Lemma 5.4's union bound leaves ``poly(1/n)`` error."""
    return 4 * max(1, math.ceil(math.log2(max(n, 2)))) + 8


def draw_labels(count: int, bits: int, rng: random.Random, start: int = 0) -> list[int]:
    """Labels for *count* new non-tree edges, the first at position *start*.

    Uniform *bits*-bit ints drawn from *rng*, one per edge in order; with
    ``bits == 0`` (exact mode) the one-hot ``1 << i`` of each position ``i``,
    drawing nothing.
    """
    if bits == 0:
        return [1 << i for i in range(start, start + count)]
    getrandbits = rng.getrandbits
    return [getrandbits(bits) for _ in range(count)]


def compute_labels(
    graph: nx.Graph | CycleSpace,
    tree: RootedTree | None = None,
    bits: int | None = None,
    mode: str = "random",
    seed: int | random.Random | None = None,
) -> EdgeLabelling:
    """Compute the cycle-space labelling of a connected graph.

    Args:
        graph: The graph ``H`` to label, as an ``nx.Graph`` or a
            :class:`CycleSpace` (the 3-ECSS algorithm labels ``H``, and
            ``H ∪ A`` again after a stall).
        tree: Spanning tree to use; defaults to a BFS tree from the minimum-id
            vertex, matching the O(D)-depth requirement of Section 5.  A
            :class:`CycleSpace` brings its own tree.
        bits: Label width, ``>= 1`` in random mode; defaults to
            ``4 * ceil(log2 n) + 8`` so that the union bound of Lemma 5.4
            leaves polynomially small error.
        mode: ``"random"`` (paper) or ``"exact"`` (covering-set labels).
        seed: Randomness for the random mode.

    In the distributed implementation the tree-edge labels are produced by a
    single leaves-to-root scan of the BFS tree (Theorem 4.2 of [32], O(D)
    rounds); here the same recurrence -- endpoint XOR tags, subtree
    accumulation -- is evaluated centrally in O(m + n) and charged O(D) by
    the callers' ledgers.
    """
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    if isinstance(graph, CycleSpace):
        space, graph = graph, None
        if tree is not None and tree is not space.tree:
            raise ValueError("a CycleSpace is labelled over its own tree")
        _check(space.n, mode)
    else:
        _check(graph.number_of_nodes(), mode)
        space = CycleSpace(
            graph.edges(), RootedTree.bfs_tree(graph) if tree is None else tree
        )
    n = space.n
    if mode == "random":
        if bits is None:
            bits = _default_bits(n)
        elif bits < 1:
            raise ValueError(f"random labels need bits >= 1, got {bits!r}")
    else:
        bits = 0
    non_tree_labels = draw_labels(len(space.edges), bits, rng)

    # Endpoint XOR tags: tree edge (v, p(v)) is crossed by exactly the
    # non-tree edges with an odd number of endpoints in the subtree of v, so
    # its label is the subtree XOR of the tags (Theorem 4.2 of [32]).
    tags = [0] * n
    for a, b, label in zip(space.u, space.v, non_tree_labels):
        tags[a] ^= label
        tags[b] ^= label
    # Vertex ids follow the BFS order, which puts every parent before its
    # children, so the reverse scan sees each subtree complete before
    # folding it into the parent.
    parent = space.parent
    for i in range(n - 1, 0, -1):
        tags[parent[i]] ^= tags[i]
    return EdgeLabelling(
        tree=space.tree,
        non_tree_edges=space.edges[:],
        non_tree_labels=non_tree_labels,
        tree_labels=tags[1:],
        bits=bits,
        mode=mode,
        graph=graph,
    )
