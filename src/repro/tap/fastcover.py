"""NumPy coverage/voting kernel for tree augmentation (Section 3).

:class:`FastCoverage` is the coverage bookkeeping every TAP solver runs on
(:func:`~repro.tap.distributed.distributed_tap`,
:func:`~repro.tap.greedy.greedy_tap` and the exact ILP baseline).  It holds,
for every non-tree edge of the input graph, the tree path between its
endpoints as one CSR pair of NumPy arrays over integer tree-edge ids:

* ``path_indptr`` / ``path_tree`` -- non-tree edge id ``j`` covers the tree
  edges ``path_tree[path_indptr[j]:path_indptr[j + 1]]`` (the set ``S_e``),
  built in one call of :meth:`TreePathIndex.path_csr
  <repro.graphs.fastgraph.TreePathIndex.path_csr>`;
* ``covered`` -- one flag per tree edge, and ``nt_uncovered[j] = |C_e|``,
  recounted after every cover as a segment sum of ``~covered[path_tree]``.

There is no transposed (tree edge -> covering edges) index: the voting round
gathers the path entries of its candidates, and :meth:`FastCoverage.covering`
builds a column on demand for the ILP baseline.

The kernel reads the graph from a :class:`~repro.graphs.fastgraph.FastGraph`
snapshot (the one the 2-ECSS driver already built, or its own) and splits
tree from non-tree edges by the parent test ``parent[a] == b`` on the tree's
vertex ids, checking on the way that the tree is a spanning tree of the
graph.  Non-tree edges keep the ``graph.edges()`` order; their canonical
edge tuples and ``repr`` strings are built only when asked for -- for the
candidates the distributed algorithm sorts and for the output.  Weights are
an int64 array, or an object array of Python ints when one does not fit, so
every comparison stays exact.

Tree-edge ids are the tree edges sorted by ``repr`` -- the index space of
the set-based ``CoverageStateNX`` oracle in ``tests/oracles.py`` -- so the
kernel and the oracle agree on indices.

:meth:`FastCoverage.voting_round` implements Lines 3-5 of the paper's
iteration (Theorem 3.12) with ``np.minimum.at`` and ``np.bincount``; ties
are broken exactly as the historical set-based implementation did (smallest
random number, then smallest edge ``repr``), so the augmentation output is
bit-identical.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Sequence

import networkx as nx
import numpy as np

from repro.graphs.connectivity import canonical_edge
from repro.graphs.fastgraph import FastGraph
from repro.trees.rooted import RootedTree

Edge = tuple[Hashable, Hashable]

__all__ = [
    "DEAD_EXPONENT",
    "FastCoverage",
    "INFINITE_EXPONENT",
    "rounded_exponents",
    "weight_array",
    "weight_scale",
]

#: Scale of the exact exponent test: both of its sides fit in 62 bits.
_TOP = 62
#: Exponent of an edge that covers nothing new (never a candidate).
DEAD_EXPONENT = np.iinfo(np.int64).min
#: Exponent of a zero-weight edge that covers something (``rho`` is infinite).
INFINITE_EXPONENT = np.iinfo(np.int64).max


def _bit_lengths(values: np.ndarray) -> np.ndarray:
    """``int.bit_length`` of every non-negative entry, exactly, as int64."""
    if values.dtype == object:
        return np.frompyfunc(int.bit_length, 1, 1)(values).astype(np.int64)
    bits = np.frexp(values.astype(np.float64))[1].astype(np.int64)
    # Past 2^53 the float conversion can round up to the next power of two,
    # one bit too many; the shift test takes that bit back.
    bits -= (values >> np.maximum(bits - 1, 0)) == 0
    return np.maximum(bits, 0)


def weight_array(weights: Sequence[int]) -> np.ndarray:
    """*weights* as an int64 array, or as exact Python ints when one does not fit."""
    values = np.asarray(weights)
    if values.dtype.kind != "i":
        # Past int64 (or mixed with non-integers): keep the exact objects.
        values = np.array(weights, dtype=object)
    return values


def weight_scale(weights: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The weight side of :func:`rounded_exponents`, built once per edge set.

    *weights* comes from :func:`weight_array`.  Returns ``(bits(w),
    ceil(w * 2^(62 - bits(w))), zero)``: two int64 arrays for any
    non-negative integer weight, and the indices of the zero weights.
    """
    bits = _bit_lengths(weights)
    up, down = np.maximum(_TOP - bits, 0), np.maximum(bits - _TOP, 0)
    if weights.dtype == object:
        up, down = up.astype(object), down.astype(object)
    top = np.where(bits <= _TOP, weights << up, -(-weights >> down))
    return bits, top.astype(np.int64), np.flatnonzero(bits == 0)


def rounded_exponents(
    uncovered: np.ndarray, scale: tuple[np.ndarray, np.ndarray, np.ndarray]
) -> np.ndarray:
    """The rounded cost-effectiveness ``2^e`` of every edge, as its exponent ``e``.

    For ``u = |C_e| > 0`` and weight ``w > 0`` the rounded value is the
    power of two ``2^e`` with ``2^(e-1) <= u/w < 2^e``, i.e. ``e`` is
    ``bits(u) - bits(w)`` plus one when ``u * 2^(bits(w) - bits(u)) >= w``
    -- one shift comparison.  Scaled by ``2^(62 - bits(w))`` its left side
    is the integer ``u << (62 - bits(u))``, so it holds iff that is at least
    ``ceil(w * 2^(62 - bits(w)))`` from :func:`weight_scale`: both sides
    are int64, for weights past int64 too.  *uncovered* is int64 (far below
    2^53); an edge with ``u = 0`` gets the smallest int64, and a zero-weight
    edge with ``u > 0`` gets :data:`INFINITE_EXPONENT`.  Shared by the TAP
    kernel and the ``Aug_k`` cover kernel.
    """
    weight_bits, weight_top, zero = scale
    bits = np.frexp(uncovered)[1]  # exact: |C_e| is far below 2^53
    exponent = bits - weight_bits
    exponent += (uncovered << (_TOP - bits)) >= weight_top
    if len(zero):
        exponent[zero] = INFINITE_EXPONENT
    return np.where(uncovered, exponent, DEAD_EXPONENT)


class FastCoverage:
    """Array-native coverage bookkeeping for one TAP instance ``(G, T)``.

    Args:
        graph: The weighted 2-edge-connected graph ``G``, or its
            :class:`FastGraph` snapshot, which is read as it is.
        tree: The spanning tree ``T`` to augment (typically the MST); its
            cached path index is reused, so the 2-ECSS driver indexes the
            MST once for both the decomposition and the coverage kernel.

    Raises:
        ValueError: When *tree* is not a spanning tree of *graph* (a vertex
            of the graph is missing from the tree, or a tree edge from the
            graph); the message names the vertex or edge.

    Attributes:
        tree_edges: Tree-edge id -> canonical edge (sorted by ``repr``).
        n_tree: Number of tree edges.
        m_nt: Number of non-tree edges (augmentation candidates).
        nt_weight: Non-tree edge id -> integer weight.
        path_indptr / path_tree: The path CSR (int64 / int32 arrays).
        covered: Boolean array, one flag per tree edge.
        nt_uncovered: Non-tree edge id -> current ``|C_e|`` (int64 array).
    """

    __slots__ = (
        "tree_edges", "n_tree", "m_nt", "nt_weight",
        "path_indptr", "path_tree", "covered", "nt_uncovered",
        "_uncovered_total", "_weights", "_scale", "_lengths",
        "_nonempty",
        "_snapshot", "_nt_eid", "_nt_edges", "_nt_repr", "_nt_index",
    )

    def __init__(self, graph: nx.Graph | FastGraph, tree: RootedTree) -> None:
        snapshot = FastGraph.of(graph)
        index_of = tree.index
        tree_id = np.fromiter(
            (index_of.get(label, -1) for label in snapshot.labels),
            dtype=np.int64, count=snapshot.n,
        )
        if snapshot.n and tree_id.min() < 0:
            missing = snapshot.labels[int(np.argmin(tree_id))]
            raise ValueError(f"vertex {missing!r} of the graph is not a vertex of the tree")

        # Edge (a, b) is a tree edge iff one endpoint is the other's parent;
        # every non-root vertex must be the child end of one of them.
        paths = tree.paths
        parent = paths.arrays()[0]
        a = tree_id[snapshot.tail]
        b = tree_id[snapshot.head]
        a_child = parent[a] == b
        is_tree = a_child | (parent[b] == a)
        found = np.bincount(np.where(a_child, a, b)[is_tree], minlength=paths.n)
        found[paths.root] = 1
        if not found.all():
            edge = tree.parent_edges[int(np.argmin(found))]
            raise ValueError(f"tree edge {edge!r} is not an edge of the graph")

        # Tree-edge ids: the tree edges (keyed by child vertex) in repr order.
        parent_edges = tree.parent_edges
        by_repr = sorted(range(1, paths.n), key=lambda child: repr(parent_edges[child]))
        self.tree_edges: list[Edge] = [parent_edges[child] for child in by_repr]
        self.n_tree = len(by_repr)
        tree_edge_of = np.zeros(paths.n, dtype=np.int32)
        tree_edge_of[by_repr] = np.arange(self.n_tree, dtype=np.int32)

        nt_eid = (~is_tree).nonzero()[0]
        self.m_nt = len(nt_eid)
        self.path_indptr, child = paths.path_csr(a[nt_eid], b[nt_eid])
        self.path_tree = tree_edge_of[child]
        del child

        weights = snapshot.weight
        self.nt_weight: list[int] = [weights[eid] for eid in nt_eid.tolist()]
        self._weights = weight_array(self.nt_weight)
        # The weight side of the exponent test, built on the first scan.
        self._scale: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

        self.covered = np.zeros(self.n_tree, dtype=bool)
        self._lengths = self.path_indptr[1:] - self.path_indptr[:-1]
        self.nt_uncovered = self._lengths.copy()
        self._uncovered_total = self.n_tree
        # The segments the |C_e| recount sums: every path, or (when some
        # non-tree edge is a self-loop) just the non-empty ones.
        self._nonempty = None if self._lengths.all() else self._lengths.nonzero()[0]

        self._snapshot = snapshot
        self._nt_eid = nt_eid
        self._nt_edges: list[Edge | None] = [None] * self.m_nt
        self._nt_repr: list[str | None] = [None] * self.m_nt
        self._nt_index: dict[Edge, int] | None = None

    # ----------------------------------------------------------- edge objects
    def nt_edge(self, j: int) -> Edge:
        """The canonical edge of non-tree edge *j* (built on first use)."""
        edge = self._nt_edges[j]
        if edge is None:
            edge = canonical_edge(*self._snapshot.edge_labels(int(self._nt_eid[j])))
            self._nt_edges[j] = edge
        return edge

    def nt_repr(self, j: int) -> str:
        """``repr`` of the canonical edge of *j* -- the tie-break and sort key."""
        text = self._nt_repr[j]
        if text is None:
            text = self._nt_repr[j] = repr(self.nt_edge(j))
        return text

    @property
    def nt_edges(self) -> list[Edge]:
        """Non-tree edge id -> canonical edge, in ``graph.edges()`` order."""
        return [self.nt_edge(j) for j in range(self.m_nt)]

    @property
    def nt_index(self) -> dict[Edge, int]:
        """Canonical edge -> non-tree edge id."""
        if self._nt_index is None:
            self._nt_index = {edge: j for j, edge in enumerate(self.nt_edges)}
        return self._nt_index

    @property
    def tree_edge_index(self) -> dict[Edge, int]:
        """Canonical tree edge -> tree-edge id."""
        return {edge: t for t, edge in enumerate(self.tree_edges)}

    # --------------------------------------------------------------- queries
    def path_indices(self, j: int) -> list[int]:
        """Tree-edge ids on the path of non-tree edge *j* (the set ``S_e``)."""
        return self.path_tree[self.path_indptr[j]:self.path_indptr[j + 1]].tolist()

    def covering(self, t: int) -> list[int]:
        """Non-tree edge ids covering tree edge *t*, ascending (built per call)."""
        slots = np.flatnonzero(self.path_tree == t)
        return (np.searchsorted(self.path_indptr, slots, side="right") - 1).tolist()

    def uncovered_path_indices(self, j: int) -> list[int]:
        """Still-uncovered tree-edge ids on the path of *j* (the set ``C_e``)."""
        path = self.path_tree[self.path_indptr[j]:self.path_indptr[j + 1]]
        return path[~self.covered[path]].tolist()

    @property
    def uncovered(self) -> set[int]:
        """The still-uncovered tree-edge ids (computed on demand)."""
        return set(np.flatnonzero(~self.covered).tolist())

    def uncovered_total(self) -> int:
        """How many tree edges are still uncovered (O(1))."""
        return self._uncovered_total

    def all_covered(self) -> bool:
        return self._uncovered_total == 0

    def zero_weight_ids(self) -> list[int]:
        """Ids of the zero-weight non-tree edges (added up front by both TAPs)."""
        return (self._weights == 0).nonzero()[0].tolist()

    def max_exponent_edges(self) -> tuple[int, list[int]] | None:
        """The best rounded cost-effectiveness ``2^e`` and the live edges attaining it.

        Exponents come from :func:`rounded_exponents`.  Returns ``(e, ids)``
        (ids ascending), or ``None`` when no edge is live.  Zero-weight
        edges must already be covered.
        """
        if self._scale is None:
            self._scale = weight_scale(self._weights)
        exponent = rounded_exponents(self.nt_uncovered, self._scale)
        best = int(exponent.max(initial=DEAD_EXPONENT))
        if best == DEAD_EXPONENT:
            return None
        return best, (exponent == best).nonzero()[0].tolist()

    def _entries(self, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The concatenated path entries of *ids*, and each path's length."""
        lengths = self._lengths[ids]
        ends = lengths.cumsum()
        # Entry i of path j sits at path_indptr[j] + i; shift[j] moves the
        # running position (ends[j] - lengths[j] + i) onto it.
        shift = self.path_indptr[ids] + lengths - ends
        gather = shift.repeat(lengths)
        gather += np.arange(len(gather))
        return self.path_tree[gather], lengths

    # --------------------------------------------------------------- updates
    def cover(self, j: int) -> list[int]:
        """Cover the path of non-tree edge *j*; return the newly covered tree ids."""
        return self.cover_many([j])

    def cover_many(self, ids: Iterable[int]) -> list[int]:
        """Cover with several edges; return all newly covered tree ids (ascending)."""
        was = self.covered.copy()
        self._cover_entries(self._entries(np.fromiter(ids, dtype=np.int64))[0])
        return (self.covered != was).nonzero()[0].tolist()

    def _cover_entries(self, tree_ids: np.ndarray) -> None:
        """Flag *tree_ids* covered and recount ``|C_e|``."""
        self.covered[tree_ids] = True
        remaining = self.n_tree - int(self.covered.sum())
        if remaining == self._uncovered_total:
            return
        self._uncovered_total = remaining
        # |C_e| of every edge: the per-path sums of the uncovered flags,
        # gathered and summed as int32 (a sum in any other dtype would first
        # copy the whole gather into it).
        uncovered = (~self.covered).astype(np.int32)[self.path_tree]
        if self._nonempty is None:
            counts = np.add.reduceat(uncovered, self.path_indptr[:-1], dtype=np.int32)
        else:
            counts = np.zeros(self.m_nt, dtype=np.int32)
            counts[self._nonempty] = np.add.reduceat(
                uncovered, self.path_indptr[self._nonempty], dtype=np.int32
            )
        self.nt_uncovered = counts.astype(np.int64)

    # ---------------------------------------------------------------- voting
    def voting_round(
        self, candidates: Sequence[int], numbers: Sequence[int]
    ) -> list[int]:
        """Lines 3-6 of the TAP iteration: vote, then cover with the winners.

        *candidates* must be live (``|C_e| > 0``) and in ascending ``repr``
        order (the historical candidate order); ``numbers[i]`` is the random
        number drawn for ``candidates[i]``.  Every uncovered tree edge on a
        candidate path votes for the covering candidate with the smallest
        ``(number, repr)``; the candidates with at least ``|C_e| / 8`` votes
        cover their paths and are returned, by ascending number.  The numbers
        may exceed int64, so the candidates are ranked first: a stable sort by
        number keeps the ``repr`` order on ties, which is exactly the
        historical tie-break.
        """
        ranked = np.asarray(
            [candidates[i] for i in sorted(range(len(candidates)), key=numbers.__getitem__)],
            dtype=np.int64,
        )
        tree_ids, lengths = self._entries(ranked)
        voter = np.arange(len(ranked)).repeat(lengths)
        # best[t]: the first-ranked candidate over tree edge t; -1 marks a
        # covered tree edge, which casts no vote.
        best = np.where(self.covered, -1, len(ranked))
        np.minimum.at(best, tree_ids, voter)
        votes = np.bincount(voter, weights=best[tree_ids] == voter, minlength=len(ranked))
        passed = 8 * votes >= self.nt_uncovered[ranked]
        self._cover_entries(tree_ids[passed[voter]])
        return ranked[passed].tolist()

    # ------------------------------------------------------------ validation
    def covers_everything(self, ids: Iterable[int]) -> bool:
        """Do the paths of *ids* jointly cover every tree edge (stateless check)?"""
        seen = np.zeros(self.n_tree, dtype=bool)
        seen[self._entries(np.fromiter(ids, dtype=np.int64))[0]] = True
        return bool(seen.all())
