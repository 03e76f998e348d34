"""Enumeration of small edge cuts.

The augmentation framework of the paper (Section 2) reduces ``Aug_k`` to a
covering problem over the cuts of size ``k - 1`` of a ``(k-1)``-edge-connected
subgraph ``H``.  Because ``H`` is ``(k-1)``-edge-connected, those cuts are
exactly the *minimum* cuts of ``H`` (when any exist), and there are at most
``n choose 2`` of them (Dinitz-Karzanov-Lomonosov; footnote 4 of the paper).

This module enumerates them, exactly and without randomness in the result:

* size 1 -- bridges, each side read off one DFS as a preorder interval,
* size 2 -- cut pairs via the spanning-tree covering-set characterisation of
  Claim 5.6,
* size >= 3 -- cycle space sampling (Pritchard & Thurimella, ref. [32]).
  Every cut meets every cycle in an even number of edges, so under any
  cycle-space labelling ``phi`` (random labels on the non-tree edges of a
  spanning tree, XOR-propagated to the tree edges) the labels of a cut's
  edges XOR to 0, and every cut contains a tree edge.  Looking up
  ``phi(t) ^ phi(X)`` for each tree edge ``t`` and each ``(size - 2)``-set
  ``X`` of other edges therefore proposes every cut of that size.  Each
  proposal ``F`` is confirmed in the cut space: with exact labels (the
  bitmask of the covering non-tree edges on each tree edge) ``F`` is a
  cut-space element iff its labels XOR to 0, and on a graph with
  ``2 * lambda > size`` a non-empty element of that size is exactly one
  cut.  So the output does not depend on the random labels, and no search
  runs per proposal.  The ground truth for tests on tiny graphs, an
  enumeration over every bipartition, is in ``tests/oracles.py``.

A cut is represented by the vertex set of one side; an edge *covers* the cut
iff it crosses the bipartition, matching Definition 2.1 (removing the cut
leaves exactly two components, and a crossing edge reconnects them).

The enumerators run on the flat-array CSR kernel of
:mod:`repro.graphs.fastgraph` (integer ids, one-pass bridge sides, label
lookup and cut-space confirmation; every side is read off a spanning-tree
preorder as a few intervals); the historical dict-of-dicts cut-pair
enumerator is the ``enumerate_cut_pairs_nx`` oracle in ``tests/oracles.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Iterable

import networkx as nx

from repro.graphs.connectivity import (
    _is_k_edge_connected,
    canonical_edge,
    edge_connectivity,
)
from repro.graphs.fastgraph import FastGraph

Edge = tuple[Hashable, Hashable]

__all__ = [
    "Cut",
    "enumerate_bridge_cuts",
    "enumerate_cut_pairs",
    "enumerate_cuts_of_size",
    "cut_is_covered",
    "edge_covers_cut",
]


@dataclass(frozen=True)
class Cut:
    """An edge cut of a graph ``H`` identified by one side of its bipartition.

    Attributes:
        side: The vertex set of one side (the lexicographically smaller side
            representation is chosen on construction so equal cuts compare equal).
        edges: The edges of ``H`` crossing the bipartition, in canonical form.
    """

    side: frozenset[Hashable]
    edges: frozenset[Edge] = field(compare=False)

    @property
    def size(self) -> int:
        """Number of edges in the cut."""
        return len(self.edges)

    @staticmethod
    def from_side(graph: nx.Graph, side: Iterable[Hashable]) -> "Cut":
        """Build a :class:`Cut` of *graph* from one side of a bipartition."""
        side_set = frozenset(side)
        other = frozenset(graph.nodes()) - side_set
        if not side_set or not other:
            raise ValueError("a cut side must be a proper non-empty subset of the vertices")
        crossing = frozenset(
            canonical_edge(u, v)
            for u, v in graph.edges()
            if (u in side_set) != (v in side_set)
        )
        canonical_side = _canonical_side(side_set, other)
        return Cut(side=canonical_side, edges=crossing)


def _canonical_side(side: frozenset, other: frozenset) -> frozenset:
    """Pick a canonical representative between the two sides of a bipartition."""
    if len(side) != len(other):
        return side if len(side) < len(other) else other
    return min(side, other, key=lambda s: sorted(repr(v) for v in s))


def edge_covers_cut(edge: Edge, cut: Cut) -> bool:
    """Return ``True`` iff *edge* crosses the bipartition of *cut* (Definition 2.1)."""
    u, v = edge
    return (u in cut.side) != (v in cut.side)


def cut_is_covered(cut: Cut, edges: Iterable[Edge]) -> bool:
    """Return ``True`` iff at least one edge in *edges* covers *cut*."""
    return any(edge_covers_cut(edge, cut) for edge in edges)


def _cut_from_side_ids(fast: FastGraph, side_ids: Iterable[int], crossing: Iterable[int]) -> Cut:
    """Build a :class:`Cut` from kernel vertex ids (one side) and edge ids.

    Produces exactly what ``Cut.from_side`` would when *crossing* holds the
    ids of the edges crossing the bipartition, which every caller already
    knows (a bridge, a cut pair, a confirmed cut).  The canonical side is
    the smaller one, so the labels of the other side -- O(n) -- are only
    built when *side_ids* is not strictly smaller; the cut methods of
    :class:`FastGraph` hand over the smaller side.
    """
    labels = fast.labels
    side = frozenset(labels[v] for v in side_ids)
    if not 0 < len(side) < fast.n:
        raise ValueError("a cut side must be a proper non-empty subset of the vertices")
    if 2 * len(side) >= fast.n:
        side = _canonical_side(side, frozenset(labels) - side)
    tail, head = fast.tail, fast.head
    edges = frozenset(
        canonical_edge(labels[tail[eid]], labels[head[eid]]) for eid in crossing
    )
    return Cut(side=side, edges=edges)


def enumerate_bridge_cuts(graph: nx.Graph) -> list[Cut]:
    """Return one :class:`Cut` per bridge of *graph*.

    One DFS finds every bridge and its side (the component of one endpoint
    once the bridge is gone) as a preorder interval; the crossing set is the
    bridge itself.  No per-bridge search, and the graph is never copied.
    """
    return _bridge_cuts(FastGraph.from_nx(graph))


def _bridge_cuts(fast: FastGraph) -> list[Cut]:
    # On a disconnected input the side holds the bridge's tail endpoint,
    # within the bridge's own component: the rest of the vertex set is
    # other components the bridge does not separate.
    return [_cut_from_side_ids(fast, side, (eid,)) for eid, side in fast.bridge_sides()]


def enumerate_cut_pairs(graph: nx.Graph) -> list[Cut]:
    """Return all cuts of size 2 of a connected *graph* (exact).

    Uses the characterisation of Claim 5.6 on the flat-array kernel: fix any
    spanning tree ``T``.  A pair ``{e, f}`` is a cut pair iff either

    1. ``e`` is a tree edge and ``f`` is the unique non-tree edge covering it, or
    2. ``e`` and ``f`` are tree edges covered by exactly the same non-empty
       set of non-tree edges.

    On a connected graph every such pair is a cut, and pairs of bridges
    (empty cover sets) never are, so no pair needs a search to confirm it
    (:meth:`~repro.graphs.fastgraph.FastGraph.cut_pairs`).
    """
    if graph.number_of_nodes() < 2:
        return []
    fast = FastGraph.from_nx(graph)
    if not fast.is_connected():
        raise ValueError("cut-pair enumeration requires a connected graph")
    return _cut_pair_cuts(fast)


def _cut_pair_cuts(fast: FastGraph) -> list[Cut]:
    # Distinct pairs are distinct cuts, so nothing needs deduplicating.
    return [_cut_from_side_ids(fast, side, pair) for pair, side in fast.cut_pair_sides()]


def enumerate_cuts_of_size(graph: nx.Graph | FastGraph, size: int) -> list[Cut]:
    """Enumerate the cuts of exactly *size* edges of a connected *graph* (exact).

    Sizes 1 and 2 go to the bridge and cut-pair enumerators, every larger
    size to the cycle-space label lookup of
    :meth:`~repro.graphs.fastgraph.FastGraph.cuts_of_size`; none of them is
    randomised.  The graph must be at least *size*-edge-connected (checked
    here), which gives the ``2 * lambda > size`` that confirming a cut in
    the cut space needs.  When the edge connectivity of the graph exceeds
    *size* the result is empty (there is nothing to cover and the
    corresponding ``Aug`` instance is already solved).  *graph* may be a
    :class:`FastGraph` snapshot, which is read as it is.
    """
    if size < 1:
        raise ValueError("cut size must be >= 1")
    fast = FastGraph.of(graph)
    if fast.n < 2:
        return []
    if not _is_k_edge_connected(fast, size):
        raise ValueError(
            f"graph has edge connectivity {edge_connectivity(fast)} < requested cut "
            f"size {size}; the augmentation framework requires a (size)-edge-connected input"
        )
    if size == 1:
        return _bridge_cuts(fast)
    if size == 2:
        return _cut_pair_cuts(fast)
    return [_cut_from_side_ids(fast, side, edges) for edges, side in fast.cuts_of_size(size)]
