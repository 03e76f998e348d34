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

A cut is represented in the ids of the graph's :class:`FastGraph` snapshot:
the sorted ids of its edges and the vertex ids of its smaller side.  An
edge *covers* the cut iff exactly one of its endpoints lies on that side,
matching Definition 2.1 (removing the cut leaves exactly two components,
and a crossing edge reconnects them); which side is recorded does not
change that.  The label form -- a ``Cut`` of node labels and canonical
label edges -- is the tests' reference and lives in ``tests/oracles.py``,
with the historical dict-of-dicts cut-pair enumerator
``enumerate_cut_pairs_nx``.
"""

from __future__ import annotations

import networkx as nx

from repro.graphs.connectivity import _is_k_edge_connected, edge_connectivity
from repro.graphs.fastgraph import FastGraph

__all__ = ["enumerate_cuts_of_size"]


def enumerate_cuts_of_size(
    graph: nx.Graph | FastGraph, size: int
) -> list[tuple[tuple[int, ...], list[int]]]:
    """Enumerate the cuts of exactly *size* edges of a connected *graph* (exact).

    Returns ``(sorted edge ids, vertex ids of the smaller side)`` pairs in
    the ids of the snapshot ``FastGraph.of(graph)``.  Size 1 reads the
    bridges off one DFS (:meth:`~repro.graphs.fastgraph.FastGraph.bridge_sides`),
    size 2 takes the Claim 5.6 cut pairs
    (:meth:`~repro.graphs.fastgraph.FastGraph.cut_pairs`), every larger
    size the cycle-space label lookup of
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
        return [((eid,), side) for eid, side in fast.bridge_sides()]
    if size == 2:
        # Distinct pairs are distinct cuts, so nothing needs deduplicating.
        return [(pair, fast._cut_side(pair)) for pair in fast.cut_pairs()]
    return fast.cuts_of_size(size)
