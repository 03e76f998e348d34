"""The deterministic reference MST.

The distributed algorithms only ever need *an* MST, but the reproduction
benefits from a *canonical* one: Kruskal with ties broken by the canonical
edge id makes every run of the 2-ECSS pipeline deterministic given the graph
and the random seed of the TAP stage, which keeps tests reproducible.  The
MST is returned as its ordered edge list, which
:class:`repro.trees.rooted.RootedTree` roots directly.
"""

from __future__ import annotations

from typing import Hashable

import networkx as nx

from repro.graphs.connectivity import canonical_edge
from repro.graphs.fastgraph import ArrayUnionFind

Edge = tuple[Hashable, Hashable]

__all__ = ["minimum_spanning_tree", "mst_weight"]


def minimum_spanning_tree(graph: nx.Graph) -> list[Edge]:
    """Return the canonical MST of a connected *graph* (Kruskal, deterministic ties).

    Edges are compared by ``(weight, canonical edge id)`` so the result is
    unique even when weights repeat; the tree's canonical edges come back in
    that (Kruskal) order.  When the node labels are not mutually comparable
    (e.g. mixed int/str) the edge id is compared by ``repr`` instead, as
    :func:`canonical_edge` does.
    The forest is tracked by the path-compressed array union-find of the CSR
    kernel (nodes are relabelled to ``0..n-1`` up front), so the inner loop
    touches flat integer lists rather than node-keyed dicts.
    """
    if graph.number_of_nodes() == 0:
        raise ValueError("cannot compute an MST of an empty graph")
    index = {node: i for i, node in enumerate(graph.nodes())}
    weighted = [
        (data.get("weight", 1), canonical_edge(u, v))
        for u, v, data in graph.edges(data=True)
    ]
    try:
        ordered = sorted(weighted)
    except TypeError:
        ordered = sorted(weighted, key=_repr_key)
    forest = ArrayUnionFind(len(index))
    tree: list[Edge] = []
    remaining = len(index) - 1
    for _, (u, v) in ordered:
        if forest.union(index[u], index[v]):
            tree.append((u, v))
            remaining -= 1
            if remaining == 0:
                break
    if remaining:
        raise ValueError("the graph is not connected; it has no spanning tree")
    return tree


def _repr_key(item: tuple[int, Edge]) -> tuple[int, str]:
    """``(weight, edge)`` ordering for node labels that do not compare."""
    return item[0], repr(item[1])


def mst_weight(graph: nx.Graph) -> int:
    """Return the total weight of the canonical MST of *graph*."""
    return sum(graph[u][v].get("weight", 1) for u, v in minimum_spanning_tree(graph))
