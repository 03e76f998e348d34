"""Deterministic reference MST algorithms.

The distributed algorithms only ever need *an* MST, but the reproduction
benefits from a *canonical* one: Kruskal with ties broken by the canonical
edge id makes every run of the 2-ECSS pipeline deterministic given the graph
and the random seed of the TAP stage, which keeps tests reproducible.
"""

from __future__ import annotations

import heapq
from typing import Hashable

import networkx as nx

from repro.graphs.connectivity import canonical_edge
from repro.graphs.fastgraph import ArrayUnionFind

Edge = tuple[Hashable, Hashable]

__all__ = ["minimum_spanning_tree", "prim_mst", "mst_weight"]


def minimum_spanning_tree(graph: nx.Graph) -> nx.Graph:
    """Return the canonical MST of a connected *graph* (Kruskal, deterministic ties).

    Edges are compared by ``(weight, canonical edge id)`` so the result is
    unique even when weights repeat; weights are copied onto the output tree.
    When the node labels are not mutually comparable (e.g. mixed int/str)
    the edge id is compared by ``repr`` instead, as :func:`canonical_edge`
    does.
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
    tree = nx.Graph()
    tree.add_nodes_from(graph.nodes())
    remaining = len(index) - 1
    for weight, (u, v) in ordered:
        if forest.union(index[u], index[v]):
            tree.add_edge(u, v, weight=weight)
            remaining -= 1
            if remaining == 0:
                break
    if remaining:
        raise ValueError("the graph is not connected; it has no spanning tree")
    return tree


def _repr_key(item: tuple[int, Edge]) -> tuple[int, str]:
    """``(weight, edge)`` ordering for node labels that do not compare."""
    return item[0], repr(item[1])


def prim_mst(graph: nx.Graph, start: Hashable | None = None) -> nx.Graph:
    """Return an MST of *graph* via Prim's algorithm (used as a cross-check in tests).

    Heap entries compare by ``(weight, repr(edge))``, so node labels need
    not be mutually comparable.
    """
    if graph.number_of_nodes() == 0:
        raise ValueError("cannot compute an MST of an empty graph")
    if not nx.is_connected(graph):
        raise ValueError("the graph is not connected; it has no spanning tree")
    if start is None:
        start = min(graph.nodes(), key=repr)

    def push(heap: list, u: Hashable, v: Hashable) -> None:
        edge = canonical_edge(u, v)
        heapq.heappush(heap, (graph[u][v].get("weight", 1), repr(edge), edge))

    visited = {start}
    tree = nx.Graph()
    tree.add_nodes_from(graph.nodes())
    heap: list[tuple[int, str, Edge]] = []
    for neighbor in graph.neighbors(start):
        push(heap, start, neighbor)
    while heap and len(visited) < graph.number_of_nodes():
        weight, _, (u, v) = heapq.heappop(heap)
        if u in visited and v in visited:
            continue
        new = v if u in visited else u
        tree.add_edge(u, v, weight=weight)
        visited.add(new)
        for neighbor in graph.neighbors(new):
            if neighbor not in visited:
                push(heap, new, neighbor)
    return tree


def mst_weight(graph: nx.Graph) -> int:
    """Return the total weight of the canonical MST of *graph*."""
    tree = minimum_spanning_tree(graph)
    return sum(data.get("weight", 1) for _, _, data in tree.edges(data=True))
