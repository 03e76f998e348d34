"""Binary circulations and their sampling (Section 5.1).

A set of edges ``phi`` is a *binary circulation* if every vertex has even
degree in ``phi``; the circulations form a GF(2) vector space whose basis is
the set of fundamental cycles of any spanning tree (Claim 5.2).  Sampling a
uniformly random circulation therefore amounts to XOR-ing a random subset of
fundamental cycles, which is what :func:`random_circulation` does.
"""

from __future__ import annotations

import random
from typing import Hashable, Iterable

import networkx as nx

from repro.graphs.connectivity import canonical_edge
from repro.trees.rooted import RootedTree

Edge = tuple[Hashable, Hashable]

__all__ = ["is_binary_circulation", "fundamental_cycle", "random_circulation"]


def is_binary_circulation(graph: nx.Graph, edges: Iterable[Edge]) -> bool:
    """Return ``True`` iff every vertex of *graph* has even degree in *edges*."""
    degree: dict[Hashable, int] = {}
    edge_set = {canonical_edge(u, v) for u, v in edges}
    for u, v in edge_set:
        if not graph.has_edge(u, v):
            raise KeyError(f"({u!r}, {v!r}) is not an edge of the graph")
        degree[u] = degree.get(u, 0) + 1
        degree[v] = degree.get(v, 0) + 1
    return all(count % 2 == 0 for count in degree.values())


def fundamental_cycle(tree: RootedTree, non_tree_edge: Edge) -> frozenset[Edge]:
    """Return ``Cyc_e``: the non-tree edge plus the tree path between its endpoints."""
    u, v = non_tree_edge
    cycle = set(tree.tree_path_edges(u, v))
    cycle.add(canonical_edge(u, v))
    return frozenset(cycle)


def random_circulation(
    graph: nx.Graph,
    tree: RootedTree,
    seed: int | random.Random | None = None,
) -> frozenset[Edge]:
    """Sample a uniformly random binary circulation of *graph*.

    Each non-tree edge is included in a random subset ``E'`` independently
    with probability 1/2; the circulation is the XOR (symmetric difference)
    of the fundamental cycles of ``E'`` (Proposition 2.6 of [32]).
    """
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    tree_edges = set(tree.tree_edges())
    result: set[Edge] = set()
    for u, v in graph.edges():
        edge = canonical_edge(u, v)
        if edge in tree_edges:
            continue
        if rng.random() < 0.5:
            result.symmetric_difference_update(fundamental_cycle(tree, edge))
    return frozenset(result)
