"""DFS- and MST-based 2-ECSS baselines (the structure of [1, 21, 23]).

``dfs_unweighted_two_ecss`` is the classic Khuller-Vishkin-style DFS
2-approximation for the unweighted problem: keep the DFS tree and, for every
vertex, the back edge climbing highest from its subtree.

``mst_plus_greedy_two_ecss`` mirrors the structure of the previous weighted
algorithms the paper improves on ([1], [23]): build an MST and augment it with
a sequential TAP algorithm (here the greedy set-cover TAP).  Its round cost in
the distributed setting is O(h_MST + ...), which is what Theorem 1.1 improves
to O~(D + sqrt n).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable

import networkx as nx

from repro.graphs.connectivity import canonical_edge
from repro.mst.sequential import minimum_spanning_tree
from repro.tap.greedy import greedy_tap
from repro.trees.rooted import RootedTree

Edge = tuple[Hashable, Hashable]

__all__ = ["TwoEcssBaselineResult", "dfs_unweighted_two_ecss", "mst_plus_greedy_two_ecss"]


@dataclass
class TwoEcssBaselineResult:
    """Result of a 2-ECSS baseline."""

    edges: frozenset[Edge]
    weight: int
    tree_weight: int
    augmentation_weight: int


def dfs_unweighted_two_ecss(graph: nx.Graph, root: Hashable | None = None) -> TwoEcssBaselineResult:
    """Unweighted 2-ECSS 2-approximation: DFS tree + highest-reaching back edges.

    For every tree edge ``(v, parent(v))`` that is not yet covered, add the
    back edge from the subtree of ``v`` that reaches the closest to the root;
    the output has at most ``2 (n - 1)`` edges.
    """
    if root is None:
        root = min(graph.nodes(), key=repr)
    rooted = RootedTree(nx.dfs_edges(graph, root), root=root)
    if rooted.number_of_nodes() != graph.number_of_nodes():
        raise ValueError("the input graph is not connected")

    # low[v]: the smallest depth reachable from the subtree of v via one back edge.
    tree_edge_set = set(rooted.tree_edges())
    best_back: dict[Hashable, tuple[int, Edge] | None] = {v: None for v in graph.nodes()}
    for u, v in graph.edges():
        edge = canonical_edge(u, v)
        if edge in tree_edge_set:
            continue
        deeper, higher = (u, v) if rooted.depth(u) >= rooted.depth(v) else (v, u)
        candidate = (rooted.depth(higher), edge)
        if best_back[deeper] is None or candidate < best_back[deeper]:
            best_back[deeper] = candidate

    # Propagate the best back edge upwards (subtree minima).
    for node in rooted.leaves_to_root_order():
        for child in rooted.children(node):
            child_best = best_back[child]
            if child_best is not None and (
                best_back[node] is None or child_best < best_back[node]
            ):
                best_back[node] = child_best

    chosen: set[Edge] = set(tree_edge_set)
    for node in rooted.bfs_order():
        if node == root:
            continue
        # The tree edge (node, parent) is covered iff some back edge from the
        # subtree of node reaches a vertex strictly above node.
        best = best_back[node]
        if best is not None and best[0] < rooted.depth(node):
            chosen.add(best[1])
    weight = sum(graph[u][v].get("weight", 1) for u, v in chosen)
    tree_weight = sum(graph[u][v].get("weight", 1) for u, v in tree_edge_set)
    return TwoEcssBaselineResult(
        edges=frozenset(chosen),
        weight=weight,
        tree_weight=tree_weight,
        augmentation_weight=weight - tree_weight,
    )


def mst_plus_greedy_two_ecss(graph: nx.Graph) -> TwoEcssBaselineResult:
    """Weighted 2-ECSS baseline: MST + sequential greedy TAP (structure of [1, 23])."""
    mst = minimum_spanning_tree(graph)
    rooted = RootedTree(mst, root=min(graph.nodes(), key=repr))
    tap = greedy_tap(graph, rooted)
    tree_edges = set(mst)
    edges = tree_edges | tap.augmentation
    tree_weight = sum(graph[u][v].get("weight", 1) for u, v in tree_edges)
    return TwoEcssBaselineResult(
        edges=frozenset(edges),
        weight=tree_weight + tap.weight,
        tree_weight=tree_weight,
        augmentation_weight=tap.weight,
    )
