"""Set-based coverage bookkeeping for tree augmentation (reference oracle).

:class:`CoverageStateNX` exposes, for every non-tree edge ``e`` of the input
graph, the set ``S_e`` of tree edges on its tree path (the cuts of size 1 it
covers) as a ``frozenset`` of tree-edge indices, and tracks the tree edges
covered by the augmentation built so far with Python set algebra.  It is the
historical implementation, kept as the reference oracle of the ``diff-tap-*``
differential suite; the solvers run on the flat-array kernel
:class:`repro.tap.fastcover.FastCoverage`, which uses the same tree-edge
index space (tree edges sorted by ``repr``).
"""

from __future__ import annotations

from typing import Hashable, Iterable

import networkx as nx

from repro.graphs.connectivity import canonical_edge
from repro.trees.rooted import RootedTree

Edge = tuple[Hashable, Hashable]

__all__ = ["CoverageStateNX"]


class CoverageStateNX:
    """The historical ``frozenset``-based implementation (reference oracle).

    Kept verbatim for the ``diff-tap-*`` differential suite: every query is
    answered with Python set algebra over per-edge ``frozenset`` paths, the
    behaviour the flat-array kernel must reproduce bit-identically.
    """

    def __init__(self, graph: nx.Graph, tree: RootedTree) -> None:
        self.graph = graph
        self.tree = tree

        self._tree_edges: list[Edge] = sorted(tree.tree_edges(), key=repr)
        self._tree_edge_index: dict[Edge, int] = {
            edge: index for index, edge in enumerate(self._tree_edges)
        }
        self._covered: set[int] = set()

        tree_edge_set = set(self._tree_edges)
        self._paths: dict[Edge, frozenset[int]] = {}
        self._weights: dict[Edge, int] = {}
        for u, v, data in graph.edges(data=True):
            edge = canonical_edge(u, v)
            if edge in tree_edge_set:
                continue
            path = frozenset(
                self._tree_edge_index[canonical_edge(a, b)]
                for a, b in tree.tree_path_edges(u, v)
            )
            self._paths[edge] = path
            self._weights[edge] = data.get("weight", 1)

    # --------------------------------------------------------------- queries
    @property
    def tree_edges(self) -> list[Edge]:
        return list(self._tree_edges)

    @property
    def non_tree_edges(self) -> list[Edge]:
        return list(self._paths)

    def weight(self, edge: Edge) -> int:
        return self._weights[canonical_edge(*edge)]

    def path(self, edge: Edge) -> frozenset[int]:
        return self._paths[canonical_edge(*edge)]

    def tree_edge_by_index(self, index: int) -> Edge:
        return self._tree_edges[index]

    def tree_edge_index(self, edge: Edge) -> int:
        return self._tree_edge_index[canonical_edge(*edge)]

    def is_covered(self, tree_edge: Edge) -> bool:
        return self._tree_edge_index[canonical_edge(*tree_edge)] in self._covered

    def covered_indices(self) -> frozenset[int]:
        return frozenset(self._covered)

    def uncovered_indices(self) -> frozenset[int]:
        return frozenset(range(len(self._tree_edges))) - frozenset(self._covered)

    def uncovered_on_path(self, edge: Edge) -> frozenset[int]:
        return self.path(edge) - frozenset(self._covered)

    def uncovered_count(self, edge: Edge) -> int:
        return len(self.uncovered_on_path(edge))

    def all_covered(self) -> bool:
        return len(self._covered) == len(self._tree_edges)

    # --------------------------------------------------------------- updates
    def cover_with(self, edge: Edge) -> set[int]:
        path = self.path(edge)
        new = set(path) - self._covered
        self._covered.update(path)
        return new

    def cover_with_many(self, edges: Iterable[Edge]) -> set[int]:
        new: set[int] = set()
        for edge in edges:
            new.update(self.cover_with(edge))
        return new

    # ------------------------------------------------------------ validation
    def verify_augmentation(self, edges: Iterable[Edge]) -> bool:
        covered: set[int] = set()
        for edge in edges:
            covered.update(self.path(edge))
        return len(covered) == len(self._tree_edges)
