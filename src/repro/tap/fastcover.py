"""Flat-array coverage/voting kernel for tree augmentation (Section 3).

:class:`FastCoverage` is the coverage bookkeeping every TAP solver runs on
(:func:`~repro.tap.distributed.distributed_tap`,
:func:`~repro.tap.greedy.greedy_tap` and the exact ILP baseline).  It
materialises, for every non-tree edge of the input graph, the tree path
between its endpoints as CSR-style flat arrays over integer tree-edge ids:

* ``path_indptr`` / ``path_tree`` -- non-tree edge id ``j`` covers the tree
  edges ``path_tree[path_indptr[j]:path_indptr[j + 1]]`` (the set ``S_e``);
* ``cover_indptr`` / ``cover_nt`` -- the transpose: the non-tree edges
  covering tree edge ``t`` (the column the voting round walks);
* ``covered`` (bytearray) plus ``nt_uncovered[j] = |C_e|`` maintained
  incrementally: when a tree edge flips to covered, the count of every
  non-tree edge over it is decremented exactly once, so the per-iteration
  candidate scoring of the distributed TAP algorithm is a flat array scan
  instead of per-edge ``frozenset`` subtraction.

Tree-edge ids are the tree edges sorted by ``repr`` -- the index space of
the set-based oracle :class:`~repro.tap.cover.CoverageStateNX` -- so the
kernel and the oracle agree on indices.  Paths are extracted with the
tree's own cached :class:`repro.graphs.fastgraph.TreePathIndex`
(:attr:`RootedTree.paths <repro.trees.rooted.RootedTree.paths>`), never
through per-edge hashable path objects.

:meth:`FastCoverage.voting_round` implements Lines 3-5 of the paper's
iteration (Theorem 3.12) as one pass over the candidate columns with
round-stamped ownership arrays; ties are broken exactly as the historical
set-based implementation did (smallest random number, then smallest edge
``repr``), so the augmentation output is bit-identical.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Sequence

import networkx as nx

from repro.graphs.connectivity import canonical_edge
from repro.trees.rooted import RootedTree

Edge = tuple[Hashable, Hashable]

__all__ = ["FastCoverage"]


class FastCoverage:
    """Array-native coverage bookkeeping for one TAP instance ``(G, T)``.

    Args:
        graph: The weighted 2-edge-connected graph ``G``.
        tree: The spanning tree ``T`` to augment (typically the MST); its
            cached path index is reused, so the 2-ECSS driver indexes the
            MST once for both the decomposition and the coverage kernel.

    Attributes:
        tree_edges: Tree-edge id -> canonical edge (sorted by ``repr``).
        nt_edges: Non-tree edge id -> canonical edge (``graph.edges()``
            order, the order the historical implementation iterated in).
        nt_weight: Non-tree edge id -> integer weight.
        nt_repr: Non-tree edge id -> ``repr`` string (the tie-break key).
        nt_uncovered: Non-tree edge id -> current ``|C_e|``.
        covered: Bytearray flag per tree edge.
        uncovered: Set of still-uncovered tree-edge ids (maintained
            incrementally; never rebuilt).
    """

    __slots__ = (
        "tree_edges", "tree_edge_index", "n_tree",
        "nt_edges", "nt_index", "nt_weight", "nt_repr",
        "path_indptr", "path_tree", "cover_indptr", "cover_nt",
        "covered", "uncovered", "nt_uncovered",
        "_vote_owner", "_vote_stamp", "_round",
    )

    def __init__(self, graph: nx.Graph, tree: RootedTree) -> None:
        self.tree_edges: list[Edge] = sorted(tree.tree_edges(), key=repr)
        self.tree_edge_index: dict[Edge, int] = {
            edge: index for index, edge in enumerate(self.tree_edges)
        }
        self.n_tree = len(self.tree_edges)

        # Tree edge id of the parent edge of each vertex id (-1 for the root).
        index_of = tree.index
        child_tid = [-1] * len(index_of)
        for vid, edge in enumerate(tree.parent_edges):
            if edge is not None:
                child_tid[vid] = self.tree_edge_index[edge]

        paths = tree.paths
        tree_edge_set = set(self.tree_edges)
        nt_edges: list[Edge] = []
        nt_weight: list[int] = []
        path_indptr = [0]
        path_tree: list[int] = []
        for u, v, data in graph.edges(data=True):
            edge = canonical_edge(u, v)
            if edge in tree_edge_set:
                continue
            nt_edges.append(edge)
            nt_weight.append(data.get("weight", 1))
            for child in paths.path_edges(index_of[u], index_of[v]):
                path_tree.append(child_tid[child])
            path_indptr.append(len(path_tree))
        self.nt_edges = nt_edges
        self.nt_index = {edge: j for j, edge in enumerate(nt_edges)}
        self.nt_weight = nt_weight
        self.nt_repr = [repr(edge) for edge in nt_edges]
        self.path_indptr = path_indptr
        self.path_tree = path_tree

        # Transpose: tree edge -> covering non-tree edges, ascending edge id.
        counts = [0] * self.n_tree
        for t in path_tree:
            counts[t] += 1
        cover_indptr = [0] * (self.n_tree + 1)
        for t in range(self.n_tree):
            cover_indptr[t + 1] = cover_indptr[t] + counts[t]
        cursor = cover_indptr[:-1].copy()
        cover_nt = [0] * len(path_tree)
        for j in range(len(nt_edges)):
            for s in range(path_indptr[j], path_indptr[j + 1]):
                t = path_tree[s]
                cover_nt[cursor[t]] = j
                cursor[t] += 1
        self.cover_indptr = cover_indptr
        self.cover_nt = cover_nt

        self.covered = bytearray(self.n_tree)
        self.uncovered: set[int] = set(range(self.n_tree))
        self.nt_uncovered = [
            path_indptr[j + 1] - path_indptr[j] for j in range(len(nt_edges))
        ]
        self._vote_owner = [0] * self.n_tree
        self._vote_stamp = [0] * self.n_tree
        self._round = 0

    # --------------------------------------------------------------- queries
    @property
    def m_nt(self) -> int:
        """Number of non-tree edges (augmentation candidates)."""
        return len(self.nt_edges)

    def path_indices(self, j: int) -> list[int]:
        """Tree-edge ids on the path of non-tree edge *j* (the set ``S_e``)."""
        return self.path_tree[self.path_indptr[j]:self.path_indptr[j + 1]]

    def covering(self, t: int) -> list[int]:
        """Non-tree edge ids covering tree edge *t*, in ascending edge id."""
        return self.cover_nt[self.cover_indptr[t]:self.cover_indptr[t + 1]]

    def uncovered_path_indices(self, j: int) -> list[int]:
        """Still-uncovered tree-edge ids on the path of *j* (the set ``C_e``)."""
        covered = self.covered
        return [
            t
            for t in self.path_tree[self.path_indptr[j]:self.path_indptr[j + 1]]
            if not covered[t]
        ]

    def uncovered_total(self) -> int:
        """How many tree edges are still uncovered (O(1))."""
        return len(self.uncovered)

    def all_covered(self) -> bool:
        return not self.uncovered

    def zero_weight_ids(self) -> list[int]:
        """Ids of the zero-weight non-tree edges (added up front by both TAPs)."""
        return [j for j, w in enumerate(self.nt_weight) if w == 0]

    # --------------------------------------------------------------- updates
    def cover(self, j: int) -> list[int]:
        """Cover the path of non-tree edge *j*; return the newly covered tree ids."""
        covered = self.covered
        newly: list[int] = []
        for s in range(self.path_indptr[j], self.path_indptr[j + 1]):
            t = self.path_tree[s]
            if not covered[t]:
                covered[t] = 1
                newly.append(t)
        if newly:
            self._apply_newly_covered(newly)
        return newly

    def cover_many(self, ids: Iterable[int]) -> list[int]:
        """Cover with several edges; return all newly covered tree ids."""
        covered = self.covered
        path_indptr, path_tree = self.path_indptr, self.path_tree
        newly: list[int] = []
        for j in ids:
            for s in range(path_indptr[j], path_indptr[j + 1]):
                t = path_tree[s]
                if not covered[t]:
                    covered[t] = 1
                    newly.append(t)
        if newly:
            self._apply_newly_covered(newly)
        return newly

    def _apply_newly_covered(self, newly: Sequence[int]) -> None:
        """Maintain the uncovered set and the per-edge ``|C_e|`` counters."""
        uncovered = self.uncovered
        nt_uncovered = self.nt_uncovered
        cover_indptr, cover_nt = self.cover_indptr, self.cover_nt
        for t in newly:
            uncovered.discard(t)
            for s in range(cover_indptr[t], cover_indptr[t + 1]):
                nt_uncovered[cover_nt[s]] -= 1

    # ---------------------------------------------------------------- voting
    def voting_round(
        self, candidates: Sequence[int], numbers: Sequence[int]
    ) -> list[int]:
        """Lines 3-5 of the TAP iteration: votes of uncovered tree edges.

        *candidates* must be in ascending ``repr`` order (the historical
        candidate order) and ``numbers[i]`` is the random number drawn for
        ``candidates[i]``.  Every uncovered tree edge on a candidate path
        votes for the covering candidate with the smallest ``(number,
        repr)``; a candidate with at least ``|C_e| / 8`` votes is returned.
        Because candidates arrive in ``repr`` order, keeping the earlier
        owner on equal numbers reproduces the historical tie-break exactly.
        """
        self._round += 1
        round_id = self._round
        owner, stamp = self._vote_owner, self._vote_stamp
        covered = self.covered
        path_indptr, path_tree = self.path_indptr, self.path_tree

        candidate_uncovered = [0] * len(candidates)
        for pos, j in enumerate(candidates):
            number = numbers[pos]
            count = 0
            for s in range(path_indptr[j], path_indptr[j + 1]):
                t = path_tree[s]
                if covered[t]:
                    continue
                count += 1
                if stamp[t] != round_id:
                    stamp[t] = round_id
                    owner[t] = pos
                elif number < numbers[owner[t]]:
                    owner[t] = pos
            candidate_uncovered[pos] = count

        votes = [0] * len(candidates)
        for pos, j in enumerate(candidates):
            for s in range(path_indptr[j], path_indptr[j + 1]):
                t = path_tree[s]
                if not covered[t] and stamp[t] == round_id and owner[t] == pos:
                    votes[pos] += 1

        return [
            j
            for pos, j in enumerate(candidates)
            if candidate_uncovered[pos]
            and 8 * votes[pos] >= candidate_uncovered[pos]
        ]

    # ------------------------------------------------------------ validation
    def covers_everything(self, ids: Iterable[int]) -> bool:
        """Do the paths of *ids* jointly cover every tree edge (stateless check)?"""
        seen = bytearray(self.n_tree)
        count = 0
        path_indptr, path_tree = self.path_indptr, self.path_tree
        for j in ids:
            for s in range(path_indptr[j], path_indptr[j + 1]):
                t = path_tree[s]
                if not seen[t]:
                    seen[t] = 1
                    count += 1
        return count == self.n_tree
