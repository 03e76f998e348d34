"""The skeleton tree of the segment decomposition (Section 3.2, step III).

The skeleton tree ``T_S`` is the virtual tree whose vertices are the marked
vertices and whose edges correspond to segment highways: ``v`` is the parent
of ``u`` in ``T_S`` iff ``v = r_S`` and ``u = d_S`` for some segment ``S``.
All vertices learn the complete structure of ``T_S`` (Claim 3.1); the TAP
implementation uses it to reason about the tree path between vertices of
different segments as a concatenation of highways.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Hashable

from repro.graphs.connectivity import canonical_edge

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers only
    from repro.decomposition.segments import Segment
    from repro.trees.rooted import RootedTree

Edge = tuple[Hashable, Hashable]

__all__ = ["SkeletonTree"]


class SkeletonTree:
    """The virtual tree over marked vertices whose edges are segment highways.

    Internally the marked vertices are relabelled to ``0..s-1`` and the
    parent/depth structure is kept in flat integer arrays (the same
    representation trick as :mod:`repro.graphs.fastgraph`), so the
    path/depth queries the TAP stage leans on walk lists of ints instead of
    chasing a label-keyed parent dict.  The public API still speaks original
    vertex labels.
    """

    def __init__(
        self,
        root: Hashable,
        parent: dict[Hashable, Hashable | None],
        highway_of: dict[Edge, list[Hashable]],
    ) -> None:
        self._root = root
        self._parent = parent
        self._highway_of = highway_of
        # Flat mirrors of the parent map: label <-> id, parent id, depth.
        self._labels = list(parent)
        self._index = {label: i for i, label in enumerate(self._labels)}
        self._parent_idx = [
            -1 if parent[label] is None else self._index[parent[label]]
            for label in self._labels
        ]
        self._depth = self._compute_depths()

    def _compute_depths(self) -> list[int]:
        """Depth of every marked vertex, resolved iteratively (no recursion)."""
        depth = [-1] * len(self._labels)
        parent_idx = self._parent_idx
        for start in range(len(depth)):
            if depth[start] >= 0:
                continue
            chain = []
            vertex = start
            while vertex >= 0 and depth[vertex] < 0:
                chain.append(vertex)
                vertex = parent_idx[vertex]
            base = depth[vertex] if vertex >= 0 else -1
            for offset, item in enumerate(reversed(chain), start=1):
                depth[item] = base + offset
        return depth

    # ----------------------------------------------------------- constructors
    @staticmethod
    def from_segments(
        tree: "RootedTree",
        marked: set[Hashable],
        segments: list["Segment"],
    ) -> "SkeletonTree":
        """Build the skeleton tree from the highway segments."""
        parent: dict[Hashable, Hashable | None] = {v: None for v in marked}
        highway_of: dict[Edge, list[Hashable]] = {}
        for segment in segments:
            if not segment.has_highway:
                continue
            parent[segment.descendant] = segment.root
            highway_of[canonical_edge(segment.root, segment.descendant)] = list(
                segment.highway_vertices
            )
        return SkeletonTree(root=tree.root, parent=parent, highway_of=highway_of)

    # ---------------------------------------------------------------- queries
    @property
    def root(self) -> Hashable:
        return self._root

    def nodes(self) -> set[Hashable]:
        """The marked vertices."""
        return set(self._parent)

    def parent(self, vertex: Hashable) -> Hashable | None:
        """Parent of *vertex* in the skeleton tree (None for the root)."""
        return self._parent[vertex]

    def edges(self) -> list[Edge]:
        """Skeleton edges as canonical ``(r_S, d_S)`` pairs."""
        return list(self._highway_of)

    def highway(self, r: Hashable, d: Hashable) -> list[Hashable]:
        """The tree vertices of the highway corresponding to skeleton edge ``{r, d}``."""
        return list(self._highway_of[canonical_edge(r, d)])

    def depth(self, vertex: Hashable) -> int:
        """Depth of *vertex* in the skeleton tree (precomputed, O(1))."""
        return self._depth[self._index[vertex]]

    def path(self, u: Hashable, v: Hashable) -> list[Hashable]:
        """Skeleton vertices on the path between two marked vertices (inclusive).

        Classic two-pointer LCA walk on the flat depth/parent arrays.
        """
        if u not in self._index or v not in self._index:
            raise KeyError("both endpoints must be marked vertices")
        parent_idx, depth, labels = self._parent_idx, self._depth, self._labels
        a, b = self._index[u], self._index[v]
        prefix: list[int] = []  # from u down towards the meeting point
        suffix: list[int] = []  # from v up towards the meeting point
        while depth[a] > depth[b]:
            prefix.append(a)
            a = parent_idx[a]
        while depth[b] > depth[a]:
            suffix.append(b)
            b = parent_idx[b]
        while a != b:
            prefix.append(a)
            suffix.append(b)
            a = parent_idx[a]
            b = parent_idx[b]
        if a < 0:
            # Both walks stepped past their roots in the same iteration: the
            # endpoints live in different trees of the skeleton forest.
            raise KeyError("both endpoints must be in the same skeleton tree")
        prefix.append(a)
        prefix.extend(reversed(suffix))
        return [labels[i] for i in prefix]

    def expand_path_to_tree_edges(self, u: Hashable, v: Hashable) -> list[Edge]:
        """Expand the skeleton path between *u* and *v* into the underlying tree edges.

        This is the `P_{r_u, r_v}` of the cost-effectiveness computation
        (Section 3.1, case 2): the tree path between two marked vertices is the
        concatenation of the highways along their skeleton path.
        """
        skeleton_path = self.path(u, v)
        edges: list[Edge] = []
        for a, b in zip(skeleton_path, skeleton_path[1:]):
            highway = self._highway_of[canonical_edge(a, b)]
            edges.extend(
                canonical_edge(x, y) for x, y in zip(highway, highway[1:])
            )
        return edges
