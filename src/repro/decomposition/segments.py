"""Segments of the tree decomposition (Section 3.2, step III).

For every marked vertex ``d`` other than the root, the tree path up to its
nearest marked proper ancestor ``r`` is the *highway* of a segment with id
``(r, d)``.  The segment contains the highway plus every subtree hanging off
an internal highway vertex.  A marked vertex whose remaining children have no
marked descendants collects those subtrees either into one of the segments it
already roots or into a fresh highway-less segment ``(v, v)``.

The resulting segments are edge-disjoint, cover all tree edges, have diameter
O(sqrt n), and only their root and unique descendant touch other segments --
the properties the efficient TAP implementation of Section 3.1 relies on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable

from repro.decomposition.marking import mark_vertices
from repro.decomposition.skeleton import SkeletonTree
from repro.graphs.connectivity import canonical_edge
from repro.mst.fragments import FragmentDecomposition
from repro.trees.rooted import RootedTree

Edge = tuple[Hashable, Hashable]

__all__ = ["Segment", "TreeDecomposition", "build_decomposition"]


@dataclass
class Segment:
    """One segment of the decomposition.

    Attributes:
        root: The segment root ``r_S`` (an ancestor of every segment vertex).
        descendant: The unique descendant ``d_S`` (equals ``root`` when the
            segment has an empty highway).
        highway_vertices: Vertices on the highway, listed from root to descendant.
        vertices: All vertices of the segment.
        hanging_subtrees: For each internal highway vertex (and the roots of
            highway-less segments), the vertices of the subtrees attached to it
            inside this segment.
    """

    root: Hashable
    descendant: Hashable
    highway_vertices: list[Hashable]
    vertices: set[Hashable] = field(default_factory=set)
    hanging_subtrees: dict[Hashable, set[Hashable]] = field(default_factory=dict)

    @property
    def segment_id(self) -> tuple[Hashable, Hashable]:
        """The pair ``(r_S, d_S)`` identifying the segment."""
        return (self.root, self.descendant)

    @property
    def highway_edges(self) -> list[Edge]:
        """The highway as a list of canonical tree edges (root towards descendant)."""
        return [
            canonical_edge(u, v)
            for u, v in zip(self.highway_vertices, self.highway_vertices[1:])
        ]

    @property
    def has_highway(self) -> bool:
        return len(self.highway_vertices) > 1

    def internal_vertices(self) -> set[Hashable]:
        """Segment vertices other than the root and the unique descendant."""
        return self.vertices - {self.root, self.descendant}

    def __contains__(self, vertex: Hashable) -> bool:
        return vertex in self.vertices


@dataclass
class TreeDecomposition:
    """The full decomposition: marked vertices, segments and skeleton tree."""

    tree: RootedTree
    marked: set[Hashable]
    segments: list[Segment]
    skeleton: SkeletonTree
    home_segment: dict[Hashable, int]

    def segment_of(self, vertex: Hashable) -> Segment:
        """Return the home segment of *vertex*.

        Marked vertices may belong to several segments; the home segment is
        the one in which they appear as root or descendant first.
        """
        return self.segments[self.home_segment[vertex]]

    def segments_of_edge(self, edge: Edge) -> Segment:
        """Return the unique segment containing the tree *edge* (segments are edge-disjoint)."""
        u, v = edge
        child = self.tree.deeper_endpoint(canonical_edge(u, v))
        for segment in self.segments:
            if canonical_edge(u, v) in set(segment.highway_edges):
                return segment
        # Non-highway edges live in the segment owning the child endpoint.
        return self.segment_of(child)

    def max_segment_diameter(self) -> int:
        """Upper bound on the largest segment diameter (highway + 2 x hanging depth)."""
        best = 0
        for segment in self.segments:
            highway_length = max(0, len(segment.highway_vertices) - 1)
            hang = 0
            for anchor, subtree in segment.hanging_subtrees.items():
                if not subtree:
                    continue
                anchor_depth = self.tree.depth(anchor)
                hang = max(hang, max(self.tree.depth(v) for v in subtree) - anchor_depth)
            best = max(best, highway_length + 2 * hang)
        return best

    def segment_count(self) -> int:
        return len(self.segments)

    def validate(self) -> list[str]:
        """Return a list of violated structural properties (empty when valid)."""
        problems = []
        tree_edges = set(self.tree.tree_edges())
        covered: dict[Edge, int] = {}
        for segment in self.segments:
            for edge in self._segment_edges(segment):
                covered[edge] = covered.get(edge, 0) + 1
        missing = tree_edges - set(covered)
        if missing:
            problems.append(f"{len(missing)} tree edges belong to no segment")
        doubled = [edge for edge, count in covered.items() if count > 1]
        if doubled:
            problems.append(f"{len(doubled)} tree edges belong to more than one segment")
        for segment in self.segments:
            for vertex in segment.internal_vertices():
                neighbors = self.tree.children(vertex) + [self.tree.parent(vertex)]
                neighbors_outside = [
                    w for w in neighbors if w is not None and w not in segment.vertices
                ]
                if neighbors_outside:
                    problems.append(
                        f"internal vertex {vertex!r} of segment {segment.segment_id!r} "
                        "has tree neighbours outside the segment"
                    )
        return problems

    def _segment_edges(self, segment: Segment) -> list[Edge]:
        edges = list(segment.highway_edges)
        for anchor, subtree in segment.hanging_subtrees.items():
            for vertex in subtree:
                parent = self.tree.parent(vertex)
                if parent is not None and (parent in subtree or parent == anchor):
                    edges.append(canonical_edge(vertex, parent))
        return edges


def build_decomposition(
    mst: RootedTree, fragments: FragmentDecomposition
) -> TreeDecomposition:
    """Build the segment decomposition of Section 3.2 from the MST fragments."""
    marked = mark_vertices(mst, fragments)

    # Nearest marked (proper) ancestor of every vertex; the root maps to itself.
    nearest_marked_ancestor: dict[Hashable, Hashable] = {}
    for node in mst.bfs_order():
        parent = mst.parent(node)
        if parent is None:
            nearest_marked_ancestor[node] = node
        elif parent in marked:
            nearest_marked_ancestor[node] = parent
        else:
            nearest_marked_ancestor[node] = nearest_marked_ancestor[parent]

    # Does the subtree of a vertex contain a marked vertex?
    has_marked_descendant: dict[Hashable, bool] = {}
    for node in mst.leaves_to_root_order():
        flag = node in marked
        for child in mst.children(node):
            flag = flag or has_marked_descendant[child]
        has_marked_descendant[node] = flag

    segments: list[Segment] = []
    segment_by_root: dict[Hashable, list[int]] = {}

    def new_segment(root: Hashable, descendant: Hashable, highway: list[Hashable]) -> int:
        segment = Segment(
            root=root,
            descendant=descendant,
            highway_vertices=highway,
            vertices=set(highway),
        )
        index = len(segments)
        segments.append(segment)
        segment_by_root.setdefault(root, []).append(index)
        return index

    # Highway segments: one per marked vertex d != root.
    for d in sorted(marked, key=repr):
        if d == mst.root:
            continue
        r = nearest_marked_ancestor[d]
        highway = list(reversed(mst.path_vertices_to_ancestor(d, r)))  # r .. d
        index = new_segment(r, d, highway)
        segment = segments[index]
        # Hang the subtrees of internal highway vertices (no marked descendants
        # by Lemma 3.4, so they belong to this segment alone).
        for vertex in highway[1:-1]:
            for child in mst.children(vertex):
                if child in highway:
                    continue
                subtree = mst.subtree_nodes(child)
                segment.vertices.update(subtree)
                segment.hanging_subtrees.setdefault(vertex, set()).update(subtree)

    # Left-over subtrees below marked vertices whose children have no marked
    # descendants: attach to an existing segment rooted at the marked vertex
    # or open a highway-less segment (v, v).  No highway edge leads to such
    # a child: the lower end of every highway edge has the highway's marked
    # descendant d below it (or is d).
    for v in sorted(marked, key=repr):
        orphan_children = [
            child for child in mst.children(v) if not has_marked_descendant[child]
        ]
        if not orphan_children:
            continue
        if v in segment_by_root:
            index = segment_by_root[v][0]
        else:
            index = new_segment(v, v, [v])
        segment = segments[index]
        for child in orphan_children:
            subtree = mst.subtree_nodes(child)
            segment.vertices.update(subtree)
            segment.hanging_subtrees.setdefault(v, set()).update(subtree)

    skeleton = SkeletonTree.from_segments(mst, marked, segments)

    home_segment: dict[Hashable, int] = {}
    for index, segment in enumerate(segments):
        for vertex in segment.vertices:
            home_segment.setdefault(vertex, index)
    # The root might not appear in any segment when the tree is a single
    # marked vertex; give it a trivial segment in that corner case.
    if mst.root not in home_segment:
        index = new_segment(mst.root, mst.root, [mst.root])
        home_segment[mst.root] = index

    return TreeDecomposition(
        tree=mst,
        marked=marked,
        segments=segments,
        skeleton=skeleton,
        home_segment=home_segment,
    )

