"""Fragment decomposition of a spanning tree.

The Kutten-Peleg MST algorithm [25] produces, as a by-product, a partition of
the MST into O(sqrt n) vertex-disjoint connected *fragments* of diameter
O(sqrt n); Section 3.2 of the paper builds its segment decomposition on top of
exactly this structure ("the global edges play the role of the sampled edges
R in [14]").

We reproduce the structure rather than the distributed construction: the MST
is partitioned bottom-up, closing a fragment as soon as its pending component
reaches ``cap ~ sqrt(n)`` vertices.  The resulting fragments satisfy the two
properties the decomposition needs (proved in ``tests/test_fragments.py``):

* at most ``n / cap + 1`` fragments (so O(sqrt n) for the default cap), and
* every fragment has weak diameter at most ``2 * cap`` in the tree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Hashable, Iterable

from repro.graphs.connectivity import canonical_edge
from repro.trees.rooted import RootedTree

Edge = tuple[Hashable, Hashable]

__all__ = ["Fragment", "FragmentDecomposition", "decompose_tree_into_fragments"]


@dataclass(frozen=True)
class Fragment:
    """A connected subtree of the MST.

    Attributes:
        fragment_id: Dense integer identifier.
        root: The vertex of the fragment closest to the MST root.
        vertices: The vertex set of the fragment.
    """

    fragment_id: int
    root: Hashable
    vertices: frozenset[Hashable]

    def __len__(self) -> int:
        return len(self.vertices)

    def __contains__(self, vertex: Hashable) -> bool:
        return vertex in self.vertices


@dataclass
class FragmentDecomposition:
    """A partition of the MST vertices into fragments.

    Attributes:
        tree: The decomposed rooted tree (the MST).
        fragments: The fragments, indexed by ``fragment_id``.
        fragment_of: Map from vertex to its fragment id.
    """

    tree: RootedTree
    fragments: list[Fragment]
    fragment_of: dict[Hashable, int]

    @property
    def cap(self) -> int:
        """The size threshold used when the decomposition was built."""
        return self._cap

    def __post_init__(self) -> None:
        self._cap = 0

    def global_edges(self) -> list[Edge]:
        """Tree edges whose endpoints lie in different fragments (Section 3.2 (I))."""
        edges = []
        for node in self.tree.nodes():
            parent = self.tree.parent(node)
            if parent is None:
                continue
            if self.fragment_of[node] != self.fragment_of[parent]:
                edges.append(canonical_edge(node, parent))
        return edges

    def fragment_diameter(self, fragment: Fragment) -> int:
        """Upper bound on the hop diameter of *fragment* inside the tree (2 x height)."""
        vertices = fragment.vertices
        if len(vertices) <= 1:
            return 0
        depth = {v: self.tree.depth(v) for v in vertices}
        # The fragment is a connected subtree; its diameter is at most twice
        # its height below the fragment root.
        root_depth = depth[fragment.root]
        return 2 * max(d - root_depth for d in depth.values())

    def max_fragment_diameter(self) -> int:
        """Maximum fragment diameter across the decomposition."""
        return max((self.fragment_diameter(f) for f in self.fragments), default=0)


def decompose_tree_into_fragments(
    tree: RootedTree,
    cap: int | None = None,
) -> FragmentDecomposition:
    """Partition *tree* into connected fragments of pending size >= *cap*.

    Processing vertices from the leaves towards the root, each vertex
    accumulates the still-open components of its children plus itself; when
    the accumulated size reaches *cap* (default ``isqrt(n)``, at least 1), the
    pending component is closed as a fragment rooted at the current vertex.
    The root always closes whatever remains.

    The closed component at ``v`` consists of ``v`` and, for each child whose
    component was not closed earlier, that child's entire pending component --
    hence it is connected, and its height is less than ``cap`` because every
    child component has fewer than ``cap`` vertices.
    """
    n = tree.number_of_nodes()
    if cap is None:
        cap = max(1, math.isqrt(n))
    if cap < 1:
        raise ValueError("fragment size cap must be >= 1")

    pending_members: dict[Hashable, list[Hashable]] = {}
    fragments: list[Fragment] = []
    fragment_of: dict[Hashable, int] = {}

    def close(root: Hashable, members: Iterable[Hashable]) -> None:
        fragment_id = len(fragments)
        members = frozenset(members)
        fragments.append(Fragment(fragment_id=fragment_id, root=root, vertices=members))
        for member in members:
            fragment_of[member] = fragment_id

    for node in tree.leaves_to_root_order():
        members = [node]
        for child in tree.children(node):
            members.extend(pending_members.pop(child, []))
        if len(members) >= cap or node == tree.root:
            close(node, members)
            pending_members[node] = []
        else:
            pending_members[node] = members

    decomposition = FragmentDecomposition(tree=tree, fragments=fragments, fragment_of=fragment_of)
    decomposition._cap = cap
    return decomposition
