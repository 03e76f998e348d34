"""Marked vertices of the segment decomposition (Section 3.2, steps I-II).

The marked set consists of (a) the endpoints of the *global* MST edges (the
tree edges joining two different Kutten-Peleg fragments), (b) the root, and
(c) the closure of that set under lowest common ancestors.  Lemma 3.4 proves
three properties which the tests verify on random instances:

1. the root is marked and every vertex has a marked ancestor within O(sqrt n)
   hops (the root of its fragment);
2. the set is closed under pairwise LCA;
3. there are O(sqrt n) marked vertices.
"""

from __future__ import annotations

from typing import Hashable, Iterable

from repro.mst.fragments import FragmentDecomposition
from repro.trees.rooted import RootedTree

__all__ = ["mark_vertices", "lca_closure"]


def _euler_entry_order(tree: RootedTree) -> dict[Hashable, int]:
    """Return DFS entry times (children visited in a fixed order)."""
    order: dict[Hashable, int] = {}
    counter = 0
    stack = [tree.root]
    while stack:
        node = stack.pop()
        order[node] = counter
        counter += 1
        # Reverse so that children are visited in their natural order.
        for child in reversed(tree.children(node)):
            stack.append(child)
    return order


def lca_closure(tree: RootedTree, vertices: Iterable[Hashable]) -> set[Hashable]:
    """Return the closure of *vertices* under pairwise LCA.

    Standard fact: sorting the vertices by DFS entry time and adding the LCA
    of every pair of consecutive vertices already yields the full closure, so
    the closure adds at most ``len(vertices) - 1`` new vertices (this is how
    Lemma 3.4(3) keeps the marked set at O(sqrt n)).
    """
    vertex_list = list(dict.fromkeys(vertices))
    if not vertex_list:
        return set()
    entry = _euler_entry_order(tree)
    ordered = sorted(vertex_list, key=lambda v: entry[v])
    closed = set(ordered)
    for left, right in zip(ordered, ordered[1:]):
        closed.add(tree.lca(left, right))
    return closed


def mark_vertices(mst: RootedTree, fragments: FragmentDecomposition) -> set[Hashable]:
    """Return the marked vertex set of the decomposition (Section 3.2 (II)).

    Marked vertices are the endpoints of global edges (MST edges between two
    fragments), the MST root, and all LCAs of marked vertices.
    """
    marked: set[Hashable] = {mst.root}
    for u, v in fragments.global_edges():
        marked.add(u)
        marked.add(v)
    return lca_closure(mst, marked)
