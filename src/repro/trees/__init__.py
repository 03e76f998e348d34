"""Rooted-tree substrate: parent/depth bookkeeping, LCA queries and tree paths.

The 2-ECSS algorithm (Section 3) spends most of its time reasoning about the
unique tree path covered by a non-tree edge; :class:`RootedTree`, built from
an ordered edge list, answers that question once per tree -- integer vertex
ids in BFS order and one cached Euler-tour path index -- and the TAP
algorithm, the segment decomposition and the cycle-space sampling code all
share it.
"""

from repro.trees.rooted import RootedTree

__all__ = ["RootedTree"]
