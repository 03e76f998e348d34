"""Minimum spanning tree substrate.

The 2-ECSS algorithm (Theorem 1.1) starts from an MST computed with the
Kutten-Peleg algorithm [25], and the decomposition of Section 3.2 reuses the
MST *fragments* that algorithm produces: O(sqrt n) vertex-disjoint subtrees of
the MST, each of diameter O(sqrt n).  This subpackage provides

* :mod:`repro.mst.sequential` -- the deterministic reference MST (Kruskal
  with canonical tie-breaking) as an ordered edge list,
* :mod:`repro.mst.fragments` -- the fragment decomposition of an MST,
* :mod:`repro.mst.distributed` -- the CONGEST-facing wrapper that returns the
  MST, its fragments and the round ledger charged per the paper.
"""

from repro.mst.sequential import minimum_spanning_tree, mst_weight
from repro.mst.fragments import Fragment, FragmentDecomposition, decompose_tree_into_fragments
from repro.mst.distributed import MstResult, build_mst_with_fragments

__all__ = [
    "minimum_spanning_tree",
    "mst_weight",
    "Fragment",
    "FragmentDecomposition",
    "decompose_tree_into_fragments",
    "MstResult",
    "build_mst_with_fragments",
]
