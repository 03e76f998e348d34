"""Cycle space sampling (Pritchard-Thurimella [32]; Section 5.1 of the paper).

A random b-bit *circulation* assigns each edge a b-bit label such that two
edges form a cut pair iff their labels are equal (always if they do, with
probability 2^-b of a false positive otherwise).  The unweighted 3-ECSS
algorithm uses the labels to compute cost-effectiveness in O(D) rounds.

* :mod:`repro.cycle_space.circulation` -- sampling circulations from the
  fundamental-cycle basis of a spanning tree,
* :mod:`repro.cycle_space.labels` -- the edge labelling ``phi`` (random and
  exact variants) over an append-only :class:`CycleSpace`,
* :mod:`repro.cycle_space.cut_pairs` -- cut-pair detection and the
  ``n_phi`` counts used by Claim 5.8.
"""

from repro.cycle_space.circulation import random_circulation, is_binary_circulation
from repro.cycle_space.labels import (
    CycleSpace,
    EdgeLabelling,
    compute_labels,
)
from repro.cycle_space.cut_pairs import (
    cut_pairs_from_labels,
    exact_cut_pairs,
    label_multiplicities,
)

__all__ = [
    "random_circulation",
    "is_binary_circulation",
    "CycleSpace",
    "EdgeLabelling",
    "compute_labels",
    "cut_pairs_from_labels",
    "exact_cut_pairs",
    "label_multiplicities",
]
