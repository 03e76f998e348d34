"""Weighted tree augmentation (TAP), Section 3 of the paper.

Given a spanning tree ``T`` of a 2-edge-connected graph ``G``, the goal is to
add a minimum-weight set of non-tree edges so that ``T`` plus the added edges
is 2-edge-connected -- equivalently, every tree edge must be *covered* by an
added edge whose tree path contains it.

* :mod:`repro.tap.fastcover` -- the NumPy coverage/voting kernel every TAP
  solver runs on (a CSR of tree paths over integer tree-edge ids, ``|C_e|``
  recounted per cover, voting with ``np.minimum.at``),
* :mod:`repro.tap.distributed` -- the paper's randomised voting algorithm
  (Theorem 3.12): O(log n)-approximation, O(log^2 n) iterations w.h.p.,
* :mod:`repro.tap.greedy` -- the classic sequential greedy set-cover TAP used
  as a quality baseline.
"""

from repro.tap.distributed import TapResult, distributed_tap
from repro.tap.fastcover import FastCoverage
from repro.tap.greedy import greedy_tap

__all__ = [
    "FastCoverage",
    "TapResult",
    "distributed_tap",
    "greedy_tap",
]
