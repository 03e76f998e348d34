"""The paper's headline algorithms.

* :mod:`repro.core.two_ecss` -- Theorem 1.1: weighted 2-ECSS via MST +
  distributed weighted TAP, O(log n)-approximation in O((D + sqrt n) log^2 n)
  rounds.
* :mod:`repro.core.k_ecss` -- Theorem 1.2: weighted k-ECSS via iterated
  augmentation ``Aug_i``, O(k log n)-approximation (expected) in
  O(k (D log^3 n + n)) rounds, the levels composed as in Claim 2.1.
* :mod:`repro.core.three_ecss` -- Theorem 1.3: unweighted 3-ECSS via cycle
  space sampling, O(log n)-approximation (expected) in O(D log^3 n) rounds.
* :mod:`repro.core.fastaug` -- the flat-array kernels behind the solver inner
  loops (CSR path-label scoring, bitset cut coverage, the guessing schedule).
* :mod:`repro.core.result` -- the :class:`~repro.core.result.ECSSResult`
  returned by every solver.
"""

from repro.core.result import ECSSResult
from repro.core.fastaug import (
    INFINITE_EFFECTIVENESS,
    BitsetCoverKernel,
    GuessingSchedule,
    PathLabelKernel,
)
from repro.core.two_ecss import two_ecss, weighted_tap
from repro.core.k_ecss import AugmentationResult, k_ecss, augment_to_k
from repro.core.three_ecss import three_ecss, unweighted_two_ecss_2approx

__all__ = [
    "ECSSResult",
    "INFINITE_EFFECTIVENESS",
    "AugmentationResult",
    "two_ecss",
    "weighted_tap",
    "BitsetCoverKernel",
    "GuessingSchedule",
    "PathLabelKernel",
    "k_ecss",
    "augment_to_k",
    "three_ecss",
    "unweighted_two_ecss_2approx",
]
