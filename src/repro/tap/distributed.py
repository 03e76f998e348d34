"""The paper's distributed weighted-TAP algorithm (Section 3, Theorem 3.12).

The algorithm proceeds in iterations.  In every iteration each non-tree edge
not yet in the augmentation computes its rounded cost-effectiveness; the edges
attaining the maximum become *candidates*; every candidate draws a random
number in ``{1, ..., n^8}``; every uncovered tree edge votes for the first
candidate covering it (by random number, ties by edge id); a candidate
receiving at least ``|C_e| / 8`` votes joins the augmentation.  The loop ends
when every tree edge is covered.

The implementation reproduces the iteration structure, randomness and output
exactly; the per-iteration round cost O(D + sqrt n) of Lemma 3.3 is charged on
the ledger using the instance's measured diameter and maximum segment diameter
(see :class:`repro.congest.cost_model.CostModel`).

The hot loop runs on the NumPy kernel :class:`repro.tap.fastcover.FastCoverage`:
each iteration scores every live non-tree edge with integer array ops on
the ``|C_e|`` array, sorts only the maximum-effectiveness candidates by their
(lazily built) ``repr``, votes with ``np.minimum.at`` over the candidates'
uncovered path entries, and recounts ``|C_e|`` after the cover.  The
historical set-algebra implementation is the ``distributed_tap_nx`` oracle in
``tests/oracles.py``; both consume identical RNG streams and tie-breaks.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Hashable

import networkx as nx

from repro.congest.cost_model import CostModel
from repro.congest.metrics import RoundLedger
from repro.graphs.fastgraph import FastGraph, hop_diameter
from repro.tap.fastcover import FastCoverage
from repro.trees.rooted import RootedTree

Edge = tuple[Hashable, Hashable]

__all__ = ["TapIterationStats", "TapResult", "distributed_tap"]


@dataclass(frozen=True)
class TapIterationStats:
    """Per-iteration diagnostics recorded for the experiments."""

    iteration: int
    max_rounded_effectiveness: object
    candidates: int
    added: int
    newly_covered: int
    uncovered_remaining: int


@dataclass
class TapResult:
    """Result of a weighted-TAP run.

    Attributes:
        augmentation: The set of non-tree edges added.
        weight: Total weight of the augmentation.
        iterations: Number of iterations executed.
        ledger: Round charges (one entry per iteration plus setup).
        history: Per-iteration statistics.
    """

    augmentation: set[Edge]
    weight: int
    iterations: int
    ledger: RoundLedger
    history: list[TapIterationStats] = field(default_factory=list)


def _resolve_run_parameters(
    graph: nx.Graph | FastGraph,
    cost_model: CostModel | None,
    segment_diameter: int | None,
    max_iterations: int | None,
) -> tuple[CostModel, int, int]:
    """Run defaults, shared with the reference oracle."""
    fast = FastGraph.of(graph)
    n = fast.n
    if cost_model is None:
        cost_model = CostModel(n=n, diameter=hop_diameter(fast))
    if segment_diameter is None:
        segment_diameter = cost_model.sqrt_n
    if max_iterations is None:
        # The w.h.p. bound is O(log^2 n) iterations (Lemma 3.11); every
        # iteration covers at least one new tree edge, so n is a hard cap.
        max_iterations = max(64 * cost_model.log_n ** 2, 4 * n) + 64
    return cost_model, segment_diameter, max_iterations


def distributed_tap(
    graph: nx.Graph | FastGraph,
    tree: RootedTree,
    seed: int | random.Random | None = None,
    segment_diameter: int | None = None,
    cost_model: CostModel | None = None,
    symmetry_breaking: bool = True,
    max_iterations: int | None = None,
) -> TapResult:
    """Run the distributed weighted-TAP algorithm on ``(graph, tree)``.

    Args:
        graph: 2-edge-connected weighted graph ``G``, or its
            :class:`FastGraph` snapshot (the 2-ECSS driver passes the one
            its input check built).
        tree: Spanning tree ``T`` of ``G`` to augment (typically the MST).
        seed: Randomness for candidate numbers.
        segment_diameter: Maximum segment diameter of the decomposition built
            for this instance; used for the per-iteration round charge
            (defaults to ``ceil(sqrt(n))``).
        cost_model: Round cost model; built from the graph when omitted.
        symmetry_breaking: When ``False`` the voting step is skipped and every
            candidate with maximum rounded cost-effectiveness is added
            (the naive parallelisation the paper argues against; ablation E9).
        max_iterations: Safety bound; defaults to
            ``max(64 * log(n)^2, 4 * n) + 64``.

    Returns:
        A :class:`TapResult`; ``augmentation ∪ T`` is guaranteed to be
        2-edge-connected when the input graph is.

    Raises:
        ValueError: When *tree* is not a spanning tree of *graph*.
    """
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    graph = FastGraph.of(graph)
    n = graph.n
    cost_model, segment_diameter, max_iterations = _resolve_run_parameters(
        graph, cost_model, segment_diameter, max_iterations
    )

    fast = FastCoverage(graph, tree)
    ledger = RoundLedger()
    history: list[TapIterationStats] = []

    augmentation_ids: list[int] = []
    iteration_rounds = cost_model.tap_iteration_rounds(segment_diameter)

    # Zero-weight edges are added up front (Section 3: "at the beginning of the
    # algorithm we add to A all the edges with weight 0").
    zero_weight = fast.zero_weight_ids()
    if zero_weight:
        augmentation_ids.extend(zero_weight)
        fast.cover_many(zero_weight)
        ledger.add(
            "tap-zero-weight-setup",
            iteration_rounds,
            note="initial coverage by zero-weight edges (pre-iteration Line 6)",
        )

    iteration = 0
    while not fast.all_covered():
        iteration += 1
        if iteration > max_iterations:
            raise RuntimeError(
                f"weighted TAP did not converge within {max_iterations} iterations; "
                "is the input graph 2-edge-connected?"
            )

        # Line 1-2: rounded cost-effectiveness and candidate selection.  An
        # edge already in A has its whole path covered, so the live edges
        # are exactly those with |C_e| > 0; candidates compare by the integer
        # exponent of their rounded value, with no Fraction in the loop.
        best = fast.max_exponent_edges()
        if best is None:
            raise RuntimeError(
                "no non-tree edge covers the remaining uncovered tree edges; "
                "the input graph is not 2-edge-connected"
            )
        max_exponent, candidates = best
        maximum = (
            Fraction(1 << max_exponent)
            if max_exponent >= 0
            else Fraction(1, 1 << -max_exponent)
        )
        candidates.sort(key=fast.nt_repr)

        uncovered_before = fast.uncovered_total()
        if symmetry_breaking:
            # Line 3: one random number per candidate, drawn in the sorted
            # candidate order (the historical RNG stream).
            numbers = [rng.randint(1, n ** 8) for _ in candidates]
            added = fast.voting_round(candidates, numbers)
        else:
            added = candidates
            fast.cover_many(added)
        augmentation_ids.extend(added)

        ledger.add(
            "tap-iteration",
            iteration_rounds,
            note=f"iteration {iteration} (Lemma 3.3: O(D + sqrt n))",
        )
        history.append(
            TapIterationStats(
                iteration=iteration,
                max_rounded_effectiveness=maximum,
                candidates=len(candidates),
                added=len(added),
                newly_covered=uncovered_before - fast.uncovered_total(),
                uncovered_remaining=fast.uncovered_total(),
            )
        )

    weights = fast.nt_weight
    return TapResult(
        augmentation={fast.nt_edge(j) for j in augmentation_ids},
        weight=sum(weights[j] for j in augmentation_ids),
        iterations=iteration,
        ledger=ledger,
        history=history,
    )
