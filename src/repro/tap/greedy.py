"""Sequential greedy weighted TAP (the classic set-cover greedy baseline).

Section 2.1 of the paper recalls that repeatedly adding the single edge with
maximum cost-effectiveness yields an O(log n)-approximation (Chvatal / Johnson
/ Lovasz greedy set cover).  The distributed algorithm is designed to match
this quality while adding many edges per iteration; the experiments (E1, E9)
compare the two.

The selection loop runs on the NumPy coverage kernel: the candidate order is
the ``repr``-sorted edge list computed once up front, ``|C_e|`` comes from the
kernel's counter array (recounted after every cover), and cost-effectiveness
ties are decided by integer cross-multiplication -- no ``repr`` calls or
``Fraction`` allocations per step.  The output is identical to the historical
implementation, the ``greedy_tap_nx`` oracle in ``tests/oracles.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable

import networkx as nx

from repro.tap.fastcover import FastCoverage
from repro.trees.rooted import RootedTree

Edge = tuple[Hashable, Hashable]

__all__ = ["GreedyTapResult", "greedy_tap"]


@dataclass
class GreedyTapResult:
    """Result of the sequential greedy TAP."""

    augmentation: set[Edge]
    weight: int
    steps: int


def greedy_tap(graph: nx.Graph, tree: RootedTree) -> GreedyTapResult:
    """Greedy weighted TAP: always add the single most cost-effective edge.

    Zero-weight edges are taken first (their cost-effectiveness is infinite),
    then edges are added one at a time by exact ``|C_e| / w(e)`` until every
    tree edge is covered.  Ties are broken towards the smallest edge ``repr``,
    exactly as the historical scan did.  Raises ``ValueError`` when *tree* is
    not a spanning tree of *graph*.
    """
    fast = FastCoverage(graph, tree)
    weights = fast.nt_weight
    in_augmentation = bytearray(fast.m_nt)
    augmentation_ids: list[int] = []
    steps = 0

    zero_weight = fast.zero_weight_ids()
    if zero_weight:
        for j in zero_weight:
            in_augmentation[j] = 1
        augmentation_ids.extend(zero_weight)
        fast.cover_many(zero_weight)

    # The candidate order is fixed for the whole run: ascending repr, the
    # historical tie-break.  Scanning it with a strict ">" keeps the first
    # (smallest-repr) maximiser, so no repr() is evaluated inside the loop.
    order = sorted(range(fast.m_nt), key=fast.nt_repr)

    while not fast.all_covered():
        steps += 1
        uncovered_counts = fast.nt_uncovered.tolist()
        best = -1
        best_uncovered = 0
        best_weight = 1
        for j in order:
            if in_augmentation[j]:
                continue
            uncovered = uncovered_counts[j]
            if uncovered == 0:
                continue
            # uncovered / weight > best_uncovered / best_weight, exactly
            # (weights are positive here: zero-weight edges were taken first).
            if best < 0 or uncovered * best_weight > best_uncovered * weights[j]:
                best = j
                best_uncovered = uncovered
                best_weight = weights[j]
        if best < 0:
            raise RuntimeError(
                "greedy TAP ran out of covering edges; the graph is not 2-edge-connected"
            )
        in_augmentation[best] = 1
        augmentation_ids.append(best)
        fast.cover(best)

    return GreedyTapResult(
        augmentation={fast.nt_edge(j) for j in augmentation_ids},
        weight=sum(weights[j] for j in augmentation_ids),
        steps=steps,
    )
