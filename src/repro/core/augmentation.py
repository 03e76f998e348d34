"""The augmentation framework of Section 2 (Claim 2.1).

``Aug_k`` takes a k-edge-connected graph ``G`` and a (k-1)-edge-connected
spanning subgraph ``H`` and asks for a minimum-weight edge set ``A`` such that
``H ∪ A`` is k-edge-connected.  Claim 2.1 composes approximation algorithms
for ``Aug_1 .. Aug_k`` into a k-ECSS algorithm whose approximation ratio is
the sum of the per-stage ratios and whose round complexity is the sum of the
per-stage round complexities; :func:`compose_augmentations` is that
composition, parameterised by the per-stage solver.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Hashable

import networkx as nx

from repro.congest.metrics import RoundLedger

Edge = tuple[Hashable, Hashable]

__all__ = ["AugmentationResult", "AugSolver", "compose_augmentations"]


@dataclass
class AugmentationResult:
    """Result of one ``Aug_i`` stage.

    Attributes:
        added: The edges added to the augmentation (disjoint from ``H``).
        weight: Their total weight.
        iterations: Covering iterations used by the stage.
        ledger: Round charges of the stage.
        metadata: Stage-specific diagnostics.
    """

    added: frozenset[Edge]
    weight: int
    iterations: int
    ledger: RoundLedger
    metadata: dict = field(default_factory=dict)


# A solver for Aug_i: (graph, current subgraph edges, target connectivity i) -> result.
AugSolver = Callable[[nx.Graph, frozenset[Edge], int], AugmentationResult]


def compose_augmentations(
    graph: nx.Graph,
    k: int,
    solvers: dict[int, AugSolver],
) -> tuple[frozenset[Edge], int, RoundLedger, list[AugmentationResult]]:
    """Compose per-level augmentation solvers into a k-ECSS (Claim 2.1).

    Args:
        graph: The k-edge-connected input graph.
        k: Target connectivity.
        solvers: Map from level ``i`` (1..k) to the solver used to raise the
            connectivity from ``i - 1`` to ``i``.  Every level must be present.

    Returns:
        ``(edges, iterations, ledger, stage_results)`` where *edges* is the
        union of all stages (k-edge-connected by construction).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    missing = [i for i in range(1, k + 1) if i not in solvers]
    if missing:
        raise ValueError(f"missing Aug solvers for levels {missing}")

    current: frozenset[Edge] = frozenset()
    ledger = RoundLedger()
    stages: list[AugmentationResult] = []
    iterations = 0
    for level in range(1, k + 1):
        stage = solvers[level](graph, current, level)
        overlap = stage.added & current
        if overlap:
            raise RuntimeError(
                f"Aug_{level} returned {len(overlap)} edges already present in H"
            )
        current = frozenset(current | stage.added)
        ledger.extend(stage.ledger)
        ledger.add(
            f"aug-{level}-compose",
            0,
            note=f"level {level}: +{len(stage.added)} edges, weight {stage.weight}",
        )
        stages.append(stage)
        iterations += stage.iterations
    return current, iterations, ledger, stages
