"""Weighted 2-ECSS (Theorem 1.1) and weighted TAP (Theorem 3.12).

The 2-ECSS algorithm builds the MST with the Kutten-Peleg algorithm, builds
the segment decomposition of Section 3.2 on its fragments, and then runs the
distributed weighted-TAP algorithm of Section 3 to cover every tree edge.
The approximation ratio is ``1 + O(log n)`` (the MST weighs at most the
optimum, the TAP stage is an O(log n)-approximation of the optimal
augmentation) and the round complexity is O((D + sqrt n) log^2 n) w.h.p.
"""

from __future__ import annotations

import random
from typing import Hashable

import networkx as nx

from repro.congest.cost_model import CostModel
from repro.congest.metrics import RoundLedger
from repro.core.result import ECSSResult
from repro.decomposition.segments import TreeDecomposition, build_decomposition
from repro.graphs.connectivity import check_solver_input
from repro.graphs.fastgraph import FastGraph, hop_diameter
from repro.mst.distributed import build_mst_with_fragments
from repro.tap.distributed import TapResult, distributed_tap
from repro.trees.rooted import RootedTree

Edge = tuple[Hashable, Hashable]

__all__ = ["weighted_tap", "two_ecss"]


def weighted_tap(
    graph: nx.Graph | FastGraph,
    tree: RootedTree,
    decomposition: TreeDecomposition | None = None,
    seed: int | random.Random | None = None,
    symmetry_breaking: bool = True,
    cost_model: CostModel | None = None,
) -> TapResult:
    """Distributed weighted tree augmentation (Theorem 3.12).

    A thin wrapper over :func:`repro.tap.distributed.distributed_tap` that
    derives the segment-diameter round charge from *decomposition* when given
    (the decomposition the 2-ECSS pipeline builds anyway).  The tree carries
    its own cached path index, so the decomposition and the coverage kernel
    index the MST once per instance; a :class:`FastGraph` *graph* spares the
    coverage kernel its own conversion.
    """
    segment_diameter = None
    if decomposition is not None:
        segment_diameter = max(1, decomposition.max_segment_diameter())
    return distributed_tap(
        graph,
        tree,
        seed=seed,
        segment_diameter=segment_diameter,
        cost_model=cost_model,
        symmetry_breaking=symmetry_breaking,
    )


def two_ecss(
    graph: nx.Graph,
    seed: int | random.Random | None = None,
    symmetry_breaking: bool = True,
    simulate_bfs: bool = True,
) -> ECSSResult:
    """Weighted 2-ECSS (Theorem 1.1): MST + distributed weighted TAP.

    Args:
        graph: A 2-edge-connected weighted graph.
        seed: Randomness for the TAP voting stage.
        symmetry_breaking: Disable to run the naive "add every maximum
            candidate" variant (ablation E9).
        simulate_bfs: Whether to run the BFS-tree construction as an actual
            message-passing simulation (default) or charge it analytically.

    Returns:
        An :class:`ECSSResult` whose edge set is 2-edge-connected and spans
        the graph.  ``metadata`` records the MST weight, the TAP stage result
        and the decomposition statistics used in the experiments.
    """
    # The input check's snapshot serves the diameter and the TAP kernel.
    fast = check_solver_input(graph, 2, "2-ECSS")
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    cost_model = CostModel(n=fast.n, diameter=hop_diameter(fast))

    mst_stage = build_mst_with_fragments(
        graph, simulate_bfs=simulate_bfs, cost_model=cost_model
    )

    decomposition = build_decomposition(mst_stage.mst, mst_stage.fragments)
    ledger = RoundLedger()
    ledger.extend(mst_stage.ledger)
    ledger.add(
        "segment-decomposition",
        cost_model.decomposition_rounds(decomposition.max_segment_diameter()),
        note="Section 3.2 decomposition + Claim 3.1 information (O(D + sqrt n))",
    )

    tap_result = weighted_tap(
        fast,
        mst_stage.mst,
        decomposition=decomposition,
        seed=rng,
        symmetry_breaking=symmetry_breaking,
        cost_model=cost_model,
    )
    ledger.extend(tap_result.ledger)

    mst_edges = set(mst_stage.mst.tree_edges())
    mst_weight = sum(graph[u][v].get("weight", 1) for u, v in mst_edges)
    edges = mst_edges | tap_result.augmentation

    metadata = {
        "mst_weight": mst_weight,
        "tap_weight": tap_result.weight,
        "tap_iterations": tap_result.iterations,
        "tap_history": tap_result.history,
        "segments": decomposition.segment_count(),
        "max_segment_diameter": decomposition.max_segment_diameter(),
        "marked_vertices": len(decomposition.marked),
        "diameter": cost_model.diameter,
        "round_bound": cost_model.tap_round_bound(),
    }
    return ECSSResult.from_edges(
        k=2,
        graph=graph,
        edges=edges,
        ledger=ledger,
        iterations=tap_result.iterations,
        algorithm="dory-2ecss",
        metadata=metadata,
    )
