"""Weighted k-ECSS (Theorem 1.2) via iterated augmentation (Section 4).

Each level ``i`` raises the connectivity of the running subgraph ``H`` from
``i - 1`` to ``i`` by covering every cut of size ``i - 1`` of ``H``:

1. every edge outside ``H ∪ A`` computes its rounded cost-effectiveness;
2. the maximisers become candidates;
3. every candidate becomes *active* with probability ``p_i`` (the "guessing"
   schedule: ``p`` starts at ``1 / 2^ceil(log m)`` and doubles every
   ``M log n`` iterations, resetting when the maximum rounded
   cost-effectiveness drops);
4. an MST of ``G`` under weights (A: 0, active candidates: 1, rest: 2) filters
   the active candidates -- only those in the MST join ``A``, which keeps ``A``
   acyclic (Claim 4.1) and therefore at most ``n - 1`` edges per level.
   Because ``A`` is a forest, Kruskal keeps all of it and then each active
   edge, in its tie order, iff it joins two components; the weight-2 edges
   come last and change nothing.  :func:`augment_to_k` therefore runs this
   step on one union-find of ``A`` per level that persists across
   iterations (``O(|active| α)`` per iteration) instead of rebuilding the
   reweighted graph and running :func:`minimum_spanning_tree`;
5. the level ends when every cut of size ``i - 1`` is covered.

Level 1 is solved by the MST itself (the MST is an optimal augmentation from
connectivity 0 to 1), exactly as the 2-ECSS algorithm does; the generic
procedure is used for every level ``i >= 2``.

Two implementations share this structure.  :func:`augment_to_k` keeps the
cut-coverage state in :class:`repro.core.fastaug.BitsetCoverKernel` on NumPy
arrays: the cut sides become one boolean ``|cuts| x n`` matrix, the cover
incidence is an array comparison of its columns at each candidate's
endpoints, and the live-cover counters are maintained incrementally, so an
iteration that follows an addition costs one vectorised exponent scan
instead of ``O(|E| * |cuts|)`` frozenset intersections, and any other
iteration reuses the previous scan.  The cuts themselves come from the exact
enumeration of :mod:`repro.graphs.cuts`, which confirms each one in the cut
space and runs no search per cut; they stay in vertex and edge ids from
enumeration to the side matrix (the label ``Cut`` of node labels is the
tests' reference, in ``tests/oracles.py``).  The historical frozenset
implementation is the ``augment_to_k_nx`` / ``k_ecss_nx`` oracle in
``tests/oracles.py``; the solver-kernel sweep in ``tests/test_fastaug.py``
asserts bit-identical added-edge sets, weights, iteration counts and
histories.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Hashable

import networkx as nx
import numpy as np

from repro.congest.cost_model import CostModel
from repro.congest.metrics import RoundLedger
from repro.core.fastaug import BitsetCoverKernel, GuessingSchedule
from repro.core.result import ECSSResult
from repro.graphs.connectivity import (
    canonical_edge,
    check_solver_input,
    edge_connectivity,
    is_positive_int,
)
from repro.graphs.cuts import enumerate_cuts_of_size
from repro.graphs.fastgraph import ArrayUnionFind, FastGraph, hop_diameter
from repro.mst.sequential import minimum_spanning_tree

Edge = tuple[Hashable, Hashable]

__all__ = [
    "AugIterationStats",
    "AugmentationResult",
    "augment_to_k",
    "k_ecss",
]


@dataclass
class AugmentationResult:
    """Result of one ``Aug_i`` level.

    Attributes:
        added: The edges added to the augmentation (disjoint from ``H``).
        weight: Their total weight.
        iterations: Covering iterations used by the level.
        ledger: Round charges of the level.
        metadata: Level-specific diagnostics.
    """

    added: frozenset[Edge]
    weight: int
    iterations: int
    ledger: RoundLedger
    metadata: dict = field(default_factory=dict)


@dataclass(frozen=True)
class AugIterationStats:
    """Per-iteration diagnostics of one ``Aug_k`` level."""

    iteration: int
    probability: float
    candidates: int
    active: int
    added: int
    uncovered_remaining: int


def augment_to_k(
    graph: nx.Graph | FastGraph,
    current_edges: frozenset[Edge],
    k: int,
    seed: int | random.Random | None = None,
    schedule_constant: int = 2,
    cost_model: CostModel | None = None,
    use_mst_filter: bool = True,
    max_iterations: int | None = None,
) -> AugmentationResult:
    """Raise the connectivity of ``current_edges`` from ``k - 1`` to ``k`` (Section 4).

    Args:
        graph: The k-edge-connected input graph ``G``, which goes through
            :func:`~repro.graphs.connectivity.check_solver_input`, or a
            :class:`FastGraph` snapshot that has passed it: :func:`k_ecss`
            passes every level the one its input check built, so the
            per-edge canonical forms and Kruskal tie ranks are computed once
            per solve.
        current_edges: Edges of ``G`` that form the (k-1)-edge-connected
            spanning subgraph ``H``.
        k: Target connectivity of this level, an int >= 2 (level 1 is the
            MST of :func:`k_ecss`, not an augmentation).
        seed: Randomness for candidate activation -- the only randomness of
            a level: the cuts of size ``k - 1`` of ``H`` come from the exact,
            deterministic :func:`~repro.graphs.cuts.enumerate_cuts_of_size`.
        schedule_constant: The ``M`` in "double ``p`` every ``M log n``
            iterations" (the paper leaves the constant to the analysis).
        cost_model: Round cost model (built from the graph when omitted).
        use_mst_filter: Disable to add every active candidate without the MST
            filtering of Line 4 (ablation E10 / Claim 4.1 demonstration).
        max_iterations: Safety bound on iterations.

    Returns:
        An :class:`AugmentationResult` whose ``added`` edges, together with
        ``current_edges``, form a k-edge-connected spanning subgraph.

    Raises:
        ValueError: before any work, when ``k`` is not an int >= 2,
            ``schedule_constant`` is not an int >= 1, ``G`` breaks the
            solver input contract, ``current_edges`` holds an edge that is
            not in ``G``, or ``H`` is not (k-1)-edge-connected.
    """
    if not is_positive_int(k):
        raise ValueError(f"k must be an int >= 1, got {k!r}")
    if k < 2:
        raise ValueError(
            "Aug_k needs k >= 2: level 1 is the MST of k_ecss, not an augmentation"
        )
    _check_schedule_constant(schedule_constant)
    fast = graph if isinstance(graph, FastGraph) else check_solver_input(graph, k, "Aug_k")
    n, m = fast.n, fast.m
    # H and the candidates split G's edge ids; H's snapshot is built from
    # them directly, with G's vertex ids.
    edges, rank = fast.canonical_edges()
    edge_id = dict(zip(edges, range(m)))
    in_h = [False] * m
    for u, v in current_edges:
        eid = edge_id.get(canonical_edge(u, v))
        if eid is None:
            raise ValueError(f"current_edges holds ({u!r}, {v!r}), which is not an edge of G")
        in_h[eid] = True
    tail, head, weight = fast.tail, fast.head, fast.weight
    h_fast = FastGraph(
        fast.labels, ((tail[e], head[e], weight[e]) for e in range(m) if in_h[e])
    )
    try:
        cuts = enumerate_cuts_of_size(h_fast, k - 1)
    except ValueError:
        raise ValueError(
            f"Aug_{k} needs a {k - 1}-edge-connected H, but current_edges has edge "
            f"connectivity {edge_connectivity(h_fast)}"
        ) from None
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    if cost_model is None:
        cost_model = CostModel(n=n, diameter=hop_diameter(fast))
    ledger = RoundLedger()
    ledger.add(
        "aug-state-broadcast",
        cost_model.aug_state_broadcast_rounds(len(current_edges)),
        note=f"all vertices learn H (|H| = {len(current_edges)} edges, O(D + |H|))",
    )
    if max_iterations is None:
        max_iterations = 16 * schedule_constant * cost_model.log_n ** 3 + 8 * n + 64
    if not cuts:
        return AugmentationResult(
            added=frozenset(), weight=0, iterations=0, ledger=ledger,
            metadata={"cuts": 0, "history": [], "k": k},
        )

    pool = [e for e in range(m) if not in_h[e]]
    tails = [tail[e] for e in pool]
    heads = [head[e] for e in pool]
    kernel = BitsetCoverKernel(
        [edges[e] for e in pool],
        [weight[e] for e in pool],
        _side_matrix(cuts, n),
        tails,
        heads,
    )
    cand_edges = kernel.cand_edges
    if use_mst_filter:
        # The forest of A (empty at the start of every level) and, per
        # candidate, its endpoint ids and Kruskal tie rank.
        forest = ArrayUnionFind(n)
        ends = list(zip(tails, heads))
        cand_rank = [rank[e] for e in pool]

    added_ids: list[int] = []
    history: list[AugIterationStats] = []
    schedule = GuessingSchedule(m, max(1, schedule_constant * cost_model.log_n))

    iteration = 0
    while not kernel.all_covered:
        iteration += 1
        if iteration > max_iterations:
            raise RuntimeError(
                f"Aug_{k} did not converge within {max_iterations} iterations"
            )

        # Lines 1-2: a flat scan of the incrementally maintained counters,
        # or the previous one when nothing joined A since.
        _, _, maximum = kernel.score()
        if maximum is None:
            raise RuntimeError(
                f"no edge of G covers the remaining cuts of size {k - 1}; "
                f"the input graph is not {k}-edge-connected"
            )
        candidate_ids = kernel.max_bucket()

        probability = schedule.update(maximum)

        # Line 3: activation.
        if probability >= 1.0:
            active_ids = candidate_ids
        else:
            active_ids = [j for j in candidate_ids if rng.random() < probability]

        # Line 4: MST filtering keeps A acyclic.
        if use_mst_filter:
            newly_added = _forest_filter(forest, ends, cand_rank, active_ids)
        else:
            newly_added = active_ids
        if newly_added:
            kernel.add_many(newly_added)
            added_ids.extend(newly_added)

        ledger.add(
            "aug-iteration",
            cost_model.aug_iteration_rounds(len(newly_added)),
            note=f"Aug_{k} iteration {iteration} (Lemma 4.4)",
        )
        history.append(
            AugIterationStats(
                iteration=iteration,
                probability=probability,
                candidates=len(candidate_ids),
                active=len(active_ids),
                added=len(newly_added),
                uncovered_remaining=kernel.uncovered_count,
            )
        )

    return AugmentationResult(
        added=frozenset(cand_edges[j] for j in added_ids),
        weight=sum(kernel.weights[j] for j in added_ids),
        iterations=iteration,
        ledger=ledger,
        metadata={"cuts": len(cuts), "history": history, "k": k},
    )


def _side_matrix(cuts: list[tuple[tuple[int, ...], list[int]]], n: int) -> np.ndarray:
    """Boolean ``|cuts| x n`` matrix: row ``c`` flags the side ids of ``cuts[c]``.

    One scatter over the recorded sides, which are the smaller sides.
    Coverage compares a candidate's two endpoints in a row, so it does not
    depend on which side a row marks.
    """
    sizes = [len(side) for _, side in cuts]
    matrix = np.zeros((len(cuts), n), dtype=bool)
    matrix[
        np.repeat(np.arange(len(cuts)), sizes),
        np.fromiter((v for _, side in cuts for v in side), dtype=np.intp, count=sum(sizes)),
    ] = True
    return matrix


def _forest_filter(
    forest: ArrayUnionFind,
    ends: list[tuple[int, int]],
    rank: list[int],
    active_ids: list[int],
) -> list[int]:
    """Line 4 on the persistent union-find of ``A``; returns the kept ids.

    Kruskal under weights (A: 0, active: 1, rest: 2) keeps the forest ``A``
    whole (Claim 4.1), then each active edge in *rank* order iff it joins two
    components; the weight-2 edges cannot change that.  The kept edges join
    ``A``, so *forest* is already the next iteration's.  Same result as
    the full reweighted MST, in *active_ids* order.
    """
    kept = set()
    for j in sorted(active_ids, key=rank.__getitem__):
        if forest.union(*ends[j]):
            kept.add(j)
    return [j for j in active_ids if j in kept]


def _check_schedule_constant(schedule_constant: object) -> None:
    if not is_positive_int(schedule_constant):
        raise ValueError(f"schedule_constant must be an int >= 1, got {schedule_constant!r}")


def _k_ecss_impl(
    graph: nx.Graph,
    k: int,
    seed: int | random.Random | None,
    schedule_constant: int,
    use_mst_filter: bool,
    level_solver: Callable[..., AugmentationResult],
) -> ECSSResult:
    """Theorem 1.2 as Claim 2.1 composes it: the MST, then ``Aug_2..k``.

    Level 1 is the MST of ``G``; every level ``i >= 2`` is
    ``level_solver(fast, H, i, ...)``, which gets the :class:`FastGraph`
    the input check built in place of *graph*.  ``H`` grows by each level's
    edges, which must be new to it, and the levels' approximation ratios
    and round counts add up.
    """
    _check_schedule_constant(schedule_constant)
    # The input check's snapshot serves the diameter and every Aug_k level.
    fast = check_solver_input(graph, k, "k-ECSS")
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    cost_model = CostModel(n=fast.n, diameter=hop_diameter(fast))

    current: frozenset[Edge] = frozenset()
    ledger = RoundLedger()
    stages: list[AugmentationResult] = []
    for level in range(1, k + 1):
        if level == 1:
            mst_ledger = RoundLedger()
            mst_ledger.add("mst-kutten-peleg", cost_model.mst_rounds(),
                           note="Aug_1 solved by the MST (O(D + sqrt n log* n) rounds [25])")
            mst = frozenset(minimum_spanning_tree(graph))
            stage = AugmentationResult(
                added=mst, weight=sum(graph[u][v].get("weight", 1) for u, v in mst),
                iterations=1, ledger=mst_ledger, metadata={"stage": "mst"},
            )
        else:
            stage = level_solver(
                fast,
                current,
                level,
                seed=rng,
                schedule_constant=schedule_constant,
                cost_model=cost_model,
                use_mst_filter=use_mst_filter,
            )
        overlap = stage.added & current
        if overlap:
            raise RuntimeError(
                f"Aug_{level} returned {len(overlap)} edges already present in H"
            )
        current |= stage.added
        ledger.extend(stage.ledger)
        ledger.add(
            f"aug-{level}-compose",
            0,
            note=f"level {level}: +{len(stage.added)} edges, weight {stage.weight}",
        )
        stages.append(stage)

    metadata = {
        "stages": [
            {
                "level": index + 1,
                "added": len(stage.added),
                "weight": stage.weight,
                "iterations": stage.iterations,
                "cuts": stage.metadata.get("cuts"),
            }
            for index, stage in enumerate(stages)
        ],
        "round_bound": cost_model.k_ecss_round_bound(k),
        "diameter": cost_model.diameter,
    }
    return ECSSResult.from_edges(
        k=k,
        graph=graph,
        edges=current,
        ledger=ledger,
        iterations=sum(stage.iterations for stage in stages),
        algorithm="dory-kecss",
        metadata=metadata,
    )


def k_ecss(
    graph: nx.Graph,
    k: int,
    seed: int | random.Random | None = None,
    schedule_constant: int = 2,
    use_mst_filter: bool = True,
) -> ECSSResult:
    """Weighted k-ECSS (Theorem 1.2): iterated ``Aug_i`` for ``i = 1..k``.

    Level 1 uses the MST (optimal for raising connectivity from 0 to 1);
    levels 2..k use the kernel-backed :func:`augment_to_k`.  The composition
    argument of Claim 2.1 gives an O(k log n) expected approximation ratio.
    """
    return _k_ecss_impl(graph, k, seed, schedule_constant, use_mst_filter, augment_to_k)
