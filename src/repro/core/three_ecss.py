"""Unweighted 3-ECSS via cycle space sampling (Section 5, Theorem 1.3).

The algorithm first builds a 2-approximate unweighted 2-ECSS ``H`` in O(D)
rounds (a BFS tree plus one covering non-tree edge per tree edge, following
[1]), then repeatedly augments ``H ∪ A`` towards 3-edge-connectivity:

1. sample cycle-space labels ``phi`` of ``H ∪ A`` (O(D) rounds, Lemma 5.5);
2. every edge outside ``H ∪ A`` computes how many *uncovered* cut pairs it
   covers via the label counts of Claim 5.8 -- its cost-effectiveness, since
   the graph is unweighted;
3. the maximisers become candidates and each joins ``A`` independently with
   probability ``p_i`` (the same guessing schedule as Section 4, without the
   MST filtering);
4. the algorithm stops once no tree edge shares its label with another edge
   (Claim 5.10), i.e. ``H ∪ A`` is 3-edge-connected.

The solver labels ``H`` once and lets that one labelling evolve with ``A``
(the labelling is linear in the edge set, Pritchard & Thurimella): each
edge that joins ``A`` draws one fresh label and XORs it into the tree edges
of its path.  The RNG stream is therefore the labels of ``H`` (in
``graph.edges()`` order), then per iteration one activation draw per
candidate in ``repr`` order followed by one label per activated edge in
activation order -- independent of ``PYTHONHASHSEED`` even for string
vertex names.

:func:`three_ecss` scores with
:class:`repro.core.fastaug.PathLabelKernel`: an iteration that adds nothing
changes no label, so it reuses the last scan; after an addition the kernel
regroups only the label classes the added paths crossed and moves each
candidate's Claim 5.8 total by their new minus old contributions.  Work per
solve is O(n + m) plus the sizes of the added paths and of the crossed
classes' candidate lists.  The power-of-two rounding is
``rho~ = 2^e`` with ``e = bit_length(value)``; the Lemma 5.11 clamp and the
``repr``-ordered candidate filter run on those integer exponents.  The
reference -- an ``nx.Graph`` labelling evolved on a label dict, a
``Counter`` per candidate and exact ``Fraction`` values -- is the
``three_ecss_nx`` oracle in ``tests/oracles.py``, and the solver-kernel
sweep in ``tests/test_fastaug.py`` asserts bit-identical results: outputs,
iteration counts and histories match bit for bit.

Lemma 5.4 gives each labelling a ``2^-b`` chance per pair of edges of
breaking Property 5.1.  A solve scores at most ``|A| + 1`` labellings --
the labelling of ``H`` and one after each iteration that adds to ``A`` --
so the union bound ranges over those.  A false collision persists until an
addition moves it, so a round where tree edges still share a label but no
candidate scores (the input was checked 3-edge-connected at entry)
triggers one full redraw of ``H ∪ A``; if the redrawn labelling stalls
too, a :class:`RuntimeError` suggests a larger ``label_bits`` or
``exact_labels=True``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Hashable

import networkx as nx

from repro.congest.cost_model import CostModel
from repro.congest.metrics import RoundLedger
from repro.core.fastaug import GuessingSchedule, PathLabelKernel
from repro.core.result import ECSSResult
from repro.cycle_space.labels import CycleSpace, compute_labels
from repro.graphs.connectivity import (
    canonical_edge,
    check_solver_input,
    is_k_edge_connected,
    is_positive_int,
)
from repro.graphs.fastgraph import FastGraph, hop_diameter
from repro.trees.rooted import RootedTree

Edge = tuple[Hashable, Hashable]

__all__ = [
    "ThreeEcssIterationStats",
    "unweighted_two_ecss_2approx",
    "three_ecss",
]


@dataclass(frozen=True)
class ThreeEcssIterationStats:
    """Per-iteration diagnostics of the 3-ECSS augmentation loop."""

    iteration: int
    probability: float
    candidates: int
    added: int
    tree_edges_in_cut_pairs: int


def unweighted_two_ecss_2approx(
    graph: nx.Graph,
    root: Hashable | None = None,
    cost_model: CostModel | None = None,
) -> tuple[set[Edge], RootedTree, RoundLedger]:
    """The O(D)-round 2-approximation for unweighted 2-ECSS of [1] (used as ``H``).

    Builds a BFS tree and, for every tree edge, keeps one covering non-tree
    edge (chosen as the one covering the most still-uncovered tree edges, a
    small optimisation that only reduces the size).  The output has at most
    ``2 (n - 1)`` edges while any 2-ECSS has at least ``n`` edges, hence the
    factor-2 guarantee.

    Returns ``(edges, bfs_tree, ledger)``.
    """
    fast = FastGraph.from_nx(graph)
    if not is_k_edge_connected(fast, 2):
        raise ValueError("the input graph is not 2-edge-connected")
    if cost_model is None:
        cost_model = CostModel(n=fast.n, diameter=hop_diameter(fast))
    return _two_ecss_2approx(graph, root, cost_model)


def _two_ecss_2approx(
    graph: nx.Graph, root: Hashable | None, cost_model: CostModel
) -> tuple[set[Edge], RootedTree, RoundLedger]:
    """:func:`unweighted_two_ecss_2approx` on a graph already proved 2-edge-connected."""
    tree = RootedTree.bfs_tree(graph, root=root)
    tree_edges = tree.tree_edges()
    tree_edge_set = set(tree_edges)

    paths: dict[Edge, frozenset[Edge]] = {}
    for u, v in graph.edges():
        edge = canonical_edge(u, v)
        if edge in tree_edge_set:
            continue
        paths[edge] = frozenset(tree.tree_path_edges(u, v))

    chosen: set[Edge] = set(tree_edge_set)
    covered: set[Edge] = set()
    # Greedily cover the tree edges, preferring edges that cover many at once.
    for edge, path in sorted(paths.items(), key=lambda item: (-len(item[1]), repr(item[0]))):
        if path - covered:
            chosen.add(edge)
            covered.update(path)
        if len(covered) == len(tree_edge_set):
            break
    uncovered = tree_edge_set - covered
    if uncovered:
        raise ValueError("the input graph is not 2-edge-connected (uncoverable bridges)")

    ledger = RoundLedger()
    ledger.add(
        "unweighted-2ecss-H",
        cost_model.unweighted_two_ecss_rounds(),
        note="O(D)-round 2-approximation for unweighted 2-ECSS [1]",
    )
    return chosen, tree, ledger


def _setup(
    graph: nx.Graph,
    seed: int | random.Random | None,
    label_bits: int | None,
    schedule_constant: int,
    simulate_bfs: bool,
) -> tuple[random.Random, CostModel, RoundLedger, set[Edge], RootedTree, list[Edge]]:
    """The 3-ECSS preamble (validation + ``H``), shared with the reference oracle.

    Returns ``H``'s edges twice: as a set, and as a list in
    ``graph.edges()`` order -- the order its labels are drawn in.
    """
    if label_bits is not None and not is_positive_int(label_bits):
        raise ValueError(f"label_bits must be an int >= 1 or None, got {label_bits!r}")
    if not is_positive_int(schedule_constant):
        raise ValueError(f"schedule_constant must be an int >= 1, got {schedule_constant!r}")
    fast = check_solver_input(graph, 3, "3-ECSS")
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    cost_model = CostModel(n=fast.n, diameter=hop_diameter(fast))
    ledger = RoundLedger()

    if simulate_bfs:
        from repro.congest.primitives import simulate_bfs_tree

        _, report = simulate_bfs_tree(graph)
        ledger.add_report(report)

    # The input check proved G 3-edge-connected, so the 2-approximation
    # needs no check of its own.
    h_edges, tree, h_ledger = _two_ecss_2approx(graph, None, cost_model)
    ledger.extend(h_ledger)

    # H in graph.edges() order; the solvers append A in activation order.
    # That edge order fixes the label draw order, independent of set
    # hashing.
    h_order = [
        edge for edge in (canonical_edge(u, v) for u, v in graph.edges()) if edge in h_edges
    ]
    return rng, cost_model, ledger, h_edges, tree, h_order


def _stall(tree_in_pairs: int, label_bits: int | None) -> RuntimeError:
    """The error for a round where cut pairs remain but nothing covers them.

    :func:`check_solver_input` has proved ``G`` 3-edge-connected, so every
    true cut pair of ``H ∪ A`` is covered by some edge outside it; a tree
    edge that shares its label while no candidate scores is a label
    collision (Property 5.1 failed), not a property of the input.
    """
    bits = "the default" if label_bits is None else str(label_bits)
    return RuntimeError(
        f"{tree_in_pairs} tree edge(s) share a label but no candidate covers a "
        f"cut pair: a cycle-space label collision with label_bits={bits}; "
        "use a larger label_bits or exact_labels=True"
    )


def _result(
    graph: nx.Graph,
    h_edges: set[Edge],
    added: set[Edge],
    history: list[ThreeEcssIterationStats],
    mode: str,
    cost_model: CostModel,
    ledger: RoundLedger,
    iteration: int,
) -> ECSSResult:
    metadata = {
        "h_size": len(h_edges),
        "augmentation_size": len(added),
        "iterations_history": history,
        "diameter": cost_model.diameter,
        "round_bound": cost_model.three_ecss_round_bound(),
        "label_mode": mode,
    }
    return ECSSResult.from_edges(
        k=3,
        graph=graph,
        edges=h_edges | added,
        ledger=ledger,
        iterations=iteration,
        algorithm="dory-3ecss",
        metadata=metadata,
    )


def three_ecss(
    graph: nx.Graph,
    seed: int | random.Random | None = None,
    label_bits: int | None = None,
    exact_labels: bool = False,
    schedule_constant: int = 2,
    simulate_bfs: bool = False,
) -> ECSSResult:
    """Unweighted 3-ECSS (Theorem 1.3), scored by the flat-array kernel.

    Args:
        graph: A 3-edge-connected graph (weights, if any, are ignored --
            the problem is the minimum *size* 3-ECSS).
        seed: Randomness for labels and candidate activation.
        label_bits: Width of the cycle-space labels, an ``int >= 1``
            (default ``4 log n + 8``).
        exact_labels: Use deterministic covering-set labels instead of random
            ones (removes the 2^-b error; used by tests and the E7 ablation).
        schedule_constant: The ``M`` of the probability-doubling schedule,
            an ``int >= 1``.
        simulate_bfs: Run the BFS construction as a message-passing simulation.

    Returns:
        An :class:`ECSSResult` with ``k = 3``; the weight equals the number of
        edges because the problem is unweighted.
    """
    rng, cost_model, ledger, h_edges, tree, h_order = _setup(
        graph, seed, label_bits, schedule_constant, simulate_bfs
    )
    mode = "exact" if exact_labels else "random"
    space = CycleSpace(h_order, tree)
    kernel = PathLabelKernel(graph, tree, skip=h_edges)
    scan = kernel.score_round(compute_labels(space, bits=label_bits, mode=mode, seed=rng))

    added: set[Edge] = set()
    history: list[ThreeEcssIterationStats] = []

    schedule = GuessingSchedule(
        graph.number_of_edges(), max(1, schedule_constant * cost_model.log_n)
    )
    previous_max: int | None = None
    previous_probability_was_one = False

    n = graph.number_of_nodes()
    max_iterations = 16 * schedule_constant * cost_model.log_n ** 3 + 8 * n + 64
    iteration = 0
    while True:
        iteration += 1
        if iteration > max_iterations:
            raise RuntimeError(f"3-ECSS did not converge within {max_iterations} iterations")

        ledger.add(
            "3ecss-iteration",
            cost_model.three_ecss_iteration_rounds(),
            note=f"iteration {iteration} (labels + cost-effectiveness, O(D))",
        )
        tree_in_pairs, cand_ids, _, max_value = scan
        if tree_in_pairs and not cand_ids:
            # A collision in the evolving labelling: redraw H ∪ A once.
            scan = kernel.score_round(
                compute_labels(space, bits=label_bits, mode=mode, seed=rng)
            )
            tree_in_pairs, cand_ids, _, max_value = scan
        if tree_in_pairs == 0:
            history.append(
                ThreeEcssIterationStats(
                    iteration=iteration,
                    probability=schedule.probability,
                    candidates=0,
                    added=0,
                    tree_edges_in_cut_pairs=0,
                )
            )
            break
        if not cand_ids:
            raise _stall(tree_in_pairs, label_bits)

        # rho~ = 2^e with e = bit_length(value), the smallest power of two
        # strictly greater than the integer Claim 5.8 value; the clamp and
        # the filter work on the exponents e, exactly.
        maximum = max_value.bit_length()
        # Lemma 5.11's robustness tweak: the maximum rounded cost-effectiveness
        # is forced to be non-increasing, and to halve (exponent - 1) after a
        # p = 1 iteration.
        if previous_max is not None:
            maximum = min(
                maximum, previous_max - 1 if previous_probability_was_one else previous_max
            )
        candidate_ids = kernel.candidates(maximum)

        probability = schedule.update(maximum)
        previous_max = maximum
        # The schedule emits exact binary powers capped at 1, so >= 1.0 is a
        # reliable saturation test, not a float tolerance.
        previous_probability_was_one = probability >= 1.0  # repro: disable=DET004

        if probability >= 1.0:  # repro: disable=DET004
            active_ids = candidate_ids
        else:
            active_ids = [j for j in candidate_ids if rng.random() < probability]
        if active_ids:
            kernel.add_edges(active_ids, rng)
            active = [kernel.cand_edges[j] for j in active_ids]
            added.update(active)
            space.add_edges(active)
            scan = kernel.score_round()

        history.append(
            ThreeEcssIterationStats(
                iteration=iteration,
                probability=probability,
                candidates=len(candidate_ids),
                added=len(active_ids),
                tree_edges_in_cut_pairs=tree_in_pairs,
            )
        )

    return _result(graph, h_edges, added, history, mode, cost_model, ledger, iteration)
