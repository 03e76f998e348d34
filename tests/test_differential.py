"""Randomized differential tests of the three solvers.

For ~50 seeded random graphs per class, the 2-ECSS / 3-ECSS / k-ECSS solver
outputs are checked to be k-edge-connected spanning subgraphs through the
independent verifiers in :mod:`repro.graphs.connectivity` (networkx max-flow,
not the algorithms under test), and on small instances their weight/size is
differenced against the exact ILP optimum from :mod:`repro.baselines.exact`
within the paper's approximation factors (Theorems 1.1-1.3).

Each test sweeps one instance class; a violated invariant names the seed of
the graph that broke.  Seeds are fixed, so every assertion is deterministic;
a ``slow``-marked sweep extends the same checks to larger instances.
"""

from __future__ import annotations

import math

import networkx as nx
import pytest

from repro.baselines.exact import exact_k_ecss_weight
from repro.core.k_ecss import k_ecss
from repro.core.three_ecss import three_ecss
from repro.core.two_ecss import two_ecss
from repro.graphs.connectivity import (
    is_k_edge_connected,
    subgraph_weight,
    verify_spanning_subgraph,
)
from repro.graphs.generators import cycle_with_chords, random_k_edge_connected_graph

N_GRAPHS = 50
EXACT_GRAPHS = 15
MEDIUM_GRAPHS = 10


def _verify_solution(graph: nx.Graph, result, k: int, where: str) -> None:
    """Independent verification of one solver output on one instance."""
    ok, reason = verify_spanning_subgraph(graph, result.edges, k)
    assert ok, f"{where}: verifier rejected the subgraph: {reason}"
    subgraph = nx.Graph()
    subgraph.add_nodes_from(graph.nodes())
    subgraph.add_edges_from(result.edges)
    assert is_k_edge_connected(subgraph, k), f"{where}: subgraph is not {k}-edge-connected"
    assert result.weight == subgraph_weight(graph, result.edges), where
    # The solver's own verdict must agree with the independent one.
    own_ok, own_reason = result.verify()
    assert own_ok, f"{where}: solver's own verify() disagrees: {own_reason}"


def _exact_check(graph: nx.Graph, value: float, k: int, factor: float, where: str) -> None:
    """Difference *value* against the exact optimum within *factor*."""
    optimum = exact_k_ecss_weight(graph, k)
    assert optimum <= value <= factor * optimum, (
        f"{where}: value {value} outside [optimum, factor*optimum] = "
        f"[{optimum}, {factor * optimum}] (factor {factor})"
    )


# ----------------------------------------------------------------- 2-ECSS
def _two_ecss_instance(family: str, seed: int) -> nx.Graph:
    if family == "random":
        n = 10 + seed % 7
        return random_k_edge_connected_graph(n, 2, extra_edge_prob=0.3, seed=seed)
    if family == "cycle-chords":
        n = 10 + seed % 9
        return cycle_with_chords(n, extra_edges=max(2, n // 4), seed=seed)
    if family == "random-exact":
        n = 10 + seed % 5
        return random_k_edge_connected_graph(n, 2, extra_edge_prob=0.3, seed=seed)
    if family == "random-medium":
        n = 32 + 4 * (seed % 5)
        return random_k_edge_connected_graph(n, 2, extra_edge_prob=0.2, seed=seed)
    raise KeyError(f"unknown 2-ECSS family {family!r}")


def _check_two_ecss(family: str, seed: int) -> None:
    graph = _two_ecss_instance(family, seed)
    where = f"2-ECSS {family} seed {seed}"
    result = two_ecss(graph, seed=seed, simulate_bfs=False)
    _verify_solution(graph, result, 2, where)
    if family == "random-exact":
        # Theorem 1.1: O(log n) approximation; 2 log2 n is the concrete
        # factor the benchmarks use (measured ratios stay far below it).
        n = graph.number_of_nodes()
        _exact_check(graph, result.weight, 2, 2 * math.log2(n), where)


@pytest.mark.parametrize(
    "family, graphs",
    [("random", N_GRAPHS), ("cycle-chords", N_GRAPHS), ("random-exact", EXACT_GRAPHS)],
)
def test_two_ecss_is_two_edge_connected_and_within_paper_factor(family, graphs):
    for seed in range(graphs):
        _check_two_ecss(family, seed)


# ----------------------------------------------------------------- 3-ECSS
def _three_ecss_instance(family: str, seed: int) -> nx.Graph:
    if family == "random":
        n, extra = 10 + seed % 6, 0.3
    elif family == "random-exact":
        n, extra = 10 + seed % 4, 0.3
    elif family == "random-medium":
        n, extra = 24 + 4 * (seed % 4), 0.25
    else:
        raise KeyError(f"unknown 3-ECSS family {family!r}")
    return random_k_edge_connected_graph(
        n, 3, extra_edge_prob=extra, weight_range=None, seed=seed
    )


def _check_three_ecss(family: str, seed: int) -> None:
    graph = _three_ecss_instance(family, seed)
    where = f"3-ECSS {family} seed {seed}"
    result = three_ecss(graph, seed=seed)
    _verify_solution(graph, result, 3, where)
    if family == "random-exact":
        # Theorem 1.3: 2-approximation for unweighted 3-ECSS.
        _exact_check(graph, float(result.num_edges), 3, 2.0, where)


@pytest.mark.parametrize(
    "family, graphs", [("random", N_GRAPHS), ("random-exact", EXACT_GRAPHS)]
)
def test_three_ecss_is_three_edge_connected_and_within_factor_two(family, graphs):
    for seed in range(graphs):
        _check_three_ecss(family, seed)


# ----------------------------------------------------------------- k-ECSS
@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize(
    "family, graphs",
    [("random", N_GRAPHS // 2), ("random-exact", EXACT_GRAPHS // 2)],
)
def test_k_ecss_is_k_edge_connected_and_within_paper_factor(family, graphs, k):
    for seed in range(graphs):
        n = 10 + (seed % 4 if family == "random" else seed % 3)
        graph = random_k_edge_connected_graph(n, k, extra_edge_prob=0.35, seed=seed)
        where = f"k-ECSS k={k} {family} seed {seed}"
        result = k_ecss(graph, k, seed=seed)
        _verify_solution(graph, result, k, where)
        if family == "random-exact":
            # Theorem 1.2: O(k log n) expected approximation; k log2 n is the
            # concrete ceiling the benchmarks use.
            _exact_check(graph, result.weight, k, k * math.log2(n), where)


# ----------------------------------------------------------- medium sweep
@pytest.mark.slow
@pytest.mark.parametrize("check", [_check_two_ecss, _check_three_ecss], ids=["2ecss", "3ecss"])
def test_medium_instances(check):
    """Same invariants on bigger instances; excluded from the default run."""
    for seed in range(MEDIUM_GRAPHS):
        check("random-medium", seed)
