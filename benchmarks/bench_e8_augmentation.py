"""E8 (Claims 2.1 / 4.1): augmentation composition invariants."""

from __future__ import annotations

from _bench_helpers import engine_from_env, show

from repro.analysis.experiments import experiment_e8_augmentation_invariants
from repro.core.k_ecss import augment_to_k
from repro.graphs.generators import random_k_edge_connected_graph
from repro.mst.sequential import minimum_spanning_tree


def test_e8_single_augmentation_benchmark(benchmark):
    """Time one Aug_2 stage (cover all bridges of the MST) on n = 24."""
    graph = random_k_edge_connected_graph(24, 2, extra_edge_prob=0.25, seed=8)
    mst_edges = frozenset(minimum_spanning_tree(graph))
    result = benchmark(lambda: augment_to_k(graph, mst_edges, 2, seed=8))
    assert len(result.added) <= graph.number_of_nodes() - 1


def test_e8_invariant_table(benchmark):
    """Regenerate the E8 table and re-check Claim 4.1 on every row."""
    table = benchmark.pedantic(
        lambda: experiment_e8_augmentation_invariants(n=14, k=3, trials=3, engine=engine_from_env()),
        rounds=1,
        iterations=1,
    )
    show(table)
    for added, bound in zip(table.column("edges added"), table.column("n-1")):
        assert added <= bound
