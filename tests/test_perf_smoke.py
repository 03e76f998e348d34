"""Performance smoke tests for the experiment engine and the CSR kernel.

Guards in the default test run:

* E1 in smoke mode (tiny sizes, serial) finishes within a generous
  wall-clock budget, so an accidental complexity regression in the solver or
  the engine plumbing shows up as a test failure rather than a slow CI run;
* a warm-cache replay of E1 + E4 is at least 5x faster than the cold run
  (the acceptance bar for the on-disk trial cache), checked on the serial
  backend **and** on the processes backend -- the cold sweep runs once and
  both replays share its cache, so the extra backend costs only a replay;
* the flat-array kernel's cold verification path (connectivity + bridges +
  cut pairs + diameter, the primitives under every E2/E6 trial) is at least
  3x faster than the historical networkx oracles on an n >= 200 instance;
  a stricter multi-family sweep of the same guard runs behind the ``slow``
  marker;
* the flat-array TAP stage (coverage build + candidate scoring + voting,
  the hot loop of every E1/E2/E3/E9 trial) is at least 3x faster than the
  historical set-algebra implementation on an n >= 256 instance, with a
  stricter n = 400 variant behind the ``slow`` marker;
* the 3-ECSS path-label scoring kernel (the Claim 5.8 inner loop of every
  E5/E7 trial) and the k-ECSS bitset coverage kernel (the per-iteration
  recompute of every E4/E8/E10 trial) are each at least 3x faster than the
  ``Counter``/frozenset oracle loops of ``tests/oracles.py`` on n >= 256 instances --
  asserting value-identical scores first, so the guards double as one more
  parity check -- with stricter n = 400 variants behind the ``slow`` marker;
  both kernels are timed on cold scans (first calls on fresh kernels),
  since a repeat call on one labelling or one ``A`` is a memo hit;
* a 16 x 16 torus 3-ECSS solve calls ``compute_labels`` once, runs
  ``score_round`` once plus once per iteration that adds an edge, and
  makes at most 8 ``canonical_edge`` calls per edge of ``G``; a 32 x 32
  torus solve gathers at most 0.6M (candidate, tree-edge) pairs in
  ``score_round``, and a 64 x 64 torus solve behind the ``slow`` marker
  verifies and prints its wall time (count-based, machine-independent
  guards);
* an 8 x 8 torus k=4 k-ECSS solve runs ``minimum_spanning_tree`` once (for
  level 1 only: the ``Aug_k`` MST filter is a persistent union-find), the
  cover scan once per level plus once per iteration that follows an
  addition, and makes at most 6 ``canonical_edge`` calls per edge of ``G``
  (the cuts stay in ids from enumeration to the side matrix; count-based,
  machine-independent);
* that solve and a weighted-k3 n = 96 k=3 solve each call
  ``FastGraph.from_nx`` exactly once (the input check's snapshot serves the
  diameter and every ``Aug_k`` level) and construct no ``nx.Graph`` and
  call no ``nx.is_connected`` (the MST is an edge list); a 32 x 32 torus
  k=4 solve behind the ``slow`` marker verifies and prints its wall time;
* a weighted-sparse n = 256 2-ECSS solve and a 12 x 12 torus 3-ECSS solve
  each call ``FastGraph.from_nx`` exactly once (the input check's snapshot
  serves the diameter, the TAP kernel and the 2-approximation), construct
  no ``nx.Graph`` and call no ``nx.is_connected`` (every tree is rooted
  from an ordered edge list), and
  neither ``FastCoverage`` nor ``PathLabelKernel`` calls the per-pair
  ``TreePathIndex.path_edges`` (count-based, machine-independent);
* ``FastGraph.hop_diameter`` on weighted-sparse n = 2048 peaks below 8 MB
  of traced allocation (no n x n distance matrix), and the CONGEST BFS
  simulation on a clique chain drains at most n outboxes however many
  rounds it runs, never runs a node with an empty inbox and runs
  ``on_round`` at most once per message (all machine-independent);
* building the decomposition of a weighted-sparse n = 256 2-ECSS solve
  evaluates ``Segment.highway_edges`` at most once per segment
  (count-based, machine-independent);
* an entered (pooled) ``processes`` backend re-running several small batches
  beats the historical fresh-executor-per-call behaviour by at least 2x --
  the acceptance bar for the pooled-executor reuse;
* ``kecss bench --dry-run`` emits baseline JSON that passes the published
  schema check (and a written baseline round-trips through it);
* ``kecss bench <id> --against BENCH_<id>.json`` reproduces every committed
  baseline (e2, e3, e4, e5, e6, e8, e9, e10) -- table and per-trial
  metrics -- so the drift gate itself is exercised on every default test
  run;
* timings are printed so the speedups are visible in the test log with
  ``-s``.
"""

from __future__ import annotations

import cProfile
import importlib
import json
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import networkx as nx
import numpy as np
import pytest

from repro.analysis.backends import ProcessBackend
from repro.analysis.bench import validate_baseline
from repro.analysis.engine import ExperimentEngine
from repro.analysis.experiments import (
    experiment_e1_two_ecss_approximation,
    experiment_e4_k_ecss,
)
from oracles import (
    _recompute_effectiveness_nx,
    _score_round_nx,
    bridges_nx,
    distributed_tap_nx,
    edge_connectivity_nx,
    enumerate_cut_pairs_nx,
    label_cuts,
)
from repro.cli import main as kecss_main
from repro.congest.cost_model import CostModel
from repro.congest.network import CongestNode
from repro.congest.primitives import _BfsNode, simulate_bfs_tree
from repro.core import fastaug
from repro.core.fastaug import INFINITE_EFFECTIVENESS, BitsetCoverKernel, PathLabelKernel
from repro.core.three_ecss import three_ecss, unweighted_two_ecss_2approx
from repro.core.two_ecss import two_ecss
from repro.cycle_space.labels import compute_labels
from repro.decomposition.segments import Segment, TreeDecomposition
from repro.graphs.connectivity import (
    bridges,
    canonical_edge,
    is_k_edge_connected,
)
from repro.graphs.cuts import enumerate_cuts_of_size
from repro.graphs.fastgraph import FastGraph, TreePathIndex, hop_diameter
from repro.graphs.generators import (
    clique_chain,
    grid_torus,
    make_family,
    random_k_edge_connected_graph,
)
from repro.mst.sequential import minimum_spanning_tree
from repro.tap.distributed import distributed_tap
from repro.tap.fastcover import INFINITE_EXPONENT, FastCoverage
from repro.trees.rooted import RootedTree

# Generous ceiling: the smoke-mode sweep takes well under a second locally;
# the budget only exists to catch order-of-magnitude regressions.
E1_SMOKE_BUDGET_SECONDS = 30.0
WARM_CACHE_MIN_SPEEDUP = 5.0
#: Acceptance bar for the CSR kernel on the cold E2/E6 verification path at
#: n >= 200 (measured ~5-6x locally; 3x leaves headroom for CI noise).
FASTGRAPH_MIN_SPEEDUP = 3.0
#: Acceptance bar for the flat-array TAP stage at n >= 256 (measured ~7-9x
#: locally against the set-algebra implementation; 3x leaves CI headroom).
TAP_MIN_SPEEDUP = 3.0
#: Acceptance bar for the 3-ECSS path-label scoring kernel at n >= 256
#: against the Counter-per-candidate oracle loop; 3x leaves CI headroom.
THREE_ECSS_MIN_SPEEDUP = 3.0
#: Acceptance bar for the k-ECSS bitset coverage kernel at n >= 256 against
#: the frozenset-intersection recompute; 3x leaves CI headroom.
KECSS_MIN_SPEEDUP = 3.0
#: Acceptance bar for an entered (pooled) process backend against the
#: historical fresh-executor-per-map behaviour over several small batches
#: (measured ~10-18x locally; pool startup dominates tiny batches).
POOL_REUSE_MIN_SPEEDUP = 2.0


def _run_e1_e4(engine):
    e1 = experiment_e1_two_ecss_approximation(sizes=(16, 24), trials=2, engine=engine)
    e4 = experiment_e4_k_ecss(sizes=(12, 16), ks=(2, 3), trials=2, engine=engine)
    return e1, e4


def test_e1_smoke_mode_runs_within_wall_clock_budget():
    started = time.perf_counter()
    table = experiment_e1_two_ecss_approximation(sizes=(12, 16), trials=1)
    elapsed = time.perf_counter() - started
    print(f"\nE1 smoke mode: {elapsed:.3f}s (budget {E1_SMOKE_BUDGET_SECONDS}s)")
    assert len(table.rows) == 2
    assert elapsed < E1_SMOKE_BUDGET_SECONDS


@pytest.fixture(scope="module")
def cold_run(tmp_path_factory):
    """One cold E1+E4 sweep whose cache every warm-replay test shares."""
    cache_dir = tmp_path_factory.mktemp("perf-cache")
    engine = ExperimentEngine(cache_dir=cache_dir)
    started = time.perf_counter()
    e1, e4 = _run_e1_e4(engine)
    elapsed = time.perf_counter() - started
    assert engine.stats["hits"] == 0
    return cache_dir, elapsed, e1, e4


@pytest.mark.parametrize(
    "backend, workers", [("serial", 1), ("processes", 2)], ids=["serial", "processes"]
)
def test_warm_cache_replay_is_at_least_5x_faster(cold_run, backend, workers):
    cache_dir, cold, cold_e1, cold_e4 = cold_run
    warm_engine = ExperimentEngine(
        cache_dir=cache_dir, backend=backend, workers=workers
    )
    started = time.perf_counter()
    warm_e1, warm_e4 = _run_e1_e4(warm_engine)
    warm = time.perf_counter() - started
    assert warm_engine.stats["misses"] == 0, "warm run must be a pure cache replay"

    speedup = cold / warm
    print(
        f"\nE1+E4 cold: {cold:.3f}s, warm cache ({backend}): {warm:.3f}s "
        f"-> {speedup:.1f}x speedup ({warm_engine.summary()})"
    )
    assert speedup >= WARM_CACHE_MIN_SPEEDUP, (
        f"warm-cache replay on {backend} only {speedup:.1f}x faster "
        f"(cold {cold:.3f}s, warm {warm:.3f}s)"
    )
    # The replayed tables are bit-identical to the cold ones.
    assert warm_e1.rows == cold_e1.rows
    assert warm_e4.rows == cold_e4.rows


# ------------------------------------------------- fastgraph cold-path guard
def _best_of(function, repetitions: int = 3) -> float:
    best = float("inf")
    for _ in range(repetitions):
        started = time.perf_counter()
        function()
        best = min(best, time.perf_counter() - started)
    return best


def _cold_path_speedup(graph) -> float:
    """Kernel vs oracle timing of the E2/E6 verification primitives."""

    def fast_path():
        is_k_edge_connected(graph, 2)
        bridges(graph)
        enumerate_cuts_of_size(graph, 2)
        hop_diameter(graph)

    def oracle_path():
        edge_connectivity_nx(graph) >= 2
        bridges_nx(graph)
        enumerate_cut_pairs_nx(graph)
        nx.diameter(graph)

    fast = _best_of(fast_path)
    oracle = _best_of(oracle_path)
    return oracle / fast


def test_fastgraph_cold_path_speedup_at_n256():
    """The tentpole acceptance bar: >= 3x on the E2/E6 family at n >= 200."""
    graph = random_k_edge_connected_graph(256, 2, extra_edge_prob=3.0 / 256, seed=3)
    speedup = _cold_path_speedup(graph)
    print(f"\nfastgraph cold path (weighted-sparse n=256): {speedup:.1f}x")
    assert speedup >= FASTGRAPH_MIN_SPEEDUP, (
        f"fastgraph cold path only {speedup:.1f}x faster than the networkx "
        f"oracles at n=256 (bar: {FASTGRAPH_MIN_SPEEDUP}x)"
    )


@pytest.mark.slow
@pytest.mark.parametrize(
    "label, graph_factory",
    [
        ("weighted-sparse-n256",
         lambda: random_k_edge_connected_graph(256, 2, extra_edge_prob=3.0 / 256, seed=3)),
        ("weighted-sparse-n400",
         lambda: random_k_edge_connected_graph(400, 2, extra_edge_prob=3.0 / 400, seed=5)),
        ("clique-chain-n256", lambda: clique_chain(64, 4, 2)),
        ("clique-chain-n512", lambda: clique_chain(128, 4, 2)),
    ],
)
def test_fastgraph_cold_path_speedup_sweep(label, graph_factory):
    """Strict multi-family sweep of the same guard (slow-marked)."""
    speedup = _cold_path_speedup(graph_factory())
    print(f"\nfastgraph cold path ({label}): {speedup:.1f}x")
    assert speedup >= FASTGRAPH_MIN_SPEEDUP, (
        f"{label}: only {speedup:.1f}x (bar: {FASTGRAPH_MIN_SPEEDUP}x)"
    )


# ------------------------------------------------------ tap stage cold guard
def _tap_stage_speedup(n: int, seed: int) -> float:
    """Flat-array TAP stage vs the set-algebra oracle on one E2-style instance.

    Both runs consume identical RNG streams and include their coverage-state
    construction (the stage as the 2-ECSS driver executes it); the diameter
    -- identical work on both sides -- is computed once outside the timers.
    """
    graph = random_k_edge_connected_graph(n, 2, extra_edge_prob=3.0 / n, seed=seed)
    tree = RootedTree(minimum_spanning_tree(graph), root=min(graph.nodes(), key=repr))
    cost_model = CostModel(n=n, diameter=hop_diameter(graph))

    fast = _best_of(lambda: distributed_tap(graph, tree, seed=7, cost_model=cost_model))
    oracle = _best_of(
        lambda: distributed_tap_nx(graph, tree, seed=7, cost_model=cost_model)
    )
    return oracle / fast


def test_tap_stage_speedup_at_n256():
    """The TAP-kernel acceptance bar: >= 3x on the E2 family at n >= 256."""
    speedup = _tap_stage_speedup(256, seed=3)
    print(f"\nTAP stage (weighted-sparse n=256): {speedup:.1f}x")
    assert speedup >= TAP_MIN_SPEEDUP, (
        f"flat-array TAP stage only {speedup:.1f}x faster than the set-algebra "
        f"implementation at n=256 (bar: {TAP_MIN_SPEEDUP}x)"
    )


@pytest.mark.slow
def test_tap_stage_speedup_at_n400():
    """Stricter variant at the size where TAP dominated the 2-ECSS wall clock."""
    speedup = _tap_stage_speedup(400, seed=5)
    print(f"\nTAP stage (weighted-sparse n=400): {speedup:.1f}x")
    assert speedup >= TAP_MIN_SPEEDUP, (
        f"flat-array TAP stage only {speedup:.1f}x at n=400 (bar: {TAP_MIN_SPEEDUP}x)"
    )


# ------------------------------------------- solver inner-loop kernel guards
def _three_ecss_scoring_speedup(n: int, seed: int) -> float:
    """Path-label kernel vs the Counter oracle on one E5-style iteration.

    Times exactly the inner loop the kernel replaced -- the Claim 5.8 scoring
    of every candidate under one labelling -- after asserting both sides
    produce identical rounded cost-effectiveness maps.  The shared per-
    iteration costs (``compute_labels``) are outside the timers on both
    sides.  Each kernel timing is the first call on a kernel built outside
    the timer: a repeat call on the same labelling would be a memo hit, not
    a candidate scan.
    """
    graph = random_k_edge_connected_graph(
        n, 3, extra_edge_prob=3.0 / n, weight_range=None, seed=seed
    )
    h_edges, tree, _ = unweighted_two_ecss_2approx(graph)
    kernel = PathLabelKernel(graph, tree, skip=h_edges)
    tree_edge_set = set(tree.tree_edges())
    candidate_paths = {
        edge: [canonical_edge(a, b) for a, b in tree.tree_path_edges(*edge)]
        for edge in kernel.cand_edges
    }
    current = nx.Graph()
    current.add_nodes_from(graph.nodes())
    current.add_edges_from(h_edges)
    labelling = compute_labels(current, tree=tree, seed=seed)
    labels = labelling.labels

    pairs, cand_ids, values, _ = kernel.score_round(labelling)
    oracle_pairs, rounded = _score_round_nx(
        labels, tree_edge_set, candidate_paths, set()
    )
    assert pairs == oracle_pairs > 0
    assert {
        kernel.cand_edges[j]: Fraction(1 << value.bit_length())
        for j, value in zip(cand_ids, values)
    } == rounded

    fast = float("inf")
    for _ in range(3):
        cold = PathLabelKernel(graph, tree, skip=h_edges)
        started = time.perf_counter()
        cold.score_round(labelling)
        fast = min(fast, time.perf_counter() - started)
    oracle = _best_of(
        lambda: _score_round_nx(labels, tree_edge_set, candidate_paths, set())
    )
    return oracle / fast


def test_three_ecss_scoring_speedup_at_n256():
    """The 3-ECSS kernel acceptance bar: >= 3x on the E5 family at n >= 256."""
    speedup = _three_ecss_scoring_speedup(256, seed=3)
    print(f"\n3-ECSS path-label scoring (n=256): {speedup:.1f}x")
    assert speedup >= THREE_ECSS_MIN_SPEEDUP, (
        f"3-ECSS scoring kernel only {speedup:.1f}x faster than the Counter "
        f"oracle at n=256 (bar: {THREE_ECSS_MIN_SPEEDUP}x)"
    )


@pytest.mark.slow
def test_three_ecss_scoring_speedup_at_n400():
    """Stricter variant at the size targeted by paper-scale E5 sweeps."""
    speedup = _three_ecss_scoring_speedup(400, seed=5)
    print(f"\n3-ECSS path-label scoring (n=400): {speedup:.1f}x")
    assert speedup >= THREE_ECSS_MIN_SPEEDUP, (
        f"3-ECSS scoring kernel only {speedup:.1f}x at n=400 "
        f"(bar: {THREE_ECSS_MIN_SPEEDUP}x)"
    )


def _count_three_ecss_layers(monkeypatch) -> tuple[list, list, list]:
    """Record ``compute_labels`` and ``score_round`` calls and gathered pairs.

    Returns ``(labelled, scans, gathered)``: the graph labelled per
    ``compute_labels`` call, whether each ``score_round`` got a full
    labelling, and the (candidate, tree-edge) pairs each gather read.
    """
    # The package re-exports the solver under the module's name, so the
    # module itself comes from the import system, not attribute access.
    module = importlib.import_module("repro.core.three_ecss")
    labelled: list[int] = []
    scans: list[bool] = []
    gathered: list[int] = []
    label = module.compute_labels
    score = PathLabelKernel.score_round
    rows = fastaug._csr_rows

    def counting_labels(graph, *args, **kwargs):
        labelled.append(id(graph))
        return label(graph, *args, **kwargs)

    def counting_score(self, labelling=None):
        scans.append(labelling is not None)
        return score(self, labelling)

    def counting_rows(indptr, values, ids):
        out = rows(indptr, values, ids)
        gathered.append(len(out))
        return out

    monkeypatch.setattr(module, "compute_labels", counting_labels)
    monkeypatch.setattr(PathLabelKernel, "score_round", counting_score)
    monkeypatch.setattr(fastaug, "_csr_rows", counting_rows)
    return labelled, scans, gathered


def test_three_ecss_solve_scans_only_after_additions(monkeypatch):
    """Count-based guard on a 16 x 16 torus solve (machine-independent).

    ``compute_labels`` must run once per solve: the labelling of ``H``
    evolves with ``A`` and is never redrawn unless a collision stalls the
    loop.  ``score_round`` must run once on that labelling, then once per
    iteration that adds an edge; an iteration that adds nothing changes no
    label and reuses the last scan.
    """
    labelled, scans, _ = _count_three_ecss_layers(monkeypatch)
    result = three_ecss(grid_torus(16, 16), seed=1)
    ok, reason = result.verify()
    assert ok, reason

    history = result.metadata["iterations_history"]
    additions = sum(step.added > 0 for step in history)
    print(
        f"\n3-ECSS torus 16x16: {len(labelled)} labelling, {len(scans)} scans over "
        f"{result.iterations} iterations ({additions} with additions)"
    )
    assert len(labelled) == 1
    assert scans == [True] + [False] * additions
    assert len(scans) < result.iterations // 2


#: (candidate, tree-edge) pairs one 32 x 32 torus 3-ECSS solve may gather
#: in ``score_round`` (about 0.16M measured; rescanning every shared class
#: after each addition gathered 3.8M).
THREE_ECSS_TORUS_1024_PAIRS = 600_000


def test_three_ecss_rescans_only_split_classes(monkeypatch):
    """Count-based guard on a 32 x 32 torus solve (machine-independent).

    After an addition only the classes the added paths crossed are
    rescanned, so the candidate lists gathered over the whole solve stay
    far below one full scan per addition.
    """
    _, scans, gathered = _count_three_ecss_layers(monkeypatch)
    result = three_ecss(grid_torus(32, 32), seed=1)
    ok, reason = result.verify()
    assert ok, reason
    print(
        f"\n3-ECSS torus 32x32: {sum(gathered)} (candidate, tree-edge) pairs "
        f"gathered over {len(scans)} scans (bound {THREE_ECSS_TORUS_1024_PAIRS})"
    )
    assert sum(gathered) <= THREE_ECSS_TORUS_1024_PAIRS


@pytest.mark.slow
def test_three_ecss_torus_n4096_scale():
    """Scale check: a 64 x 64 torus 3-ECSS solve (n = 4096) verifies."""
    started = time.perf_counter()
    result = three_ecss(grid_torus(64, 64), seed=1)
    elapsed = time.perf_counter() - started
    print(
        f"\n3-ECSS torus 64x64: {elapsed:.2f}s, {result.iterations} iterations, "
        f"{result.num_edges} edges"
    )
    ok, reason = result.verify()
    assert ok, reason


#: ``canonical_edge`` calls allowed per edge of G in one 3-ECSS solve: the
#: setup (H, the kernel's candidates, the cycle space) canonicalises each
#: edge a few times; the iterations label and score integer arrays only.
THREE_ECSS_CANONICAL_PER_EDGE = 8


def test_three_ecss_solve_canonicalises_each_edge_a_bounded_number_of_times():
    """Count-based guard on a 16 x 16 torus solve (machine-independent).

    The iterations must not rebuild canonical edges: a per-iteration walk of
    ``H ∪ A`` would cost about m calls for each of the solve's 536
    iterations, far above the bound.
    """
    graph = grid_torus(16, 16)
    m = graph.number_of_edges()
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        result = three_ecss(graph, seed=1)
    finally:
        profiler.disable()
    calls = sum(
        entry.callcount
        for entry in profiler.getstats()
        if entry.code is canonical_edge.__code__
    )
    print(
        f"\n3-ECSS torus 16x16: {calls} canonical_edge calls for m={m} over "
        f"{result.iterations} iterations (bound {THREE_ECSS_CANONICAL_PER_EDGE}m)"
    )
    assert calls <= THREE_ECSS_CANONICAL_PER_EDGE * m


#: ``canonical_edge`` calls allowed per edge of G in one k-ECSS solve: the
#: snapshot's canonical edges, each level's ``H`` and the result; a cut
#: carries edge and vertex ids, never labels.
KECSS_CANONICAL_PER_EDGE = 6


def test_kecss_solve_canonicalises_each_edge_a_bounded_number_of_times():
    """Count-based guard on an 8 x 8 torus k=4 solve (machine-independent).

    Turning every enumerated cut into node labels and canonical edges
    would cost about 5m calls on this solve, above the bound.
    """
    graph = grid_torus(8, 8)
    m = graph.number_of_edges()
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        result = module_k_ecss(graph, 4, seed=1)
    finally:
        profiler.disable()
    calls = sum(
        entry.callcount
        for entry in profiler.getstats()
        if entry.code is canonical_edge.__code__
    )
    print(
        f"\nk-ECSS torus 8x8 k=4: {calls} canonical_edge calls for m={m} "
        f"(bound {KECSS_CANONICAL_PER_EDGE}m)"
    )
    assert calls <= KECSS_CANONICAL_PER_EDGE * m
    ok, reason = result.verify()
    assert ok, reason


def _kecss_coverage_speedup(n: int, seed: int) -> float:
    """Bitset coverage kernel vs the frozenset recompute on one Aug_2 level.

    Reproduces a mid-run iteration: every fourth candidate has already
    joined ``A`` (so part of the cut set is covered), then both sides
    recompute the rounded cost-effectiveness of every remaining candidate.
    Scores are asserted value-identical before timing.  Each kernel timing
    is the first :meth:`~BitsetCoverKernel.score` on a kernel built outside
    the timer: a repeat call under the same ``A`` would be a memo hit.
    """
    graph = random_k_edge_connected_graph(n, 2, extra_edge_prob=3.0 / n, seed=seed)
    base = frozenset(minimum_spanning_tree(graph))
    subgraph = nx.Graph()
    subgraph.add_nodes_from(graph.nodes())
    subgraph.add_edges_from(base)
    cuts = label_cuts(subgraph, 1)
    pool = [
        canonical_edge(u, v)
        for u, v in graph.edges()
        if canonical_edge(u, v) not in base
    ]
    weight_of = {edge: graph[edge[0]][edge[1]].get("weight", 1) for edge in pool}
    covers = {
        edge: frozenset(
            index
            for index, cut in enumerate(cuts)
            if (edge[0] in cut.side) != (edge[1] in cut.side)
        )
        for edge in pool
    }
    node_id = {node: i for i, node in enumerate(graph.nodes())}
    side = np.zeros((len(cuts), len(node_id)), dtype=bool)
    for c, cut in enumerate(cuts):
        side[c, [node_id[v] for v in cut.side]] = True
    arguments = (
        pool, [weight_of[edge] for edge in pool], side,
        [node_id[u] for u, _ in pool], [node_id[v] for _, v in pool],
    )
    kernel = BitsetCoverKernel(*arguments)
    added = set(pool[::4])
    kernel.add_many(range(0, len(pool), 4))
    uncovered = set(range(len(cuts)))
    for edge in added:
        uncovered -= covers[edge]
    assert kernel.uncovered_count == len(uncovered) > 0

    cand_ids, exponents, _ = kernel.score()
    reference = _recompute_effectiveness_nx(pool, added, covers, uncovered, weight_of)
    assert {
        pool[j]: INFINITE_EFFECTIVENESS
        if exponent == INFINITE_EXPONENT
        else Fraction(2) ** exponent
        for j, exponent in zip(cand_ids.tolist(), exponents.tolist())
    } == reference

    fast = float("inf")
    for _ in range(3):
        cold = BitsetCoverKernel(*arguments)
        cold.add_many(range(0, len(pool), 4))
        started = time.perf_counter()
        cold.score()
        fast = min(fast, time.perf_counter() - started)
    oracle = _best_of(
        lambda: _recompute_effectiveness_nx(pool, added, covers, uncovered, weight_of)
    )
    return oracle / fast


def test_kecss_coverage_speedup_at_n256():
    """The k-ECSS kernel acceptance bar: >= 3x on the E4 family at n >= 256."""
    speedup = _kecss_coverage_speedup(256, seed=3)
    print(f"\nk-ECSS bitset coverage (n=256): {speedup:.1f}x")
    assert speedup >= KECSS_MIN_SPEEDUP, (
        f"k-ECSS coverage kernel only {speedup:.1f}x faster than the frozenset "
        f"recompute at n=256 (bar: {KECSS_MIN_SPEEDUP}x)"
    )


@pytest.mark.slow
def test_kecss_coverage_speedup_at_n400():
    """Stricter variant at the size targeted by paper-scale E4 sweeps."""
    speedup = _kecss_coverage_speedup(400, seed=5)
    print(f"\nk-ECSS bitset coverage (n=400): {speedup:.1f}x")
    assert speedup >= KECSS_MIN_SPEEDUP, (
        f"k-ECSS coverage kernel only {speedup:.1f}x at n=400 "
        f"(bar: {KECSS_MIN_SPEEDUP}x)"
    )


def test_kecss_solve_runs_kruskal_once_and_scans_only_after_additions(monkeypatch):
    """Count-based guard on an 8 x 8 torus k=4 solve (machine-independent).

    ``minimum_spanning_tree`` solves level 1 and nothing else: the Line 4
    filter of ``Aug_2..Aug_4`` runs on a union-find of ``A`` that persists
    across iterations.  The cover scan runs once per level, then once per
    iteration that follows an addition; every other iteration reuses it.
    """
    # The package re-exports the solver under the module's name, so the
    # module itself comes from the import system, not attribute access.
    module = importlib.import_module("repro.core.k_ecss")

    kruskal_calls: list[int] = []
    levels: list = []
    scans: list[bool] = []
    kruskal = module.minimum_spanning_tree
    augment = module.augment_to_k
    score = BitsetCoverKernel.score

    def counting_kruskal(graph):
        kruskal_calls.append(graph.number_of_edges())
        return kruskal(graph)

    def recording_augment(*args, **kwargs):
        result = augment(*args, **kwargs)
        levels.append(result)
        return result

    def counting_score(self):
        memo = self._memo
        result = score(self)
        scans.append(self._memo is not memo)
        return result

    monkeypatch.setattr(module, "minimum_spanning_tree", counting_kruskal)
    monkeypatch.setattr(module, "augment_to_k", recording_augment)
    monkeypatch.setattr(BitsetCoverKernel, "score", counting_score)
    graph = grid_torus(8, 8)
    result = module.k_ecss(graph, 4, seed=1)
    ok, reason = result.verify()
    assert ok, reason

    assert kruskal_calls == [graph.number_of_edges()]
    assert [level.metadata["k"] for level in levels] == [2, 3, 4]
    assert all(level.iterations > 0 for level in levels)
    expected: list[bool] = []
    for level in levels:
        history = level.metadata["history"]
        expected += [True] + [step.added > 0 for step in history[:-1]]
    with_addition = sum(
        step.added > 0 for level in levels for step in level.metadata["history"]
    )
    print(
        f"\nk-ECSS torus 8x8 k=4: {sum(scans)} cover scans over "
        f"{len(scans)} iterations, {len(kruskal_calls)} Kruskal run"
    )
    assert scans == expected
    assert sum(scans) <= len(levels) + with_addition


def test_kecss_torus_solve_runs_no_max_flow(monkeypatch):
    """Count-based guard: an 8 x 8 torus k=4 solve never calls max-flow.

    The input check needs ``lambda >= 4`` and the levels need
    ``lambda(H) >= 1, 2, 3``; each is decided by an exact certificate
    (bridges, cut pairs, confirmed 3-edge cuts), and the 3-edge cuts of
    ``Aug_4`` come from the cycle-space label lookup.
    """
    module = importlib.import_module("repro.core.k_ecss")
    calls: list[int] = []
    max_flow = nx.edge_connectivity

    def counting_max_flow(graph, *args, **kwargs):
        calls.append(graph.number_of_nodes())
        return max_flow(graph, *args, **kwargs)

    monkeypatch.setattr(nx, "edge_connectivity", counting_max_flow)
    result = module.k_ecss(grid_torus(8, 8), 4, seed=1)
    solve_calls = len(calls)
    ok, reason = result.verify()
    assert ok, reason
    print(f"\nk-ECSS torus 8x8 k=4: {solve_calls} nx.edge_connectivity calls in the solve")
    assert solve_calls == 0


def module_k_ecss(graph, k, seed):
    # The package re-exports the solver under the module's name, so the
    # module itself comes from the import system, not attribute access.
    return importlib.import_module("repro.core.k_ecss").k_ecss(graph, k, seed=seed)


@pytest.mark.parametrize(
    "label, build, k",
    [
        ("torus-8x8", lambda: grid_torus(8, 8), 4),
        ("weighted-k3-96", lambda: make_family("weighted-k3")(96, seed=1), 3),
    ],
)
def test_kecss_solve_snapshots_the_input_once(monkeypatch, label, build, k):
    """Count-based guard (machine-independent): ``k_ecss`` converts ``G``
    once, for the input check; the diameter and every ``Aug_k`` level read
    that snapshot, and each level builds ``H``'s from ``G``'s edge ids.
    The level-1 MST is an edge list: no ``nx.Graph``, no ``nx.is_connected``."""
    graph = build()
    converted: list[int] = []
    from_nx = FastGraph.from_nx.__func__

    def counting_from_nx(cls, source):
        converted.append(id(source))
        return from_nx(cls, source)

    monkeypatch.setattr(FastGraph, "from_nx", classmethod(counting_from_nx))
    trees = _count_networkx_trees(monkeypatch)
    result = module_k_ecss(graph, k, seed=1)
    print(f"\nk-ECSS {label} k={k}: {len(converted)} FastGraph.from_nx call(s), {trees}")
    assert converted == [id(graph)]
    assert trees == {"nx.Graph": 0, "nx.is_connected": 0}
    monkeypatch.undo()
    ok, reason = result.verify()
    assert ok, reason


@pytest.mark.slow
def test_kecss_torus_n1024_verifies():
    """Scale check: a 32 x 32 torus k=4 solve (n = 1024, three ``Aug_k``
    levels, about 16k cuts) verifies."""
    started = time.perf_counter()
    result = module_k_ecss(grid_torus(32, 32), 4, seed=1)
    elapsed = time.perf_counter() - started
    stages = result.metadata["stages"]
    print(
        f"\nk-ECSS torus 32x32 k=4: {elapsed:.2f}s, cuts per level "
        f"{[stage['cuts'] for stage in stages[1:]]}"
    )
    ok, reason = result.verify()
    assert ok, reason


# ------------------------------------------- diameter and simulator guards
#: Peak traced allocation of ``FastGraph.hop_diameter`` on weighted-sparse
#: n = 2048 (~3.9 MB measured; the all-pairs matrix it replaced was 32 MB).
DIAMETER_PEAK_BYTES = 8_000_000


def test_hop_diameter_allocates_no_all_pairs_matrix():
    """Memory guard (machine-independent): no n x n distance matrix."""
    graph = random_k_edge_connected_graph(2048, 2, extra_edge_prob=3.0 / 2048, seed=1)
    fast = FastGraph.from_nx(graph)
    tracemalloc.start()
    try:
        diameter = fast.hop_diameter()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    print(
        f"\nhop_diameter (weighted-sparse n=2048, D={diameter}): "
        f"peak {peak / 1e6:.1f} MB (bar {DIAMETER_PEAK_BYTES / 1e6:.0f} MB)"
    )
    assert peak < DIAMETER_PEAK_BYTES


def test_bfs_simulation_drains_only_nodes_that_sent(monkeypatch):
    """Count-based guard: one outbox drain per BFS node, not one per round.

    Every node of the flooding BFS sends exactly once, so the round loop may
    call ``_drain_outbox`` at most n times however many rounds it runs.
    """
    drains: list[int] = []
    drain = CongestNode._drain_outbox

    def counting_drain(self):
        drains.append(1)
        return drain(self)

    monkeypatch.setattr(CongestNode, "_drain_outbox", counting_drain)
    graph = clique_chain(128, 4, 2)
    n = graph.number_of_nodes()
    _, report = simulate_bfs_tree(graph)
    print(
        f"\nCONGEST BFS (clique-chain n={n}): {len(drains)} outbox drains "
        f"over {report.rounds} rounds"
    )
    assert report.rounds > 100
    assert len(drains) <= n


def test_bfs_simulation_visits_only_nodes_with_mail(monkeypatch):
    """Count-based guard: a BFS node sleeps until mail arrives.

    Every ``_BfsNode`` halts in ``initialize()`` and is woken only by
    mail, so ``on_round`` never runs with an empty inbox, and it runs at
    most once per delivered message however many rounds the wave takes.
    """
    inbox_sizes: list[int] = []
    on_round = _BfsNode.on_round

    def counting_on_round(self, round_number, messages):
        inbox_sizes.append(len(messages))
        return on_round(self, round_number, messages)

    monkeypatch.setattr(_BfsNode, "on_round", counting_on_round)
    graph = clique_chain(128, 4, 2)
    _, report = simulate_bfs_tree(graph)
    empty = inbox_sizes.count(0)
    print(
        f"\nCONGEST BFS (clique-chain n={graph.number_of_nodes()}): "
        f"{len(inbox_sizes)} on_round calls, {empty} with an empty inbox, "
        f"{report.messages} messages over {report.rounds} rounds"
    )
    assert report.rounds > 100
    assert empty == 0
    assert len(inbox_sizes) <= report.messages


def test_build_decomposition_reads_each_highway_at_most_once(monkeypatch):
    """Count-based guard on a weighted-sparse n = 256 2-ECSS solve: building
    the decomposition evaluates ``Segment.highway_edges`` at most once per
    segment (no per-orphan-child rescan of every highway)."""
    module = importlib.import_module("repro.core.two_ecss")
    inside: list[bool] = []
    built: list[TreeDecomposition] = []
    evaluations: list[int] = []
    highway_edges = Segment.highway_edges.fget
    build = module.build_decomposition

    def counting_highway_edges(self):
        if inside:
            evaluations.append(1)
        return highway_edges(self)

    def tracked_build(*args, **kwargs):
        inside.append(True)
        try:
            built.append(build(*args, **kwargs))
        finally:
            inside.pop()
        return built[-1]

    monkeypatch.setattr(Segment, "highway_edges", property(counting_highway_edges))
    monkeypatch.setattr(module, "build_decomposition", tracked_build)
    two_ecss(make_family("weighted-sparse")(256, seed=1), seed=1)
    assert len(built) == 1
    segments = len(built[0].segments)
    print(
        f"\n2-ECSS weighted-sparse n=256: {len(evaluations)} highway_edges "
        f"evaluations in build_decomposition for {segments} segments"
    )
    assert len(evaluations) <= segments


def _count_networkx_trees(monkeypatch) -> dict[str, int]:
    """Count ``nx.Graph`` constructions and ``nx.is_connected`` calls.

    The counts run until ``monkeypatch.undo()``.  A solve builds its trees
    (:class:`RootedTree`, the MST, the simulated BFS tree) from ordered
    edge lists, so it should make neither.
    """
    counts = {"nx.Graph": 0, "nx.is_connected": 0}
    init, is_connected = nx.Graph.__init__, nx.is_connected

    def counting_init(self, *args, **kwargs):
        counts["nx.Graph"] += 1
        init(self, *args, **kwargs)

    def counting_is_connected(graph):
        counts["nx.is_connected"] += 1
        return is_connected(graph)

    monkeypatch.setattr(nx.Graph, "__init__", counting_init)
    monkeypatch.setattr(nx, "is_connected", counting_is_connected)
    return counts


def test_two_ecss_solve_snapshots_the_graph_once(monkeypatch):
    """Count-based guard on a weighted-sparse n = 256 solve (machine-independent).

    The input check, ``hop_diameter`` and the TAP kernel share one
    ``FastGraph`` snapshot, so the solve converts the graph exactly once,
    and it roots the MST and the simulated BFS tree without building an
    ``nx.Graph`` or calling ``nx.is_connected``.
    """
    snapshots: list[int] = []
    from_nx = FastGraph.from_nx.__func__

    def counting_from_nx(cls, graph):
        snapshots.append(id(graph))
        return from_nx(cls, graph)

    graph = make_family("weighted-sparse")(256, seed=1)
    monkeypatch.setattr(FastGraph, "from_nx", classmethod(counting_from_nx))
    trees = _count_networkx_trees(monkeypatch)
    result = two_ecss(graph, seed=1)
    print(f"\n2-ECSS weighted-sparse n=256: {len(snapshots)} FastGraph.from_nx call(s), {trees}")
    assert snapshots == [id(graph)]
    assert trees == {"nx.Graph": 0, "nx.is_connected": 0}
    monkeypatch.undo()
    ok, reason = result.verify()
    assert ok, reason


def test_three_ecss_solve_snapshots_the_graph_once(monkeypatch):
    """Count-based guard on a 12 x 12 torus solve (machine-independent).

    The input check's ``FastGraph`` snapshot serves ``hop_diameter``; the
    2-approximation skips the 2-edge-connectivity check that guards its
    direct callers, since the input check proved more.  The BFS tree is
    rooted straight from ``nx.bfs_edges``: no ``nx.Graph``, no
    ``nx.is_connected``.
    """
    snapshots: list[int] = []
    from_nx = FastGraph.from_nx.__func__

    def counting_from_nx(cls, graph):
        snapshots.append(id(graph))
        return from_nx(cls, graph)

    graph = grid_torus(12, 12)
    monkeypatch.setattr(FastGraph, "from_nx", classmethod(counting_from_nx))
    trees = _count_networkx_trees(monkeypatch)
    result = three_ecss(graph, seed=1)
    print(f"\n3-ECSS torus 12x12: {len(snapshots)} FastGraph.from_nx call(s), {trees}")
    assert snapshots == [id(graph)]
    assert trees == {"nx.Graph": 0, "nx.is_connected": 0}
    monkeypatch.undo()
    ok, reason = result.verify()
    assert ok, reason


def test_path_kernels_build_paths_without_per_pair_extraction(monkeypatch):
    """Count-based guard (machine-independent): ``FastCoverage`` and
    ``PathLabelKernel`` build every tree path with the vectorised
    ``TreePathIndex.path_csr``, never with per-pair ``path_edges`` calls --
    checked over a weighted-sparse n = 256 2-ECSS solve (TAP kernel) and an
    8 x 8 torus 3-ECSS solve (path-label kernel).
    """
    inside: list[str] = []
    built: dict[str, int] = {}
    per_pair_calls: list[str] = []
    path_edges = TreePathIndex.path_edges

    def counting_path_edges(self, u, v):
        if inside:
            per_pair_calls.append(inside[-1])
        return path_edges(self, u, v)

    def tracking(kernel):
        init = kernel.__init__

        def tracked_init(self, *args, **kwargs):
            inside.append(kernel.__name__)
            try:
                init(self, *args, **kwargs)
            finally:
                inside.pop()
            built[kernel.__name__] = built.get(kernel.__name__, 0) + 1

        monkeypatch.setattr(kernel, "__init__", tracked_init)

    monkeypatch.setattr(TreePathIndex, "path_edges", counting_path_edges)
    tracking(FastCoverage)
    tracking(PathLabelKernel)
    two_ecss(make_family("weighted-sparse")(256, seed=1), seed=1)
    three_ecss(grid_torus(8, 8), seed=1)
    print(f"\npath kernels built {built}: {len(per_pair_calls)} path_edges calls inside")
    assert built == {"FastCoverage": 1, "PathLabelKernel": 1}
    assert per_pair_calls == []


# ------------------------------------------------------ pooled-executor guard
def test_reused_process_pool_beats_per_call_pools_on_small_batches():
    """The pooled-executor acceptance bar: reuse >= 2x over fresh-per-map.

    Six tiny batches, the shape of an engine sweep that calls ``run_jobs``
    once per experiment row: un-entered (the historical behaviour) every
    ``map`` pays full executor startup; entered, one pool serves them all.
    """
    items = list(range(8))
    batches = 6

    per_call_backend = ProcessBackend(workers=4)
    started = time.perf_counter()
    for _ in range(batches):
        assert per_call_backend.map(str, items) == [str(i) for i in items]
    per_call = time.perf_counter() - started

    pooled_backend = ProcessBackend(workers=4)
    with pooled_backend:
        pooled_backend.map(str, items)  # spawn the pool outside the timer
        started = time.perf_counter()
        for _ in range(batches):
            assert pooled_backend.map(str, items) == [str(i) for i in items]
        pooled = time.perf_counter() - started

    speedup = per_call / pooled
    print(
        f"\nprocess pools over {batches} small batches: per-call {per_call:.3f}s, "
        f"reused {pooled:.3f}s -> {speedup:.1f}x"
    )
    assert speedup >= POOL_REUSE_MIN_SPEEDUP, (
        f"reused process pool only {speedup:.1f}x faster than per-call pools "
        f"(bar: {POOL_REUSE_MIN_SPEEDUP}x)"
    )


# ------------------------------------------------------ bench baseline schema
def test_bench_dry_run_emits_schema_valid_baseline_json(capsys):
    """``kecss bench e7 --dry-run`` prints a baseline passing the schema check."""
    exit_code = kecss_main(["bench", "e7", "--dry-run"])
    assert exit_code == 0
    out = capsys.readouterr().out
    payload = json.loads(out)
    assert validate_baseline(payload) == []
    assert payload["experiment"] == "e7"
    assert payload["summary"]["trial_count"] == len(payload["trials"]) > 0
    assert all(trial["error"] is None for trial in payload["trials"])


@pytest.mark.parametrize("experiment", ["e2", "e3", "e4", "e5", "e6", "e8", "e9", "e10"])
def test_bench_against_committed_baseline(experiment, capsys):
    """``kecss bench <id> --against BENCH_<id>.json`` passes on every
    committed baseline: the table and every trial's metrics reproduce
    exactly, which is the check a refactor PR relies on."""
    baseline = Path(__file__).resolve().parents[1] / f"BENCH_{experiment}.json"
    assert baseline.is_file(), f"{baseline.name} must be committed at the repo root"
    exit_code = kecss_main(["bench", experiment, "--against", str(baseline)])
    out = capsys.readouterr().out
    assert exit_code == 0, f"{experiment} drifted from the committed baseline:\n{out}"
    assert "trials match" in out


def test_bench_writes_and_revalidates_a_baseline(tmp_path, capsys):
    """``kecss bench e7 --out ...`` writes a file that round-trips the schema
    and matches itself under ``--against`` (bit-identical aggregates)."""
    out = tmp_path / "BENCH_e7.json"
    assert kecss_main(["bench", "e7", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert validate_baseline(payload) == []
    capsys.readouterr()
    assert kecss_main(["bench", "e7", "--against", str(out)]) == 0
    assert "trials match" in capsys.readouterr().out
