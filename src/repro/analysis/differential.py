"""Differential-testing trials, sharded through the experiment engine.

The randomized differential suite (``tests/test_differential.py``) checks,
for dozens of seeded random graphs per class, that the 2-ECSS / 3-ECSS /
k-ECSS solver outputs are k-edge-connected spanning subgraphs according to
the *independent* verifiers in :mod:`repro.graphs.connectivity` (networkx
max-flow, not the algorithms under test), and on small instances differences
their weight/size against the exact ILP optimum within the paper's
approximation factors (Theorems 1.1-1.3).

This module packages those checks as trial functions registered in
:data:`~repro.analysis.experiments.TRIAL_REGISTRY` (names ``"diff-2ecss"``,
``"diff-3ecss"``, ``"diff-kecss"``) so the suite fans out over the same
execution backends as the experiments -- serial or processes -- and scales to thousands of instances.  A trial that
detects a violation raises; the engine captures the traceback per-trial into
``TrialResult.error`` and the aggregation helpers surface it with the
offending (config, seed) pair attached.

The ``diff-fastgraph-*`` trials differential-test the flat-array CSR kernel
(:mod:`repro.graphs.fastgraph`) against the historical networkx oracles:
bridges, exact edge connectivity, cut-pair enumeration, the exact
cycle-space enumeration of cuts of size 3 and 4 (against a brute force over
edge subsets) and the Kruskal MST, across every registered generator family
in :data:`repro.graphs.generators.FAMILIES`.

The ``diff-tap-*`` and ``diff-labels-*`` trials do the same for the
flat-array TAP coverage/voting kernel (:mod:`repro.tap.fastcover`) and the
O(m + n) XOR labelling: the distributed voting TAP (with and without
symmetry breaking), the sequential greedy TAP and the cycle-space labelling
(random and exact modes) are run against their historical set-based
implementations (``distributed_tap_nx`` / ``greedy_tap_nx`` /
``compute_labels_nx``) with identical seeds, asserting bit-identical
augmentation sets, weights, iteration counts, per-iteration histories and
label maps.

The ``diff-3ecss-kernel`` and ``diff-kecss-kernel`` trials close the loop on
the solver inner loops themselves: the kernel-backed :func:`three_ecss` /
:func:`k_ecss` / :func:`augment_to_k` (CSR path-label scoring and bitset cut
coverage from :mod:`repro.core.fastaug`) are run against the retained
``three_ecss_nx`` / ``k_ecss_nx`` / ``augment_to_k_nx`` oracles with
identical seeds, asserting bit-identical added-edge sets, weights, iteration
counts and per-iteration histories.

Instance sizes are derived from ``(config, seed)`` exactly as the historical
per-seed pytest parametrization did, so every backend sees the same graphs
and every assertion stays deterministic.
"""

from __future__ import annotations

import itertools
import math
import random
from typing import Mapping, Sequence

import networkx as nx

from repro.analysis.engine import TrialJob
from repro.analysis.experiments import register_trial
from repro.baselines.exact import exact_k_ecss_weight
from repro.core.k_ecss import augment_to_k, augment_to_k_nx, k_ecss, k_ecss_nx
from repro.core.result import ECSSResult
from repro.core.three_ecss import three_ecss, three_ecss_nx
from repro.core.two_ecss import two_ecss
from repro.graphs.connectivity import (
    bridges,
    bridges_nx,
    canonical_edge,
    edge_connectivity,
    edge_connectivity_nx,
    is_k_edge_connected,
    subgraph_weight,
    verify_spanning_subgraph,
)
from repro.graphs.cuts import Cut, enumerate_cut_pairs, enumerate_cut_pairs_nx
from repro.cycle_space.cut_pairs import cut_pairs_from_labels
from repro.cycle_space.labels import compute_labels, compute_labels_nx
from repro.graphs.fastgraph import FastGraph, hop_diameter
from repro.graphs.generators import (
    FAMILIES,
    cycle_with_chords,
    random_k_edge_connected_graph,
)
from repro.mst.sequential import minimum_spanning_tree, mst_weight
from repro.tap.distributed import distributed_tap, distributed_tap_nx
from repro.tap.greedy import greedy_tap, greedy_tap_nx
from repro.trees.rooted import RootedTree

__all__ = [
    "diff_two_ecss_trial",
    "diff_three_ecss_trial",
    "diff_k_ecss_trial",
    "diff_fastgraph_connectivity_trial",
    "diff_fastgraph_cut_pairs_trial",
    "diff_fastgraph_min_cuts_trial",
    "diff_fastgraph_mst_trial",
    "diff_tap_distributed_trial",
    "diff_tap_greedy_trial",
    "diff_labels_random_trial",
    "diff_labels_exact_trial",
    "diff_three_ecss_kernel_trial",
    "diff_k_ecss_kernel_trial",
    "two_ecss_jobs",
    "three_ecss_jobs",
    "k_ecss_jobs",
    "fastgraph_jobs",
    "tap_labels_jobs",
    "solver_kernel_jobs",
    "medium_sweep_jobs",
    "KECSS_K4_SEEDS",
]

Config = Mapping[str, object]


def _verify_solution(graph: nx.Graph, result, k: int) -> None:
    """Independent verification of one solver output on one instance."""
    ok, reason = verify_spanning_subgraph(graph, result.edges, k)
    if not ok:
        raise AssertionError(f"verifier rejected the subgraph: {reason}")
    subgraph = nx.Graph()
    subgraph.add_nodes_from(graph.nodes())
    subgraph.add_edges_from(result.edges)
    if not is_k_edge_connected(subgraph, k):
        raise AssertionError(f"subgraph is not {k}-edge-connected")
    if result.weight != subgraph_weight(graph, result.edges):
        raise AssertionError(
            f"reported weight {result.weight} != recomputed "
            f"{subgraph_weight(graph, result.edges)}"
        )
    # The solver's own verdict must agree with the independent one.
    own_ok, own_reason = result.verify()
    if not own_ok:
        raise AssertionError(f"solver's own verify() disagrees: {own_reason}")


def _exact_check(graph: nx.Graph, value: float, k: int, factor: float) -> dict:
    """Difference *value* against the exact optimum within *factor*."""
    optimum = exact_k_ecss_weight(graph, k)
    if not optimum <= value <= factor * optimum:
        raise AssertionError(
            f"value {value} outside [optimum, factor*optimum] = "
            f"[{optimum}, {factor * optimum}] (factor {factor})"
        )
    return {"optimum": float(optimum), "ratio": value / optimum, "factor": factor}


# ----------------------------------------------------------------- 2-ECSS
@register_trial("diff-2ecss")
def diff_two_ecss_trial(config: Config, seed: int) -> dict:
    """One weighted 2-ECSS differential check; raises on any violation."""
    family = config["family"]
    if family == "random":
        n = 10 + seed % 7
        graph = random_k_edge_connected_graph(n, 2, extra_edge_prob=0.3, seed=seed)
    elif family == "cycle-chords":
        n = 10 + seed % 9
        graph = cycle_with_chords(n, extra_edges=max(2, n // 4), seed=seed)
    elif family == "random-exact":
        n = 10 + seed % 5
        graph = random_k_edge_connected_graph(n, 2, extra_edge_prob=0.3, seed=seed)
    elif family == "random-medium":
        n = 32 + 4 * (seed % 5)
        graph = random_k_edge_connected_graph(n, 2, extra_edge_prob=0.2, seed=seed)
    else:
        raise KeyError(f"unknown diff-2ecss family {family!r}")
    result = two_ecss(graph, seed=seed, simulate_bfs=False)
    _verify_solution(graph, result, 2)
    metrics = {"n": n, "weight": float(result.weight), "edges": result.num_edges}
    if family == "random-exact":
        # Theorem 1.1: O(log n) approximation; 2 log2 n is the concrete
        # factor the benchmarks use (measured ratios stay far below it).
        metrics.update(_exact_check(graph, result.weight, 2, 2 * math.log2(n)))
    return metrics


# ----------------------------------------------------------------- 3-ECSS
@register_trial("diff-3ecss")
def diff_three_ecss_trial(config: Config, seed: int) -> dict:
    """One unweighted 3-ECSS differential check; raises on any violation."""
    family = config["family"]
    if family == "random":
        n = 10 + seed % 6
        extra = 0.3
    elif family == "random-exact":
        n = 10 + seed % 4
        extra = 0.3
    elif family == "random-medium":
        n = 24 + 4 * (seed % 4)
        extra = 0.25
    else:
        raise KeyError(f"unknown diff-3ecss family {family!r}")
    graph = random_k_edge_connected_graph(
        n, 3, extra_edge_prob=extra, weight_range=None, seed=seed
    )
    result = three_ecss(graph, seed=seed)
    _verify_solution(graph, result, 3)
    metrics = {"n": n, "edges": result.num_edges}
    if family == "random-exact":
        # Theorem 1.3: 2-approximation for unweighted 3-ECSS.
        metrics.update(_exact_check(graph, float(result.num_edges), 3, 2.0))
    return metrics


# ----------------------------------------------------------------- k-ECSS
@register_trial("diff-kecss")
def diff_k_ecss_trial(config: Config, seed: int) -> dict:
    """One weighted k-ECSS differential check; raises on any violation."""
    family, k = config["family"], config["k"]
    if family == "random":
        n = 10 + seed % 4
    elif family == "random-exact":
        n = 10 + seed % 3
    else:
        raise KeyError(f"unknown diff-kecss family {family!r}")
    graph = random_k_edge_connected_graph(n, k, extra_edge_prob=0.35, seed=seed)
    result = k_ecss(graph, k, seed=seed)
    _verify_solution(graph, result, k)
    metrics = {"n": n, "weight": float(result.weight), "edges": result.num_edges}
    if family == "random-exact":
        # Theorem 1.2: O(k log n) expected approximation; k log2 n is the
        # concrete ceiling the benchmarks use.
        metrics.update(_exact_check(graph, result.weight, k, k * math.log2(n)))
    return metrics


# ------------------------------------------------------------- fastgraph
def _fastgraph_instance(config: Config, seed: int) -> nx.Graph:
    """The seeded family instance shared by every diff-fastgraph trial."""
    family = FAMILIES[config["family"]]
    n = 10 + seed % 21
    return family(n, seed=seed)


def _cut_key_set(cuts) -> set:
    """A comparable identity for a list of cuts: (side, crossing edges)."""
    return {(cut.side, cut.edges) for cut in cuts}


@register_trial("diff-fastgraph-connectivity")
def diff_fastgraph_connectivity_trial(config: Config, seed: int) -> dict:
    """Bridges / edge connectivity / diameter parity with the networkx oracles."""
    graph = _fastgraph_instance(config, seed)
    fast_bridges = bridges(graph)
    if fast_bridges != bridges_nx(graph):
        raise AssertionError(
            f"fastgraph bridges disagree with networkx: "
            f"{sorted(fast_bridges)} vs {sorted(bridges_nx(graph))}"
        )
    fast_connectivity = edge_connectivity(graph)
    oracle_connectivity = edge_connectivity_nx(graph)
    if fast_connectivity != oracle_connectivity:
        raise AssertionError(
            f"edge connectivity {fast_connectivity} != oracle {oracle_connectivity}"
        )
    for k in (1, 2, 3, 4):
        if is_k_edge_connected(graph, k) != (oracle_connectivity >= k):
            raise AssertionError(f"is_k_edge_connected({k}) disagrees with the oracle")
    if hop_diameter(graph) != nx.diameter(graph):
        raise AssertionError("hop_diameter disagrees with nx.diameter")
    return {
        "n": graph.number_of_nodes(),
        "m": graph.number_of_edges(),
        "connectivity": fast_connectivity,
        "bridges": len(fast_bridges),
    }


@register_trial("diff-fastgraph-cut-pairs")
def diff_fastgraph_cut_pairs_trial(config: Config, seed: int) -> dict:
    """Exact cut-pair enumeration parity (Claim 5.6) with the networkx oracle."""
    graph = _fastgraph_instance(config, seed)
    fast = _cut_key_set(enumerate_cut_pairs(graph))
    oracle = _cut_key_set(enumerate_cut_pairs_nx(graph))
    if fast != oracle:
        raise AssertionError(
            f"cut pairs disagree: fastgraph found {len(fast)}, oracle {len(oracle)}; "
            f"only-fast={sorted(fast - oracle)!r} only-oracle={sorted(oracle - fast)!r}"
        )
    return {"n": graph.number_of_nodes(), "cut_pairs": len(fast)}


def _brute_force_cuts(graph: nx.Graph, size: int) -> set:
    """Every cut of exactly *size* edges of a connected graph, by trying
    every *size*-subset of its edges.

    An edge set is an edge cut iff it meets every fundamental cycle of a
    spanning tree in an even number of edges (exact GF(2) orthogonality to
    the cycle space; no sampling).  So for each ``(size - 1)``-subset the
    only completions worth trying are the edges whose cycle-incidence mask
    equals the subset's XOR, looked up in a dict; each resulting set is kept
    iff removing it from a copy of the graph leaves exactly two components
    with every removed edge between them.
    """
    tree = nx.minimum_spanning_tree(graph, weight=None)
    edges = [canonical_edge(u, v) for u, v in graph.edges()]
    masks = {edge: 0 for edge in edges}
    fundamental = [edge for edge in edges if not tree.has_edge(*edge)]
    for bit, edge in enumerate(fundamental):
        masks[edge] |= 1 << bit
        path = nx.shortest_path(tree, *edge)
        for u, v in zip(path, path[1:]):
            masks[canonical_edge(u, v)] |= 1 << bit
    by_mask: dict[int, list] = {}
    for edge in edges:
        by_mask.setdefault(masks[edge], []).append(edge)
    subsets = set()
    for rest in itertools.combinations(edges, size - 1):
        parity = 0
        for edge in rest:
            parity ^= masks[edge]
        for edge in by_mask.get(parity, ()):
            if edge not in rest:
                subsets.add(frozenset((*rest, edge)))
    cuts = set()
    for subset in subsets:
        pruned = graph.copy()
        pruned.remove_edges_from(subset)
        components = list(nx.connected_components(pruned))
        if len(components) != 2:
            continue
        cut = Cut.from_side(graph, components[0])
        if cut.size == size:
            cuts.add((cut.side, cut.edges))
    return cuts


@register_trial("diff-fastgraph-min-cuts")
def diff_fastgraph_min_cuts_trial(config: Config, seed: int) -> dict:
    """Exact cycle-space cut enumeration vs a brute force over edge subsets.

    Size 3 on every instance -- non-minimum cuts on the 2-edge-connected
    families, none on the 4- and 5-edge-connected ones -- and size 4 on
    the 4-edge-connected instances, where the 4-cuts are the minimum cuts.
    Every instance must satisfy ``2 * lambda > size``, the precondition
    under which a confirmed cut-space element is exactly one cut.
    """
    graph = _fastgraph_instance(config, seed)
    connectivity = edge_connectivity_nx(graph)
    sizes = (3, 4) if connectivity == 4 else (3,)
    fast_graph = FastGraph.from_nx(graph)
    counts = {}
    for size in sizes:
        # cuts_of_size reads cut-space elements as cuts, which needs 2 lambda > s.
        if 2 * connectivity <= size:
            raise AssertionError(
                f"instance has edge connectivity {connectivity}, outside the "
                f"2 * lambda > {size} contract of cuts_of_size({size})"
            )
        fast = _cut_key_set(
            Cut.from_side(graph, [fast_graph.labels[v] for v in side])
            for _, side in fast_graph.cuts_of_size(size)
        )
        oracle = _brute_force_cuts(graph, size)
        if fast != oracle:
            raise AssertionError(
                f"cuts of size {size} disagree: fastgraph found {len(fast)}, "
                f"brute force {len(oracle)}"
            )
        counts[f"cuts{size}"] = len(fast)
    return {"n": graph.number_of_nodes(), **counts}


@register_trial("diff-fastgraph-mst")
def diff_fastgraph_mst_trial(config: Config, seed: int) -> dict:
    """Kruskal-on-array-union-find parity with the networkx MST oracle."""
    graph = _fastgraph_instance(config, seed)
    tree = minimum_spanning_tree(graph)
    if tree.number_of_edges() != graph.number_of_nodes() - 1:
        raise AssertionError("Kruskal output is not a spanning tree")
    if not nx.is_connected(tree):
        raise AssertionError("Kruskal output is not connected")
    weight = sum(data.get("weight", 1) for _, _, data in tree.edges(data=True))
    oracle = sum(
        data.get("weight", 1)
        for _, _, data in nx.minimum_spanning_tree(graph).edges(data=True)
    )
    if weight != oracle:
        raise AssertionError(f"MST weight {weight} != networkx oracle {oracle}")
    if mst_weight(graph) != weight:
        raise AssertionError("mst_weight disagrees with the constructed tree")
    return {"n": graph.number_of_nodes(), "mst_weight": float(weight)}


# ----------------------------------------------------------- tap and labels
def _tap_instance(config: Config, seed: int) -> tuple[nx.Graph, RootedTree]:
    """One seeded family instance plus its rooted MST (as the TAP stage sees it)."""
    graph = _fastgraph_instance(config, seed)
    tree = RootedTree(
        minimum_spanning_tree(graph), root=min(graph.nodes(), key=repr)
    )
    return graph, tree


@register_trial("diff-tap-distributed")
def diff_tap_distributed_trial(config: Config, seed: int) -> dict:
    """Fast distributed TAP vs the set-algebra oracle: bit-identical runs.

    Both consume the same RNG stream, so augmentation set, weight, iteration
    count and every per-iteration history record (including the maximum
    rounded cost-effectiveness fractions) must match exactly -- with and
    without the symmetry-breaking voting step.
    """
    graph, tree = _tap_instance(config, seed)
    fast = distributed_tap(graph, tree, seed=seed)
    oracle = distributed_tap_nx(graph, tree, seed=seed)
    if fast.augmentation != oracle.augmentation:
        raise AssertionError(
            f"augmentations disagree: only-fast="
            f"{sorted(fast.augmentation - oracle.augmentation)!r} "
            f"only-oracle={sorted(oracle.augmentation - fast.augmentation)!r}"
        )
    if (fast.weight, fast.iterations) != (oracle.weight, oracle.iterations):
        raise AssertionError(
            f"weight/iterations disagree: fast ({fast.weight}, {fast.iterations}) "
            f"vs oracle ({oracle.weight}, {oracle.iterations})"
        )
    if fast.history != oracle.history:
        raise AssertionError("per-iteration histories disagree")
    if fast.ledger.total_rounds != oracle.ledger.total_rounds:
        raise AssertionError("ledger round charges disagree")
    naive = distributed_tap(graph, tree, seed=seed, symmetry_breaking=False)
    naive_oracle = distributed_tap_nx(graph, tree, seed=seed, symmetry_breaking=False)
    if (naive.augmentation, naive.weight, naive.iterations) != (
        naive_oracle.augmentation, naive_oracle.weight, naive_oracle.iterations
    ):
        raise AssertionError("no-symmetry-breaking runs disagree")
    return {
        "n": graph.number_of_nodes(),
        "m": graph.number_of_edges(),
        "iterations": fast.iterations,
        "aug_size": len(fast.augmentation),
        "weight": float(fast.weight),
    }


@register_trial("diff-tap-greedy")
def diff_tap_greedy_trial(config: Config, seed: int) -> dict:
    """Array-scan greedy TAP vs the per-step rescan oracle: identical output."""
    graph, tree = _tap_instance(config, seed)
    fast = greedy_tap(graph, tree)
    oracle = greedy_tap_nx(graph, tree)
    if (fast.augmentation, fast.weight, fast.steps) != (
        oracle.augmentation, oracle.weight, oracle.steps
    ):
        raise AssertionError(
            f"greedy TAP disagrees: fast (w={fast.weight}, steps={fast.steps}, "
            f"|A|={len(fast.augmentation)}) vs oracle (w={oracle.weight}, "
            f"steps={oracle.steps}, |A|={len(oracle.augmentation)})"
        )
    return {
        "n": graph.number_of_nodes(),
        "steps": fast.steps,
        "weight": float(fast.weight),
    }


@register_trial("diff-labels-random")
def diff_labels_random_trial(config: Config, seed: int) -> dict:
    """O(m+n) XOR labelling vs the per-path oracle: identical label maps."""
    graph = _fastgraph_instance(config, seed)
    fast = compute_labels(graph, seed=seed)
    oracle = compute_labels_nx(graph, seed=seed)
    if fast.bits != oracle.bits:
        raise AssertionError(f"bits disagree: {fast.bits} vs {oracle.bits}")
    if fast.labels != oracle.labels:
        differing = [
            edge for edge, label in fast.labels.items()
            if oracle.labels.get(edge) != label
        ]
        raise AssertionError(
            f"{len(differing)} labels disagree (e.g. {differing[:3]!r})"
        )
    if fast.tree_paths != oracle.tree_paths:
        raise AssertionError("lazily materialised tree paths disagree")
    return {
        "n": graph.number_of_nodes(),
        "m": graph.number_of_edges(),
        "bits": fast.bits,
    }


@register_trial("diff-labels-exact")
def diff_labels_exact_trial(config: Config, seed: int) -> dict:
    """Exact covering-set labels and the cut pairs detected from them."""
    graph = _fastgraph_instance(config, seed)
    fast = compute_labels(graph, mode="exact")
    oracle = compute_labels_nx(graph, mode="exact")
    if fast.labels != oracle.labels:
        raise AssertionError("exact covering-set labels disagree")
    if fast.tree_paths != oracle.tree_paths:
        raise AssertionError("exact-mode tree paths disagree")
    fast_pairs = cut_pairs_from_labels(fast)
    oracle_pairs = cut_pairs_from_labels(oracle)
    if fast_pairs != oracle_pairs:
        raise AssertionError(
            f"detected cut pairs disagree: {len(fast_pairs)} vs {len(oracle_pairs)}"
        )
    return {"n": graph.number_of_nodes(), "cut_pairs": len(fast_pairs)}


# ----------------------------------------------------- solver kernel parity
def _solver_instance(config: Config, seed: int, k: int) -> nx.Graph:
    """One seeded family instance lifted to k-edge-connectivity if needed."""
    family = FAMILIES[config["family"]]
    n = 10 + seed % 13
    graph = family(n, seed=seed)
    if not is_k_edge_connected(graph, k):
        graph.add_edges_from(nx.k_edge_augmentation(graph, k))
    return graph


def _shuffled_string_copy(graph: nx.Graph, seed: int) -> nx.Graph:
    """*graph* with vertices renamed ``"v<name>"``, in seeded-shuffled node and edge order."""
    rng = random.Random(seed)
    nodes = [f"v{node}" for node in graph.nodes()]
    edges = [(f"v{u}", f"v{v}") for u, v in graph.edges()]
    rng.shuffle(nodes)
    rng.shuffle(edges)
    copy = nx.Graph()
    copy.add_nodes_from(nodes)
    copy.add_edges_from(edges)
    return copy


def _assert_three_ecss_parity(graph: nx.Graph, seed: int, **options) -> ECSSResult:
    """Run ``three_ecss`` and ``three_ecss_nx`` alike; raise on any difference."""
    fast = three_ecss(graph, seed=seed, **options)
    oracle = three_ecss_nx(graph, seed=seed, **options)
    if fast.edges != oracle.edges:
        raise AssertionError(
            f"3-ECSS edge sets disagree ({options}): only-fast="
            f"{sorted(fast.edges - oracle.edges)!r} "
            f"only-oracle={sorted(oracle.edges - fast.edges)!r}"
        )
    if (fast.weight, fast.num_edges, fast.iterations) != (
        oracle.weight, oracle.num_edges, oracle.iterations
    ):
        raise AssertionError(
            f"weight/size/iterations disagree ({options}): "
            f"fast ({fast.weight}, {fast.num_edges}, {fast.iterations}) vs "
            f"oracle ({oracle.weight}, {oracle.num_edges}, {oracle.iterations})"
        )
    if fast.metadata["iterations_history"] != oracle.metadata["iterations_history"]:
        raise AssertionError(f"per-iteration histories disagree ({options})")
    if (fast.metadata["h_size"], fast.metadata["augmentation_size"]) != (
        oracle.metadata["h_size"], oracle.metadata["augmentation_size"]
    ):
        raise AssertionError(f"H/A split disagrees ({options})")
    if fast.ledger.total_rounds != oracle.ledger.total_rounds:
        raise AssertionError(f"ledger round charges disagree ({options})")
    return fast


@register_trial("diff-3ecss-kernel")
def diff_three_ecss_kernel_trial(config: Config, seed: int) -> dict:
    """Kernel-backed 3-ECSS vs the ``Counter`` oracle: bit-identical runs.

    Both consume the same RNG stream (labels first, then one draw per
    candidate in ``repr`` order), so the added-edge set, the iteration count
    and every :class:`~repro.core.three_ecss.ThreeEcssIterationStats` record
    must match exactly -- in random- and exact-label modes, with 100-bit
    (multi-word) labels, and on a copy with string vertex names in shuffled
    node and edge order (which fixes a different label draw order).
    """
    graph = _solver_instance(config, seed, 3)
    random_result = _assert_three_ecss_parity(graph, seed)
    _assert_three_ecss_parity(graph, seed, exact_labels=True)
    _assert_three_ecss_parity(graph, seed, label_bits=100)
    _assert_three_ecss_parity(_shuffled_string_copy(graph, seed), seed)
    return {
        "n": graph.number_of_nodes(),
        "m": graph.number_of_edges(),
        "edges": random_result.num_edges,
        "iterations": random_result.iterations,
    }


@register_trial("diff-kecss-kernel")
def diff_k_ecss_kernel_trial(config: Config, seed: int) -> dict:
    """Bitset-kernel k-ECSS vs the frozenset oracle: bit-identical runs.

    Checks the full Theorem 1.2 composition (added edges, weight, iteration
    counts, per-stage summaries) and, separately, one explicit ``Aug_2``
    level over the MST base, where the
    per-iteration :class:`~repro.core.k_ecss.AugIterationStats` histories --
    including the incrementally maintained uncovered-cut counts -- must match
    record for record.
    """
    k = config["k"]
    graph = _solver_instance(config, seed, k)
    fast = k_ecss(graph, k, seed=seed)
    oracle = k_ecss_nx(graph, k, seed=seed)
    if fast.edges != oracle.edges:
        raise AssertionError(
            f"k-ECSS edge sets disagree: only-fast="
            f"{sorted(fast.edges - oracle.edges)!r} "
            f"only-oracle={sorted(oracle.edges - fast.edges)!r}"
        )
    if (fast.weight, fast.iterations) != (oracle.weight, oracle.iterations):
        raise AssertionError(
            f"weight/iterations disagree: fast ({fast.weight}, {fast.iterations}) "
            f"vs oracle ({oracle.weight}, {oracle.iterations})"
        )
    if fast.metadata["stages"] != oracle.metadata["stages"]:
        raise AssertionError("per-stage summaries disagree")
    if fast.ledger.total_rounds != oracle.ledger.total_rounds:
        raise AssertionError("ledger round charges disagree")

    mst_edges = frozenset(
        canonical_edge(u, v) for u, v in minimum_spanning_tree(graph).edges()
    )
    level = augment_to_k(graph, mst_edges, 2, seed=seed)
    level_oracle = augment_to_k_nx(graph, mst_edges, 2, seed=seed)
    if level.added != level_oracle.added:
        raise AssertionError("Aug_2 added-edge sets disagree")
    if (level.weight, level.iterations) != (level_oracle.weight, level_oracle.iterations):
        raise AssertionError("Aug_2 weight/iterations disagree")
    if level.metadata["history"] != level_oracle.metadata["history"]:
        raise AssertionError("Aug_2 per-iteration histories disagree")
    if level.ledger.total_rounds != level_oracle.ledger.total_rounds:
        raise AssertionError("Aug_2 ledger round charges disagree")
    return {
        "n": graph.number_of_nodes(),
        "m": graph.number_of_edges(),
        "k": k,
        "weight": float(fast.weight),
        "aug2_iterations": level.iterations,
    }


# ------------------------------------------------------------- job builders
def _jobs(experiment: str, family: str, seeds: Sequence[int], **extra) -> list[TrialJob]:
    return [
        TrialJob.make(experiment, {"family": family, **extra}, seed, index=seed)
        for seed in seeds
    ]


def two_ecss_jobs(n_graphs: int = 50, exact_graphs: int = 15) -> list[TrialJob]:
    """The 2-ECSS differential grid: random + cycle-chords + exact-diffed."""
    return (
        _jobs("diff-2ecss", "random", range(n_graphs))
        + _jobs("diff-2ecss", "cycle-chords", range(n_graphs))
        + _jobs("diff-2ecss", "random-exact", range(exact_graphs))
    )


def three_ecss_jobs(n_graphs: int = 50, exact_graphs: int = 15) -> list[TrialJob]:
    """The 3-ECSS differential grid: random + exact-diffed instances."""
    return (
        _jobs("diff-3ecss", "random", range(n_graphs))
        + _jobs("diff-3ecss", "random-exact", range(exact_graphs))
    )


def k_ecss_jobs(n_graphs: int = 50, exact_graphs: int = 15) -> list[TrialJob]:
    """The k-ECSS differential grid for k in {2, 3} (half the seeds each)."""
    jobs: list[TrialJob] = []
    for k in (2, 3):
        jobs.extend(_jobs("diff-kecss", "random", range(n_graphs // 2), k=k))
        jobs.extend(_jobs("diff-kecss", "random-exact", range(exact_graphs // 2), k=k))
    return jobs


def fastgraph_jobs(n_graphs: int = 50) -> dict[str, list[TrialJob]]:
    """The fastgraph-vs-oracle differential grid, keyed by trial name.

    *n_graphs* seeded instances of **every** registered generator family per
    kernel primitive (the acceptance bar is >= 50 per family).
    """
    return {
        name: [
            job
            for family in sorted(FAMILIES)
            for job in _jobs(name, family, range(n_graphs))
        ]
        for name in (
            "diff-fastgraph-connectivity",
            "diff-fastgraph-cut-pairs",
            "diff-fastgraph-min-cuts",
            "diff-fastgraph-mst",
        )
    }


def tap_labels_jobs(n_graphs: int = 50) -> dict[str, list[TrialJob]]:
    """The TAP/labelling-kernel differential grid, keyed by trial name.

    *n_graphs* seeded instances of **every** registered generator family per
    trial, mirroring :func:`fastgraph_jobs` (the acceptance bar is >= 50 per
    family).
    """
    return {
        name: [
            job
            for family in sorted(FAMILIES)
            for job in _jobs(name, family, range(n_graphs))
        ]
        for name in (
            "diff-tap-distributed",
            "diff-tap-greedy",
            "diff-labels-random",
            "diff-labels-exact",
        )
    }


#: Seeds of the k=4 ``diff-kecss-kernel`` cells: ``Aug_4`` covers the 3-edge
#: cuts found by the cycle-space label lookup, on top of forests that persist
#: through ``Aug_2``..``Aug_4``.
KECSS_K4_SEEDS = (11, 12)


def solver_kernel_jobs(n_graphs: int = 50) -> dict[str, list[TrialJob]]:
    """The solver-kernel differential grid, keyed by trial name.

    *n_graphs* seeded instances of **every** registered generator family per
    solver, mirroring :func:`tap_labels_jobs` (the acceptance bar is >= 50
    per family).  The k-ECSS grid alternates the target connectivity between
    2 and 3 by seed, which exercises the bridge and cut-pair enumerators,
    and adds k=4 cells at :data:`KECSS_K4_SEEDS` for the size-3 cut lookup.
    """
    return {
        "diff-3ecss-kernel": [
            job
            for family in sorted(FAMILIES)
            for job in _jobs("diff-3ecss-kernel", family, range(n_graphs))
        ],
        "diff-kecss-kernel": [
            TrialJob.make(
                "diff-kecss-kernel",
                {"family": family, "k": 2 + seed % 2},
                seed,
                index=seed,
            )
            for family in sorted(FAMILIES)
            for seed in range(n_graphs)
        ] + [
            TrialJob.make("diff-kecss-kernel", {"family": family, "k": 4}, seed, index=seed)
            for family in sorted(FAMILIES)
            for seed in KECSS_K4_SEEDS
        ],
    }


def medium_sweep_jobs(n_graphs: int = 10) -> dict[str, list[TrialJob]]:
    """The ``slow``-marked medium-instance sweep, keyed by experiment name."""
    return {
        "diff-2ecss": _jobs("diff-2ecss", "random-medium", range(n_graphs)),
        "diff-3ecss": _jobs("diff-3ecss", "random-medium", range(n_graphs)),
    }
