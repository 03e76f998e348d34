"""The experiments E1..E10 (run them with ``kecss experiment``).

Each experiment measures one quantitative claim of the paper and returns a
:class:`~repro.analysis.tables.Table`.  The benchmark harness in
``benchmarks/`` times the underlying solvers and prints these tables; the
default sizes are deliberately small so the whole suite runs in minutes --
pass larger ``sizes`` / ``trials`` for paper-scale sweeps.

Structurally every experiment is split into three parts consumed by the
:class:`~repro.analysis.engine.ExperimentEngine`:

* a module-level **trial function** ``(config, seed) -> metrics`` registered
  in :data:`TRIAL_REGISTRY` (module-level so it pickles into worker
  processes);
* a **job grid**: the public ``experiment_*`` function derives one
  deterministic seed per (configuration, trial index) exactly as before, so
  serial, parallel and cache-replayed runs produce bit-identical tables;
* a **table builder** that aggregates the returned
  :class:`~repro.analysis.runner.TrialResult` batch.

Every public function accepts an optional ``engine`` keyword; ``None`` means
serial and uncached.  :data:`EXPERIMENTS` maps experiment ids (``"e1"`` ..
``"e10"``) to the public functions for the CLI and benchmarks.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Mapping, Sequence

from repro.analysis.engine import ExperimentEngine, TrialJob
from repro.analysis.runner import derive_seed
from repro.analysis.tables import Table, metric_max, metric_mean, trial_groups
from repro.baselines.exact import exact_k_ecss_weight
from repro.baselines.khuller_vishkin import mst_plus_greedy_two_ecss
from repro.baselines.mst_baseline import k_ecss_lower_bound
from repro.baselines.thurimella import sparse_certificate_k_ecss
from repro.core.k_ecss import k_ecss
from repro.core.three_ecss import three_ecss
from repro.core.two_ecss import two_ecss
from repro.cycle_space.cut_pairs import cut_pairs_from_labels, exact_cut_pairs
from repro.cycle_space.labels import compute_labels
from repro.decomposition.segments import build_decomposition
from repro.graphs.generators import (
    clique_chain,
    cycle_with_chords,
    random_k_edge_connected_graph,
)
from repro.mst.distributed import build_mst_with_fragments
from repro.mst.sequential import minimum_spanning_tree
from repro.tap.distributed import distributed_tap
from repro.trees.rooted import RootedTree

__all__ = [
    "TRIAL_REGISTRY",
    "EXPERIMENTS",
    "register_trial",
    "experiment_e1_two_ecss_approximation",
    "experiment_e2_two_ecss_rounds",
    "experiment_e3_tap_iterations",
    "experiment_e4_k_ecss",
    "experiment_e5_three_ecss_rounds",
    "experiment_e6_decomposition",
    "experiment_e7_cycle_space",
    "experiment_e8_augmentation_invariants",
    "experiment_e9_voting_ablation",
    "experiment_e10_schedule_ablation",
]

Config = Mapping[str, object]

#: Experiment name -> trial function, consumed by the engine (including from
#: worker processes, which resolve jobs by name).
TRIAL_REGISTRY: dict[str, Callable[[Config, int], dict]] = {}


def register_trial(name: str):
    """Register the decorated function as the trial function of experiment *name*."""

    def decorate(function):
        TRIAL_REGISTRY[name] = function
        return function

    return decorate


def _engine_or_default(engine: ExperimentEngine | None) -> ExperimentEngine:
    return engine if engine is not None else ExperimentEngine()


def _log2(n: int) -> float:
    return math.log2(max(n, 2))


# --------------------------------------------------------------------------- E1
@register_trial("e1")
def e1_trial(config: Config, seed: int) -> dict:
    n = config["n"]
    graph = random_k_edge_connected_graph(n, 2, extra_edge_prob=0.25, seed=seed)
    result = two_ecss(graph, seed=seed, simulate_bfs=False)
    baseline = mst_plus_greedy_two_ecss(graph)
    if n <= config["exact_cutoff"]:
        reference = exact_k_ecss_weight(graph, 2)
    else:
        reference = k_ecss_lower_bound(graph, 2)
    return {
        "alg_weight": result.weight,
        "greedy_weight": baseline.weight,
        "reference": reference,
    }


def experiment_e1_two_ecss_approximation(
    sizes: Sequence[int] = (16, 24, 32),
    trials: int = 2,
    exact_cutoff: int = 40,
    engine: ExperimentEngine | None = None,
) -> Table:
    """E1 (Theorem 1.1): 2-ECSS weight vs exact optimum / MST+greedy baseline."""
    jobs = [
        TrialJob.make(
            "e1", {"n": n, "exact_cutoff": exact_cutoff}, derive_seed("e1", n, t), t
        )
        for n in sizes
        for t in range(trials)
    ]
    results = _engine_or_default(engine).run_jobs("e1", jobs)
    groups = trial_groups(results, key=lambda r: r.config["n"])
    table = Table(
        title="E1: weighted 2-ECSS approximation (Theorem 1.1)",
        columns=["n", "alg weight", "greedy weight", "reference", "ref kind",
                 "ratio vs ref", "log2(n)"],
    )
    for n in sizes:
        group = groups[n]
        kind = "exact" if n <= exact_cutoff else "lower bound"
        mean_alg = metric_mean(group, "alg_weight")
        mean_ref = metric_mean(group, "reference")
        table.add_row(
            n,
            round(mean_alg, 1),
            round(metric_mean(group, "greedy_weight"), 1),
            round(mean_ref, 1),
            kind,
            mean_alg / mean_ref,
            round(_log2(n), 2),
        )
    table.add_note(
        "paper claim: O(log n)-approximation; measured ratios should stay well below log2(n)"
    )
    return table


# --------------------------------------------------------------------------- E2
def _e2_weighted_sparse(n: int, seed: int):
    return random_k_edge_connected_graph(n, 2, extra_edge_prob=3.0 / max(n, 4), seed=seed)


def _e2_clique_chain(n: int, seed: int):
    return clique_chain(max(2, n // 4), 4, 2)


E2_FAMILIES: dict[str, Callable[[int, int], object]] = {
    "weighted-sparse": _e2_weighted_sparse,
    "clique-chain": _e2_clique_chain,
}


@register_trial("e2")
def e2_trial(config: Config, seed: int) -> dict:
    graph = E2_FAMILIES[config["family"]](config["n"], seed)
    result = two_ecss(graph, seed=seed, simulate_bfs=False)
    diameter = result.metadata["diameter"]
    bound = (diameter + math.isqrt(graph.number_of_nodes())) * (
        _log2(graph.number_of_nodes()) ** 2
    )
    return {"rounds": result.rounds, "bound": bound, "diameter": diameter}


def experiment_e2_two_ecss_rounds(
    sizes: Sequence[int] = (16, 32, 64),
    trials: int = 2,
    engine: ExperimentEngine | None = None,
) -> Table:
    """E2 (Theorem 1.1): 2-ECSS round complexity vs the (D + sqrt n) log^2 n bound."""
    jobs = [
        TrialJob.make(
            "e2", {"family": name, "n": n}, derive_seed("e2", name, n, t), t
        )
        for name in E2_FAMILIES
        for n in sizes
        for t in range(trials)
    ]
    results = _engine_or_default(engine).run_jobs("e2", jobs)
    groups = trial_groups(results, key=lambda r: (r.config["family"], r.config["n"]))
    table = Table(
        title="E2: weighted 2-ECSS rounds (Theorem 1.1)",
        columns=["n", "family", "D", "rounds", "(D+sqrt n) log^2 n", "rounds/bound"],
    )
    for name in E2_FAMILIES:
        for n in sizes:
            group = groups[(name, n)]
            mean_rounds = metric_mean(group, "rounds")
            mean_bound = metric_mean(group, "bound")
            table.add_row(
                n, name, group[-1].metrics["diameter"], round(mean_rounds, 1),
                round(mean_bound, 1), mean_rounds / mean_bound,
            )
    table.add_note("the rounds/bound column should stay bounded by a constant as n grows")
    return table


# --------------------------------------------------------------------------- E3
@register_trial("e3")
def e3_trial(config: Config, seed: int) -> dict:
    graph = random_k_edge_connected_graph(
        config["n"], 2, extra_edge_prob=0.2, seed=seed
    )
    mst = minimum_spanning_tree(graph)
    tree = RootedTree(mst, root=min(graph.nodes(), key=repr))
    result = distributed_tap(graph, tree, seed=seed)
    return {"iterations": result.iterations}


def experiment_e3_tap_iterations(
    sizes: Sequence[int] = (16, 32, 64),
    trials: int = 3,
    engine: ExperimentEngine | None = None,
) -> Table:
    """E3 (Lemma 3.11): number of TAP iterations vs log^2 n."""
    jobs = [
        TrialJob.make("e3", {"n": n}, derive_seed("e3", n, t), t)
        for n in sizes
        for t in range(trials)
    ]
    results = _engine_or_default(engine).run_jobs("e3", jobs)
    groups = trial_groups(results, key=lambda r: r.config["n"])
    table = Table(
        title="E3: weighted TAP iteration count (Lemma 3.11)",
        columns=["n", "mean iterations", "max iterations", "log2(n)^2", "mean/log^2"],
    )
    for n in sizes:
        group = groups[n]
        log_sq = _log2(n) ** 2
        mean_iterations = metric_mean(group, "iterations")
        table.add_row(
            n, round(mean_iterations, 2), metric_max(group, "iterations"),
            round(log_sq, 2), mean_iterations / log_sq,
        )
    table.add_note("paper claim: O(log^2 n) iterations w.h.p.; the last column should not grow")
    return table


# --------------------------------------------------------------------------- E4
@register_trial("e4")
def e4_trial(config: Config, seed: int) -> dict:
    n, k = config["n"], config["k"]
    graph = random_k_edge_connected_graph(n, k, extra_edge_prob=0.3, seed=seed)
    result = k_ecss(graph, k, seed=seed)
    if n <= config["exact_cutoff"]:
        reference = exact_k_ecss_weight(graph, k)
    else:
        reference = k_ecss_lower_bound(graph, k)
    return {
        "weight": result.weight,
        "reference": reference,
        "rounds": result.rounds,
        "bound": result.metadata["round_bound"],
    }


def experiment_e4_k_ecss(
    sizes: Sequence[int] = (12, 16),
    ks: Sequence[int] = (2, 3),
    trials: int = 2,
    exact_cutoff: int = 20,
    engine: ExperimentEngine | None = None,
) -> Table:
    """E4 (Theorem 1.2): weighted k-ECSS quality and rounds for several k."""
    jobs = [
        TrialJob.make(
            "e4",
            {"n": n, "k": k, "exact_cutoff": exact_cutoff},
            derive_seed("e4", k, n, t),
            t,
        )
        for k in ks
        for n in sizes
        for t in range(trials)
    ]
    results = _engine_or_default(engine).run_jobs("e4", jobs)
    groups = trial_groups(results, key=lambda r: (r.config["k"], r.config["n"]))
    table = Table(
        title="E4: weighted k-ECSS (Theorem 1.2)",
        columns=["n", "k", "alg weight", "reference", "ref kind", "ratio",
                 "k log2(n)", "rounds", "k(D log^3 n + n)"],
    )
    for k in ks:
        for n in sizes:
            group = groups[(k, n)]
            kind = "exact" if n <= exact_cutoff else "lower bound"
            mean_weight = metric_mean(group, "weight")
            mean_ref = metric_mean(group, "reference")
            table.add_row(
                n, k, round(mean_weight, 1), round(mean_ref, 1), kind,
                mean_weight / mean_ref, round(k * _log2(n), 2),
                round(metric_mean(group, "rounds"), 1),
                round(metric_mean(group, "bound"), 1),
            )
    table.add_note("paper claim: O(k log n) expected approximation; ratio should stay below k log2(n)")
    return table


# --------------------------------------------------------------------------- E5
@register_trial("e5")
def e5_trial(config: Config, seed: int) -> dict:
    n = config["n"]
    graph = random_k_edge_connected_graph(
        n, 3, extra_edge_prob=0.3, weight_range=None, seed=seed
    )
    result = three_ecss(graph, seed=seed)
    cert = sparse_certificate_k_ecss(graph, 3)
    return {
        "rounds": result.rounds,
        "size": result.num_edges,
        "cert": cert.size,
        "diameter": result.metadata["diameter"],
    }


def experiment_e5_three_ecss_rounds(
    sizes: Sequence[int] = (16, 24, 36),
    trials: int = 2,
    engine: ExperimentEngine | None = None,
) -> Table:
    """E5 (Theorem 1.3): unweighted 3-ECSS rounds should scale with D log^3 n, not n."""
    jobs = [
        TrialJob.make("e5", {"n": n}, derive_seed("e5", n, t), t)
        for n in sizes
        for t in range(trials)
    ]
    results = _engine_or_default(engine).run_jobs("e5", jobs)
    groups = trial_groups(results, key=lambda r: r.config["n"])
    table = Table(
        title="E5: unweighted 3-ECSS rounds (Theorem 1.3)",
        columns=["n", "D", "rounds", "D log^3 n", "rounds/(D log^3 n)",
                 "size", "sparse-cert size", "2-approx bound 2|OPT|>=3n"],
    )
    for n in sizes:
        group = groups[n]
        diameter = metric_max(group, "diameter")
        reference = diameter * _log2(n) ** 3
        mean_rounds = metric_mean(group, "rounds")
        table.add_row(
            n, diameter, round(mean_rounds, 1), round(reference, 1),
            mean_rounds / reference,
            round(metric_mean(group, "size"), 1),
            round(metric_mean(group, "cert"), 1),
            math.ceil(3 * n / 2),
        )
    table.add_note("the rounds column should track D log^3 n (and not grow linearly in n)")
    return table


# --------------------------------------------------------------------------- E6
@register_trial("e6")
def e6_trial(config: Config, seed: int) -> dict:
    n = config["n"]
    graph = random_k_edge_connected_graph(n, 2, extra_edge_prob=3.0 / n, seed=seed)
    stage = build_mst_with_fragments(graph, simulate_bfs=False)
    decomposition = build_decomposition(stage.mst, stage.fragments)
    return {
        "marked": len(decomposition.marked),
        "segments": decomposition.segment_count(),
        "diameter": decomposition.max_segment_diameter(),
    }


def experiment_e6_decomposition(
    sizes: Sequence[int] = (64, 144, 256),
    trials: int = 2,
    engine: ExperimentEngine | None = None,
) -> Table:
    """E6 (Lemma 3.4 / Claim 3.1): segment count and diameter scale with sqrt(n)."""
    jobs = [
        TrialJob.make("e6", {"n": n}, derive_seed("e6", n, t), t)
        for n in sizes
        for t in range(trials)
    ]
    results = _engine_or_default(engine).run_jobs("e6", jobs)
    groups = trial_groups(results, key=lambda r: r.config["n"])
    table = Table(
        title="E6: segment decomposition statistics (Lemma 3.4)",
        columns=["n", "sqrt n", "marked", "segments", "max segment diam",
                 "segments/sqrt n", "diam/sqrt n"],
    )
    for n in sizes:
        group = groups[n]
        sqrt_n = math.isqrt(n)
        mean_segments = metric_mean(group, "segments")
        mean_diam = metric_mean(group, "diameter")
        table.add_row(
            n, sqrt_n, round(metric_mean(group, "marked"), 1),
            round(mean_segments, 1), round(mean_diam, 1),
            mean_segments / sqrt_n, mean_diam / sqrt_n,
        )
    table.add_note("both normalised columns should remain O(1) as n grows")
    return table


# --------------------------------------------------------------------------- E7
@functools.lru_cache(maxsize=8)
def _e7_instance(n: int):
    """The E7 instance and its exact cut pairs, shared across trials.

    The graph depends only on ``n`` (its seed is ``derive_seed("e7", n)``), so
    each process computes the expensive ground truth once per size instead of
    once per (bits, trial) job.
    """
    graph = cycle_with_chords(n, extra_edges=n // 4, seed=derive_seed("e7", n))
    return graph, exact_cut_pairs(graph)


@register_trial("e7")
def e7_trial(config: Config, seed: int) -> dict:
    graph, truth = _e7_instance(config["n"])
    labelling = compute_labels(graph, bits=config["bits"], seed=seed)
    pairs = cut_pairs_from_labels(labelling)
    return {
        "true_pairs": len(truth),
        "detected": len(pairs),
        "false_positives": len(pairs - truth),
        "missed": len(truth - pairs),
    }


def experiment_e7_cycle_space(
    n: int = 24,
    bits_values: Sequence[int] = (1, 2, 4, 8, 16),
    trials: int = 5,
    engine: ExperimentEngine | None = None,
) -> Table:
    """E7 (Lemma 5.4): cut-pair detection error decays like 2^-b with the label width."""
    jobs = [
        TrialJob.make("e7", {"n": n, "bits": bits}, derive_seed("e7", bits, t), t)
        for bits in bits_values
        for t in range(trials)
    ]
    results = _engine_or_default(engine).run_jobs("e7", jobs)
    groups = trial_groups(results, key=lambda r: r.config["bits"])
    table = Table(
        title="E7: cycle-space sampling accuracy vs label width (Lemma 5.4)",
        columns=["bits", "true pairs", "mean detected", "mean false positives",
                 "missed", "2^-b"],
    )
    for bits in bits_values:
        group = groups[bits]
        table.add_row(
            bits, group[0].metrics["true_pairs"], metric_mean(group, "detected"),
            metric_mean(group, "false_positives"), metric_mean(group, "missed"),
            2 ** -bits,
        )
    table.add_note("missed must always be 0 (one-sided error); false positives decay ~ 2^-b")
    return table


# --------------------------------------------------------------------------- E8
@register_trial("e8")
def e8_trial(config: Config, seed: int) -> dict:
    n, k = config["n"], config["k"]
    graph = random_k_edge_connected_graph(n, k, extra_edge_prob=0.35, seed=seed)
    result = k_ecss(graph, k, seed=seed)
    ok, reason = result.verify()
    if not ok:
        raise AssertionError(f"E8 produced an invalid subgraph: {reason}")
    return {"stages": result.metadata["stages"]}


def experiment_e8_augmentation_invariants(
    n: int = 14,
    k: int = 3,
    trials: int = 3,
    engine: ExperimentEngine | None = None,
) -> Table:
    """E8 (Claims 2.1 / 4.1): per-level added-edge counts stay below n - 1."""
    jobs = [
        TrialJob.make("e8", {"n": n, "k": k}, derive_seed("e8", n, k, t), t)
        for t in range(trials)
    ]
    results = _engine_or_default(engine).run_jobs("e8", jobs)
    # No averaging here (rows are per trial/stage) but the group pass still
    # surfaces any trial that raised inside a worker.
    trial_groups(results, key=lambda r: r.index)
    table = Table(
        title="E8: augmentation composition invariants (Claims 2.1, 4.1)",
        columns=["trial", "level", "edges added", "n-1", "stage weight", "cuts"],
    )
    for result in results:
        for stage in result.metrics["stages"]:
            table.add_row(
                result.index, stage["level"], stage["added"], n - 1, stage["weight"],
                stage["cuts"] if stage["cuts"] is not None else "-",
            )
    table.add_note("every 'edges added' entry must be at most n - 1 (Claim 4.1)")
    return table


# --------------------------------------------------------------------------- E9
@register_trial("e9")
def e9_trial(config: Config, seed: int) -> dict:
    graph = random_k_edge_connected_graph(
        config["n"], 2, extra_edge_prob=0.3, seed=seed
    )
    with_voting = two_ecss(graph, seed=seed, symmetry_breaking=True, simulate_bfs=False)
    without = two_ecss(graph, seed=seed, symmetry_breaking=False, simulate_bfs=False)
    return {
        "voting_weight": with_voting.weight,
        "naive_weight": without.weight,
        "voting_iterations": with_voting.iterations,
        "naive_iterations": without.iterations,
    }


def experiment_e9_voting_ablation(
    sizes: Sequence[int] = (24, 40),
    trials: int = 3,
    engine: ExperimentEngine | None = None,
) -> Table:
    """E9 (ablation): the |C_e|/8 voting rule vs adding every maximum candidate."""
    jobs = [
        TrialJob.make("e9", {"n": n}, derive_seed("e9", n, t), t)
        for n in sizes
        for t in range(trials)
    ]
    results = _engine_or_default(engine).run_jobs("e9", jobs)
    groups = trial_groups(results, key=lambda r: r.config["n"])
    table = Table(
        title="E9: symmetry-breaking ablation (voting vs add-all-candidates)",
        columns=["n", "voting weight", "add-all weight", "weight ratio",
                 "voting iterations", "add-all iterations"],
    )
    for n in sizes:
        group = groups[n]
        table.add_row(
            n, round(metric_mean(group, "voting_weight"), 1),
            round(metric_mean(group, "naive_weight"), 1),
            metric_mean(group, "naive_weight") / metric_mean(group, "voting_weight"),
            round(metric_mean(group, "voting_iterations"), 1),
            round(metric_mean(group, "naive_iterations"), 1),
        )
    table.add_note(
        "adding every maximum candidate pays a larger weight without converging "
        "in fewer iterations"
    )
    return table


# -------------------------------------------------------------------------- E10
@register_trial("e10")
def e10_trial(config: Config, seed: int) -> dict:
    n, k = config["n"], config["k"]
    graph = random_k_edge_connected_graph(n, k, extra_edge_prob=0.35, seed=seed)
    result = k_ecss(
        graph, k, seed=seed, schedule_constant=config["M"],
        use_mst_filter=config["mst_filter"],
    )
    return {
        "weight": result.weight,
        "edges": result.num_edges,
        "iterations": result.iterations,
        "rounds": result.rounds,
    }


def experiment_e10_schedule_ablation(
    n: int = 14,
    k: int = 3,
    trials: int = 2,
    schedule_constants: Sequence[int] = (1, 2, 4),
    engine: ExperimentEngine | None = None,
) -> Table:
    """E10 (ablation): probability schedule constant M and the MST filter of Line 4."""
    jobs = [
        TrialJob.make(
            "e10",
            {"M": constant, "mst_filter": use_filter, "n": n, "k": k},
            derive_seed("e10", constant, use_filter, t),
            t,
        )
        for constant in schedule_constants
        for use_filter in (True, False)
        for t in range(trials)
    ]
    results = _engine_or_default(engine).run_jobs("e10", jobs)
    groups = trial_groups(
        results, key=lambda r: (r.config["M"], r.config["mst_filter"])
    )
    table = Table(
        title="E10: k-ECSS schedule / MST-filter ablation",
        columns=["M", "mst filter", "weight", "edges", "iterations", "rounds"],
    )
    for constant in schedule_constants:
        for use_filter in (True, False):
            group = groups[(constant, use_filter)]
            table.add_row(
                constant, use_filter, round(metric_mean(group, "weight"), 1),
                round(metric_mean(group, "edges"), 1),
                round(metric_mean(group, "iterations"), 1),
                round(metric_mean(group, "rounds"), 1),
            )
    table.add_note("without the MST filter the augmentation may add redundant parallel edges")
    return table


#: Experiment id -> public table-producing function (every one accepts
#: ``engine=``).  The CLI ``experiment`` subcommand and the benchmarks consume
#: this mapping.
EXPERIMENTS: dict[str, Callable[..., Table]] = {
    "e1": experiment_e1_two_ecss_approximation,
    "e2": experiment_e2_two_ecss_rounds,
    "e3": experiment_e3_tap_iterations,
    "e4": experiment_e4_k_ecss,
    "e5": experiment_e5_three_ecss_rounds,
    "e6": experiment_e6_decomposition,
    "e7": experiment_e7_cycle_space,
    "e8": experiment_e8_augmentation_invariants,
    "e9": experiment_e9_voting_ablation,
    "e10": experiment_e10_schedule_ablation,
}
