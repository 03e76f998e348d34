"""Every metric the benchmark reports: name, unit and, end to end, its bound.

``run.py`` prints exactly these names (end-to-end with ``--trace 0``,
per-layer with ``--trace 1``) and the tests check that ``BENCHMARK.json``
lists the same ones.
"""

from __future__ import annotations

from layers import LAYERS, SOLVER_LAYERS
from workloads import all_slot_labels

#: name -> (unit, better, bound).
END_TO_END: dict[str, tuple[str, str, float]] = {
    "setup_s": ("s", "lower", 0.25),
    "solve_s": ("s", "lower", 0.25),
    "verify_s": ("s", "lower", 0.25),
    "rounds": ("count", "lower", 0.25),
    "weight_ratio": ("ratio", "lower", 0.1),
    "peak_rss_mb": ("MB", "lower", 0.1),
    "trials_per_s": ("1/s", "higher", 0.25),
}

HARNESS_LAYERS: dict[str, tuple[str, str]] = {
    "import.repro_cli_s": ("s", "lower"),
    "analysis.pool_start_s": ("s", "lower"),
    "analysis.run_jobs_s": ("s", "lower"),
    "analysis.backend.utilization": ("ratio", "higher"),
    "analysis.queue_s": ("s", "lower"),
    "analysis.cache.write_s": ("s", "lower"),
    "analysis.cache.replay_s": ("s", "lower"),
    "analysis.cache.hit_ratio": ("ratio", "higher"),
    "store.ingest.s": ("s", "lower"),
    "store.ingest.bytes": ("bytes", "lower"),
}


def per_layer() -> dict[str, tuple[str, str]]:
    """name -> (unit, better) for every per-layer metric, in report order."""
    metrics: dict[str, tuple[str, str]] = {}
    for layer in LAYERS:
        if layer in SOLVER_LAYERS:
            metrics[f"{layer}.self_s"] = ("s", "lower")
            continue
        metrics[f"{layer}.s"] = ("s", "lower")
        metrics[f"{layer}.calls"] = ("count", "lower")
    for name in ("congest.rounds.simulated", "congest.rounds.modelled",
                 "congest.messages", "tap.iterations", "core.iterations"):
        metrics[name] = ("count", "lower")
    metrics["core.three_ecss.activation_ratio"] = ("ratio", "higher")
    metrics["core.k_ecss.filter_keep_ratio"] = ("ratio", "higher")
    for label in all_slot_labels():
        metrics[f"core.solve_s.{label}"] = ("s", "lower")
    metrics.update(HARNESS_LAYERS)
    metrics["trace.overhead_s"] = ("s", "lower")
    # Wall-clock context for the host-normalised times: the calibration
    # kernel's median time and the untraced solve time before rescaling.
    metrics["host.kernel_s"] = ("s", "lower")
    metrics["host.solve_wall_s"] = ("s", "lower")
    return metrics
