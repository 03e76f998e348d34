"""Helpers shared by the benchmark modules."""

from __future__ import annotations

import os

from repro.analysis.engine import ExperimentEngine


def show(table) -> None:
    """Print an experiment table (visible when pytest runs with ``-s``)."""
    print()
    print(table.to_text())


def engine_from_env() -> ExperimentEngine:
    """Build the experiment engine the benchmarks run their tables through.

    Configured via environment variables so a benchmark invocation can fan
    trials out and/or reuse cached results without editing the files:

    * ``REPRO_BENCH_WORKERS`` -- worker processes (default ``1``, serial;
      aggregates are bit-identical for any width).
    * ``REPRO_BENCH_CACHE_DIR`` -- on-disk trial-cache directory (default:
      caching off).
    * ``REPRO_BENCH_NO_CACHE`` -- set to any non-empty value to ignore the
      cache even when a cache dir is configured.
    """
    return ExperimentEngine(
        workers=int(os.environ.get("REPRO_BENCH_WORKERS", "1")),
        cache_dir=os.environ.get("REPRO_BENCH_CACHE_DIR") or None,
        use_cache=not os.environ.get("REPRO_BENCH_NO_CACHE"),
    )
