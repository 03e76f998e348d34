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

    ``REPRO_BENCH_WORKERS`` sets the worker processes (default ``1``,
    serial; aggregates are bit-identical for any width).  Nothing is cached:
    a benchmark times the code, not a replay.
    """
    return ExperimentEngine(workers=int(os.environ.get("REPRO_BENCH_WORKERS", "1")))
