"""Machine-readable benchmark baselines (``kecss bench``).

The ``benchmarks/`` pytest modules print experiment tables but never record
them, so the repository has no perf trajectory: a PR claiming a speedup has
nothing to diff against.  This module closes that loop.  ``kecss bench e2
--out BENCH_e2.json`` runs the experiment's benchmark entrypoint through the
ordinary :class:`~repro.analysis.engine.ExperimentEngine` (any backend /
worker count / cache configuration) and persists a JSON baseline holding

* the rendered experiment table (title, columns, rows, notes) -- the
  bit-identical aggregates a later run must reproduce;
* every per-trial record: config, seed, wall-clock duration, metrics and
  whether it was a cache replay -- the raw material for regression tracking
  of round counts, ratios and durations across commits;
* provenance: engine backend/workers/cache, the experiment's derived
  code-version tag, platform and python version, and a wall-clock stamp.

:func:`validate_baseline` is the schema check used by ``--dry-run`` and the
perf smoke tests; :func:`compare_tables` diffs a fresh run against a stored
baseline (used to assert aggregate stability across refactors).
"""

from __future__ import annotations

import json
import platform
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

from repro.analysis.code_version import code_version_for, git_describe
from repro.analysis.engine import ExperimentEngine, TrialJob
from repro.analysis.runner import TrialResult
from repro.analysis.tables import Table
from repro.obs.trace import get_tracer

__all__ = [
    "SCHEMA_NAME",
    "SCHEMA_VERSION",
    "RecordingEngine",
    "build_baseline",
    "write_baseline",
    "validate_baseline",
    "compare_tables",
    "baseline_path",
    "table_payload",
    "trial_payload",
    "engine_provenance",
]

SCHEMA_NAME = "kecss-bench-baseline"
SCHEMA_VERSION = 1


@dataclass
class RecordingEngine(ExperimentEngine):
    """An :class:`ExperimentEngine` that also keeps every trial it ran.

    The experiment functions only return aggregate tables; the baseline (and
    the trial store) wants the underlying per-trial durations and metrics
    too, so this subclass captures them through the engine's observer hook
    as they flow through ``run_jobs`` (cache replays included, flagged by
    ``TrialResult.cached``).
    """

    recorded: list[tuple[TrialJob, TrialResult]] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.observers.append(self._record)

    def _record(self, job: TrialJob, result: TrialResult) -> None:
        self.recorded.append((job, result))


def table_payload(table: Table) -> dict:
    """A :class:`~repro.analysis.tables.Table` as its JSON baseline payload."""
    return {
        "title": table.title,
        "columns": list(table.columns),
        "rows": [list(row) for row in table.rows],
        "notes": list(table.notes),
    }


def trial_payload(job: TrialJob, result: TrialResult) -> dict:
    """One recorded (job, result) pair as its JSON baseline trial record."""
    return {
        "experiment": job.experiment,
        "config": job.config_dict,
        "seed": job.seed,
        "index": job.index,
        "duration": result.duration,
        "queue_seconds": result.queue_seconds,
        "cached": result.cached,
        "error": result.error,
        "metrics": result.metrics,
    }


def engine_provenance(engine: ExperimentEngine, experiment_id: str) -> dict:
    """The provenance block baselines and trial-store runs both record.

    ``git describe`` is stamped here -- at production time, by the process
    that actually ran the trials -- rather than at store-ingestion time, so
    importing a historical baseline cannot misattribute its results to
    whatever commit is checked out when the import happens.
    """
    provenance = {
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "code_version": code_version_for(experiment_id),
        "git_describe": git_describe(),
        "engine": {
            "backend": engine._backend_instance().name,
            "workers": engine.workers,
            "cache_dir": str(engine.cache_dir) if engine.caching else None,
            "caching": engine.caching,
        },
    }
    # When tracing is on, its in-memory aggregate (span counts, per-category
    # seconds, per-proc busy seconds, the trace file path) travels with the
    # results so ``kecss history`` can drill into where a run spent time
    # without the trace file itself.
    tracer = get_tracer()
    if tracer.enabled:
        provenance["trace"] = tracer.summary()
    return provenance


def build_baseline(
    experiment_id: str,
    engine: RecordingEngine | None = None,
    experiment_kwargs: Mapping[str, object] | None = None,
) -> dict:
    """Run experiment *experiment_id* and return its baseline payload.

    *engine* must be a :class:`RecordingEngine` (one is created, serial and
    uncached, when omitted); *experiment_kwargs* is forwarded to the
    experiment function for paper-scale sweeps (e.g. ``sizes=(200, 400)``).
    """
    from repro.analysis.experiments import EXPERIMENTS

    if experiment_id not in EXPERIMENTS:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; known: {sorted(EXPERIMENTS)}"
        )
    if engine is None:
        engine = RecordingEngine()
    start = len(engine.recorded)
    wall_started = time.time()
    clock_started = time.perf_counter()
    table = EXPERIMENTS[experiment_id](
        engine=engine, **dict(experiment_kwargs or {})
    )
    wall_seconds = time.perf_counter() - clock_started
    recorded = engine.recorded[start:]
    durations = [result.duration for _, result in recorded]
    cached = sum(1 for _, result in recorded if result.cached)
    return {
        "schema": SCHEMA_NAME,
        "schema_version": SCHEMA_VERSION,
        "experiment": experiment_id,
        "created_unix": wall_started,
        "provenance": engine_provenance(engine, experiment_id),
        "table": table_payload(table),
        "trials": [trial_payload(job, result) for job, result in recorded],
        "summary": {
            "trial_count": len(recorded),
            "cached_trials": cached,
            "executed_trials": len(recorded) - cached,
            "wall_seconds": wall_seconds,
            "total_trial_seconds": sum(durations),
            "max_trial_seconds": max(durations, default=0.0),
        },
    }


def baseline_path(experiment_id: str, out_dir: str | Path = ".") -> Path:
    """The conventional on-disk name: ``<out_dir>/BENCH_<experiment>.json``."""
    return Path(out_dir) / f"BENCH_{experiment_id}.json"


def write_baseline(payload: dict, path: str | Path) -> Path:
    """Write a baseline payload (pretty-printed, trailing newline) to *path*."""
    problems = validate_baseline(payload)
    if problems:
        raise ValueError(
            "refusing to write an invalid baseline: " + "; ".join(problems)
        )
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def validate_baseline(payload: object) -> list[str]:
    """Return the list of schema violations of *payload* (empty when valid)."""
    problems: list[str] = []
    if not isinstance(payload, dict):
        return [f"baseline must be a JSON object, got {type(payload).__name__}"]
    if payload.get("schema") != SCHEMA_NAME:
        problems.append(f"schema must be {SCHEMA_NAME!r}")
    if not isinstance(payload.get("schema_version"), int):
        problems.append("schema_version must be an integer")
    if not isinstance(payload.get("experiment"), str):
        problems.append("experiment must be a string")
    if not isinstance(payload.get("created_unix"), (int, float)):
        problems.append("created_unix must be a number")
    provenance = payload.get("provenance")
    if not isinstance(provenance, dict):
        problems.append("provenance must be an object")
    else:
        if not isinstance(provenance.get("code_version"), str):
            problems.append("provenance.code_version must be a string")
        engine = provenance.get("engine")
        if not isinstance(engine, dict) or "backend" not in engine:
            problems.append("provenance.engine must be an object with a backend")
    table = payload.get("table")
    if not isinstance(table, dict):
        problems.append("table must be an object")
    else:
        columns = table.get("columns")
        rows = table.get("rows")
        if not isinstance(columns, list) or not columns:
            problems.append("table.columns must be a non-empty list")
        if not isinstance(rows, list):
            problems.append("table.rows must be a list")
        elif isinstance(columns, list):
            for i, row in enumerate(rows):
                if not isinstance(row, list) or len(row) != len(columns):
                    problems.append(
                        f"table.rows[{i}] must be a list of {len(columns)} values"
                    )
                    break
    trials = payload.get("trials")
    if not isinstance(trials, list):
        problems.append("trials must be a list")
    else:
        required = {"experiment", "config", "seed", "duration", "cached", "metrics"}
        for i, trial in enumerate(trials):
            if not isinstance(trial, dict) or not required.issubset(trial):
                missing = required - set(trial) if isinstance(trial, dict) else required
                problems.append(
                    f"trials[{i}] is missing fields: {sorted(missing)}"
                )
                break
    summary = payload.get("summary")
    if not isinstance(summary, dict) or not isinstance(
        summary.get("trial_count"), int
    ):
        problems.append("summary must be an object with an integer trial_count")
    elif isinstance(trials, list) and summary["trial_count"] != len(trials):
        problems.append(
            f"summary.trial_count ({summary['trial_count']}) != len(trials) "
            f"({len(trials)})"
        )
    return problems


def compare_tables(baseline: dict, fresh: Table) -> list[str]:
    """Diff a stored baseline against a freshly produced table.

    Returns human-readable mismatch descriptions (empty when the aggregates
    are identical) -- the cross-run regression check future PRs assert
    against instead of claiming speedups without evidence.
    """
    problems: list[str] = []
    stored = baseline.get("table", {})
    if list(stored.get("columns", [])) != list(fresh.columns):
        problems.append(
            f"columns differ: baseline {stored.get('columns')!r} vs "
            f"fresh {list(fresh.columns)!r}"
        )
        return problems
    stored_rows = [tuple(row) for row in stored.get("rows", [])]
    fresh_rows = [tuple(row) for row in fresh.rows]
    if len(stored_rows) != len(fresh_rows):
        problems.append(
            f"row count differs: baseline {len(stored_rows)} vs fresh {len(fresh_rows)}"
        )
        return problems
    for i, (old, new) in enumerate(zip(stored_rows, fresh_rows)):
        if old != new:
            problems.append(f"row {i} differs: baseline {old!r} vs fresh {new!r}")
    return problems
