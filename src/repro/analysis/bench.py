"""Machine-readable benchmark baselines and the drift gate (``kecss bench``).

``kecss bench e2 --out BENCH_e2.json`` runs the experiment's benchmark
entrypoint through the ordinary :class:`~repro.analysis.engine.ExperimentEngine`
(any worker count / cache configuration) and persists a JSON baseline holding

* the rendered experiment table (title, columns, rows, notes) -- the
  bit-identical aggregates a later run must reproduce;
* every per-trial record: config, seed, index, wall-clock duration, metrics
  and whether it was a cache replay;
* provenance: engine backend/workers/cache, the package's
  :data:`~repro.analysis.engine.CODE_VERSION`, platform and python version,
  and a wall-clock stamp.

``kecss bench e2 --against BENCH_e2.json`` is the drift gate: it reads the
stored file through :func:`load_baseline` (schema check plus experiment id),
re-runs the experiment and fails on any difference :func:`compare_tables` or
:func:`compare_trials` reports -- a changed table cell, a trial present on
one side only, or a trial whose ``metrics`` differ (NaN never matches).
"""

from __future__ import annotations

import json
import platform
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

from repro.analysis.code_version import git_describe
from repro.analysis.engine import CODE_VERSION, ExperimentEngine, TrialJob
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
    "load_baseline",
    "compare_tables",
    "compare_trials",
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

    The experiment functions only return aggregate tables; the baseline
    wants the underlying per-trial durations and metrics too, so this
    subclass captures them through the engine's observer hook as they flow
    through ``run_jobs`` (cache replays included, flagged by
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


def engine_provenance(engine: ExperimentEngine) -> dict:
    """The provenance block baselines and trial-store runs both record.

    ``git describe`` is stamped here -- at production time, by the process
    that actually ran the trials -- rather than at store-ingestion time, so
    importing a historical baseline cannot misattribute its results to
    whatever commit is checked out when the import happens.
    """
    provenance = {
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "code_version": CODE_VERSION,
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
    # results, so a baseline says where its run spent time without the trace
    # file itself.
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
        "provenance": engine_provenance(engine),
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
        required = {
            "experiment", "config", "seed", "index", "duration", "cached", "metrics"
        }
        for i, trial in enumerate(trials):
            if not isinstance(trial, dict) or not required.issubset(trial):
                missing = required - set(trial) if isinstance(trial, dict) else required
                problems.append(
                    f"trials[{i}] is missing fields: {sorted(missing)}"
                )
                break
            if not (
                isinstance(trial["config"], dict)
                and isinstance(trial["metrics"], dict)
                and isinstance(trial["seed"], int)
                and isinstance(trial["index"], int)
            ):
                problems.append(
                    f"trials[{i}]: config and metrics must be objects, "
                    f"seed and index integers"
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
    are identical).
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


def load_baseline(path: str | Path, experiment_id: str) -> dict:
    """Read a stored baseline of *experiment_id* for ``--against``.

    Raises :class:`ValueError` naming the problem when the file cannot be
    read or parsed, fails :func:`validate_baseline`, or records another
    experiment.
    """
    try:
        payload = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise ValueError(f"cannot read baseline {path}: {exc}") from exc
    problems = validate_baseline(payload)
    if problems:
        raise ValueError(f"invalid baseline {path}: " + "; ".join(problems))
    if payload["experiment"] != experiment_id:
        raise ValueError(
            f"baseline {path} records experiment {payload['experiment']!r}, "
            f"not {experiment_id!r}"
        )
    return payload


def _trials_by_key(payload: dict) -> dict[tuple, dict]:
    """Trial metrics keyed by ``(config, seed, index)``; the config is its
    sorted JSON text so the key is hashable and orderable."""
    return {
        (json.dumps(trial["config"], sort_keys=True), trial["seed"], trial["index"]):
            trial["metrics"]
        for trial in payload["trials"]
    }


def compare_trials(baseline: dict, fresh: dict) -> list[str]:
    """Diff the per-trial metrics of two baseline payloads.

    Both runs must hold the same ``(config, seed, index)`` trial keys, and
    each trial's ``metrics`` must equal the baseline's key for key.  Values
    compare with ``==`` after a JSON round trip of *fresh* (what a written
    baseline would hold), so a NaN metric never matches.  Equal tables do
    not imply equal trials: swapping two trials' metrics keeps every mean.
    """
    old = _trials_by_key(baseline)
    new = _trials_by_key(json.loads(json.dumps(fresh)))
    problems: list[str] = []
    for key in sorted(old.keys() - new.keys()):
        problems.append(f"trial {_describe(key)} is missing from the fresh run")
    for key in sorted(new.keys() - old.keys()):
        problems.append(f"trial {_describe(key)} is not in the baseline")
    for key in sorted(old.keys() & new.keys()):
        before, after = old[key], new[key]
        differing = [
            name for name in sorted(before.keys() | after.keys())
            if name not in before or name not in after or before[name] != after[name]
        ]
        if differing:
            problems.append(
                f"trial {_describe(key)} metrics differ on {', '.join(differing)}: "
                f"baseline {before!r} vs fresh {after!r}"
            )
    return problems


def _describe(key: tuple) -> str:
    config, seed, index = key
    return f"config={config} seed={seed} index={index}"
