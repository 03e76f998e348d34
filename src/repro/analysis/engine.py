"""Parallel, cached experiment engine.

The experiments E1..E10 sweep randomized solvers over (configuration,
seed) grids.  Every trial is described by a picklable :class:`TrialJob` --
the experiment name, the configuration (as sorted key/value pairs) and the
seed derived for that trial -- so the engine can fan trials out over an
:class:`~repro.analysis.backends.ExecutionBackend` (``"serial"`` or
``"processes"``) and still reassemble results in deterministic job order.
Because seeds are derived up front (see
:func:`repro.analysis.runner.derive_seed`), both backends produce
bit-identical results; only the wall-clock differs.

Results are optionally persisted to an on-disk JSON cache keyed by a stable
hash of ``(experiment, config, seed, CODE_VERSION)``.  :data:`CODE_VERSION`
is the SHA-256 of every source file of the ``repro`` package, taken once at
import (see :mod:`repro.analysis.code_version`), so an edit anywhere in the
package invalidates every entry.
Metrics that would not survive a JSON round trip are rejected at store time
(:class:`CacheFidelityError`) rather than silently stringified, so a
warm-cache replay is metric-identical to the live run.  Trials that failed
are *not* cached, so a partially failed sweep resumes from where it crashed
instead of recomputing everything.

Cache lifecycle tooling lives here too: :func:`cache_stats`,
:func:`cache_gc` (evict entries written under another :data:`CODE_VERSION`)
and :func:`cache_clear`, surfaced on the command line as
``kecss cache stats | gc | clear``.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import threading
import time
import traceback
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable, Iterator, Mapping, Sequence

from repro.analysis.backends import ExecutionBackend, resolve_backend
from repro.analysis.code_version import package_version
from repro.analysis.runner import TrialResult
from repro.obs.trace import get_tracer

__all__ = [
    "CODE_VERSION",
    "CacheFidelityError",
    "TrialJob",
    "ExperimentEngine",
    "resolve_trial",
    "iter_cache_entries",
    "cache_stats",
    "cache_gc",
    "cache_clear",
]

#: The code version every cache entry is keyed on: the content hash of the
#: ``repro`` package as loaded by this process.
CODE_VERSION = package_version(Path(__file__).resolve().parent.parent)

TrialFn = Callable[[Mapping[str, object], int], dict]


class CacheFidelityError(TypeError):
    """Raised when trial metrics would not survive a JSON cache round trip.

    Storing such metrics (tuples, int keys, NaN, arbitrary objects) would make
    a warm-cache replay return *different* values than the live run -- the
    exact parity bug the cache must never introduce -- so they are rejected
    at store time instead of silently stringified.
    """


def resolve_trial(trial: TrialFn | str) -> TrialFn:
    """Resolve *trial* to a callable, looking up registered experiment names.

    Accepts either a trial function directly or the name of an experiment
    registered in :data:`repro.analysis.experiments.TRIAL_REGISTRY` (e.g.
    ``"e1"``).  Name-based lookup keeps jobs picklable under any
    multiprocessing start method.
    """
    if callable(trial):
        return trial
    # Importing the experiments populates TRIAL_REGISTRY (worker processes
    # start from a blank registry).
    from repro.analysis.experiments import TRIAL_REGISTRY

    try:
        return TRIAL_REGISTRY[trial]
    except KeyError:
        raise KeyError(
            f"no trial function registered under {trial!r}; "
            f"known experiments: {sorted(TRIAL_REGISTRY)}"
        ) from None


@dataclass(frozen=True)
class TrialJob:
    """A self-describing, picklable unit of experiment work.

    Attributes:
        experiment: Registered experiment name (e.g. ``"e1"``).
        config: The trial configuration as sorted ``(key, value)`` pairs so
            that equal configurations hash identically.
        seed: The deterministic seed for this trial.
        index: Trial index within its configuration (used by tables that
            report per-trial rows).
    """

    experiment: str
    config: tuple[tuple[str, object], ...]
    seed: int
    index: int = 0

    @classmethod
    def make(
        cls, experiment: str, config: Mapping[str, object], seed: int, index: int = 0
    ) -> "TrialJob":
        """Build a job from a configuration mapping (keys are sorted)."""
        return cls(experiment, tuple(sorted(config.items())), seed, index)

    @property
    def config_dict(self) -> dict[str, object]:
        return dict(self.config)

    def cache_key(self) -> str:
        """Stable hash of (experiment, config, seed, :data:`CODE_VERSION`)."""
        payload = "|".join(
            (self.experiment, CODE_VERSION, repr(self.config), str(self.seed))
        )
        return hashlib.sha256(payload.encode()).hexdigest()


def _execute_trial(
    trial: TrialFn | str, job: TrialJob, *, submitted: float | None = None
) -> TrialResult:
    """Run one trial, capturing any exception into ``TrialResult.error``.

    *submitted* is the wall-clock stamp the engine took when it handed the
    batch to its backend; the gap to this function starting is recorded as
    ``TrialResult.queue_seconds`` (dispatch + time queued behind other
    work), splitting trial latency into queue-wait vs compute.  The
    trial span is observability only -- it wraps the computation without
    touching its inputs, so traced and untraced runs are bit-identical.
    """
    queue_seconds = (
        max(0.0, time.time() - submitted) if submitted is not None else 0.0
    )
    function = resolve_trial(trial)
    with get_tracer().span(
        "trial",
        cat="trial",
        experiment=job.experiment,
        seed=job.seed,
        index=job.index,
        queue_seconds=queue_seconds,
    ):
        started = time.perf_counter()
        try:
            metrics = function(job.config_dict, job.seed)
            error = None
        except Exception:  # noqa: BLE001 -- failures are data, surfaced downstream
            metrics, error = {}, traceback.format_exc()
        duration = time.perf_counter() - started
    return TrialResult(
        config=job.config_dict,
        seed=job.seed,
        metrics=metrics,
        error=error,
        index=job.index,
        duration=duration,
        queue_seconds=queue_seconds,
    )


@dataclass
class ExperimentEngine:
    """Runs :class:`TrialJob` batches over a backend with an on-disk cache.

    Attributes:
        workers: Fan-out width handed to the backend (``1`` means serial).
        backend: Execution backend: a name (``"serial"`` or
            ``"processes"``), an
            :class:`~repro.analysis.backends.ExecutionBackend` instance, or
            ``None`` for the default (serial for one worker, processes
            otherwise).
        cache_dir: Directory for the JSON result cache; ``None`` disables
            caching entirely.
        stats: Running ``hits`` / ``misses`` / ``executed`` / ``failures``
            counters across all ``run_jobs`` calls on this engine.  ``misses``
            counts cache lookups that missed (always 0 with caching off);
            ``executed`` counts trials actually run.
        observers: Callables ``(job, result) -> None`` invoked once per
            completed trial -- cache replays included -- in deterministic job
            order after every ``run_jobs`` batch.  This is the hook
            recorders (:class:`~repro.analysis.bench.RecordingEngine`) attach
            to without subclassing the execution path; observers run in the
            driving process regardless of backend.

    The engine is also a context manager: ``with engine:`` resolves the
    backend once and enters it (when it supports a lifecycle), so one
    executor pool persists across every ``run_jobs`` batch instead of being
    rebuilt per call.  Outside a ``with`` block the backend acquires and
    releases its pool per ``map``.
    """

    workers: int = 1
    backend: str | ExecutionBackend | None = None
    cache_dir: str | Path | None = None
    stats: dict[str, int] = field(
        default_factory=lambda: {"hits": 0, "misses": 0, "executed": 0, "failures": 0}
    )
    observers: list[Callable[["TrialJob", TrialResult], None]] = field(
        default_factory=list
    )

    # Runtime backend state (class attributes, not dataclass fields: they
    # are lifecycle bookkeeping, not configuration).
    _resolved_backend = None
    _entered_backend = None

    # ------------------------------------------------------------- lifecycle
    def _backend_instance(self) -> ExecutionBackend:
        """Resolve ``self.backend`` once and reuse the instance thereafter."""
        if self._resolved_backend is None:
            self._resolved_backend = resolve_backend(self.backend, self.workers)
        return self._resolved_backend

    def __enter__(self) -> "ExperimentEngine":
        backend = self._backend_instance()
        enter = getattr(type(backend), "__enter__", None)
        if enter is not None and self._entered_backend is None:
            backend.__enter__()
            self._entered_backend = backend
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        backend, self._entered_backend = self._entered_backend, None
        if backend is not None:
            backend.__exit__(exc_type, exc, tb)

    def close(self) -> None:
        """Release the entered backend's resources (alias for ``__exit__``)."""
        self.__exit__(None, None, None)

    # ---------------------------------------------------------------- caching
    @property
    def caching(self) -> bool:
        return self.cache_dir is not None

    def _cache_path(self, job: TrialJob) -> Path:
        return Path(self.cache_dir) / job.experiment / f"{job.cache_key()}.json"

    def _load_cached(self, job: TrialJob) -> TrialResult | None:
        try:
            payload = json.loads(self._cache_path(job).read_text())
        except (OSError, ValueError):
            return None
        if not isinstance(payload, dict):
            return None
        if payload.get("code_version") != CODE_VERSION:
            return None
        if "metrics" not in payload:
            return None
        return TrialResult(
            config=job.config_dict,
            seed=job.seed,
            metrics=payload["metrics"],
            index=job.index,
            duration=float(payload.get("duration", 0.0)),
            cached=True,
            queue_seconds=float(payload.get("queue_seconds", 0.0)),
        )

    def _store(self, job: TrialJob, result: TrialResult) -> None:
        if result.error is not None:
            # Failed trials are never cached: a resumed sweep retries them.
            return
        payload = {
            "experiment": job.experiment,
            "config": job.config_dict,
            "seed": job.seed,
            "code_version": CODE_VERSION,
            "metrics": result.metrics,
            "duration": result.duration,
            "queue_seconds": result.queue_seconds,
        }
        try:
            encoded = json.dumps(payload)
        except (TypeError, ValueError) as exc:
            raise CacheFidelityError(
                f"{job.experiment!r} trial (config={job.config_dict!r}, "
                f"seed={job.seed}) produced metrics or config that are not "
                f"JSON-serializable: {exc}; use plain JSON types (or run with "
                f"caching disabled)"
            ) from exc
        if json.loads(encoded)["metrics"] != result.metrics:
            raise CacheFidelityError(
                f"metrics of {job.experiment!r} trial (config={job.config_dict!r}, "
                f"seed={job.seed}) do not survive a JSON round trip (tuples, "
                f"non-string keys and NaN all decode differently); a warm-cache "
                f"replay would differ from the live run"
            )
        path = self._cache_path(job)
        path.parent.mkdir(parents=True, exist_ok=True)
        # Unique tmp name: concurrent processes sharing a cache dir
        # may miss the same key, and a shared tmp path would let one rename
        # the other's half-written file into place.
        tmp = path.with_name(
            f"{path.name}.{os.getpid()}.{threading.get_ident()}.tmp"
        )
        tmp.write_text(encoded)
        tmp.replace(path)

    # -------------------------------------------------------------- execution
    def run_jobs(
        self, trial: TrialFn | str, jobs: Sequence[TrialJob]
    ) -> list[TrialResult]:
        """Execute *jobs*, replaying cache hits; results come back in job order.

        Exceptions raised by a trial do not abort the batch: they are captured
        per-trial into ``TrialResult.error`` (and such results are excluded
        from the cache).  Aggregation helpers raise
        :class:`~repro.analysis.runner.TrialFailure` when asked to average
        failed trials, so failures surface instead of silently vanishing.
        """
        results: list[TrialResult | None] = [None] * len(jobs)
        pending: list[tuple[int, TrialJob]] = []
        for position, job in enumerate(jobs):
            cached = self._load_cached(job) if self.caching else None
            if cached is not None:
                results[position] = cached
                self.stats["hits"] += 1
            else:
                pending.append((position, job))
        if self.caching:
            self.stats["misses"] += len(pending)
        self.stats["executed"] += len(pending)

        if pending:
            backend = self._backend_instance()
            # The submit stamp rides into _execute_trial so every executed
            # result records its queue-wait (submit -> start) alongside the
            # compute duration.
            function = partial(_execute_trial, trial, submitted=time.time())
            batch = [job for _, job in pending]
            label = trial if isinstance(trial, str) else getattr(
                trial, "__name__", type(trial).__name__
            )
            with get_tracer().span(
                "engine.run_jobs",
                cat="engine",
                trial=label,
                jobs=len(jobs),
                pending=len(pending),
                cache_hits=len(jobs) - len(pending),
                backend=backend.name,
            ):
                executed = backend.map(function, batch)
            if len(executed) != len(pending):
                raise RuntimeError(
                    f"backend {backend.name!r} returned {len(executed)} results "
                    f"for {len(pending)} jobs; backends must return one result "
                    f"per item, in item order"
                )
            for (position, job), result in zip(pending, executed):
                results[position] = result
                if self.caching:
                    self._store(job, result)

        self.stats["failures"] += sum(
            1 for result in results if result is not None and result.error is not None
        )
        # Pair observers positionally with jobs *before* dropping any None
        # result a misbehaving backend produced, so a gap cannot shift every
        # later result onto the wrong job.
        for job, result in zip(jobs, results):
            if result is None:
                continue
            for observer in self.observers:
                observer(job, result)
        return [result for result in results if result is not None]

    # ------------------------------------------------------------- reporting
    def summary(self) -> str:
        """One-line account of cache hits, executed trials and failures."""
        backend = self._backend_instance()
        mode = f"backend={backend.name}, workers={self.workers}"
        cache = (
            f"cache={Path(self.cache_dir)}" if self.caching else "cache=off"
        )
        return (
            f"engine: {self.stats['hits']} cached, {self.stats['executed']} executed, "
            f"{self.stats['failures']} failed ({mode}, {cache})"
        )


# ----------------------------------------------------------- cache lifecycle
#: Cache entries are named ``<sha256 hex>.json`` by ``_cache_path``; lifecycle
#: operations only ever touch files matching this shape, so pointing
#: ``--cache-dir`` at a directory that also holds unrelated JSON cannot
#: destroy it.
_ENTRY_NAME = re.compile(r"^[0-9a-f]{64}$")

#: Half-written entries left by a crashed writer: ``<key>.json.<pid>.<tid>.tmp``
#: (see ``ExperimentEngine._store``).  Never replayed, but gc/clear reclaim them.
_TMP_NAME = re.compile(r"^[0-9a-f]{64}\.json\.\d+\.\d+\.tmp$")


def _orphan_tmp_files(cache_dir: str | Path) -> list[Path]:
    root = Path(cache_dir)
    if not root.is_dir():
        return []
    return sorted(
        path for path in root.rglob("*.tmp") if _TMP_NAME.match(path.name)
    )


def iter_cache_entries(
    cache_dir: str | Path,
) -> Iterator[tuple[Path, dict | None]]:
    """Yield ``(path, payload)`` for every cache entry under *cache_dir*.

    Only files named like engine-written entries (``<sha256>.json``) are
    yielded.  ``payload`` is ``None`` for entries that fail to parse as JSON
    (corrupt or half-written files).
    """
    root = Path(cache_dir)
    if not root.is_dir():
        return
    for path in sorted(root.rglob("*.json")):
        if not _ENTRY_NAME.match(path.stem):
            continue
        try:
            payload = json.loads(path.read_text())
        except (OSError, ValueError):
            payload = None
        if payload is not None and not isinstance(payload, dict):
            payload = None
        yield path, payload


def _entry_experiment(path: Path, payload: dict | None) -> str:
    if payload and isinstance(payload.get("experiment"), str):
        return payload["experiment"]
    return path.parent.name


def _entry_is_stale(payload: dict | None) -> bool:
    """An entry is stale when corrupt or written under another code version."""
    return payload is None or payload.get("code_version") != CODE_VERSION


def cache_stats(cache_dir: str | Path) -> dict[str, dict[str, int]]:
    """Per-experiment cache accounting: entries, stale entries, orphaned
    tmp files (crashed writers) and bytes."""
    stats: dict[str, dict[str, int]] = {}

    def bucket_for(experiment: str) -> dict[str, int]:
        return stats.setdefault(
            experiment, {"entries": 0, "stale": 0, "tmp": 0, "bytes": 0}
        )

    for path, payload in iter_cache_entries(cache_dir):
        bucket = bucket_for(_entry_experiment(path, payload))
        bucket["entries"] += 1
        bucket["bytes"] += path.stat().st_size
        if _entry_is_stale(payload):
            bucket["stale"] += 1
    for path in _orphan_tmp_files(cache_dir):
        bucket = bucket_for(path.parent.name)
        bucket["tmp"] += 1
        bucket["bytes"] += path.stat().st_size
    return stats


def _remove_entry(path: Path) -> None:
    path.unlink(missing_ok=True)
    parent = path.parent
    if parent.is_dir() and not any(parent.iterdir()):
        parent.rmdir()


def cache_gc(cache_dir: str | Path) -> list[Path]:
    """Evict stale cache entries; entries at the current code version survive.

    Stale means the stored code version is not :data:`CODE_VERSION` (or the
    entry is corrupt).  Orphaned ``*.tmp`` files left by
    crashed writers are reclaimed too, so do not run gc concurrently with an
    active sweep on the same cache directory.  Returns the paths removed.
    """
    removed: list[Path] = []
    for path, payload in iter_cache_entries(cache_dir):
        if _entry_is_stale(payload):
            _remove_entry(path)
            removed.append(path)
    for path in _orphan_tmp_files(cache_dir):
        _remove_entry(path)
        removed.append(path)
    return removed


def cache_clear(cache_dir: str | Path) -> int:
    """Remove every cache entry (and orphaned tmp file) under *cache_dir*;
    returns the count removed."""
    removed = 0
    for path, _payload in iter_cache_entries(cache_dir):
        _remove_entry(path)
        removed += 1
    for path in _orphan_tmp_files(cache_dir):
        _remove_entry(path)
        removed += 1
    return removed
