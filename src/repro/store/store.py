"""Append-only columnar store of experiment trial batches.

A store is a directory of *run segments*, one per ingested batch of
engine trial results::

    <root>/
      store.json                    # store manifest (schema + version)
      segments/
        run-000001-e3/
          manifest.json             # run manifest: provenance, table, columns
          c0.i64  c1.f64  c2.dict   # flat columns, one value per trial
        run-000002-e3/
          ...

Each ingested batch becomes one immutable segment: core columns (``seed``,
``index``, ``duration``, ``cached``), one ``config.<key>`` column per
configuration key, one ``metrics.<key>`` column per metric, an ``error``
column only when a trial actually failed, and a ``queue_seconds`` column only
when some trial waited in a queue.  Segments written by older versions may
carry other sparse columns (such as ``worker``); readers return every column
a manifest lists.  Dtypes are inferred per column
(see :mod:`repro.store.columns`), so reading a run back yields exactly the
values ingested -- the property the bit-identical aggregate checks rely on.

The run manifest records full provenance: experiment id, the engine's
``code_version`` tag, backend/workers/cache configuration, python/platform,
``git describe`` output when a git checkout is reachable, and the caller's
wall-clock stamp.  Like ``bench.py`` baselines, manifests are schema-checked
(:func:`validate_run_manifest`) before anything touches disk.

Writes are crash-safe without locks: the segment directory is claimed with
an atomic ``mkdir``, column files are written first and ``manifest.json``
last, so a segment is visible to readers only once complete.  Directories
without a manifest are ignored (and left for inspection); a segment whose
manifest is corrupt or schema-invalid is skipped with a
:class:`StoreWarning` rather than failing the read.  ``TrialStore.fsck``
detects every crash residue -- half written segments, truncated columns,
stray manifest tmp files -- and with ``repair=True`` quarantines damage
under ``<root>/quarantine/``.  The writer's commit sequence carries named
crash points (:func:`_crash_point`; the tests install a hook through
``_crash_hook`` that kills the writer at each one), so the recovery path is
tested against a crash at every stage (see ``docs/robustness.md``).
"""

from __future__ import annotations

import json
import os
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from repro.obs.trace import get_tracer
from repro.store.columns import ColumnCodecError, ColumnSpec, build_column, read_column

__all__ = [
    "STORE_SCHEMA_NAME",
    "RUN_SCHEMA_NAME",
    "SCHEMA_VERSION",
    "CORE_COLUMNS",
    "StoreError",
    "StoreWarning",
    "FsckFinding",
    "RunInfo",
    "TrialStore",
    "validate_run_manifest",
]

STORE_SCHEMA_NAME = "kecss-trial-store"
RUN_SCHEMA_NAME = "kecss-trial-store-run"
SCHEMA_VERSION = 1

#: Columns every run carries, before the per-key config/metric columns.
CORE_COLUMNS = ("seed", "index", "duration", "cached")

#: Keys every ingested trial record must carry (the ``bench.py`` trial shape).
_REQUIRED_TRIAL_KEYS = frozenset({"config", "seed", "duration", "metrics"})


class StoreError(RuntimeError):
    """Raised for malformed stores, manifests or ingestion payloads."""


class StoreWarning(UserWarning):
    """Warned (not raised) for damage a read path can safely step around.

    A single corrupt segment must not take down reads of the whole store;
    they skip it with this warning and ``TrialStore.fsck`` reports (and
    optionally quarantines) it.
    """


#: Observer for the writer's crash points; ``None`` in production.  The
#: crash-recovery tests (``store_crash_hook`` in ``tests/_helpers.py``)
#: install a hook that raises at a chosen point, simulating a writer dying
#: mid-commit at every stage.
_crash_hook = None


def _crash_point(point: str) -> None:
    """Named writer crash point (no-op unless a fault hook is installed)."""
    if _crash_hook is not None:
        _crash_hook(point)


def _write_json_atomic(path: Path, payload: dict) -> None:
    """Write JSON via a sibling tmp file + rename, so readers never see a
    truncated document (mirrors the engine cache writer)."""
    tmp = path.with_name(path.name + f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    _crash_point(f"tmp-written:{path.name}")
    tmp.replace(path)


@dataclass(frozen=True)
class FsckFinding:
    """One problem ``TrialStore.fsck`` detected (and possibly repaired).

    ``kind`` is one of ``"uncommitted"`` (a claimed segment without a
    manifest -- a crashed writer), ``"manifest-corrupt"`` (unparseable
    JSON), ``"manifest-schema"`` (schema violations), ``"column"`` (a
    truncated/corrupt/missing column file), or ``"stray-tmp"`` (a leftover
    ``manifest.json.*.tmp`` beside a healthy manifest).  ``repaired`` is
    true when ``fsck(repair=True)`` quarantined the segment (or unlinked
    the stray tmp file).
    """

    segment: str
    kind: str
    detail: str
    repaired: bool = False


@dataclass(frozen=True)
class RunInfo:
    """Summary of one stored run segment (manifest-backed, columns unread)."""

    run_id: str
    sequence: int
    experiment: str
    created_unix: float
    code_version: str
    trial_count: int
    path: Path
    manifest: dict

    @property
    def table(self) -> dict | None:
        """The rendered aggregate table stored with the run, if any."""
        return self.manifest.get("table")

    @property
    def provenance(self) -> dict:
        return self.manifest.get("provenance", {})

    def column_specs(self) -> list[ColumnSpec]:
        return [
            ColumnSpec.from_manifest(entry)
            for entry in self.manifest.get("columns", [])
        ]


def validate_run_manifest(payload: object) -> list[str]:
    """Return the list of schema violations of a run manifest (empty = valid)."""
    problems: list[str] = []
    if not isinstance(payload, dict):
        return [f"run manifest must be a JSON object, got {type(payload).__name__}"]
    if payload.get("schema") != RUN_SCHEMA_NAME:
        problems.append(f"schema must be {RUN_SCHEMA_NAME!r}")
    if not isinstance(payload.get("schema_version"), int):
        problems.append("schema_version must be an integer")
    for key in ("run_id", "experiment", "code_version"):
        if not isinstance(payload.get(key), str):
            problems.append(f"{key} must be a string")
    if not isinstance(payload.get("sequence"), int):
        problems.append("sequence must be an integer")
    if not isinstance(payload.get("created_unix"), (int, float)):
        problems.append("created_unix must be a number")
    if not isinstance(payload.get("provenance"), dict):
        problems.append("provenance must be an object")
    table = payload.get("table")
    if table is not None:
        if not isinstance(table, dict) or not isinstance(table.get("columns"), list):
            problems.append("table must be null or an object with columns")
    count = payload.get("trial_count")
    if not isinstance(count, int) or count < 0:
        problems.append("trial_count must be a non-negative integer")
    columns = payload.get("columns")
    if not isinstance(columns, list):
        problems.append("columns must be a list")
    else:
        seen: set[str] = set()
        for i, entry in enumerate(columns):
            try:
                spec = ColumnSpec.from_manifest(entry)
            except ColumnCodecError as exc:
                problems.append(f"columns[{i}]: {exc}")
                break
            if isinstance(count, int) and spec.count != count:
                problems.append(
                    f"columns[{i}] ({spec.name!r}) has count {spec.count}, "
                    f"run has trial_count {count}"
                )
            if spec.name in seen:
                problems.append(f"duplicate column name {spec.name!r}")
            seen.add(spec.name)
    return problems


def _trial_columns(trials: Sequence[Mapping]) -> dict[str, list]:
    """Explode bench-shaped trial records into name -> value-list columns.

    Config and metric keys are the union over the batch; trials missing a key
    contribute ``None`` (which forces the column to the lossless ``json``
    dtype).  The ``error`` column is emitted only when some trial failed.
    """
    for i, trial in enumerate(trials):
        if not isinstance(trial, Mapping) or not _REQUIRED_TRIAL_KEYS <= set(trial):
            missing = (
                _REQUIRED_TRIAL_KEYS - set(trial)
                if isinstance(trial, Mapping)
                else _REQUIRED_TRIAL_KEYS
            )
            raise StoreError(f"trials[{i}] is missing fields: {sorted(missing)}")
        if not isinstance(trial["config"], Mapping) or not isinstance(
            trial["metrics"], Mapping
        ):
            raise StoreError(f"trials[{i}]: config and metrics must be objects")

    columns: dict[str, list] = {
        "seed": [t["seed"] for t in trials],
        "index": [t.get("index", i) for i, t in enumerate(trials)],
        "duration": [float(t["duration"]) for t in trials],
        "cached": [int(bool(t.get("cached"))) for t in trials],
    }
    config_keys = sorted({key for t in trials for key in t["config"]})
    for key in config_keys:
        columns[f"config.{key}"] = [t["config"].get(key) for t in trials]
    metric_keys = sorted({key for t in trials for key in t["metrics"]})
    for key in metric_keys:
        columns[f"metrics.{key}"] = [t["metrics"].get(key) for t in trials]
    if any(t.get("error") is not None for t in trials):
        columns["error"] = [t.get("error") for t in trials]
    if any(t.get("queue_seconds") for t in trials):
        # Queue-wait provenance (submit -> compute start), split from
        # ``duration``.  Sparse so historical baselines recorded before the
        # field existed -- and serial runs where every wait is 0.0 -- keep
        # their exact column set.
        columns["queue_seconds"] = [
            float(t.get("queue_seconds") or 0.0) for t in trials
        ]
    return columns


class TrialStore:
    """A directory-backed columnar store of trial runs.

    Args:
        root: Store directory.  Created (with its ``store.json`` manifest)
            when *create* is true; otherwise the directory must already be a
            valid store.
    """

    def __init__(self, root: str | Path, create: bool = True) -> None:
        self.root = Path(root)
        manifest = self.root / "store.json"
        if manifest.is_file():
            try:
                payload = json.loads(manifest.read_text())
            except ValueError as exc:
                raise StoreError(f"corrupt store manifest {manifest}: {exc}")
            if payload.get("schema") != STORE_SCHEMA_NAME:
                raise StoreError(
                    f"{self.root} is not a trial store (schema "
                    f"{payload.get('schema')!r}, expected {STORE_SCHEMA_NAME!r})"
                )
            if payload.get("schema_version") != SCHEMA_VERSION:
                raise StoreError(
                    f"store {self.root} has schema_version "
                    f"{payload.get('schema_version')!r}; this code reads "
                    f"{SCHEMA_VERSION}"
                )
        elif create:
            (self.root / "segments").mkdir(parents=True, exist_ok=True)
            _write_json_atomic(
                manifest,
                {"schema": STORE_SCHEMA_NAME, "schema_version": SCHEMA_VERSION},
            )
        else:
            raise StoreError(f"no trial store at {self.root} (missing store.json)")

    @property
    def segments_dir(self) -> Path:
        return self.root / "segments"

    # ---------------------------------------------------------------- reading
    def runs(self, experiment: str | None = None) -> list[RunInfo]:
        """All committed runs (optionally of one experiment), oldest first.

        Ordering is by the monotonically increasing ingestion sequence, not
        by the caller-supplied wall clock, which may be skewed.

        A segment with a corrupt or schema-invalid manifest is *skipped*
        with a :class:`StoreWarning` instead of failing the whole read: one
        damaged run must not hide every healthy run in the store.
        :meth:`fsck` reports (and ``repair=True`` quarantines) what was
        skipped.
        """
        runs: list[RunInfo] = []
        if not self.segments_dir.is_dir():
            return runs
        for path in sorted(self.segments_dir.iterdir()):
            manifest_path = path / "manifest.json"
            if not manifest_path.is_file():
                continue  # claimed but never committed (crashed writer)
            try:
                payload = json.loads(manifest_path.read_text())
            except (OSError, ValueError) as exc:
                warnings.warn(
                    StoreWarning(
                        f"skipping segment {path.name}: corrupt run manifest "
                        f"({exc}); run TrialStore.fsck() to inspect"
                    ),
                    stacklevel=2,
                )
                continue
            problems = validate_run_manifest(payload)
            if problems:
                warnings.warn(
                    StoreWarning(
                        f"skipping segment {path.name}: invalid run manifest "
                        f"({'; '.join(problems)}); run TrialStore.fsck() "
                        f"to inspect"
                    ),
                    stacklevel=2,
                )
                continue
            if experiment is not None and payload["experiment"] != experiment:
                continue
            runs.append(
                RunInfo(
                    run_id=payload["run_id"],
                    sequence=payload["sequence"],
                    experiment=payload["experiment"],
                    created_unix=float(payload["created_unix"]),
                    code_version=payload["code_version"],
                    trial_count=payload["trial_count"],
                    path=path,
                    manifest=payload,
                )
            )
        runs.sort(key=lambda info: info.sequence)
        return runs

    def run(self, run_id: str) -> RunInfo:
        """Look up one run by id."""
        for info in self.runs():
            if info.run_id == run_id:
                return info
        raise StoreError(f"no run {run_id!r} in store {self.root}")

    def columns(
        self, run: RunInfo | str, names: Iterable[str] | None = None
    ) -> dict[str, list]:
        """Read (a projection of) one run's columns back as name -> values."""
        info = self.run(run) if isinstance(run, str) else run
        specs = {spec.name: spec for spec in info.column_specs()}
        if names is None:
            wanted = list(specs)
        else:
            wanted = list(names)
            unknown = [name for name in wanted if name not in specs]
            if unknown:
                raise StoreError(
                    f"run {info.run_id!r} has no column(s) {unknown!r}; "
                    f"available: {sorted(specs)}"
                )
        try:
            return {name: read_column(info.path, specs[name]) for name in wanted}
        except ColumnCodecError as exc:
            raise StoreError(f"run {info.run_id!r}: {exc}") from exc

    # ---------------------------------------------------------------- writing
    def _claim_segment(self, experiment: str) -> tuple[int, Path]:
        """Atomically claim the next run directory (mkdir is the lock)."""
        self.segments_dir.mkdir(parents=True, exist_ok=True)
        existing = [
            int(path.name.split("-")[1])
            for path in self.segments_dir.iterdir()
            if path.name.startswith("run-") and path.name.split("-")[1].isdigit()
        ]
        sequence = max(existing, default=0) + 1
        for _ in range(1000):
            path = self.segments_dir / f"run-{sequence:06d}-{experiment}"
            try:
                path.mkdir()
            except FileExistsError:
                sequence += 1
                continue
            return sequence, path
        raise StoreError(
            f"could not claim a run segment under {self.segments_dir} "
            f"(1000 consecutive collisions)"
        )

    def ingest(
        self,
        experiment: str,
        trials: Sequence[Mapping],
        *,
        created_unix: float,
        table: Mapping | None = None,
        provenance: Mapping[str, object] | None = None,
    ) -> RunInfo:
        """Append one run segment and return its :class:`RunInfo`.

        *trials* are bench-shaped records (``config`` / ``seed`` / ``index``
        / ``duration`` / ``cached`` / ``error`` / ``metrics``); *table* is
        the rendered aggregate table payload, if the caller has one;
        *created_unix* is the caller's wall-clock stamp (the store never
        reads the clock itself); *provenance* should carry the engine
        configuration and the package's ``code_version`` tag.
        """
        if not isinstance(experiment, str) or not experiment:
            raise StoreError("experiment must be a non-empty string")
        # Provenance is recorded verbatim: the *producer* of the data stamps
        # git describe (see repro.analysis.bench.engine_provenance), not the
        # process that happens to ingest it.
        provenance = dict(provenance or {})
        with get_tracer().span(
            "store.ingest", cat="store",
            experiment=experiment, trials=len(trials),
        ):
            column_values = _trial_columns(list(trials))
            specs: list[ColumnSpec] = []
            payloads: list[bytes] = []
            for index, (name, values) in enumerate(column_values.items()):
                try:
                    spec, data = build_column(name, values, index)
                except ColumnCodecError as exc:
                    raise StoreError(
                        f"cannot encode column {name!r}: {exc}"
                    ) from exc
                specs.append(spec)
                payloads.append(data)
            sequence, path = self._claim_segment(experiment)
            _crash_point("segment-claimed")
            run_id = path.name
            manifest = {
                "schema": RUN_SCHEMA_NAME,
                "schema_version": SCHEMA_VERSION,
                "run_id": run_id,
                "sequence": sequence,
                "experiment": experiment,
                "created_unix": float(created_unix),
                "code_version": str(provenance.get("code_version", "unknown")),
                "provenance": provenance,
                "table": dict(table) if table is not None else None,
                "trial_count": len(trials),
                "columns": [spec.to_manifest() for spec in specs],
            }
            problems = validate_run_manifest(manifest)
            if problems:
                raise StoreError(
                    "refusing to write an invalid run manifest: "
                    + "; ".join(problems)
                )
            for spec, data in zip(specs, payloads):
                (path / spec.file).write_bytes(data)
                _crash_point(f"column-written:{spec.file}")
            # The manifest is written last and renamed into place: its
            # presence commits the segment, and a crash mid-write leaves only
            # a .tmp file (the segment stays invisible) instead of a corrupt
            # manifest that would brick every read of the store.
            _crash_point("before-manifest")
            _write_json_atomic(path / "manifest.json", manifest)
        return RunInfo(
            run_id=run_id,
            sequence=sequence,
            experiment=experiment,
            created_unix=float(created_unix),
            code_version=manifest["code_version"],
            trial_count=len(trials),
            path=path,
            manifest=manifest,
        )

    # ------------------------------------------------------------ maintenance
    def fsck(self, repair: bool = False) -> list[FsckFinding]:
        """Check every segment; optionally quarantine the damaged ones.

        Detects, per segment: a missing manifest (``uncommitted`` -- a
        crashed writer's half-written segment), an unparseable manifest
        (``manifest-corrupt``), schema violations (``manifest-schema``), a
        truncated/corrupt/missing column file (``column``), and -- in
        otherwise healthy segments -- leftover ``manifest.json.*.tmp``
        files from a writer that died between write and rename
        (``stray-tmp``).

        With *repair*, damaged segments are moved under
        ``<root>/quarantine/`` (never deleted -- the bytes stay available
        for inspection) and stray tmp files are unlinked.  Do not repair
        while a writer is active: an in-flight ingest looks exactly like a
        crashed one until its manifest lands.
        """
        findings: list[FsckFinding] = []
        if not self.segments_dir.is_dir():
            return findings
        for path in sorted(self.segments_dir.iterdir()):
            if not path.is_dir():
                continue
            manifest_path = path / "manifest.json"
            problem: tuple[str, str] | None = None
            if not manifest_path.is_file():
                problem = (
                    "uncommitted",
                    "claimed segment without a manifest (crashed writer)",
                )
            else:
                try:
                    payload = json.loads(manifest_path.read_text())
                except (OSError, ValueError) as exc:
                    problem = ("manifest-corrupt", str(exc))
                else:
                    violations = validate_run_manifest(payload)
                    if violations:
                        problem = ("manifest-schema", "; ".join(violations))
                    else:
                        for entry in payload.get("columns", []):
                            spec = ColumnSpec.from_manifest(entry)
                            try:
                                read_column(path, spec)
                            except (ColumnCodecError, OSError) as exc:
                                problem = ("column", f"{spec.name!r}: {exc}")
                                break
            if problem is None:
                for stray in sorted(path.glob("manifest.json.*.tmp")):
                    repaired = False
                    if repair:
                        stray.unlink(missing_ok=True)
                        repaired = True
                    findings.append(
                        FsckFinding(path.name, "stray-tmp", stray.name, repaired)
                    )
                continue
            kind, detail = problem
            repaired = False
            if repair:
                self._quarantine(path)
                repaired = True
            findings.append(FsckFinding(path.name, kind, detail, repaired))
        return findings

    def _quarantine(self, path: Path) -> Path:
        """Move a damaged segment under ``<root>/quarantine/`` (keep bytes)."""
        target_dir = self.root / "quarantine"
        target_dir.mkdir(parents=True, exist_ok=True)
        target = target_dir / path.name
        suffix = 1
        while target.exists():
            suffix += 1
            target = target_dir / f"{path.name}.{suffix}"
        path.rename(target)
        return target
