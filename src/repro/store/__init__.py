"""``repro.store``: columnar trial store.

The engine's :class:`~repro.analysis.runner.TrialResult` batches persist
here as append-only *run segments* -- flat typed columns plus a
schema-checked JSON manifest -- with crash-safe writes and an ``fsck`` that
finds and quarantines whatever a crashed writer leaves behind.

* :mod:`repro.store.columns` -- the dependency-free column codec
  (``i64`` / ``f64`` / dictionary-encoded strings / lossless JSON).
* :mod:`repro.store.store` -- :class:`TrialStore`: ingest runs, enumerate
  them, read their columns back, ``fsck``.
"""

from repro.store.columns import ColumnCodecError, ColumnSpec, infer_dtype
from repro.store.store import (
    CORE_COLUMNS,
    RUN_SCHEMA_NAME,
    SCHEMA_VERSION,
    STORE_SCHEMA_NAME,
    FsckFinding,
    RunInfo,
    StoreError,
    StoreWarning,
    TrialStore,
    validate_run_manifest,
)

__all__ = [
    "CORE_COLUMNS",
    "RUN_SCHEMA_NAME",
    "SCHEMA_VERSION",
    "STORE_SCHEMA_NAME",
    "ColumnCodecError",
    "ColumnSpec",
    "FsckFinding",
    "RunInfo",
    "StoreError",
    "StoreWarning",
    "TrialStore",
    "infer_dtype",
    "validate_run_manifest",
]
