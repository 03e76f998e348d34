"""Tests for the columnar trial store (``repro.store``).

Covers the column codec (dtype inference, lossless round trips -- including
a hypothesis property over arbitrary JSON-ish value lists), the append-only
segment store (ingest / enumerate / read back / crash-safety), crash
recovery (a writer killed at *every* crash point, ``fsck``
detection/quarantine of each damage class, ``runs()`` warn-and-skip),
segments written by older versions, and concurrent writers.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.store import (
    ColumnCodecError,
    ColumnSpec,
    StoreError,
    StoreWarning,
    TrialStore,
    infer_dtype,
    validate_run_manifest,
)
from repro.store.columns import build_column, decode_column, read_column, write_column

from _helpers import (
    InjectedCrash,
    crash_store_at,
    ingest_sample_run,
    record_store_crash_points,
    store_crash_hook,
)


def _trial(seed, metrics, config=None, duration=0.25, cached=False, error=None, index=0):
    return {
        "experiment": "unit",
        "config": dict(config or {"n": 8}),
        "seed": seed,
        "index": index,
        "duration": duration,
        "cached": cached,
        "error": error,
        "metrics": dict(metrics),
    }


def _ingest(store, trials, *, experiment="unit", version="v1", table=None, created=1000.0):
    return store.ingest(
        experiment,
        trials,
        created_unix=created,
        table=table,
        provenance={"code_version": version},
    )


# ------------------------------------------------------------- column codec
class TestColumnCodec:
    def test_dtype_inference(self):
        assert infer_dtype([1, 2, 3]) == "i64"
        assert infer_dtype([1.0, 2.5]) == "f64"
        assert infer_dtype(["a", "b", "a"]) == "dict"
        assert infer_dtype([1, 2.5]) == "json"          # mixed numerics stay exact
        assert infer_dtype([True, False]) == "json"     # bools are not i64
        assert infer_dtype([1, None]) == "json"         # missing values
        assert infer_dtype([2 ** 70]) == "json"         # beyond 64-bit
        assert infer_dtype([]) == "json"

    @pytest.mark.parametrize(
        "values",
        [
            [1, -5, 2 ** 63 - 1, -(2 ** 63)],
            [0.0, -1.5, 3.141592653589793, 1e300],
            ["weighted-sparse", "powerlaw", "weighted-sparse"],
            [None, 1, "x", True, 2.5, {"nested": [1, 2]}],
            [],
        ],
    )
    def test_round_trip_through_disk(self, tmp_path, values):
        spec, _data = build_column("col", values, 0)
        write_column(tmp_path, spec, values)
        assert read_column(tmp_path, spec) == values

    def test_dictionary_encoding_is_first_seen_order(self):
        spec, data = build_column("family", ["b", "a", "b", "c"], 0)
        assert spec.dtype == "dict"
        assert spec.values == ("b", "a", "c")
        assert decode_column(spec, data) == ["b", "a", "b", "c"]

    def test_numeric_columns_are_flat_8_byte_words(self):
        for values, dtype in ([[1, 2, 3], "i64"], [[1.0, 2.0], "f64"]):
            spec, data = build_column("col", values, 0)
            assert spec.dtype == dtype
            assert len(data) == 8 * len(values)

    def test_truncated_column_is_rejected(self):
        spec, data = build_column("col", [1, 2, 3], 0)
        with pytest.raises(ColumnCodecError):
            decode_column(spec, data[:-3])

    def test_count_mismatch_is_rejected(self):
        spec, data = build_column("col", [1, 2, 3], 0)
        bad = ColumnSpec(name="col", dtype="i64", file=spec.file, count=2)
        with pytest.raises(ColumnCodecError):
            decode_column(bad, data)

    def test_unknown_dtype_is_rejected(self):
        with pytest.raises(ColumnCodecError):
            ColumnSpec(name="col", dtype="utf8", file="c0.utf8", count=0)

    @given(
        st.lists(
            st.one_of(
                st.integers(min_value=-(2 ** 64), max_value=2 ** 64),
                st.floats(allow_nan=False),
                st.text(max_size=8),
                st.booleans(),
                st.none(),
            ),
            max_size=40,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_property_round_trip_is_lossless(self, values):
        spec, data = build_column("col", values, 0)
        decoded = decode_column(spec, data)
        assert decoded == values
        assert [type(v) for v in decoded] == [type(v) for v in values]


# ------------------------------------------------------------- segment store
class TestTrialStore:
    def test_ingest_and_read_back(self, tmp_path):
        store = TrialStore(tmp_path / "store")
        trials = [
            _trial(11, {"weight": 5}, config={"n": 8, "family": "powerlaw"}),
            _trial(12, {"weight": 7}, config={"n": 8, "family": "hypercube"}),
        ]
        info = _ingest(store, trials, table={"title": "t", "columns": ["n"],
                                             "rows": [[8]], "notes": []})
        assert info.trial_count == 2
        columns = store.columns(info)
        assert columns["seed"] == [11, 12]
        assert columns["config.family"] == ["powerlaw", "hypercube"]
        assert columns["metrics.weight"] == [5, 7]
        assert "error" not in columns  # no failed trial, no error column
        assert info.table["rows"] == [[8]]
        assert validate_run_manifest(info.manifest) == []

    def test_store_root_is_reopenable_and_append_only(self, tmp_path):
        root = tmp_path / "store"
        first = _ingest(TrialStore(root), [_trial(1, {"m": 1})])
        second = _ingest(TrialStore(root), [_trial(2, {"m": 2})], version="v2")
        runs = TrialStore(root, create=False).runs()
        assert [info.run_id for info in runs] == [first.run_id, second.run_id]
        assert runs[0].sequence < runs[1].sequence

    def test_open_missing_store_without_create_fails(self, tmp_path):
        with pytest.raises(StoreError):
            TrialStore(tmp_path / "nope", create=False)

    def test_non_store_directory_is_rejected(self, tmp_path):
        (tmp_path / "store.json").write_text(json.dumps({"schema": "other"}))
        with pytest.raises(StoreError):
            TrialStore(tmp_path)

    def test_uncommitted_segment_is_ignored(self, tmp_path):
        store = TrialStore(tmp_path / "store")
        _ingest(store, [_trial(1, {"m": 1})])
        # A crashed writer: claimed directory, no manifest.
        (store.segments_dir / "run-000999-unit").mkdir()
        assert len(store.runs()) == 1
        # And the sequence counter still advances past the claim.
        info = _ingest(store, [_trial(2, {"m": 2})])
        assert info.sequence == 1000

    def test_runs_filter_by_experiment(self, tmp_path):
        store = TrialStore(tmp_path / "store")
        _ingest(store, [_trial(1, {"m": 1})], experiment="e3")
        _ingest(store, [_trial(2, {"m": 2})], experiment="e9")
        assert [info.experiment for info in store.runs("e3")] == ["e3"]

    def test_error_column_only_when_a_trial_failed(self, tmp_path):
        store = TrialStore(tmp_path / "store")
        info = _ingest(
            store, [_trial(1, {}, error="Traceback ..."), _trial(2, {"m": 1})]
        )
        columns = store.columns(info)
        assert columns["error"] == ["Traceback ...", None]

    def test_missing_trial_fields_are_rejected(self, tmp_path):
        store = TrialStore(tmp_path / "store")
        with pytest.raises(StoreError, match="missing fields"):
            _ingest(store, [{"config": {}, "seed": 1}])

    def test_crashed_manifest_write_leaves_only_a_tmp_file(self, tmp_path):
        """Manifests are committed by rename: a segment can hold column files
        and a partial .tmp manifest, and the store stays fully readable."""
        store = TrialStore(tmp_path / "store")
        good = _ingest(store, [_trial(1, {"m": 1})])
        crashed = store.segments_dir / "run-000777-unit"
        crashed.mkdir()
        (crashed / "c0.i64").write_bytes(b"\x00" * 8)
        (crashed / "manifest.json.12345.tmp").write_text('{"schema": "kec')
        assert [info.run_id for info in store.runs()] == [good.run_id]

    def test_unknown_projection_column_is_loud(self, tmp_path):
        store = TrialStore(tmp_path / "store")
        info = _ingest(store, [_trial(1, {"m": 1})])
        with pytest.raises(StoreError, match="no column"):
            store.columns(info, ["metrics.nope"])


# ----------------------------------------------------------- crash recovery
class TestStoreCrashRecovery:
    def test_recording_hook_enumerates_the_writer_crash_points(self, tmp_path):
        store = TrialStore(tmp_path / "probe")
        points = record_store_crash_points(lambda: ingest_sample_run(store))
        assert "segment-claimed" in points
        assert "before-manifest" in points
        assert any(p.startswith("column-written:") for p in points)
        assert any(p.startswith("tmp-written:manifest.json") for p in points)

    def test_writer_killed_at_every_crash_point_leaves_a_recoverable_store(
        self, tmp_path
    ):
        probe = TrialStore(tmp_path / "probe")
        points = record_store_crash_points(lambda: ingest_sample_run(probe))
        assert points, "the writer exposed no crash points"
        for number, point in enumerate(points):
            root = tmp_path / f"store-{number}"
            store = TrialStore(root)
            healthy = ingest_sample_run(store, stamp=1.0)
            with crash_store_at(point):
                with pytest.raises(InjectedCrash):
                    ingest_sample_run(store, stamp=2.0)
            # Reads never see the half-written segment.
            assert [info.run_id for info in store.runs()] == [healthy.run_id]
            findings = store.fsck()
            assert len(findings) == 1, (point, findings)
            assert findings[0].kind == "uncommitted"
            repaired = store.fsck(repair=True)
            assert len(repaired) == 1 and repaired[0].repaired
            assert (root / "quarantine" / repaired[0].segment).is_dir()
            assert store.fsck() == []
            assert [info.run_id for info in store.runs()] == [healthy.run_id]

    def test_store_crash_hook_restores_the_previous_hook(self):
        from repro.store import store as store_module

        assert store_module._crash_hook is None
        with store_crash_hook(lambda point: None):
            assert store_module._crash_hook is not None
        assert store_module._crash_hook is None

    def test_corrupt_manifest_is_skipped_with_a_warning(self, tmp_path):
        store = TrialStore(tmp_path / "s")
        good = ingest_sample_run(store, stamp=1.0)
        bad = ingest_sample_run(store, stamp=2.0)
        (bad.path / "manifest.json").write_text("{ not json at all")
        with pytest.warns(StoreWarning, match="corrupt run manifest"):
            runs = store.runs()
        assert [info.run_id for info in runs] == [good.run_id]
        findings = store.fsck()
        assert [f.kind for f in findings] == ["manifest-corrupt"]

    def test_schema_invalid_manifest_is_skipped_with_a_warning(self, tmp_path):
        store = TrialStore(tmp_path / "s")
        good = ingest_sample_run(store, stamp=1.0)
        bad = ingest_sample_run(store, stamp=2.0)
        (bad.path / "manifest.json").write_text(json.dumps({"schema": "nope"}))
        with pytest.warns(StoreWarning, match="invalid run manifest"):
            runs = store.runs()
        assert [info.run_id for info in runs] == [good.run_id]
        findings = store.fsck()
        assert [f.kind for f in findings] == ["manifest-schema"]

    def test_truncated_column_is_an_fsck_finding(self, tmp_path):
        store = TrialStore(tmp_path / "s")
        info = ingest_sample_run(store)
        spec = info.column_specs()[0]
        column = info.path / spec.file
        column.write_bytes(column.read_bytes()[:-1])
        findings = store.fsck()
        assert [f.kind for f in findings] == ["column"]
        assert spec.name in findings[0].detail
        repaired = store.fsck(repair=True)
        assert repaired[0].repaired
        assert store.runs() == []  # the damaged segment is quarantined

    def test_fsck_of_a_clean_store_finds_nothing_and_repair_moves_nothing(
        self, tmp_path
    ):
        store = TrialStore(tmp_path / "s")
        runs = [ingest_sample_run(store, stamp=float(i)) for i in range(2)]
        assert store.fsck() == []
        assert store.fsck(repair=True) == []
        assert not (store.root / "quarantine").exists()
        assert [i.run_id for i in store.runs()] == [i.run_id for i in runs]

    def test_repair_keeps_the_damaged_bytes_and_the_healthy_runs(self, tmp_path):
        store = TrialStore(tmp_path / "s")
        good = ingest_sample_run(store, stamp=1.0)
        bad = ingest_sample_run(store, stamp=2.0)
        (bad.path / "manifest.json").write_text("{ not json at all")
        [finding] = store.fsck(repair=True)
        assert (finding.kind, finding.repaired) == ("manifest-corrupt", True)
        quarantined = store.root / "quarantine" / bad.path.name
        assert (quarantined / "manifest.json").read_text() == "{ not json at all"
        assert [i.run_id for i in store.runs()] == [good.run_id]
        assert store.columns(good.run_id)["metrics.value"] == [0, 2, 4]
        assert store.fsck() == []

    def test_stray_manifest_tmp_is_reported_and_unlinked(self, tmp_path):
        store = TrialStore(tmp_path / "s")
        info = ingest_sample_run(store)
        stray = info.path / "manifest.json.12345.tmp"
        stray.write_text("half-written junk")
        findings = store.fsck()
        assert [f.kind for f in findings] == ["stray-tmp"]
        repaired = store.fsck(repair=True)
        assert repaired[0].repaired
        assert not stray.exists()
        # The healthy segment itself is untouched.
        assert [i.run_id for i in store.runs()] == [info.run_id]
        assert store.fsck() == []

# ------------------------------------------------------------ legacy segments
class TestLegacySegments:
    def test_worker_column_segment_reads_back_and_passes_fsck(
        self, tmp_path, monkeypatch
    ):
        """Older writers stamped a sparse ``worker`` column (which remote
        worker computed each trial).  Such segments must stay readable."""
        from repro.store import store as store_module

        write_columns = store_module._trial_columns

        def with_worker_column(trials):
            columns = write_columns(trials)
            columns["worker"] = [t.get("worker") for t in trials]
            return columns

        trials = [
            {"config": {"n": 8}, "seed": seed, "index": seed, "duration": 0.5,
             "cached": False, "metrics": {"value": 2 * seed}, "worker": worker}
            for seed, worker in enumerate(["w0", "w1", "w0"])
        ]
        store_dir = tmp_path / "store"
        with monkeypatch.context() as patch:
            patch.setattr(store_module, "_trial_columns", with_worker_column)
            info = TrialStore(store_dir).ingest(
                "e3", trials, created_unix=1.0, provenance={"code_version": "v1"}
            )
        assert "worker" in [spec.name for spec in info.column_specs()]

        store = TrialStore(store_dir, create=False)
        columns = store.columns(info.run_id)
        assert columns["worker"] == ["w0", "w1", "w0"]
        assert columns["metrics.value"] == [0, 2, 4]
        assert store.fsck() == []


# ------------------------------------------------ concurrent writer contention
def _contending_writer(args: tuple[str, int, int]) -> list[tuple[str, int]]:
    """One writer process: *n_runs* sequential ingests into a shared store."""
    root, worker, n_runs = args
    store = TrialStore(root, create=False)
    produced: list[tuple[str, int]] = []
    for index in range(n_runs):
        info = store.ingest(
            "contention",
            [
                {
                    "experiment": "contention",
                    "config": {"worker": worker},
                    "seed": index,
                    "index": index,
                    "duration": 0.0,
                    "cached": False,
                    "error": None,
                    "metrics": {"value": worker * 1000 + index},
                }
            ],
            created_unix=1000.0 + worker,
            provenance={"code_version": f"w{worker}"},
        )
        produced.append((info.run_id, info.sequence))
    return produced


class TestConcurrentWriters:
    """The atomic ``mkdir`` run-claim under real multi-process contention."""

    def test_parallel_ingests_never_double_claim_segments(self, tmp_path):
        from concurrent.futures import ProcessPoolExecutor

        root = tmp_path / "store"
        TrialStore(root)  # created up front; the writers only append
        workers, runs_each = 4, 6
        with ProcessPoolExecutor(max_workers=workers) as pool:
            batches = list(
                pool.map(
                    _contending_writer,
                    [(str(root), worker, runs_each) for worker in range(workers)],
                )
            )
        claims = [claim for batch in batches for claim in batch]
        assert len(claims) == workers * runs_each
        # No two writers ever claimed the same segment: run ids and sequence
        # numbers are globally unique across all processes.
        run_ids = [run_id for run_id, _ in claims]
        sequences = [sequence for _, sequence in claims]
        assert len(set(run_ids)) == len(run_ids)
        assert len(set(sequences)) == len(sequences)

        # A fresh reader sees every run, ordered by sequence, each with a
        # schema-valid manifest and intact columns.
        store = TrialStore(root, create=False)
        runs = store.runs("contention")
        assert [info.run_id for info in runs] == [
            run_id for run_id, _ in sorted(claims, key=lambda claim: claim[1])
        ]
        values: set[int] = set()
        for info in runs:
            assert validate_run_manifest(info.manifest) == []
            columns = store.columns(info)
            worker = int(info.provenance["code_version"][1:])
            assert columns["config.worker"] == [worker]
            values.update(columns["metrics.value"])
        assert values == {
            worker * 1000 + index
            for worker in range(workers)
            for index in range(runs_each)
        }
