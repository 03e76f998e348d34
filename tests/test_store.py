"""Tests for the columnar trial store (``repro.store``).

Covers the column codec (dtype inference, lossless round trips -- including
a hypothesis property over arbitrary JSON-ish value lists), the append-only
segment store (ingest / enumerate / query / crash-safety), crash recovery (a
writer killed at *every* crash point, ``fsck`` detection/quarantine of each
damage class, ``runs()`` warn-and-skip, ``gc --keep-last`` retention), the
regression
layer (history grouping, baseline-run selection, tolerance-based drift
detection) and the ``BENCH_*.json`` importer, whose aggregates must be
bit-identical to the committed baselines.
"""

from __future__ import annotations

import json
from pathlib import Path
from statistics import fmean

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.bench import build_baseline
from repro.store import (
    ColumnCodecError,
    ColumnSpec,
    StoreError,
    StoreWarning,
    TrialStore,
    duration_stats,
    history_table,
    import_baseline,
    import_baseline_file,
    infer_dtype,
    metric_means,
    pick_baseline_run,
    regress,
    relative_drift,
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

REPO_ROOT = Path(__file__).resolve().parents[1]


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

    def test_query_filters_and_projects(self, tmp_path):
        store = TrialStore(tmp_path / "store")
        trials = [
            _trial(s, {"w": float(s)}, config={"family": fam})
            for s, fam in [(1, "a"), (2, "b"), (3, "a")]
        ]
        _ingest(store, trials, experiment="diff")
        _ingest(store, trials, experiment="diff", version="v2")
        slices = store.query(
            "diff", where={"config.family": "a"}, columns=["seed", "metrics.w"]
        )
        assert len(slices) == 2
        for run_slice in slices:
            assert run_slice.columns == {"seed": [1, 3], "metrics.w": [1.0, 3.0]}
        only_v2 = store.query("diff", code_version="v2")
        assert len(only_v2) == 1 and only_v2[0].info.code_version == "v2"

    def test_query_skips_runs_without_the_where_column(self, tmp_path):
        store = TrialStore(tmp_path / "store")
        _ingest(store, [_trial(1, {"m": 1})], experiment="diff")
        assert store.query("diff", where={"config.family": "a"}) == []

    def test_query_none_fills_sparse_projected_columns(self, tmp_path):
        """Projecting a column only some runs carry (e.g. ``error``) must not
        abort the query; absent columns are None-filled per run."""
        store = TrialStore(tmp_path / "store")
        _ingest(store, [_trial(1, {"m": 1})], experiment="diff")
        _ingest(
            store,
            [_trial(2, {"m": 2}, error="Traceback ...")],
            experiment="diff",
            version="v2",
        )
        slices = store.query("diff", columns=["seed", "error"])
        assert [s.columns["error"] for s in slices] == [[None], ["Traceback ..."]]
        assert [s.columns["seed"] for s in slices] == [[1], [2]]

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

    def test_gc_keeps_the_newest_runs_per_experiment(self, tmp_path):
        store = TrialStore(tmp_path / "s")
        runs_a = [ingest_sample_run(store, "ea", stamp=float(i)) for i in range(4)]
        runs_b = [ingest_sample_run(store, "eb", stamp=float(i)) for i in range(2)]
        removed = store.gc(keep_last=2)
        assert [info.run_id for info in removed] == [
            runs_a[0].run_id, runs_a[1].run_id
        ]
        assert [info.run_id for info in store.runs("ea")] == [
            runs_a[2].run_id, runs_a[3].run_id
        ]
        assert [info.run_id for info in store.runs("eb")] == [
            info.run_id for info in runs_b
        ]
        with pytest.raises(StoreError):
            store.gc(0)


# --------------------------------------------------------------- regression
class TestRegression:
    def test_duration_stats(self):
        stats = duration_stats([0.1, 0.3, 0.2])
        assert stats["trials"] == 3
        assert stats["mean"] == pytest.approx(0.2)
        assert stats["p50"] == pytest.approx(0.2)
        assert stats["max"] == 0.3
        assert duration_stats([])["trials"] == 0

    def test_metric_means_skip_missing_and_non_numeric(self):
        means = metric_means(
            {
                "metrics.ratio": [1.0, None, 3.0],
                "metrics.label": ["a", "b", "c"],
                "seed": [1, 2, 3],
            }
        )
        assert means == {"ratio": 2.0}

    def test_relative_drift(self):
        assert relative_drift(2.0, 2.0) == 0.0
        assert relative_drift(2.0, 3.0) == pytest.approx(0.5)
        assert relative_drift(0.0, 1.0) > 1e9  # old ~0: any change is huge

    def test_pick_baseline_prefers_previous_version(self, tmp_path):
        store = TrialStore(tmp_path / "store")
        old = _ingest(store, [_trial(1, {"m": 1})], version="v1")
        _ingest(store, [_trial(2, {"m": 1})], version="v2")
        _ingest(store, [_trial(3, {"m": 1})], version="v2")
        runs = store.runs("unit")
        # Latest is v2: the baseline is the most recent run of a *different*
        # version (v1), not the sibling v2 run sitting in between.
        assert pick_baseline_run(runs).run_id == old.run_id
        # All runs at one version: the immediately preceding run.
        assert pick_baseline_run(runs[1:]).run_id == runs[1].run_id
        assert pick_baseline_run(runs[:1]) is None

    def test_regress_detects_metric_drift(self, tmp_path):
        store = TrialStore(tmp_path / "store")
        _ingest(store, [_trial(1, {"weight": 100.0})], version="v1")
        _ingest(store, [_trial(1, {"weight": 103.0})], version="v2")
        code, lines = regress(store, "unit")
        assert code == 1
        assert any("weight" in line and "DRIFT" in line for line in lines)
        # 3% drift passes a 5% tolerance.
        code, _ = regress(store, "unit", tolerance=0.05)
        assert code == 0

    def test_regress_detects_table_drift(self, tmp_path):
        store = TrialStore(tmp_path / "store")
        table = {"title": "t", "columns": ["n", "w"], "rows": [[8, 10.0]], "notes": []}
        drifted = {**table, "rows": [[8, 12.0]]}
        _ingest(store, [_trial(1, {"w": 1.0})], version="v1", table=table)
        _ingest(store, [_trial(1, {"w": 1.0})], version="v2", table=drifted)
        code, lines = regress(store, "unit")
        assert code == 1
        assert any("table[0]" in line for line in lines)
        code, _ = regress(store, "unit", tolerance=0.25)
        assert code == 0

    def test_regress_duration_check_is_opt_in(self, tmp_path):
        store = TrialStore(tmp_path / "store")
        _ingest(store, [_trial(1, {"m": 1.0}, duration=0.1)], version="v1")
        _ingest(store, [_trial(1, {"m": 1.0}, duration=0.4)], version="v2")
        code, _ = regress(store, "unit")
        assert code == 0  # durations reported, never enforced by default
        code, lines = regress(store, "unit", duration_tolerance=0.5)
        assert code == 1
        assert any("duration" in line for line in lines)

    def test_regress_nan_aggregates_are_always_drift(self, tmp_path):
        """NaN must never sneak through the gate: `NaN > tolerance` is False,
        so a broken (NaN) mean would otherwise pass at any tolerance."""
        store = TrialStore(tmp_path / "store")
        _ingest(store, [_trial(1, {"ratio": 2.0})], version="v1")
        _ingest(store, [_trial(1, {"ratio": float("nan")})], version="v2")
        code, lines = regress(store, "unit", tolerance=1e9)
        assert code == 1
        assert any("ratio" in line and "DRIFT" in line for line in lines)

    def test_regress_metric_set_mismatch_is_drift(self, tmp_path):
        store = TrialStore(tmp_path / "store")
        _ingest(store, [_trial(1, {"old_only": 1.0})], version="v1")
        _ingest(store, [_trial(1, {"new_only": 1.0})], version="v2")
        code, lines = regress(store, "unit")
        assert code == 1
        assert any("only in" in line or "only by" in line for line in lines)

    def test_regress_exit_codes_for_thin_stores(self, tmp_path):
        store = TrialStore(tmp_path / "store")
        assert regress(store, "unit")[0] == 2  # nothing stored at all
        _ingest(store, [_trial(1, {"m": 1})])
        assert regress(store, "unit")[0] == 0  # single run: nothing to compare

    def test_history_groups_by_version_oldest_first(self, tmp_path):
        store = TrialStore(tmp_path / "store")
        _ingest(store, [_trial(1, {"iters": 2})], version="v1")
        _ingest(store, [_trial(2, {"iters": 4})], version="v1")
        _ingest(store, [_trial(3, {"iters": 6})], version="v2")
        table = history_table(store, "unit")
        assert table.column("code version") == ["v1", "v2"]
        assert table.column("runs") == [2, 1]
        assert table.column("trials") == [2, 1]
        assert table.column("mean iters") == [3.0, 6.0]

    def test_history_of_unknown_experiment_is_loud(self, tmp_path):
        store = TrialStore(tmp_path / "store")
        with pytest.raises(StoreError, match="no stored runs"):
            history_table(store, "nope")


# ----------------------------------------------------------------- importer
class TestImporter:
    @pytest.mark.parametrize("name", ["BENCH_e3.json", "BENCH_e9.json"])
    def test_committed_baselines_import_bit_identically(self, tmp_path, name):
        """The acceptance bar: stored aggregates == the JSON baselines, bit
        for bit -- the manifest keeps the rendered table verbatim and every
        per-trial column (seeds, durations, metrics) round-trips exactly."""
        payload = json.loads((REPO_ROOT / name).read_text())
        store = TrialStore(tmp_path / "store")
        info = import_baseline_file(store, REPO_ROOT / name)
        assert info.experiment == payload["experiment"]
        assert info.code_version == payload["provenance"]["code_version"]
        assert info.created_unix == payload["created_unix"]
        assert info.table == payload["table"]
        columns = store.columns(info)
        trials = payload["trials"]
        assert columns["seed"] == [t["seed"] for t in trials]
        assert columns["duration"] == [t["duration"] for t in trials]
        assert columns["cached"] == [int(t["cached"]) for t in trials]
        for key in {k for t in trials for k in t["metrics"]}:
            assert columns[f"metrics.{key}"] == [
                t["metrics"].get(key) for t in trials
            ]
            stored_mean = metric_means(columns)[key]
            assert stored_mean == fmean(
                t["metrics"][key] for t in trials if key in t["metrics"]
            )

    def test_import_does_not_stamp_the_current_git_state(self, tmp_path):
        """A historical baseline without git provenance must stay without it:
        stamping the importing checkout's describe would misattribute old
        results to the current commit."""
        payload = json.loads((REPO_ROOT / "BENCH_e3.json").read_text())
        assert "git_describe" not in payload["provenance"]
        store = TrialStore(tmp_path / "store")
        info = import_baseline(store, payload)
        assert "git_describe" not in info.provenance

    def test_fresh_baselines_carry_producer_git_provenance(self):
        """Live runs stamp git describe at production time (when a checkout
        is reachable), so stores can attribute results to commits."""
        from repro.store import git_describe

        payload = build_baseline("e3")
        assert payload["provenance"]["git_describe"] == git_describe()

    def test_invalid_baseline_is_rejected(self, tmp_path):
        store = TrialStore(tmp_path / "store")
        with pytest.raises(StoreError, match="invalid bench baseline"):
            import_baseline(store, {"schema": "nope"})

    def test_unreadable_file_is_rejected(self, tmp_path):
        store = TrialStore(tmp_path / "store")
        with pytest.raises(StoreError, match="cannot read"):
            import_baseline_file(store, tmp_path / "missing.json")

    def test_fresh_bench_run_matches_imported_baseline_aggregates(self, tmp_path):
        """A store fed by ``kecss bench`` and one fed by ``store import`` of
        the same experiment hold identical tables and metric columns."""
        store = TrialStore(tmp_path / "store")
        imported = import_baseline_file(store, REPO_ROOT / "BENCH_e3.json")
        fresh = import_baseline(store, build_baseline("e3"), source="live")
        assert fresh.table == imported.table
        assert store.columns(fresh, ["seed", "metrics.iterations"]) == (
            store.columns(imported, ["seed", "metrics.iterations"])
        )


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
