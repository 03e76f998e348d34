"""CLI tests for the trial-store verbs and their engine wiring.

Exercises ``kecss store import | ls | fsck | gc``, ``kecss history``,
``kecss regress``, the ``--store-dir`` / ``REPRO_STORE_DIR`` ingestion hooks
of ``kecss bench`` and ``kecss experiment``, the engine observer hook the
recording path rides on, and reading segments written by older versions.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis.engine import ExperimentEngine, TrialJob
from repro.analysis.runner import derive_seed
from repro.cli import main
from repro.store import StoreWarning, TrialStore

from _helpers import InjectedCrash, crash_store_at, ingest_sample_run

REPO_ROOT = Path(__file__).resolve().parents[1]
E3_BASELINE = REPO_ROOT / "BENCH_e3.json"


def _trial_fn(config, seed):
    return {"value": config["x"] * 10 + (seed % 7)}


class TestEngineObservers:
    def test_observers_see_every_trial_in_job_order(self):
        jobs = [
            TrialJob.make("obs", {"x": x}, derive_seed("obs", x, t), t)
            for x in (1, 2)
            for t in range(2)
        ]
        seen: list[tuple[TrialJob, object]] = []
        engine = ExperimentEngine(observers=[lambda job, res: seen.append((job, res))])
        results = engine.run_jobs(_trial_fn, jobs)
        assert [job for job, _ in seen] == list(jobs)
        assert [result for _, result in seen] == results

    def test_observers_fire_on_cache_replays_too(self, tmp_path):
        jobs = [TrialJob.make("obs", {"x": 3}, derive_seed("obs", 3, 0), 0)]
        ExperimentEngine(cache_dir=tmp_path).run_jobs(_trial_fn, jobs)
        seen = []
        warm = ExperimentEngine(
            cache_dir=tmp_path, observers=[lambda job, res: seen.append(res)]
        )
        warm.run_jobs(_trial_fn, jobs)
        assert warm.stats["hits"] == 1
        assert len(seen) == 1 and seen[0].cached


class TestStoreImportAndLs:
    def test_import_then_ls(self, tmp_path, capsys):
        store_dir = tmp_path / "store"
        code = main(["store", "import", str(E3_BASELINE),
                     str(REPO_ROOT / "BENCH_e9.json"), "--store-dir", str(store_dir)])
        assert code == 0
        out = capsys.readouterr().out
        assert "imported" in out and "run-000001-e3" in out
        assert main(["store", "ls", "--store-dir", str(store_dir)]) == 0
        out = capsys.readouterr().out
        assert "run-000001-e3" in out and "run-000002-e9" in out

    def test_import_requires_paths(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["store", "import", "--store-dir", str(tmp_path / "s")])

    def test_ls_of_missing_store_fails(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["store", "ls", "--store-dir", str(tmp_path / "nope")])

    def test_store_dir_env_fallback(self, tmp_path, monkeypatch, capsys):
        store_dir = tmp_path / "env-store"
        monkeypatch.setenv("REPRO_STORE_DIR", str(store_dir))
        assert main(["store", "import", str(E3_BASELINE)]) == 0
        assert TrialStore(store_dir, create=False).runs("e3")

    def test_missing_store_dir_is_a_clear_error(self, monkeypatch):
        monkeypatch.delenv("REPRO_STORE_DIR", raising=False)
        with pytest.raises(SystemExit, match="store"):
            main(["history", "e3"])


class TestBenchStoreDir:
    def test_bench_appends_a_run(self, tmp_path, capsys):
        store_dir = tmp_path / "store"
        out = tmp_path / "B.json"
        code = main(["bench", "e7", "--store-dir", str(store_dir),
                     "--out", str(out)])
        assert code == 0
        assert "stored run-000001-e7" in capsys.readouterr().out
        runs = TrialStore(store_dir, create=False).runs("e7")
        assert len(runs) == 1
        # The stored table is the one the written baseline holds.
        assert runs[0].table == json.loads(out.read_text())["table"]
        assert runs[0].provenance.get("source") == "kecss bench"

    def test_dry_run_does_not_touch_the_store(self, tmp_path, capsys):
        store_dir = tmp_path / "store"
        code = main(["bench", "e7", "--dry-run", "--store-dir", str(store_dir)])
        assert code == 0
        assert not store_dir.exists()


class TestExperimentStoreDir:
    def test_experiment_appends_a_run_with_table(self, tmp_path, capsys):
        store_dir = tmp_path / "store"
        code = main(["experiment", "--id", "e7", "--store-dir", str(store_dir)])
        assert code == 0
        captured = capsys.readouterr()
        assert "E7" in captured.out
        assert "stored run-000001-e7" in captured.err
        runs = TrialStore(store_dir, create=False).runs("e7")
        assert len(runs) == 1
        info = runs[0]
        assert info.table is not None and info.trial_count > 0
        assert info.provenance.get("source") == "kecss experiment"
        columns = TrialStore(store_dir).columns(info)
        assert len(columns["duration"]) == info.trial_count


class TestHistoryAndRegress:
    def _populate(self, store_dir):
        assert main(["store", "import", str(E3_BASELINE),
                     "--store-dir", str(store_dir)]) == 0

    def test_history_tabulates_versions(self, tmp_path, capsys):
        store_dir = tmp_path / "store"
        self._populate(store_dir)
        capsys.readouterr()
        assert main(["history", "e3", "--store-dir", str(store_dir)]) == 0
        out = capsys.readouterr().out
        assert "history: e3" in out and "code version" in out
        assert main(["history", "e3", "--store-dir", str(store_dir),
                     "--markdown"]) == 0
        assert "|" in capsys.readouterr().out

    def test_history_of_empty_experiment_exits_nonzero(self, tmp_path, capsys):
        store_dir = tmp_path / "store"
        self._populate(store_dir)
        assert main(["history", "e9", "--store-dir", str(store_dir)]) == 1

    def test_history_metric_drilldown(self, tmp_path, capsys):
        store_dir = tmp_path / "store"
        self._populate(store_dir)
        capsys.readouterr()
        assert main(["history", "e3", "--store-dir", str(store_dir),
                     "--metric", "iterations"]) == 0
        out = capsys.readouterr().out
        assert "metric iterations" in out
        assert "mean iterations" in out and "min iterations" in out

    def test_history_metric_drilldown_grouped_by_config_key(self, tmp_path, capsys):
        store_dir = tmp_path / "store"
        self._populate(store_dir)
        capsys.readouterr()
        # ``n`` resolves through the ``config.`` prefix: one row per size.
        assert main(["history", "e3", "--store-dir", str(store_dir),
                     "--metric", "iterations", "--by", "n"]) == 0
        out = capsys.readouterr().out
        assert "metric iterations by n" in out
        assert out.count("\n") > 4  # header + one row per distinct n

    def test_history_by_without_metric_is_a_usage_error(self, tmp_path):
        store_dir = tmp_path / "store"
        self._populate(store_dir)
        with pytest.raises(SystemExit, match="--by requires --metric"):
            main(["history", "e3", "--store-dir", str(store_dir), "--by", "n"])

    def test_history_unknown_metric_lists_the_known_ones(self, tmp_path, capsys):
        store_dir = tmp_path / "store"
        self._populate(store_dir)
        capsys.readouterr()
        assert main(["history", "e3", "--store-dir", str(store_dir),
                     "--metric", "no-such-metric"]) == 1
        err = capsys.readouterr().err
        assert "no-such-metric" in err and "iterations" in err

    def test_history_unknown_group_key_lists_groupable_columns(self, tmp_path, capsys):
        store_dir = tmp_path / "store"
        self._populate(store_dir)
        capsys.readouterr()
        assert main(["history", "e3", "--store-dir", str(store_dir),
                     "--metric", "iterations", "--by", "no-such-key"]) == 1
        assert "no-such-key" in capsys.readouterr().err

    def test_regress_single_run_passes(self, tmp_path, capsys):
        store_dir = tmp_path / "store"
        self._populate(store_dir)
        capsys.readouterr()
        assert main(["regress", "e3", "--store-dir", str(store_dir)]) == 0
        assert "nothing to regress" in capsys.readouterr().out

    def test_corrupt_manifest_warns_and_is_skipped_not_fatal(self, tmp_path):
        """A truncated run manifest no longer takes the whole store down:
        reads warn (pointing at ``kecss store fsck``) and skip the damaged
        segment, and ``fsck`` identifies it (see docs/robustness.md)."""
        store_dir = tmp_path / "store"
        self._populate(store_dir)
        manifest = next((store_dir / "segments").glob("run-*/manifest.json"))
        manifest.write_text(manifest.read_text()[:40])
        for argv in (["regress", "e3"], ["store", "ls"]):
            with pytest.warns(StoreWarning, match="corrupt run manifest"):
                # The only run is the damaged one, so both verbs see an
                # empty-but-healthy store rather than crashing on it.
                main([*argv, "--store-dir", str(store_dir)])
        assert main(["store", "fsck", "--store-dir", str(store_dir)]) == 1

    def test_regress_missing_experiment_exits_2(self, tmp_path, capsys):
        store_dir = tmp_path / "store"
        self._populate(store_dir)
        assert main(["regress", "e9", "--store-dir", str(store_dir)]) == 2

    def test_bench_then_history_then_regress_end_to_end(self, tmp_path, capsys):
        """The acceptance flow on a fresh store: ``kecss bench e3
        --store-dir`` followed by ``kecss history e3`` and ``kecss regress
        e3`` all succeed."""
        store_dir = tmp_path / "store"
        assert main(["bench", "e3", "--store-dir", str(store_dir),
                     "--out", str(tmp_path / "B.json")]) == 0
        capsys.readouterr()
        assert main(["history", "e3", "--store-dir", str(store_dir)]) == 0
        assert "history: e3" in capsys.readouterr().out
        assert main(["regress", "e3", "--store-dir", str(store_dir)]) == 0

    def test_regress_detects_injected_drift(self, tmp_path, capsys):
        """A tampered second run must flip the exit code, and --tolerance
        must wave the same drift through."""
        store_dir = tmp_path / "store"
        self._populate(store_dir)
        payload = json.loads(E3_BASELINE.read_text())
        for trial in payload["trials"]:
            trial["metrics"]["iterations"] += 1
        payload["provenance"]["code_version"] = "tampered-version"
        from repro.store import import_baseline

        import_baseline(TrialStore(store_dir), payload, source="tampered")
        capsys.readouterr()
        assert main(["regress", "e3", "--store-dir", str(store_dir)]) == 1
        out = capsys.readouterr().out
        assert "REGRESSION" in out
        # Mean iterations moved by ~26%; a 50% tolerance accepts it.
        assert main(["regress", "e3", "--store-dir", str(store_dir),
                     "--tolerance", "0.5"]) == 0


class TestStoreCliVerbs:
    def test_fsck_clean_store_exits_zero(self, tmp_path, capsys):
        store_dir = tmp_path / "store"
        ingest_sample_run(TrialStore(store_dir))
        assert main(["store", "fsck", "--store-dir", str(store_dir)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_fsck_repair_quarantines_and_history_keeps_working(
        self, tmp_path, capsys
    ):
        store_dir = tmp_path / "store"
        store = TrialStore(store_dir)
        ingest_sample_run(store, stamp=1.0)
        with crash_store_at("before-manifest"):
            with pytest.raises(InjectedCrash):
                ingest_sample_run(store, stamp=2.0)
        assert main(["store", "fsck", "--store-dir", str(store_dir)]) == 1
        out = capsys.readouterr().out
        assert "uncommitted" in out and "--repair" in out
        assert main(
            ["store", "fsck", "--repair", "--store-dir", str(store_dir)]
        ) == 1
        assert "quarantined" in capsys.readouterr().out
        assert main(["store", "fsck", "--store-dir", str(store_dir)]) == 0
        capsys.readouterr()
        assert main(["store", "ls", "--store-dir", str(store_dir)]) == 0
        assert main(["history", "e3", "--store-dir", str(store_dir)]) == 0

    def test_gc_cli_retention(self, tmp_path, capsys):
        store_dir = tmp_path / "store"
        store = TrialStore(store_dir)
        for stamp in range(3):
            ingest_sample_run(store, stamp=float(stamp))
        assert main(
            ["store", "gc", "--keep-last", "1", "--store-dir", str(store_dir)]
        ) == 0
        assert "removed 2 run(s)" in capsys.readouterr().out
        assert len(TrialStore(store_dir, create=False).runs()) == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["store", "gc", "--store-dir", "{d}"],
            ["store", "gc", "--keep-last", "0", "--store-dir", "{d}"],
            ["store", "ls", "--repair", "--store-dir", "{d}"],
            ["store", "fsck", "--keep-last", "1", "--store-dir", "{d}"],
        ],
    )
    def test_usage_errors(self, tmp_path, argv):
        store_dir = tmp_path / "store"
        ingest_sample_run(TrialStore(store_dir))
        argv = [arg.format(d=store_dir) for arg in argv]
        with pytest.raises(SystemExit):
            main(argv)


class TestLegacySegments:
    def test_worker_column_segment_reads_through_columns_and_history(
        self, tmp_path, monkeypatch, capsys
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

        columns = TrialStore(store_dir, create=False).columns(info.run_id)
        assert columns["worker"] == ["w0", "w1", "w0"]
        assert columns["metrics.value"] == [0, 2, 4]
        assert main(["store", "fsck", "--store-dir", str(store_dir)]) == 0
        capsys.readouterr()
        assert main(["history", "e3", "--store-dir", str(store_dir)]) == 0
        assert "history: e3" in capsys.readouterr().out
        assert main(["history", "e3", "--store-dir", str(store_dir),
                     "--metric", "value", "--by", "worker"]) == 0
        out = capsys.readouterr().out
        assert "metric value by worker" in out
        assert "w0" in out and "w1" in out
