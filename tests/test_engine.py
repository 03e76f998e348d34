"""Tests for the parallel cached experiment engine.

Covers the determinism/parity guarantees (serial vs parallel vs cache-replay
runs of E1 and E4 produce identical tables), golden-pinned ``derive_seed``
values, the on-disk cache lifecycle, and the per-trial failure surfacing
that replaced silent exception propagation in aggregation paths.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib
import json
import pkgutil

import pytest

import repro
import repro.analysis.engine as engine_module
from repro.analysis.engine import (
    CODE_VERSION,
    CacheFidelityError,
    ExperimentEngine,
    TrialJob,
    resolve_trial,
)
from repro.analysis.experiments import (
    EXPERIMENTS,
    TRIAL_REGISTRY,
    experiment_e1_two_ecss_approximation,
    experiment_e4_k_ecss,
)
from repro.analysis.runner import TrialFailure, derive_seed
from repro.analysis.tables import metric_mean, trial_groups


def _value_trial(config, seed):
    return {"value": config["x"] * 10 + (seed % 7)}


def _flaky_trial(config, seed):
    if config["x"] == 2:
        raise ValueError("boom on x=2")
    return {"value": float(config["x"])}


def _jobs(trial_name, xs, trials=2):
    return [
        TrialJob.make(trial_name, {"x": x}, derive_seed(trial_name, x, t), t)
        for x in xs
        for t in range(trials)
    ]


class TestDeriveSeedGolden:
    """``derive_seed`` is the reproducibility anchor: pin it with golden values."""

    def test_pinned_values(self):
        assert derive_seed("e1", 16, 0) == 2863864627
        assert derive_seed("e1", 16, 1) == 2774470553
        assert derive_seed("e4", 2, 12, 0) == 607870235
        assert derive_seed("unit", 0, [("n", 4)], 0) == 2282892405
        assert derive_seed() == 3820012610

    def test_still_deterministic_and_sensitive(self):
        assert derive_seed("a", 1) == derive_seed("a", 1)
        assert derive_seed("a", 1) != derive_seed("a", 2)


class TestTrialJob:
    def test_make_sorts_config_keys(self):
        a = TrialJob.make("e1", {"n": 16, "exact_cutoff": 40}, 123)
        b = TrialJob.make("e1", {"exact_cutoff": 40, "n": 16}, 123)
        assert a == b
        assert a.config == (("exact_cutoff", 40), ("n", 16))
        assert a.config_dict == {"n": 16, "exact_cutoff": 40}

    def test_cache_key_golden(self, monkeypatch):
        # Pinned under a fixed code version; the real CODE_VERSION is the
        # package's content hash and changes with every source edit.
        monkeypatch.setattr(engine_module, "CODE_VERSION", "1")
        job = TrialJob.make("e1", {"n": 16, "exact_cutoff": 40}, 123, 0)
        assert job.cache_key() == (
            "beec29cf67a044280275cef42f6a6416de3a877e18d09e5a86ee1c3ab90ef1a2"
        )

    def test_cache_key_sensitivity(self, monkeypatch):
        base = TrialJob.make("e1", {"n": 16}, 1)
        key = base.cache_key()
        assert key != TrialJob.make("e2", {"n": 16}, 1).cache_key()
        assert key != TrialJob.make("e1", {"n": 17}, 1).cache_key()
        assert key != TrialJob.make("e1", {"n": 16}, 2).cache_key()
        monkeypatch.setattr(engine_module, "CODE_VERSION", "other")
        assert base.cache_key() != key

    def test_cache_key_uses_the_package_code_version(self):
        # Every experiment shares the one package-wide tag.
        job = TrialJob.make("e1", {"n": 16}, 1)
        payload = f"e1|{CODE_VERSION}|{job.config!r}|1"
        assert job.cache_key() == hashlib.sha256(payload.encode()).hexdigest()


class TestRegistry:
    def test_all_ten_experiments_register_a_trial(self):
        assert set(TRIAL_REGISTRY) >= {f"e{i}" for i in range(1, 11)}
        assert set(EXPERIMENTS) == {f"e{i}" for i in range(1, 11)}
        assert set(EXPERIMENTS) <= set(TRIAL_REGISTRY)

    def test_reference_oracles_live_only_in_the_tests(self):
        """The library keeps one path per solver: no module under ``repro``
        defines or re-exports an ``*_nx`` / ``*NX`` oracle, the modules that
        held them are gone, and the registry holds exactly the experiments."""
        for module in pkgutil.walk_packages(repro.__path__, "repro."):
            names = vars(importlib.import_module(module.name))
            oracles = [n for n in names if n.endswith("_nx") or n.endswith("NX")]
            assert oracles == [], module.name
        for gone in ("repro.analysis.differential", "repro.tap.cover"):
            with pytest.raises(ModuleNotFoundError):
                importlib.import_module(gone)
        assert TRIAL_REGISTRY.keys() == EXPERIMENTS.keys()

    def test_resolve_by_name_and_by_callable(self):
        assert resolve_trial("e1") is TRIAL_REGISTRY["e1"]
        assert resolve_trial(_value_trial) is _value_trial

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError, match="no trial function registered"):
            resolve_trial("e99")


class TestEngineExecution:
    def test_results_come_back_in_job_order(self):
        jobs = _jobs("unit", (3, 1, 2))
        results = ExperimentEngine().run_jobs(_value_trial, jobs)
        assert [r.config["x"] for r in results] == [3, 3, 1, 1, 2, 2]
        assert [r.index for r in results] == [0, 1, 0, 1, 0, 1]
        assert all(r.ok and not r.cached for r in results)

    def test_parallel_matches_serial_bit_for_bit(self):
        jobs = _jobs("unit", (1, 2, 3, 4), trials=3)
        serial = ExperimentEngine(workers=1).run_jobs(_value_trial, jobs)
        parallel = ExperimentEngine(workers=4).run_jobs(_value_trial, jobs)
        assert [(r.config, r.seed, r.metrics) for r in serial] == [
            (r.config, r.seed, r.metrics) for r in parallel
        ]

    def test_failure_is_captured_per_trial_not_raised(self):
        """Regression: a raising trial used to abort the whole sweep and its
        exception could vanish inside aggregation; now it lands in
        ``TrialResult.error`` and aggregation refuses to average over it."""
        jobs = _jobs("unit", (1, 2, 3), trials=1)
        engine = ExperimentEngine()
        results = engine.run_jobs(_flaky_trial, jobs)
        assert len(results) == 3
        failed = [r for r in results if not r.ok]
        assert len(failed) == 1
        assert failed[0].config["x"] == 2
        assert "boom on x=2" in failed[0].error
        assert failed[0].metrics == {}
        assert engine.stats["failures"] == 1
        # Aggregation surfaces the failure ...
        with pytest.raises(TrialFailure, match="boom on x=2"):
            trial_groups(results, key=lambda r: r.config["x"])
        # ... unless explicitly told to skip failed trials.
        grouped = trial_groups(
            results, key=lambda r: r.config["x"], skip_failures=True
        )
        assert set(grouped) == {1, 3}

    def test_no_cache_runs_count_as_executed_not_as_misses(self):
        """Regression: with caching disabled there are no cache lookups, so
        nothing can 'miss'; executed trials have their own counter."""
        engine = ExperimentEngine()
        engine.run_jobs(_value_trial, _jobs("unit", (1, 2), trials=1))
        assert engine.stats == {
            "hits": 0,
            "misses": 0,
            "executed": 2,
            "failures": 0,
        }
        assert "2 executed" in engine.summary()


class TestEngineCache:
    def test_cold_run_writes_warm_run_replays(self, tmp_path):
        jobs = _jobs("unit", (1, 2), trials=2)
        cold = ExperimentEngine(cache_dir=tmp_path)
        first = cold.run_jobs(_value_trial, jobs)
        assert cold.stats == {"hits": 0, "misses": 4, "executed": 4, "failures": 0}
        assert len(list(tmp_path.rglob("*.json"))) == 4

        warm = ExperimentEngine(cache_dir=tmp_path)
        second = warm.run_jobs(_value_trial, jobs)
        assert warm.stats == {"hits": 4, "misses": 0, "executed": 0, "failures": 0}
        assert all(r.cached for r in second)
        assert [r.metrics for r in first] == [r.metrics for r in second]

    def test_replay_restores_the_persisted_duration(self, tmp_path):
        """Regression: cached results used to come back with duration=0.0
        even though the cold run persisted the compute time."""
        jobs = _jobs("unit", (1,), trials=1)
        (first,) = ExperimentEngine(cache_dir=tmp_path).run_jobs(_value_trial, jobs)
        (replayed,) = ExperimentEngine(cache_dir=tmp_path).run_jobs(
            _value_trial, jobs
        )
        assert replayed.cached and not first.cached
        assert replayed.duration == first.duration > 0.0

    def test_non_json_metrics_are_rejected_at_store_time(self, tmp_path):
        """Regression: ``default=repr`` used to silently stringify metrics the
        cache cannot represent, so a warm replay differed from the live run."""

        def object_trial(config, seed):
            return {"value": object()}

        def tuple_trial(config, seed):
            return {"value": (1, 2)}

        jobs = _jobs("unit", (1,), trials=1)
        with pytest.raises(CacheFidelityError, match="not JSON-serializable"):
            ExperimentEngine(cache_dir=tmp_path).run_jobs(object_trial, jobs)
        with pytest.raises(CacheFidelityError, match="round trip"):
            ExperimentEngine(cache_dir=tmp_path).run_jobs(tuple_trial, jobs)
        # A non-JSON *config* value is rejected too (no silent repr anywhere
        # in the persisted payload).
        bad_config_jobs = [TrialJob.make("unit", {"x": object()}, 1, 0)]
        with pytest.raises(CacheFidelityError, match="not JSON-serializable"):
            ExperimentEngine(cache_dir=tmp_path).run_jobs(
                lambda config, seed: {"value": 1}, bad_config_jobs
            )
        # Nothing half-written lands in the cache.
        assert not list(tmp_path.rglob("*.json"))
        # Without a cache the same trials run fine (nothing to mis-store).
        results = ExperimentEngine().run_jobs(tuple_trial, jobs)
        assert results[0].metrics == {"value": (1, 2)}

    def test_warm_replay_is_metric_identical_including_value_types(self, tmp_path):
        """Cache round-trip fidelity: ints stay ints, floats stay floats,
        bools stay bools, and nested structures come back equal."""

        def typed_trial(config, seed):
            return {
                "int": 3,
                "float": 3.5,
                "bool": True,
                "none": None,
                "nested": [{"a": 1, "b": [1.5, "s"]}],
            }

        jobs = _jobs("unit", (1,), trials=1)
        (live,) = ExperimentEngine(cache_dir=tmp_path).run_jobs(typed_trial, jobs)
        (replay,) = ExperimentEngine(cache_dir=tmp_path).run_jobs(typed_trial, jobs)
        assert replay.cached
        assert replay.metrics == live.metrics
        assert [type(replay.metrics[k]) for k in live.metrics] == [
            type(live.metrics[k]) for k in live.metrics
        ]

    def test_no_cache_dir_neither_reads_nor_writes(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        jobs = _jobs("unit", (1,), trials=1)
        engine = ExperimentEngine()
        engine.run_jobs(_value_trial, jobs)
        assert not list(tmp_path.rglob("*.json"))
        assert not engine.caching
        assert "cache=off" in engine.summary()

    def test_corrupt_cache_entry_is_recomputed(self, tmp_path):
        jobs = _jobs("unit", (1,), trials=1)
        engine = ExperimentEngine(cache_dir=tmp_path)
        engine.run_jobs(_value_trial, jobs)
        (path,) = list(tmp_path.rglob("*.json"))
        path.write_text("{not json")
        again = ExperimentEngine(cache_dir=tmp_path)
        results = again.run_jobs(_value_trial, jobs)
        assert again.stats["hits"] == 0 and results[0].ok
        assert json.loads(path.read_text())["metrics"] == results[0].metrics

    def test_entry_records_the_package_code_version(self, tmp_path):
        ExperimentEngine(cache_dir=tmp_path).run_jobs(
            _value_trial, _jobs("unit", (1,), trials=1)
        )
        (path,) = list(tmp_path.rglob("*.json"))
        payload = json.loads(path.read_text())
        assert payload["code_version"] == CODE_VERSION
        assert set(payload) == {
            "experiment", "config", "seed", "code_version", "metrics",
            "duration", "queue_seconds",
        }

    def test_the_cache_directory_is_the_only_cache_setting(self):
        configuration = {field.name for field in dataclasses.fields(ExperimentEngine)}
        assert configuration == {"workers", "backend", "cache_dir", "stats", "observers"}
        assert ExperimentEngine(cache_dir="somewhere").caching
        assert not ExperimentEngine().caching

    def test_code_version_change_invalidates_entries(self, tmp_path, monkeypatch):
        jobs = _jobs("unit", (1,), trials=1)
        ExperimentEngine(cache_dir=tmp_path).run_jobs(_value_trial, jobs)
        monkeypatch.setattr(engine_module, "CODE_VERSION", "v-next")
        bumped = ExperimentEngine(cache_dir=tmp_path)
        bumped.run_jobs(_value_trial, jobs)
        assert bumped.stats["hits"] == 0
        assert bumped.stats["misses"] == 1

    def test_failed_trials_are_not_cached(self, tmp_path):
        jobs = _jobs("unit", (2,), trials=1)
        engine = ExperimentEngine(cache_dir=tmp_path)
        engine.run_jobs(_flaky_trial, jobs)
        assert not list(tmp_path.rglob("*.json"))
        # A resumed sweep retries the failed trial instead of replaying it.
        resumed = ExperimentEngine(cache_dir=tmp_path)
        resumed.run_jobs(_flaky_trial, jobs)
        assert resumed.stats["hits"] == 0 and resumed.stats["misses"] == 1

    def test_summary_mentions_counts(self, tmp_path):
        engine = ExperimentEngine(workers=2, cache_dir=tmp_path)
        engine.run_jobs(_value_trial, _jobs("unit", (1,), trials=1))
        line = engine.summary()
        assert "1 executed" in line and "workers=2" in line


class TestEngineObservers:
    def test_observers_see_every_trial_in_job_order(self):
        jobs = _jobs("obs", [1, 2])
        seen: list[tuple[TrialJob, object]] = []
        engine = ExperimentEngine(observers=[lambda job, res: seen.append((job, res))])
        results = engine.run_jobs(_value_trial, jobs)
        assert [job for job, _ in seen] == list(jobs)
        assert [result for _, result in seen] == results

    def test_observers_fire_on_cache_replays_too(self, tmp_path):
        jobs = _jobs("obs", [3], trials=1)
        ExperimentEngine(cache_dir=tmp_path).run_jobs(_value_trial, jobs)
        seen = []
        warm = ExperimentEngine(
            cache_dir=tmp_path, observers=[lambda job, res: seen.append(res)]
        )
        warm.run_jobs(_value_trial, jobs)
        assert warm.stats["hits"] == 1
        assert len(seen) == 1 and seen[0].cached


class TestExperimentParity:
    """Engine determinism on the real experiments: E1 and E4 tables must be
    identical across workers=1, workers=4 and a cache replay."""

    E1_PARAMS = dict(sizes=(12, 16), trials=2, exact_cutoff=40)
    E4_PARAMS = dict(sizes=(10, 12), ks=(2, 3), trials=1, exact_cutoff=20)

    def _tables(self, engine):
        return (
            experiment_e1_two_ecss_approximation(engine=engine, **self.E1_PARAMS),
            experiment_e4_k_ecss(engine=engine, **self.E4_PARAMS),
        )

    def test_serial_parallel_and_replay_tables_are_identical(self, tmp_path):
        serial_e1, serial_e4 = self._tables(ExperimentEngine(workers=1))

        parallel_engine = ExperimentEngine(workers=4, cache_dir=tmp_path)
        parallel_e1, parallel_e4 = self._tables(parallel_engine)
        assert parallel_e1.rows == serial_e1.rows
        assert parallel_e4.rows == serial_e4.rows

        replay_engine = ExperimentEngine(workers=1, cache_dir=tmp_path)
        replay_e1, replay_e4 = self._tables(replay_engine)
        assert replay_engine.stats["misses"] == 0, "replay must be all cache hits"
        assert replay_e1.rows == serial_e1.rows
        assert replay_e4.rows == serial_e4.rows


class TestMeanHelpers:
    def test_metric_mean_is_plain_sum_over_count(self):
        jobs = _jobs("unit", (4,), trials=3)
        results = ExperimentEngine().run_jobs(_value_trial, jobs)
        groups = trial_groups(results, key=lambda r: r.config["x"])
        values = [r.metrics["value"] for r in groups[4]]
        assert metric_mean(groups[4], "value") == sum(values) / len(values)


def test_code_version_constant_is_nonempty_string():
    assert isinstance(CODE_VERSION, str) and CODE_VERSION
