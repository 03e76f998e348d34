"""Tests for the execution backends and the content-hash cache lifecycle.

Covers backend resolution (names, the workers-based default, instance
pass-through, errors), the determinism guarantee (serial == processes on
golden seeds, both for synthetic trials and for a real experiment table),
the pool's chunking and batch contract (every item back once, in order,
for empty to multi-chunk batches; a failing item surfaces and the pool
serves the next batch), the pooled-executor lifecycle (an entered backend
reuses one pool across ``map`` calls; the engine enters/exits it), the
backend recorded in run provenance, the package-wide code version every
cache entry is keyed on, and ``cache gc`` evicting exactly the entries
written under another code version.
"""

from __future__ import annotations

import os
import shutil
from pathlib import Path

import pytest

import repro
import repro.analysis.engine as engine_module
from repro.analysis.backends import (
    ProcessBackend,
    SerialBackend,
    _map_chunksize,
    resolve_backend,
)
from repro.analysis.bench import engine_provenance
from repro.analysis.code_version import package_version
from repro.analysis.engine import (
    CODE_VERSION,
    ExperimentEngine,
    TrialJob,
    cache_clear,
    cache_gc,
    cache_stats,
)
from repro.analysis.experiments import experiment_e1_two_ecss_approximation
from repro.analysis.runner import derive_seed


def _value_trial(config, seed):
    return {"value": config["x"] * 10 + (seed % 7)}


def _getpid(_item):
    return os.getpid()


def _square(x):
    return x * x


def _fail_on_five(x):
    if x == 5:
        raise ValueError(f"item {x} is poison")
    return x


def _fragile_trial(config, seed):
    if config["x"] == 2:
        raise ValueError(f"bad x={config['x']}")
    return {"value": config["x"] * 10 + (seed % 7)}


def _jobs(trial_name, xs, trials=2):
    return [
        TrialJob.make(trial_name, {"x": x}, derive_seed(trial_name, x, t), t)
        for x in xs
        for t in range(trials)
    ]


class TestBackendResolution:
    def test_resolve_by_name(self):
        assert isinstance(resolve_backend("serial"), SerialBackend)
        processes = resolve_backend("processes", workers=3)
        assert isinstance(processes, ProcessBackend) and processes.workers == 3

    def test_resolve_none_picks_serial_for_one_worker_else_processes(self):
        assert isinstance(resolve_backend(None, workers=1), SerialBackend)
        assert isinstance(resolve_backend(None, workers=4), ProcessBackend)

    def test_resolve_passes_instances_through(self):
        backend = ProcessBackend(workers=2)
        assert resolve_backend(backend) is backend

    @pytest.mark.parametrize("name", ["threads", "cluster", "failover", "mpi"])
    def test_unknown_name_raises_with_known_backends_listed(self, name):
        with pytest.raises(KeyError, match="no execution backend.*processes.*serial"):
            resolve_backend(name)

    def test_engine_surfaces_unknown_backend(self):
        engine = ExperimentEngine(backend="ray")
        with pytest.raises(KeyError, match="no execution backend"):
            engine.run_jobs(_value_trial, _jobs("unit", (1,), trials=1))

    def test_backend_returning_short_results_is_a_loud_error(self):
        """A buggy backend instance must not silently drop trials."""

        class ShortBackend:
            name = "short"
            workers = 1

            def map(self, function, items):
                return [function(item) for item in items[:-1]]

        engine = ExperimentEngine(backend=ShortBackend())
        with pytest.raises(RuntimeError, match="one result per item"):
            engine.run_jobs(_value_trial, _jobs("unit", (1, 2)))

    def test_engine_accepts_a_backend_instance(self):
        calls = []

        class RecordingBackend:
            name = "recording"
            workers = 5

            def map(self, function, items):
                calls.append(len(items))
                return [function(item) for item in items]

        engine = ExperimentEngine(backend=RecordingBackend(), workers=5)
        results = engine.run_jobs(_value_trial, _jobs("unit", (1, 2)))
        assert calls == [4]
        assert len(results) == 4
        assert "backend=recording" in engine.summary()


class TestBackendParity:
    """Bit-identical results on both backends, for synthetic and real trials."""

    BACKEND_NAMES = ("serial", "processes")

    def test_synthetic_trials_identical_across_backends(self):
        jobs = _jobs("unit", (1, 2, 3, 4), trials=3)
        outcomes = {}
        for name in self.BACKEND_NAMES:
            with ExperimentEngine(workers=2, backend=name) as engine:
                outcomes[name] = engine.run_jobs(_value_trial, jobs)
        baseline = [(r.config, r.seed, r.metrics) for r in outcomes["serial"]]
        for name, results in outcomes.items():
            assert [(r.config, r.seed, r.metrics) for r in results] == baseline, name

    def test_e1_table_identical_across_backends(self):
        tables = []
        for name in self.BACKEND_NAMES:
            with ExperimentEngine(workers=2, backend=name) as engine:
                tables.append(
                    experiment_e1_two_ecss_approximation(
                        sizes=(12,), trials=2, engine=engine
                    )
                )
        assert all(table.rows == tables[0].rows for table in tables)


BATCH_SIZES = [0, 1, 2, 7, 64, 65, 400]


class TestMapChunking:
    """``_map_chunksize``: a few chunks per worker, never below 1."""

    @pytest.mark.parametrize("n_items", BATCH_SIZES)
    @pytest.mark.parametrize("pool_size", [1, 3, 8])
    def test_four_to_eight_chunks_per_worker_once_the_batch_allows(
        self, pool_size, n_items
    ):
        size = _map_chunksize(n_items, pool_size)
        assert size >= 1
        chunks = -(-n_items // size)
        if n_items >= 4 * pool_size:
            # Enough chunks to balance load, few enough to amortise pickling.
            assert 4 * pool_size <= chunks <= 8 * pool_size
        else:
            # A batch smaller than the chunk budget goes one item per chunk.
            assert size == 1

    def test_a_non_positive_pool_size_counts_as_one_worker(self):
        assert _map_chunksize(40, 0) == _map_chunksize(40, 1) == 10


@pytest.fixture(scope="module")
def shared_pool():
    """One entered 2-worker process backend reused across a test class."""
    with ProcessBackend(workers=2) as backend:
        yield backend


class TestPooledBatchContract:
    """The entered pool returns each item exactly once, in item order."""

    @pytest.mark.parametrize("n_items", BATCH_SIZES)
    def test_every_item_comes_back_once_in_order(self, shared_pool, n_items):
        assert shared_pool.map(_square, range(n_items)) == [
            x * x for x in range(n_items)
        ]

    def test_a_failing_item_surfaces_and_the_pool_serves_the_next_batch(
        self, shared_pool
    ):
        pool = shared_pool._pool
        with pytest.raises(ValueError, match="item 5 is poison"):
            shared_pool.map(_fail_on_five, range(10))
        assert shared_pool._pool is pool
        assert shared_pool.map(_square, range(10)) == [x * x for x in range(10)]

    def test_unentered_empty_batch_returns_empty_without_a_pool(self):
        backend = ProcessBackend(workers=2)
        assert backend.map(_square, []) == []
        assert backend._pool is None

    def test_engine_runs_an_empty_batch_without_resolving_the_backend(self):
        engine = ExperimentEngine(workers=2, backend="ray")  # unknown name
        assert engine.run_jobs(_value_trial, []) == []
        assert engine.stats["executed"] == 0

    def test_trial_exceptions_are_captured_once_and_identically(self):
        jobs = _jobs("unit", (1, 2, 3), trials=2)
        outcomes = {}
        for name in ("serial", "processes"):
            with ExperimentEngine(workers=2, backend=name) as engine:
                results = engine.run_jobs(_fragile_trial, jobs)
            assert engine.stats["executed"] == len(jobs)
            assert engine.stats["failures"] == 2
            outcomes[name] = [
                (r.config, r.seed, r.metrics,
                 r.error and r.error.strip().splitlines()[-1])
                for r in results
            ]
        assert outcomes["processes"] == outcomes["serial"]
        errors = [error for *_, error in outcomes["serial"] if error]
        assert errors == ["ValueError: bad x=2"] * 2


class TestBackendProvenance:
    """Bench baselines and store manifests name the backend that ran."""

    @pytest.mark.parametrize(
        "workers, expected", [(1, "serial"), (2, "processes"), (4, "processes")]
    )
    def test_workers_decide_the_recorded_backend(self, workers, expected):
        engine = ExperimentEngine(workers=workers)
        recorded = engine_provenance(engine)["engine"]
        assert recorded["backend"] == expected
        assert recorded["workers"] == workers

    def test_an_instance_backend_records_its_own_name(self):
        engine = ExperimentEngine(workers=3, backend=ProcessBackend(workers=3))
        assert engine_provenance(engine)["engine"]["backend"] == "processes"

    def test_provenance_records_the_package_code_version(self):
        assert engine_provenance(ExperimentEngine())["code_version"] == CODE_VERSION


class TestPooledExecutorLifecycle:
    """An entered process backend keeps one executor alive across ``map`` calls."""

    def test_entered_process_backend_reuses_its_worker_processes(self):
        backend = ProcessBackend(workers=2)
        with backend:
            first = set(backend.map(_getpid, range(16)))
            second = set(backend.map(_getpid, range(16)))
        # Same pool on both calls: across both maps no more pids than the
        # pool size (per-call pools would have shown two disjoint sets).
        assert first and second
        assert len(first | second) <= 2
        assert backend._pool is None

    def test_unentered_map_still_uses_a_fresh_pool_per_call(self):
        backend = ProcessBackend(workers=2)
        first = set(backend.map(_getpid, range(8)))
        second = set(backend.map(_getpid, range(8)))
        assert backend._pool is None
        # Per-call behaviour: fresh processes each time.
        assert first.isdisjoint(second)

    def test_entered_process_backend_maps_correctly_across_calls(self):
        backend = ProcessBackend(workers=2)
        with backend:
            assert backend.map(str, range(10)) == [str(i) for i in range(10)]
            assert backend.map(abs, [-3, -1]) == [3, 1]
        assert backend._pool is None
        assert backend.map(str, [5]) == ["5"]  # usable again, per-call pool

    def test_chunked_map_preserves_item_order(self):
        # 64 items over a 2-worker pool -> chunksize > 1; order must hold.
        backend = ProcessBackend(workers=2)
        items = list(range(64))
        with backend:
            assert backend.map(str, items) == [str(i) for i in items]


class TestEngineBackendLifecycle:
    """``with engine:`` enters the resolved backend once and exits it after."""

    def test_entered_engine_keeps_one_backend_and_one_pool(self):
        engine = ExperimentEngine(workers=2, backend="processes")
        with engine:
            backend = engine._backend_instance()
            engine.run_jobs(_value_trial, _jobs("unit", (1,)))
            assert engine._backend_instance() is backend
            assert backend._pool is not None
            pool = backend._pool
            engine.run_jobs(_value_trial, _jobs("unit", (2,)))
            assert backend._pool is pool
        assert backend._pool is None

    def test_entered_engine_with_serial_backend_is_a_noop(self):
        with ExperimentEngine(backend="serial") as engine:
            results = engine.run_jobs(_value_trial, _jobs("unit", (1,)))
        assert all(result.ok for result in results)

    def test_unentered_engine_uses_a_pool_per_batch(self):
        engine = ExperimentEngine(workers=2, backend="processes")
        results = engine.run_jobs(_value_trial, _jobs("unit", (1, 2)))
        assert len(results) == 4
        assert engine._backend_instance()._pool is None


PACKAGE_DIR = Path(repro.__file__).resolve().parent


@pytest.fixture
def package(tmp_path):
    """A small package tree to hash: two modules and a subpackage."""
    root = tmp_path / "pkg"
    (root / "sub").mkdir(parents=True)
    (root / "__init__.py").write_text("")
    (root / "solver.py").write_text("VALUE = 1\n")
    (root / "sub" / "__init__.py").write_text("")
    (root / "sub" / "helper.py").write_text("def helper():\n    return 2\n")
    return root


class TestCodeVersion:
    def test_code_version_hashes_the_loaded_package(self):
        assert CODE_VERSION == package_version(PACKAGE_DIR)
        assert len(CODE_VERSION) == 16
        int(CODE_VERSION, 16)

    def test_stable_when_nothing_changes(self, package):
        before = package_version(package)
        assert package_version(package) == before
        # Files that are not Python sources never enter the tag.
        (package / "notes.txt").write_text("not code")
        (package / "sub" / "helper.cpython-311.pyc").write_bytes(b"\0")
        assert package_version(package) == before

    def test_editing_a_file_changes_the_version(self, package):
        before = package_version(package)
        (package / "sub" / "helper.py").write_text("def helper():\n    return 3\n")
        assert package_version(package) != before

    def test_adding_a_file_changes_the_version(self, package):
        before = package_version(package)
        (package / "sub" / "extra.py").write_text("")
        assert package_version(package) != before

    def test_renaming_a_file_changes_the_version(self, package):
        before = package_version(package)
        (package / "solver.py").rename(package / "kernel.py")
        assert package_version(package) != before

    def test_moving_a_file_between_packages_changes_the_version(self, package):
        before = package_version(package)
        (package / "solver.py").rename(package / "sub" / "solver.py")
        assert package_version(package) != before

    @pytest.mark.parametrize(
        "relpath", ["analysis/tables.py", "core/__init__.py", "__init__.py"]
    )
    def test_harness_modules_are_in_the_tag(self, tmp_path, relpath):
        """Not only solver modules: the table aggregation, the ``repro.core``
        re-exports and the package root shape every table too, so editing
        one must invalidate the cache."""
        copy = tmp_path / "repro"
        shutil.copytree(
            PACKAGE_DIR, copy, ignore=shutil.ignore_patterns("__pycache__")
        )
        assert package_version(copy) == CODE_VERSION
        with open(copy / relpath, "a") as handle:
            handle.write("\n# edited\n")
        assert package_version(copy) != CODE_VERSION


class TestCacheLifecycle:
    def test_entries_of_another_code_version_miss_and_rerun(
        self, tmp_path, monkeypatch
    ):
        cache_dir = tmp_path / "cache"
        jobs = _jobs("unit", (1, 2), trials=1)
        ExperimentEngine(cache_dir=cache_dir).run_jobs(_value_trial, jobs)
        monkeypatch.setattr(engine_module, "CODE_VERSION", "0" * 16)
        rerun = ExperimentEngine(cache_dir=cache_dir)
        results = rerun.run_jobs(_value_trial, jobs)
        assert rerun.stats == {"hits": 0, "misses": 2, "executed": 2, "failures": 0}
        assert not any(result.cached for result in results)
        replay = ExperimentEngine(cache_dir=cache_dir)
        replay.run_jobs(_value_trial, jobs)
        assert replay.stats["hits"] == 2

    def test_gc_evicts_every_entry_of_another_code_version(
        self, tmp_path, monkeypatch
    ):
        cache_dir = tmp_path / "cache"
        engine = ExperimentEngine(cache_dir=cache_dir)
        engine.run_jobs(_value_trial, _jobs("unit", (1, 2), trials=1))
        engine.run_jobs(_value_trial, _jobs("other", (3,), trials=1))
        assert len(list(cache_dir.rglob("*.json"))) == 3
        # Nothing is stale yet, so gc is a no-op.
        assert cache_gc(cache_dir) == []

        # A new checkout: every experiment's entries are stale at once.
        monkeypatch.setattr(engine_module, "CODE_VERSION", "f" * 16)
        stats = cache_stats(cache_dir)
        assert stats["unit"]["stale"] == 2
        assert stats["other"]["stale"] == 1
        assert len(cache_gc(cache_dir)) == 3
        assert not list(cache_dir.rglob("*.json"))

    def test_gc_keeps_entries_of_the_current_code_version(
        self, tmp_path, monkeypatch
    ):
        cache_dir = tmp_path / "cache"
        ExperimentEngine(cache_dir=cache_dir).run_jobs(
            _value_trial, _jobs("unit", (1,), trials=1)
        )
        monkeypatch.setattr(engine_module, "CODE_VERSION", "e" * 16)
        ExperimentEngine(cache_dir=cache_dir).run_jobs(
            _value_trial, _jobs("unit", (1,), trials=1)
        )
        stats = cache_stats(cache_dir)["unit"]
        assert (stats["entries"], stats["stale"]) == (2, 1)
        (removed,) = cache_gc(cache_dir)
        (kept,) = list(cache_dir.rglob("*.json"))
        assert removed != kept
        replay = ExperimentEngine(cache_dir=cache_dir)
        replay.run_jobs(_value_trial, _jobs("unit", (1,), trials=1))
        assert replay.stats["hits"] == 1

    def test_gc_removes_corrupt_entries(self, tmp_path):
        cache_dir = tmp_path / "cache"
        ExperimentEngine(cache_dir=cache_dir).run_jobs(
            _value_trial, _jobs("unit", (1,), trials=1)
        )
        corrupt = cache_dir / "unit" / ("ab" * 32 + ".json")
        corrupt.write_text("{not json")
        removed = cache_gc(cache_dir)
        assert removed == [corrupt]

    def test_lifecycle_never_touches_foreign_json_files(self, tmp_path):
        """``--cache-dir .`` by mistake must not destroy unrelated JSON:
        lifecycle operations only consider engine-named ``<sha256>.json``
        entries."""
        cache_dir = tmp_path / "cache"
        ExperimentEngine(cache_dir=cache_dir).run_jobs(
            _value_trial, _jobs("unit", (1,), trials=1)
        )
        foreign = cache_dir / "package.json"
        foreign.write_text('{"name": "not-a-cache-entry"}')
        nested = cache_dir / "unit" / "notes.json"
        nested.write_text("[1, 2, 3]")
        assert "package" not in cache_stats(cache_dir)
        assert cache_gc(cache_dir) == []
        assert cache_clear(cache_dir) == 1
        assert foreign.exists() and nested.exists()

    def test_gc_and_clear_reclaim_orphaned_tmp_files(self, tmp_path):
        """A writer killed between write and rename leaks '<key>.json.<pid>.<tid>.tmp'."""
        cache_dir = tmp_path / "cache"
        ExperimentEngine(cache_dir=cache_dir).run_jobs(
            _value_trial, _jobs("unit", (1,), trials=1)
        )
        orphan = cache_dir / "unit" / ("cd" * 32 + ".json.123.456.tmp")
        orphan.write_text("{half written")
        stats = cache_stats(cache_dir)
        assert stats["unit"]["tmp"] == 1
        assert cache_gc(cache_dir) == [orphan]
        orphan.write_text("{half written")
        assert cache_clear(cache_dir) == 2
        assert not orphan.exists()

    def test_valid_but_non_object_json_entry_is_a_miss_not_a_crash(self, tmp_path):
        cache_dir = tmp_path / "cache"
        jobs = _jobs("unit", (1,), trials=1)
        ExperimentEngine(cache_dir=cache_dir).run_jobs(_value_trial, jobs)
        (entry,) = list(cache_dir.rglob("*.json"))
        entry.write_text("[1, 2, 3]")
        engine = ExperimentEngine(cache_dir=cache_dir)
        results = engine.run_jobs(_value_trial, jobs)
        assert engine.stats == {"hits": 0, "misses": 1, "executed": 1, "failures": 0}
        assert results[0].ok and not results[0].cached

    def test_clear_removes_everything(self, tmp_path):
        cache_dir = tmp_path / "cache"
        ExperimentEngine(cache_dir=cache_dir).run_jobs(
            _value_trial, _jobs("unit", (1, 2), trials=2)
        )
        assert cache_clear(cache_dir) == 4
        assert not list(cache_dir.rglob("*.json"))
        assert cache_stats(cache_dir) == {}

    def test_lifecycle_helpers_tolerate_missing_directories(self, tmp_path):
        missing = tmp_path / "nope"
        assert cache_stats(missing) == {}
        assert cache_gc(missing) == []
        assert cache_clear(missing) == 0
