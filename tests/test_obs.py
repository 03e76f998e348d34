"""Tests for ``repro.obs``: tracing and the timeline CLI.

Covers the :class:`~repro.obs.trace.Tracer` event model (span nesting,
thread safety, JSONL round-trip, the disabled no-op path), the ``kecss
trace`` verb and its exit-code contract, the Chrome trace-event export, the
``queue_seconds`` queue-wait/compute split end-to-end (engine -> cache
replay -> bench payload -> store column), and -- the hard invariant --
that a traced process-pool run stays bit-identical to an untraced serial
one while still producing a trace with the pool workers' trial spans.
"""

from __future__ import annotations

import json
import os
import threading

import pytest

from repro.analysis.bench import engine_provenance, trial_payload
from repro.analysis.engine import ExperimentEngine, TrialJob
from repro.analysis.runner import TrialResult, derive_seed
from repro.cli import main as kecss_main
from repro.obs.timeline import (
    TraceError,
    load_trace,
    render_chrome,
    render_text,
    summarize,
)
from repro.obs.trace import (
    TRACE_ENV,
    JsonlSink,
    MemorySink,
    NullTracer,
    Tracer,
    disable_tracing,
    enable_tracing,
    get_tracer,
    reset_tracer,
)
from repro.store import TrialStore


@pytest.fixture(autouse=True)
def _clean_tracer(monkeypatch):
    """Every test starts and ends with tracing off and the cache dropped."""
    monkeypatch.delenv(TRACE_ENV, raising=False)
    reset_tracer()
    yield
    disable_tracing()
    reset_tracer()


def _value_trial(config, seed):
    return {"value": config["x"] * 10 + (seed % 7)}


def _jobs(xs, trials=2):
    return [
        TrialJob.make("obs-unit", {"x": x}, derive_seed("obs-unit", x, t), t)
        for x in xs
        for t in range(trials)
    ]


# ------------------------------------------------------------------- tracer
class TestTracer:
    def test_span_nesting_records_parent_ids(self):
        sink = MemorySink()
        tracer = Tracer(sink)
        with tracer.span("outer", cat="t"):
            with tracer.span("inner", cat="t"):
                pass
        inner, outer = sink.events  # inner exits (and emits) first
        assert inner["name"] == "inner" and outer["name"] == "outer"
        assert inner["parent"] == outer["id"]
        assert "parent" not in outer
        assert outer["dur"] >= inner["dur"] >= 0.0

    def test_instant_shape(self):
        sink = MemorySink()
        Tracer(sink, proc="driver").instant("tick", cat="unit", detail=7)
        (event,) = sink.events
        assert event["ev"] == "instant"
        assert event["proc"] == "driver"
        assert event["args"] == {"detail": 7}
        assert "dur" not in event and "id" not in event

    def test_threads_nest_independently_and_ids_stay_unique(self):
        sink = MemorySink()
        tracer = Tracer(sink)

        def work(label):
            for i in range(25):
                with tracer.span(f"{label}-outer"):
                    with tracer.span(f"{label}-inner"):
                        pass

        threads = [
            threading.Thread(target=work, args=(f"t{i}",)) for i in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(sink.events) == 4 * 25 * 2
        ids = [e["id"] for e in sink.events]
        assert len(set(ids)) == len(ids)
        for event in sink.events:
            if "inner" in event["name"]:
                # An inner span's parent is an outer span of the SAME thread.
                prefix = event["name"].split("-")[0]
                parent = next(e for e in sink.events if e["id"] == event["parent"])
                assert parent["name"] == f"{prefix}-outer"

    def test_jsonl_round_trip_and_malformed_line_tolerance(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = Tracer(JsonlSink(path))
        with tracer.span("stage", cat="unit", n=3):
            tracer.instant("ping", cat="unit")
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"truncated": ')  # a writer died mid-line
        events, skipped = load_trace(path)
        assert skipped == 1
        # Sorted by start ts: the span opened before the instant inside it.
        assert [e["name"] for e in events] == ["stage", "ping"]
        assert events[0]["args"] == {"n": 3}

    def test_disabled_tracer_is_a_shared_noop(self):
        tracer = get_tracer()
        assert isinstance(tracer, NullTracer)
        assert tracer is get_tracer()
        assert not tracer.enabled
        with tracer.span("anything") as handle:
            assert handle is None
        tracer.instant("ignored")
        assert tracer.summary()["enabled"] is False

    def test_enable_tracing_publishes_env_and_truncates(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text("stale garbage\n")
        tracer = enable_tracing(path, truncate=True)
        assert os.environ[TRACE_ENV] == str(path)
        assert get_tracer() is tracer
        tracer.instant("fresh")
        events, skipped = load_trace(path)
        assert skipped == 0 and events[0]["name"] == "fresh"

    def test_tracer_summary_aggregates(self):
        tracer = Tracer(MemorySink(), proc="driver")
        with tracer.span("a", cat="engine"):
            pass
        tracer.instant("b", cat="unit")
        summary = tracer.summary()
        assert summary["enabled"] is True
        assert summary["events"] == 2
        assert summary["spans"] == 1 and summary["instants"] == 1
        assert set(summary["seconds_by_cat"]) == {"engine"}
        assert set(summary["busy_by_proc"]) == {"driver"}


# ----------------------------------------------------------------- timeline
class TestTimeline:
    def _write_trace(self, path):
        tracer = Tracer(JsonlSink(path), proc="driver")
        with tracer.span("engine.run_jobs", cat="engine", jobs=2):
            with tracer.span("trial", cat="trial", queue_seconds=0.5):
                pass
        tracer.instant("checkpoint", cat="unit", worker="w0")

    def test_summarize_views(self, tmp_path):
        path = tmp_path / "t.jsonl"
        self._write_trace(path)
        events, skipped = load_trace(path)
        summary = summarize(events, skipped=skipped)
        assert summary["spans"] == 2 and summary["instants"] == 1
        assert summary["stages"]["trial"]["queue_seconds"] == 0.5
        assert summary["event_counts"] == {"checkpoint": 1}
        assert "driver" in summary["workers"]
        assert summary["workers"]["driver"]["spans"] == 2
        text = render_text(summary)
        assert "per-stage timing" in text
        assert "per-worker utilization" in text
        assert "checkpoint" in text

    def test_chrome_export_is_loadable_trace_event_json(self, tmp_path):
        path = tmp_path / "t.jsonl"
        self._write_trace(path)
        events, _ = load_trace(path)
        document = json.loads(render_chrome(events))
        records = document["traceEvents"]
        phases = {record["ph"] for record in records}
        assert phases == {"M", "X", "i"}
        spans = [record for record in records if record["ph"] == "X"]
        assert all(record["dur"] >= 0 and record["ts"] >= 0 for record in spans)
        names = {
            record["args"]["name"]
            for record in records
            if record["ph"] == "M"
        }
        assert names == {"driver"}

    def test_unreadable_and_empty_traces_raise(self, tmp_path):
        with pytest.raises(TraceError):
            load_trace(tmp_path / "missing.jsonl")
        garbage = tmp_path / "garbage.jsonl"
        garbage.write_text("not json\nstill not json\n")
        with pytest.raises(TraceError, match="no valid trace events"):
            load_trace(garbage)


# ---------------------------------------------------------------- trace CLI
class TestTraceCli:
    def test_exit_zero_and_formats(self, tmp_path, capsys):
        path = tmp_path / "t.jsonl"
        tracer = Tracer(JsonlSink(path))
        with tracer.span("stage", cat="unit"):
            pass
        assert kecss_main(["trace", str(path)]) == 0
        assert "per-stage timing" in capsys.readouterr().out
        assert kecss_main(["trace", str(path), "--format", "json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["spans"] == 1
        out = tmp_path / "chrome.json"
        assert kecss_main([
            "trace", str(path), "--format", "chrome", "--out", str(out),
        ]) == 0
        assert json.loads(out.read_text())["traceEvents"]

    def test_exit_one_on_bad_trace(self, tmp_path, capsys):
        garbage = tmp_path / "garbage.jsonl"
        garbage.write_text("::::\n")
        assert kecss_main(["trace", str(garbage)]) == 1
        assert "no valid trace events" in capsys.readouterr().err
        assert kecss_main(["trace", str(tmp_path / "absent.jsonl")]) == 1

    def test_exit_two_on_usage_errors(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            kecss_main(["trace", str(tmp_path / "t.jsonl"), "--format", "svg"])
        assert excinfo.value.code == 2


# ------------------------------------------------------------- queue_seconds
class TestQueueSeconds:
    def test_engine_records_and_cache_replays_it(self, tmp_path):
        jobs = _jobs([1, 2])
        engine = ExperimentEngine(workers=2, backend="processes",
                                  cache_dir=tmp_path)
        first = engine.run_jobs(_value_trial, jobs)
        assert all(result.queue_seconds >= 0.0 for result in first)
        assert all(not result.cached for result in first)
        replayed = ExperimentEngine(cache_dir=tmp_path).run_jobs(
            _value_trial, jobs
        )
        assert all(result.cached for result in replayed)
        assert [r.queue_seconds for r in replayed] == [
            r.queue_seconds for r in first
        ]

    def test_bench_payload_carries_it(self):
        job = TrialJob.make("e1", {"x": 1}, seed=5)
        result = TrialResult(
            config={"x": 1}, seed=5, metrics={"v": 1.0},
            duration=0.25, queue_seconds=0.125,
        )
        payload = trial_payload(job, result)
        assert payload["queue_seconds"] == 0.125
        assert payload["duration"] == 0.25

    def _ingest(self, tmp_path, trials):
        store = TrialStore(tmp_path / "store", create=True)
        info = store.ingest("eq", trials, created_unix=1.0,
                            provenance={"code_version": "v1"})
        return store, info

    def test_store_column_is_sparse(self, tmp_path):
        base = {"config": {"x": 1}, "seed": 1, "index": 0, "duration": 0.5,
                "cached": False, "error": None, "metrics": {"v": 1.0}}
        store, info = self._ingest(tmp_path, [
            dict(base, queue_seconds=0.25),
            dict(base, seed=2, index=1, queue_seconds=0.0),
        ])
        columns = store.columns(info)
        assert columns["queue_seconds"] == [0.25, 0.0]
        # All-zero (serial) runs and pre-field baselines keep their exact
        # historical column set.
        store2, info2 = self._ingest(tmp_path / "zero", [
            dict(base), dict(base, seed=2, index=1, queue_seconds=0.0),
        ])
        assert "queue_seconds" not in store2.columns(info2)


# ------------------------------------------------ process pool + provenance
class TestPoolTracing:
    def test_traced_process_run_is_bit_identical_and_produces_a_trace(
        self, tmp_path
    ):
        jobs = _jobs([1, 2, 3, 4])
        untraced = ExperimentEngine(backend="serial").run_jobs(_value_trial, jobs)

        trace_file = tmp_path / "pool.jsonl"
        enable_tracing(trace_file, truncate=True)
        with ExperimentEngine(workers=2, backend="processes") as engine:
            traced = engine.run_jobs(_value_trial, jobs)

        def key(results):
            return [(r.config, r.seed, r.metrics, r.error) for r in results]

        assert key(traced) == key(untraced)

        events, _ = load_trace(trace_file)
        summary = summarize(events)
        assert summary["stages"]["engine.run_jobs"]["count"] == 1
        # Pool workers inherit $REPRO_TRACE and append their own trial spans.
        trial_spans = [
            e for e in events if e["ev"] == "span" and e["name"] == "trial"
        ]
        assert len(trial_spans) == len(jobs)
        assert {e["pid"] for e in trial_spans} - {os.getpid()}

    def test_engine_provenance_gains_a_trace_block_when_enabled(self, tmp_path):
        engine = ExperimentEngine()
        assert "trace" not in engine_provenance(engine)
        tracer = enable_tracing(tmp_path / "p.jsonl")
        tracer.instant("x", cat="unit")
        provenance = engine_provenance(engine)
        assert provenance["trace"]["enabled"] is True
        assert provenance["trace"]["events"] == 1
        assert provenance["trace"]["file"] == str(tmp_path / "p.jsonl")

    def test_cli_trace_flag_end_to_end(self, tmp_path, capsys):
        trace_file = tmp_path / "run.jsonl"
        trace_file.write_text("stale\n")  # --trace must truncate
        assert kecss_main([
            "experiment", "e1", "--trace", str(trace_file),
        ]) == 0
        capsys.readouterr()
        events, skipped = load_trace(trace_file)
        assert skipped == 0
        names = {event["name"] for event in events}
        assert "engine.run_jobs" in names and "trial" in names
        assert kecss_main(["trace", str(trace_file), "--format", "json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["stages"]["trial"]["count"] >= 1
