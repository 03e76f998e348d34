"""The ``harness-batch`` workload: many small trials through engine, cache and store.

Set-up imports ``repro.cli`` and enters one ``ExperimentEngine`` on the
``processes`` backend with two workers, then warms the pool with a tiny
uncached batch so worker start-up is paid in set-up.  Each *round* then

1. points the engine at a fresh cache directory and runs the cold batch
   (every trial executes and writes a cache entry),
2. runs the identical batch again (every trial replays from the cache),
3. ingests the cold results into a fresh ``TrialStore``,
4. checks the outputs: no trial failed, the replay equals the cold run, the
   store reads back what was ingested, and the first trial of every
   configuration, run again serially in this process, gives the same metrics
   as the pool did.

Rounds repeat until ``--seconds`` is used up; times are host-normalised
(``calibrate.py``) and come from the median round, per experiment for the
cold batch.
"""

from __future__ import annotations

import hashlib
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

from workloads import derive

#: The committed benchmark configurations (n <= 144) of the experiments the
#: batch mixes; every configuration runs TRIALS_PER_CONFIG seeds.
CONFIGS: dict[str, list[dict]] = {
    "e2": [{"family": f, "n": n} for f in ("weighted-sparse", "clique-chain") for n in (16, 32, 64)],
    "e3": [{"n": n} for n in (16, 32, 64)],
    "e5": [{"n": n} for n in (16, 24, 36)],
    "e6": [{"n": n} for n in (64, 144)],
    "e9": [{"n": n} for n in (24, 40)],
}
TRIALS_PER_CONFIG = 11
WORKERS = 2


def build_jobs(seed: int, smoke: bool):
    from repro.analysis.engine import TrialJob

    trials = 1 if smoke else TRIALS_PER_CONFIG
    return {
        experiment: [
            TrialJob.make(
                experiment, config,
                derive(seed, "harness", experiment, sorted(config.items()), t), t,
            )
            for config in configs
            for t in range(trials)
        ]
        for experiment, configs in CONFIGS.items()
    }


def import_seconds(root: Path, samples: int = 3) -> float:
    """Fastest wall time of ``import repro.cli`` in a fresh interpreter."""
    code = (
        "import time; t = time.perf_counter(); import repro.cli; "
        "print(time.perf_counter() - t)"
    )
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    times = []
    for _ in range(samples):
        out = subprocess.run(
            [sys.executable, "-c", code], check=True, capture_output=True, text=True,
            env=env, timeout=60,
        )
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return min(times)


class TimedMap:
    """Wraps a backend instance's ``map`` to time the dispatch it does."""

    def __init__(self, backend) -> None:
        self.seconds = 0.0
        self._map = backend.map
        backend.map = self

    def __call__(self, function, items):
        started = time.perf_counter()
        try:
            return self._map(function, items)
        finally:
            self.seconds += time.perf_counter() - started


def run_round(engine, jobs, workdir: Path, clock, recorder=None) -> dict:
    """One round; times are rescaled by *clock*, with a calibration burst
    after the cold batch and one after the checks."""
    from repro.store.store import TrialStore

    def span(name, **args):
        return recorder.span(name, cat=name.split(".")[0], **args) if recorder else nullcontext()

    engine.cache_dir = workdir / "cache"
    dispatch = engine.backend.map
    dispatch.seconds = 0.0
    stats_before = dict(engine.stats)

    cold, cold_parts = {}, []
    with span("analysis.cold_batch"):
        for exp, batch in jobs.items():
            started = time.perf_counter()
            cold[exp] = engine.run_jobs(exp, batch)
            cold_parts.append(time.perf_counter() - started)
    cold_wall_s = sum(cold_parts)
    map_s = dispatch.seconds
    cold_parts = clock.normalize(*cold_parts)

    started = time.perf_counter()
    with span("analysis.replay_batch"):
        replay = {exp: engine.run_jobs(exp, batch) for exp, batch in jobs.items()}
    replay_s = time.perf_counter() - started

    started = time.perf_counter()
    store = TrialStore(workdir / "store")
    infos = []
    with span("store.ingest"):
        for exp, batch in jobs.items():
            records = [
                {
                    "config": job.config_dict, "seed": job.seed, "index": job.index,
                    "duration": result.duration, "queue_seconds": result.queue_seconds,
                    "cached": result.cached, "error": result.error, "metrics": result.metrics,
                }
                for job, result in zip(batch, cold[exp])
            ]
            infos.append(store.ingest(
                exp, records, created_unix=time.time(),
                provenance={"code_version": "perfbench", "engine": {"backend": "processes"}},
            ))
    ingest_s = time.perf_counter() - started
    ingest_bytes = sum(
        path.stat().st_size for info in infos for path in info.path.iterdir() if path.is_file()
    )

    from repro.analysis.engine import resolve_trial

    started = time.perf_counter()
    with span("bench.verify"):
        failures = 0
        for (exp, batch), info in zip(jobs.items(), infos):
            stored = store.columns(info.run_id)
            for position, (job, first, again) in enumerate(zip(batch, cold[exp], replay[exp])):
                bad = (
                    first.error is not None
                    or not again.cached
                    or again.metrics != first.metrics
                    or stored["seed"][position] != job.seed
                    or any(stored[f"metrics.{key}"][position] != value
                           for key, value in first.metrics.items())
                    or (job.index == 0
                        and resolve_trial(exp)(job.config_dict, job.seed) != first.metrics)
                )
                failures += bad
            failures += len(batch) - min(len(cold[exp]), len(replay[exp]))
    check_s = time.perf_counter() - started
    replay_wall_s = replay_s
    replay_s, check_s = clock.normalize(replay_s, check_s)

    results = [r for exp in jobs for r in cold[exp]]
    digest = hashlib.sha256(repr([
        (exp, r.seed, sorted(r.metrics.items())) for exp in jobs for r in cold[exp]
    ]).encode()).hexdigest()[:16]
    hits = engine.stats["hits"] - stats_before["hits"]
    misses = engine.stats["misses"] - stats_before["misses"]
    return {
        "cold_wall_s": cold_wall_s, "cold_parts": cold_parts,
        "replay_s": replay_s, "replay_wall_s": replay_wall_s,
        "ingest_s": ingest_s, "check_s": check_s,
        "map_s": map_s, "ingest_bytes": ingest_bytes, "failures": failures, "digest": digest,
        "trials": sum(len(batch) for batch in jobs.values()),
        "busy_s": sum(r.duration for r in results),
        "queue_s": sum(r.queue_seconds for r in results),
        "hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "rounds": sum(r.metrics.get("rounds", 0) for exp in ("e2", "e5") for r in cold[exp]),
        # Unit-weight n-vertex 3-ECSS: k_ecss_lower_bound(graph, 3) == ceil(3n/2).
        "size_ratios": [
            r.metrics["size"] / math.ceil(3 * r.config["n"] / 2) for r in cold["e5"]
        ],
    }


def run_harness_workload(args, workload, emit) -> None:
    import repro.cli  # noqa: F401 -- the CLI import is part of set-up
    from repro.analysis.backends import resolve_backend
    from repro.analysis.engine import ExperimentEngine

    jobs = build_jobs(args.seed, args.smoke)
    backend = resolve_backend("processes", WORKERS)
    TimedMap(backend)
    engine = ExperimentEngine(workers=WORKERS, backend=backend, cache_dir=None)
    pool_started = time.perf_counter()
    engine.__enter__()
    workdir = args.root / ".perfbench_out" / f"harness-{args.seed}-{time.time_ns()}"
    try:
        warm = build_jobs(args.seed + 1, smoke=True)["e3"]
        engine.run_jobs("e3", warm)
        pool_start_s = time.perf_counter() - pool_started
        emit({"ready_unix": time.time()})
        if args.setup_only:
            return
        result = measure(args, workload, engine, jobs, workdir, pool_start_s)
    finally:
        engine.__exit__(None, None, None)
        shutil.rmtree(workdir, ignore_errors=True)
    emit({"result": result})


def measure(args, workload, engine, jobs, workdir: Path, pool_start_s: float) -> dict:
    from calibrate import HostClock
    from child import geomean, median_total, pass_plan, peak_rss_mb

    recorder = None
    if args.trace:
        from layers import SpanRecorder

        recorder = SpanRecorder(proc=f"perfbench:{workload.name}")
    clock = HostClock()
    plain, traced = [], []
    for index in pass_plan(args.seconds, minimum=4 if args.trace else 3):
        round_dir = workdir / f"round-{index}"
        if args.trace and index % 2 == 1:
            with recorder.span("bench.pass", workload=workload.name, index=index):
                traced.append(run_round(engine, jobs, round_dir, clock, recorder))
        else:
            plain.append(run_round(engine, jobs, round_dir, clock))

    rounds_ = plain + traced
    first = plain[0]
    # Each experiment's median cold batch, summed, as the solver workloads
    # sum each instance's median solve.
    cold_s = median_total(plain, "cold_parts")
    result = {
        "attempted": sum(r["trials"] for r in rounds_),
        "failed": sum(r["failures"] for r in rounds_)
        + sum(r["digest"] != first["digest"] for r in rounds_),
        "passes": len(rounds_),
        "kernel_s": clock.median_kernel_s(),
        "digest": first["digest"],
        "instances": [
            {"experiment": exp, "configs": len(CONFIGS[exp]), "trials": len(batch)}
            for exp, batch in jobs.items()
        ],
        "e2e": {
            "solve_s": cold_s,
            "verify_s": statistics.median(r["replay_s"] + r["check_s"] for r in plain),
            "rounds": first["rounds"],
            "weight_ratio": geomean(first["size_ratios"]),
            "peak_rss_mb": peak_rss_mb(),
            "trials_per_s": first["trials"] / cold_s,
        },
    }
    if args.trace:
        from catalogue import per_layer

        def median(key):
            return statistics.median(r[key] for r in traced)

        # Layer times are wall seconds, from the traced round with the median
        # cold batch (the upper median) or the median over traced rounds.
        typical = sorted(traced, key=lambda r: r["cold_wall_s"])[len(traced) // 2]
        layers = {name: 0.0 for name in per_layer()}
        layers.update({
            "import.repro_cli_s": import_seconds(args.root),
            "analysis.pool_start_s": pool_start_s,
            "analysis.run_jobs_s": typical["cold_wall_s"],
            "analysis.backend.utilization": typical["busy_s"] / (typical["cold_wall_s"] * WORKERS),
            "analysis.queue_s": typical["queue_s"],
            "analysis.cache.write_s": typical["cold_wall_s"] - typical["map_s"],
            "analysis.cache.replay_s": median("replay_wall_s"),
            "analysis.cache.hit_ratio": typical["hit_ratio"],
            "store.ingest.s": median("ingest_s"),
            "store.ingest.bytes": typical["ingest_bytes"],
            "trace.overhead_s": median_total(traced, "cold_parts") - cold_s,
            "host.kernel_s": clock.median_kernel_s(),
            "host.solve_wall_s": statistics.median(r["cold_wall_s"] for r in plain),
        })
        result["layers"] = layers
        result["trace_file"] = str(recorder.write_jsonl(
            args.root / ".perfbench_out" / f"{workload.name}-seed{args.seed}.trace.jsonl"
        ))
    return result
