"""One workload in one process: set up, signal ready, measure, report.

Started by ``run.py``; not meant to be run by hand.  Protocol on stdout: one
JSON line ``{"ready_unix": ...}`` once set-up is done (imports, instance
generation, a tiny warm-up solve that pays every lazy import), then -- unless
``--setup-only`` -- one JSON line ``{"result": {...}}``.  Everything else
goes to stderr.

Measurement repeats *passes* over the workload's instances until
``--seconds`` is used up (at least three passes; four with ``--trace 1``,
which alternates untraced and traced passes so the tracing overhead is
measured in the same process).  A calibration burst follows every instance
and rescales its times to a reference host speed (``calibrate.py``).  A time
is each instance's median untraced pass, summed over instances (see
``median_total``); counts come from the first pass and every later pass must
reproduce its outputs exactly.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import resource
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

from calibrate import HostClock
from workloads import WORKLOADS, Slot, Workload, instance_seeds

SOLVER_MODULES = {
    "two_ecss": "repro.core.two_ecss",
    "three_ecss": "repro.core.three_ecss",
    "k_ecss": "repro.core.k_ecss",
}


def emit(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def geomean(values: list[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values)) if values else 0.0


def pass_plan(seconds: float, minimum: int):
    """Yield pass indices until *seconds* would be overrun by one more pass."""
    started = time.perf_counter()
    index = 0
    while True:
        yield index
        index += 1
        elapsed = time.perf_counter() - started
        if index >= minimum and elapsed + elapsed / index > seconds:
            return


def solve(solver: str, slot: Slot, graph, seed: int):
    # Looked up in the solver's module on every call, so traced passes get
    # the wrapped binding.
    function = vars(importlib.import_module(SOLVER_MODULES[solver]))[solver]
    if solver == "k_ecss":
        return function(graph, slot.k, seed=seed)
    return function(graph, seed=seed)


def build_instances(workload: Workload, seed: int, smoke: bool) -> list[dict]:
    from repro.graphs.generators import assign_unit_weights, make_family

    instances = []
    for index, slot in enumerate(workload.slots):
        for replica in range(slot.replicas):
            graph_seed, solver_seed = instance_seeds(workload.name, seed, index, replica)
            graph = make_family(slot.family)(slot.size(smoke), graph_seed)
            if slot.unit_weights:
                assign_unit_weights(graph)
            instances.append({
                "slot": slot, "graph": graph, "graph_seed": graph_seed,
                "solver_seed": solver_seed,
            })
    return instances


def warm_up(workload: Workload) -> None:
    """Pay lazy imports (scipy csgraph, the BFS simulator) before timing."""
    from repro.graphs.generators import make_family

    slot = workload.slots[0]
    tiny = make_family(slot.family)(slot.smoke_n, 0)
    if slot.unit_weights:
        from repro.graphs.generators import assign_unit_weights
        assign_unit_weights(tiny)
    solve(workload.solver, slot, tiny, 0).verify()


def instance_record(solver: str, result) -> dict:
    edges = sorted(result.edges, key=repr)
    digest = hashlib.sha256(
        repr((edges, result.rounds, result.iterations)).encode()
    ).hexdigest()
    ledger = result.ledger
    record = {
        "digest": digest,
        "weight": result.weight,
        "rounds": result.rounds,
        "iterations": result.iterations,
        "simulated": ledger.simulated_rounds,
        "modelled": ledger.modelled_rounds,
        "messages": ledger.total_messages,
        "tap_iterations": result.metadata.get("tap_iterations", 0) if solver == "two_ecss" else 0,
        "activated": 0,
        "candidates": 0,
    }
    if solver == "three_ecss":
        history = result.metadata["iterations_history"]
        record["activated"] = sum(step.added for step in history)
        record["candidates"] = sum(step.candidates for step in history)
    return record


def run_pass(workload: Workload, instances: list[dict], clock, recorder=None) -> dict:
    """Solve and verify every instance once; returns times and records.

    A calibration burst follows each instance; ``solve`` and ``verify`` are
    the times rescaled by *clock*, ``solve_wall`` the measured wall times.
    """
    solve_times, verify_times, wall_times, records, failures = [], [], [], [], 0
    for inst in instances:
        slot = inst["slot"]
        span = recorder.span("bench.solve", instance=slot.label) if recorder else nullcontext()
        # Every solve starts from the same collector state, whatever the
        # previous one left behind.
        gc.collect()
        started = time.perf_counter()
        try:
            with span:
                result = solve(workload.solver, slot, inst["graph"], inst["solver_seed"])
        except Exception:  # noqa: BLE001 -- a failed solve is counted, not fatal
            traceback.print_exc(file=sys.stderr)
            result = None
        solve_s = time.perf_counter() - started
        started = time.perf_counter()
        if result is None:
            ok = False
        else:
            span = recorder.span("bench.verify", instance=slot.label) if recorder else nullcontext()
            with span:
                ok, reason = result.verify()
            if not ok:
                print(f"verify failed on {slot.label}: {reason}", file=sys.stderr)
        verify_s = time.perf_counter() - started
        wall_times.append(solve_s)
        solve_s, verify_s = clock.normalize(solve_s, verify_s)
        solve_times.append(solve_s)
        verify_times.append(verify_s)
        failures += not ok
        records.append(instance_record(workload.solver, result) if result is not None else None)
    return {
        "solve": solve_times, "verify": verify_times, "solve_wall": wall_times,
        "records": records, "failures": failures,
    }


def median_total(passes: list[dict], key: str) -> float:
    """Sum over instances of each instance's median time across *passes*.

    The times are host-normalised (see ``calibrate.py``).  The median, not the
    minimum: the fastest of a few normalised samples is the one whose
    neighbouring calibration bursts happened to run slow.
    """
    return sum(statistics.median(times) for times in zip(*(p[key] for p in passes)))


def lower_bounds(instances: list[dict]) -> list[int]:
    from repro.baselines.mst_baseline import k_ecss_lower_bound

    return [k_ecss_lower_bound(inst["graph"], inst["slot"].k) for inst in instances]


def layer_metrics(
    instances, plain: list[dict], traced: list[dict], recorder, wrappers, clock
) -> dict:
    from catalogue import per_layer
    from layers import SELF_TIMED, SOLVER_LAYERS, layer_totals

    metrics = {name: 0.0 for name in per_layer()}
    # Each layer time is its fastest per-pass total over the traced passes.
    for p in traced:
        for name, totals in layer_totals(recorder.events[slice(*p["events"])]).items():
            if name.startswith("bench."):
                continue
            if name in SOLVER_LAYERS:
                keys = {f"{name}.self_s": totals["self_s"]}
            else:
                seconds = totals["self_s"] if name in SELF_TIMED else totals["s"]
                keys = {f"{name}.s": seconds, f"{name}.calls": totals["calls"]}
            for key, value in keys.items():
                metrics[key] = value if p is traced[0] else min(metrics[key], value)
    for inst_index, inst in enumerate(instances):
        label = inst["slot"].label
        metrics[f"core.solve_s.{label}"] += statistics.median(
            p["solve"][inst_index] for p in plain
        )
    records = [r for r in traced[0]["records"] if r is not None]
    metrics["congest.rounds.simulated"] = sum(r["simulated"] for r in records)
    metrics["congest.rounds.modelled"] = sum(r["modelled"] for r in records)
    metrics["congest.messages"] = sum(r["messages"] for r in records)
    metrics["tap.iterations"] = sum(r["tap_iterations"] for r in records)
    metrics["core.iterations"] = sum(r["iterations"] for r in records)
    candidates = sum(r["candidates"] for r in records)
    metrics["core.three_ecss.activation_ratio"] = (
        sum(r["activated"] for r in records) / candidates if candidates else 0.0
    )
    active = added = 0
    for level in wrappers.probed["core.k_ecss.augment"]:
        for step in level.metadata.get("history", ()):
            active += step.active
            added += step.added
    metrics["core.k_ecss.filter_keep_ratio"] = added / active if active else 0.0
    metrics["trace.overhead_s"] = median_total(traced, "solve") - median_total(plain, "solve")
    metrics["host.kernel_s"] = clock.median_kernel_s()
    metrics["host.solve_wall_s"] = median_total(plain, "solve_wall")
    return metrics


def run_solver_workload(args, workload: Workload, root: Path) -> None:
    import repro.core  # noqa: F401 -- the library import is part of set-up

    instances = build_instances(workload, args.seed, args.smoke)
    warm_up(workload)
    emit({"ready_unix": time.time()})
    if args.setup_only:
        return

    bounds = lower_bounds(instances)
    recorder = wrappers = None
    if args.trace:
        from layers import LayerWrappers, SpanRecorder, check_expected

        recorder = SpanRecorder(proc=f"perfbench:{workload.name}")
        wrappers = LayerWrappers(recorder)

    clock = HostClock()
    plain, traced = [], []
    for index in pass_plan(args.seconds, minimum=4 if args.trace else 3):
        if args.trace and index % 2 == 1:
            with wrappers, recorder.span("bench.pass", workload=workload.name, index=index):
                start = len(recorder.events)
                traced.append(run_pass(workload, instances, clock, recorder))
                traced[-1]["events"] = (start, len(recorder.events))
        else:
            plain.append(run_pass(workload, instances, clock))

    passes = plain + traced
    first = passes[0]["records"]
    attempted = len(instances) * len(passes)
    failed = sum(p["failures"] for p in passes)
    for p in passes[1:]:
        # A solve that verifies but differs from the first pass is a failure too.
        failed += sum(
            1 for a, b in zip(first, p["records"])
            if a is not None and b is not None and a["digest"] != b["digest"]
        )
    records = [r for r in first if r is not None]
    solve_s = median_total(plain, "solve")
    result = {
        "attempted": attempted,
        "failed": failed,
        "passes": len(passes),
        "kernel_s": clock.median_kernel_s(),
        "digest": hashlib.sha256(
            "".join(r["digest"] if r else "-" for r in first).encode()
        ).hexdigest()[:16],
        "instances": [
            {
                "label": inst["slot"].label, "family": inst["slot"].family,
                "n": inst["graph"].number_of_nodes(), "m": inst["graph"].number_of_edges(),
                "k": inst["slot"].k, "graph_seed": inst["graph_seed"],
                "solver_seed": inst["solver_seed"], "lower_bound": bound,
                "weight": rec["weight"] if rec else None,
                "rounds": rec["rounds"] if rec else None,
                "iterations": rec["iterations"] if rec else None,
                "solve_s": statistics.median(p["solve"][i] for p in plain),
            }
            for i, (inst, bound, rec) in enumerate(zip(instances, bounds, first))
        ],
        "e2e": {
            "solve_s": solve_s,
            "verify_s": median_total(plain, "verify"),
            "rounds": sum(r["rounds"] for r in records),
            "weight_ratio": geomean([
                rec["weight"] / bound for rec, bound in zip(first, bounds) if rec is not None
            ]),
            "peak_rss_mb": peak_rss_mb(),
            "trials_per_s": len(instances) / solve_s,
        },
    }
    if args.trace:
        check_expected(workload.solver, wrappers.calls)
        result["layers"] = layer_metrics(instances, plain, traced, recorder, wrappers, clock)
        result["trace_file"] = str(recorder.write_jsonl(
            root / ".perfbench_out" / f"{workload.name}-seed{args.seed}.trace.jsonl"
        ))
    emit({"result": result})


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--root", type=Path, required=True)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    if workload.solver == "harness":
        from harness import run_harness_workload

        run_harness_workload(args, workload, emit)
    else:
        run_solver_workload(args, workload, args.root)
    return 0


if __name__ == "__main__":
    sys.exit(main())
