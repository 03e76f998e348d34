"""Benchmark entry point: one workload per invocation, in its own process.

Usage (from the repository root)::

    python3 perfbench/run.py --workload two-ecss-n2048 --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload k-ecss-cover --seed 1 --seconds 25 --trace 1
    python3 perfbench/run.py --workload harness-batch --seed 1 --seconds 2 --trace 1 --smoke
    python3 perfbench/run.py --list --seed 1        # instance tables

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run (and writes its spans as a ``repro.obs``
JSONL trace under ``.perfbench_out/`` that ``kecss trace`` renders).
``--smoke`` shrinks every instance so all metric names and layer wrappers
are exercised in seconds.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are a human-readable report.

``setup_s`` is the median over fresh workload processes of the time from
spawning the interpreter to the end of set-up: the measuring one and set-up-only
ones spawned first until ``SETUP_BUDGET_S`` is spent (at least four).
The median is rescaled to the reference host speed by the median calibration
burst of the measuring process (``calibrate.py``), which runs dozens of bursts
in the following seconds; bursts run between spawns read up to 2x apart.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from calibrate import REF_KERNEL_S  # noqa: E402
from catalogue import END_TO_END, per_layer  # noqa: E402
from workloads import WORKLOADS, instance_seeds  # noqa: E402

#: Set-up-only processes are spawned until this much wall time is spent
#: (at least MIN_SETUP_SPAWNS of them): a 0.5 s set-up gets more samples
#: than a 1.7 s one, and its median is as steady.
SETUP_BUDGET_S = 6.0
MIN_SETUP_SPAWNS = 4
#: Hard ceiling on one invocation; the workload process is killed after it.
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    pass


def repo_root() -> Path:
    root = HERE.parent
    if not (root / "src" / "repro" / "__init__.py").is_file():
        raise BenchError(f"no repro sources under {root / 'src'}; run from a repository checkout")
    return root


def spawn(args, root: Path, setup_only: bool, deadline: float) -> dict:
    """Run one workload process; returns its parsed protocol lines."""
    command = [
        sys.executable, str(HERE / "child.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--root", str(root),
    ]
    if args.smoke:
        command.append("--smoke")
    if setup_only:
        command.append("--setup-only")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env.pop("REPRO_TRACE", None)
    spawned = time.time()
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True, env=env, cwd=root)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"workload process exceeded the {DEADLINE_S:.0f} s budget") from None
    if proc.returncode != 0:
        raise BenchError(f"workload process exited with code {proc.returncode}")
    lines = [json.loads(line) for line in out.splitlines() if line.startswith("{")]
    protocol = {key: value for line in lines for key, value in line.items()}
    if "ready_unix" not in protocol or (not setup_only and "result" not in protocol):
        raise BenchError("workload process ended without reporting")
    protocol["setup_wall_s"] = protocol["ready_unix"] - spawned
    return protocol


def report(args, result: dict, metrics: dict, units: dict) -> None:
    print(f"workload {args.workload}  seed {args.seed}  passes {result['passes']}"
          f"  trace {args.trace}{'  (smoke)' if args.smoke else ''}")
    for row in result["instances"]:
        print("  instance " + "  ".join(f"{k}={v}" for k, v in row.items()))
    attempted, failed = result["attempted"], result["failed"]
    print(f"  output digest {result['digest']}")
    print(f"  fail_rate {failed / attempted:.4f} ({failed}/{attempted})")
    print(f"  calibration kernel median {result['kernel_s'] * 1e3:.3f} ms"
          f" (reference {REF_KERNEL_S * 1e3:.3f} ms)")
    for name, value in metrics.items():
        print(f"  {name:<40s} {value:>16.6f} {units[name]}")
    if "trace_file" in result:
        print(f"  trace file {result['trace_file']}  (kecss trace FILE)")


def list_instances(seed: int) -> None:
    """Print every workload's instance table (builds the graphs to count m)."""
    sys.path.insert(0, str(repo_root() / "src"))
    from repro.graphs.generators import make_family

    for workload in WORKLOADS.values():
        print(f"{workload.name}: {workload.why}")
        for index, slot in enumerate(workload.slots):
            for replica in range(slot.replicas):
                graph_seed, solver_seed = instance_seeds(workload.name, seed, index, replica)
                m = make_family(slot.family)(slot.n, graph_seed).number_of_edges()
                print(f"  {slot.family:<16s} n={slot.n:<5d} m={m:<6d} k={slot.k} "
                      f"unit_weights={slot.unit_weights} graph_seed={graph_seed} "
                      f"solver_seed={solver_seed}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="k-ECSS benchmark (see perfbench/README.md)")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny instances, every metric")
    parser.add_argument("--list", action="store_true", help="print the instance tables")
    args = parser.parse_args(argv)
    if args.workload is None and not args.list:
        parser.error("--workload is required")
    deadline = time.monotonic() + DEADLINE_S
    try:
        if args.list:
            list_instances(args.seed)
            return 0
        root = repo_root()
        setups = []
        budget_end = time.monotonic() + SETUP_BUDGET_S
        while not args.trace and (
            len(setups) < MIN_SETUP_SPAWNS or time.monotonic() < budget_end
        ):
            setups.append(spawn(args, root, True, deadline))
        protocol = spawn(args, root, False, deadline)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    setups.append(protocol)
    result = protocol["result"]
    if args.trace:
        catalogue = per_layer()
        metrics = {name: result["layers"][name] for name in catalogue}
        units = {name: unit for name, (unit, _) in catalogue.items()}
    else:
        setup_wall_s = statistics.median(p["setup_wall_s"] for p in setups)
        metrics = {"setup_s": setup_wall_s * REF_KERNEL_S / result["kernel_s"]}
        metrics.update(result["e2e"])
        metrics = {name: metrics[name] for name in END_TO_END}
        units = {name: unit for name, (unit, _, _) in END_TO_END.items()}
    report(args, result, metrics, units)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
