"""Command line interface: ``kecss solve | verify | experiment | bench | cache |
families | lint | trace``.

Examples::

    kecss solve --family weighted-sparse --n 32 --k 2 --seed 1
    kecss experiment e3
    kecss experiment e1 --workers 2 --trace trace.jsonl
    kecss trace trace.jsonl                          # timing/utilization report
    kecss trace trace.jsonl --format chrome --out trace.chrome.json
    kecss experiment e1 --workers 4 --cache-dir .repro-cache
    kecss bench e2 --out BENCH_e2.json
    kecss bench all --out-dir baselines --workers 4
    kecss bench e6 --against BENCH_e6.json           # the drift gate
    kecss cache stats --cache-dir .repro-cache
    kecss cache gc --cache-dir .repro-cache
    kecss families
    kecss lint                                       # determinism checks
    kecss lint --root ../other-checkout --format json  # what the CI gate parses

The ``experiment`` subcommand runs through the parallel cached
:class:`~repro.analysis.engine.ExperimentEngine`: ``--workers N`` fans trials
out over a pool of N worker processes (``--workers 1``, the default, runs
serially in-process; aggregates are bit-identical either way),
and ``--cache-dir`` persists per-trial results so re-runs and partially
failed sweeps resume from disk (without it nothing is cached).

The ``bench`` subcommand runs the same experiment entrypoints through the
engine and persists machine-readable ``BENCH_<experiment>.json`` baselines
(per-trial durations, metrics, aggregate tables, engine provenance) so
future changes can be diffed against a recorded perf trajectory instead of
claimed speedups: ``--dry-run`` prints the JSON without writing.  ``--against
PATH`` is the drift gate: it re-runs the experiment and exits 1 when the
table, the set of ``(config, seed, index)`` trial keys or any trial's
``metrics`` differ from the stored baseline, and 2 when the file is
unreadable, fails the baseline schema or records another experiment.  A
baseline always comes from running the code: ``bench`` reads no cache.

The ``cache`` subcommand manages that on-disk trial cache: ``stats`` prints
per-experiment entry/stale/byte counts, ``gc`` evicts stale entries -- those
written under another code version, the content hash of the whole ``repro``
package, so any source edit makes every older entry stale -- and ``clear``
removes every entry.

The ``lint`` subcommand runs the :mod:`repro.lint` static analyzer over the
package sources: the DET001-DET004 determinism rules.  Exit codes: 0
clean, 1 findings, 2 usage error.  See ``docs/lint.md``.

Observability (see ``docs/observability.md``): ``--trace FILE`` on
``experiment``/``bench`` records a JSONL structured trace of the run (engine
batches, per-trial queue-wait vs compute) without perturbing any result --
tracing observes, never participates.
``kecss trace FILE`` renders the recorded trace as a per-stage timing
breakdown and per-worker utilization table (``--format json`` for machines,
``--format chrome`` for Perfetto / ``chrome://tracing``).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Sequence

from repro.analysis import experiments as experiment_module
from repro.analysis.engine import (
    ExperimentEngine,
    cache_clear,
    cache_gc,
    cache_stats,
)
from repro.analysis.tables import Table
from repro.core.k_ecss import k_ecss
from repro.core.three_ecss import three_ecss
from repro.core.two_ecss import two_ecss
from repro.graphs.generators import FAMILIES, make_family

__all__ = ["main", "build_parser"]

_EXPERIMENTS = experiment_module.EXPERIMENTS


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="kecss",
        description="Distributed approximation of minimum k-ECSS (Dory, PODC 2018) - reproduction",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    solve = subparsers.add_parser("solve", help="run a solver on a generated instance")
    solve.add_argument("--family", default="weighted-sparse", choices=sorted(FAMILIES))
    solve.add_argument("--n", type=int, default=32, help="approximate number of vertices")
    solve.add_argument("--k", type=int, default=2, help="target edge connectivity")
    solve.add_argument("--seed", type=int, default=0)
    solve.add_argument(
        "--algorithm",
        choices=["auto", "2ecss", "kecss", "3ecss"],
        default="auto",
        help="auto picks 2ecss for k=2, 3ecss for unweighted k=3, kecss otherwise",
    )
    solve.add_argument("--json", action="store_true", help="print machine-readable output")

    verify = subparsers.add_parser("verify", help="verify an edge list against an instance")
    verify.add_argument("--family", default="weighted-sparse", choices=sorted(FAMILIES))
    verify.add_argument("--n", type=int, default=32)
    verify.add_argument("--k", type=int, default=2)
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument(
        "edges", help="JSON list of [u, v] pairs, or '-' to read it from stdin"
    )

    experiment = subparsers.add_parser("experiment", help="run one of the E1..E10 experiments")
    experiment.add_argument("experiment_id", nargs="?", default="all", metavar="id",
                            choices=["all", *sorted(_EXPERIMENTS)],
                            help="experiment id (defaults to 'all')")
    experiment.add_argument("--markdown", action="store_true", help="emit Markdown tables")
    experiment.add_argument("--workers", type=int, default=1,
                            help="worker processes for trial fan-out (default: 1, serial)")
    experiment.add_argument("--cache-dir", default=None,
                            help="directory for the on-disk trial cache (default: caching off)")
    experiment.add_argument("--trace", default=None, metavar="FILE",
                            help="record a JSONL structured trace of the run "
                                 "(summarize with 'kecss trace FILE'); results "
                                 "stay bit-identical")

    bench = subparsers.add_parser(
        "bench", help="run benchmark entrypoints and persist BENCH_*.json baselines"
    )
    bench.add_argument("experiment_id", metavar="id",
                       choices=["all", *sorted(_EXPERIMENTS)],
                       help="experiment id, or 'all' for every experiment")
    bench.add_argument("--out", default=None,
                       help="output path (default: BENCH_<id>.json; single id only)")
    bench.add_argument("--out-dir", default=".",
                       help="directory for the BENCH_<id>.json files (default: cwd)")
    bench.add_argument("--dry-run", action="store_true",
                       help="print the baseline JSON to stdout without writing files")
    bench.add_argument("--against", default=None, metavar="PATH",
                       help="compare the fresh table and per-trial metrics against "
                            "a stored baseline and exit 1 on drift (single id only)")
    bench.add_argument("--workers", type=int, default=1,
                       help="worker processes for trial fan-out (default: 1, serial)")
    bench.add_argument("--trace", default=None, metavar="FILE",
                       help="record a JSONL structured trace of the run "
                            "(summarize with 'kecss trace FILE'); results "
                            "stay bit-identical")

    cache = subparsers.add_parser(
        "cache", help="inspect or clean the on-disk trial cache"
    )
    cache.add_argument("action", choices=["stats", "gc", "clear"],
                       help="stats: per-experiment counts; gc: evict entries "
                            "written by other code; clear: remove everything")
    cache.add_argument("--cache-dir", required=True,
                       help="the trial-cache directory to operate on")

    subparsers.add_parser("families", help="list the registered graph families")

    trace = subparsers.add_parser(
        "trace",
        help="summarize a JSONL trace recorded with --trace: per-stage "
             "timing, per-worker utilization, event log",
    )
    trace.add_argument("path", metavar="FILE",
                       help="the trace file a --trace run wrote")
    trace.add_argument("--format", dest="output_format", default="text",
                       choices=["text", "json", "chrome"],
                       help="text: timing/utilization tables; json: the full "
                            "summary (what the CI gate parses); chrome: "
                            "Chrome trace-event JSON for Perfetto / "
                            "chrome://tracing")
    trace.add_argument("--out", default=None, metavar="PATH",
                       help="write the rendering to PATH instead of stdout")

    lint = subparsers.add_parser(
        "lint",
        help="run the determinism static analyzer",
    )
    lint.add_argument("--root", default=None, metavar="PATH",
                      help="repository root holding src/repro (default: the "
                           "checkout this package was imported from)")
    lint.add_argument("--format", dest="output_format", default="text",
                      choices=["text", "json"],
                      help="report format (json is what the CI gate parses)")
    return parser


def _solve(args: argparse.Namespace) -> int:
    family = make_family(args.family)
    graph = family(args.n, seed=args.seed)
    algorithm = args.algorithm
    if algorithm == "auto":
        if args.k == 2:
            algorithm = "2ecss"
        elif args.k == 3 and not family.weighted:
            algorithm = "3ecss"
        else:
            algorithm = "kecss"
    if algorithm == "2ecss":
        result = two_ecss(graph, seed=args.seed)
    elif algorithm == "3ecss":
        result = three_ecss(graph, seed=args.seed)
    else:
        result = k_ecss(graph, args.k, seed=args.seed)
    ok, reason = result.verify()
    if args.json:
        print(json.dumps({
            "algorithm": result.algorithm,
            "n": graph.number_of_nodes(),
            "m": graph.number_of_edges(),
            "k": result.k,
            "weight": result.weight,
            "edges": sorted([list(edge) for edge in result.edges]),
            "rounds": result.rounds,
            "iterations": result.iterations,
            "valid": ok,
        }))
    else:
        print(f"algorithm     : {result.algorithm}")
        print(f"instance      : {args.family}, n={graph.number_of_nodes()}, "
              f"m={graph.number_of_edges()}")
        print(f"k             : {result.k}")
        print(f"weight        : {result.weight}")
        print(f"edges         : {result.num_edges}")
        print(f"iterations    : {result.iterations}")
        print(f"verified      : {ok}{'' if ok else ' (' + reason + ')'}")
        print(result.ledger.summary())
    return 0 if ok else 1


def _verify(args: argparse.Namespace) -> int:
    family = make_family(args.family)
    graph = family(args.n, seed=args.seed)
    raw = sys.stdin.read() if args.edges == "-" else args.edges
    edges = [tuple(edge) for edge in json.loads(raw)]
    from repro.graphs.connectivity import verify_spanning_subgraph

    ok, reason = verify_spanning_subgraph(graph, edges, args.k)
    print("OK" if ok else f"INVALID: {reason}")
    return 0 if ok else 1


def _apply_obs_options(args: argparse.Namespace) -> None:
    """Enable tracing when ``--trace FILE`` was given.

    ``enable_tracing`` publishes ``$REPRO_TRACE`` so pool worker processes
    inherit the sink; *truncate* starts each run on a fresh file instead of
    appending to a stale trace.
    """
    value = getattr(args, "trace", None)
    if value is None:
        return
    from repro.obs.trace import enable_tracing

    try:
        enable_tracing(value, truncate=True)
    except OSError as exc:
        raise SystemExit(f"cannot write trace file {value!r}: {exc}")


def _experiment(args: argparse.Namespace) -> int:
    _apply_obs_options(args)
    if args.cache_dir is not None:
        try:
            Path(args.cache_dir).mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise SystemExit(f"cannot create cache dir {args.cache_dir!r}: {exc}")
    engine = ExperimentEngine(workers=args.workers, cache_dir=args.cache_dir)
    ids = list(_EXPERIMENTS) if args.experiment_id == "all" else [args.experiment_id]
    # Entering the engine keeps one process pool alive across every
    # experiment instead of rebuilding it per batch.
    with engine:
        for eid in ids:
            table = _EXPERIMENTS[eid](engine=engine)
            print(table.to_markdown() if args.markdown else table.to_text())
            print()
    print(engine.summary(), file=sys.stderr)
    return 0


def _bench(args: argparse.Namespace) -> int:
    from repro.analysis.bench import RecordingEngine, load_baseline

    _apply_obs_options(args)
    ids = sorted(_EXPERIMENTS) if args.experiment_id == "all" else [args.experiment_id]
    if args.out is not None and len(ids) != 1:
        raise SystemExit("--out requires a single experiment id (use --out-dir for 'all')")
    if args.against is not None and len(ids) != 1:
        raise SystemExit("--against requires a single experiment id")
    if args.against is not None and args.out is not None:
        raise SystemExit(
            "--against does not write baselines; drop --out (or record a new "
            "baseline first, then compare)"
        )
    stored = None
    if args.against is not None:
        # Checked before anything runs: a baseline the gate cannot use is a
        # usage error (exit 2), not drift.
        try:
            stored = load_baseline(args.against, ids[0])
        except ValueError as exc:
            print(f"bench: {exc}", file=sys.stderr)
            return 2
    engine = RecordingEngine(workers=args.workers)
    exit_code = 0
    # Entering the engine keeps one process pool alive across every
    # benchmarked experiment.
    with engine:
        for experiment_id in ids:
            exit_code = max(
                exit_code, _bench_one(args, engine, experiment_id, stored)
            )
    print(engine.summary(), file=sys.stderr)
    return exit_code


def _bench_one(args, engine, experiment_id, stored) -> int:
    """Benchmark one experiment on an already-entered engine; *stored* is
    the ``--against`` baseline, if any."""
    from repro.analysis.bench import (
        baseline_path,
        build_baseline,
        compare_tables,
        compare_trials,
        validate_baseline,
        write_baseline,
    )

    exit_code = 0
    payload = build_baseline(experiment_id, engine=engine)
    problems = validate_baseline(payload)
    if problems:
        raise SystemExit(
            f"internal error: {experiment_id} baseline failed its own schema "
            f"check: {'; '.join(problems)}"
        )
    if stored is not None:
        fresh = Table(
            title=payload["table"]["title"],
            columns=payload["table"]["columns"],
            rows=[tuple(row) for row in payload["table"]["rows"]],
        )
        mismatches = compare_tables(stored, fresh) + compare_trials(stored, payload)
        if mismatches:
            exit_code = 1
            print(f"{experiment_id}: drifted from {args.against}:")
            for line in mismatches:
                print(f"  {line}")
        else:
            print(
                f"{experiment_id}: table and {len(payload['trials'])} trials "
                f"match {args.against}"
            )
    if args.dry_run:
        print(json.dumps(payload, indent=2, sort_keys=True))
    elif args.against is None:
        path = Path(args.out) if args.out else baseline_path(
            experiment_id, args.out_dir
        )
        write_baseline(payload, path)
        summary = payload["summary"]
        print(
            f"{experiment_id}: wrote {path} "
            f"({summary['trial_count']} trials, "
            f"{summary['wall_seconds']:.3f}s wall, "
            f"{summary['cached_trials']} cached)"
        )
    return exit_code


def _cache(args: argparse.Namespace) -> int:
    cache_dir = Path(args.cache_dir)
    if not cache_dir.is_dir():
        print(f"no cache directory at {cache_dir}")
        return 0
    if args.action == "stats":
        stats = cache_stats(cache_dir)
        if not stats:
            print(f"cache at {cache_dir} is empty")
            return 0
        table = Table(
            title=f"trial cache at {cache_dir}",
            columns=["experiment", "entries", "stale", "tmp", "bytes"],
        )
        for experiment in sorted(stats):
            bucket = stats[experiment]
            table.add_row(
                experiment, bucket["entries"], bucket["stale"], bucket["tmp"],
                bucket["bytes"],
            )
        table.add_note(
            "stale = written by other code (another content hash of the "
            "repro package) or corrupt; evict with 'kecss cache gc'"
        )
        print(table.to_text())
    elif args.action == "gc":
        removed = cache_gc(cache_dir)
        print(f"evicted {len(removed)} stale entr{'y' if len(removed) == 1 else 'ies'} "
              f"from {cache_dir}")
    else:  # clear
        removed = cache_clear(cache_dir)
        print(f"removed {removed} entr{'y' if removed == 1 else 'ies'} from {cache_dir}")
    return 0


def _lint(args: argparse.Namespace) -> int:
    from repro.lint import lint, render_json, render_text

    if args.root is not None:
        package_dir = Path(args.root) / "src" / "repro"
        if not package_dir.is_dir():
            print(f"no package tree at {package_dir} (expected <root>/src/repro)",
                  file=sys.stderr)
            return 2
    else:
        package_dir = Path(__file__).resolve().parent

    findings = lint(package_dir)
    render = render_json if args.output_format == "json" else render_text
    print(render(findings))
    return 1 if findings else 0


def _trace(args: argparse.Namespace) -> int:
    """Render a recorded trace.  Exit 0: parsed and summarized; 1: the file
    is unreadable or holds no valid events; 2: usage (argparse)."""
    from repro.obs.timeline import (
        TraceError,
        load_trace,
        render_chrome,
        render_json,
        render_text,
        summarize,
    )

    try:
        events, skipped = load_trace(args.path)
        if args.output_format == "chrome":
            rendering = render_chrome(events)
        else:
            summary = summarize(events, skipped=skipped)
            rendering = (
                render_json(summary) if args.output_format == "json"
                else render_text(summary)
            )
    except TraceError as exc:
        print(f"trace: {exc}", file=sys.stderr)
        return 1
    if args.out is not None:
        try:
            Path(args.out).write_text(rendering + "\n", encoding="utf-8")
        except OSError as exc:
            raise SystemExit(f"cannot write {args.out!r}: {exc}")
        print(f"wrote {args.out}", file=sys.stderr)
    else:
        print(rendering)
    return 0


def _families(_: argparse.Namespace) -> int:
    table = Table(
        title="registered graph families",
        columns=["family", "k>=", "weighted", "n=48 builds", "description"],
    )
    for name in sorted(FAMILIES):
        family = FAMILIES[name]
        graph = family(48, seed=0)
        table.add_row(
            name,
            family.connectivity,
            "yes" if family.weighted else "no",
            f"{graph.number_of_nodes()}v/{graph.number_of_edges()}e",
            family.description,
        )
    table.add_note(
        "'n=48 builds' shows the default size scaling: the instance a builder "
        "returns when asked for ~48 vertices (torus and hypercube round to "
        "their lattice sizes)"
    )
    print(table.to_text())
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "solve": _solve,
        "verify": _verify,
        "experiment": _experiment,
        "bench": _bench,
        "cache": _cache,
        "families": _families,
        "lint": _lint,
        "trace": _trace,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
