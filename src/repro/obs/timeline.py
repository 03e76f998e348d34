"""Trace-file analysis: load, summarize, render (``kecss trace``).

A trace file is JSONL (see :mod:`repro.obs.trace`): possibly appended to
by several processes at once, possibly ending in a line a crashed writer
never finished.  :func:`load_trace` therefore parses line by line,
skipping malformed lines but counting them; an unreadable file or one
with no valid events raises :class:`TraceError` (``kecss trace`` exit 1).

:func:`summarize` reduces the events to the three views the CLI renders:

* **stages** -- per span name: count, total / mean / max seconds, plus the
  total queue-wait seconds trial spans carried (queue vs compute split);
* **workers** -- per process label: span count, busy seconds, utilization
  against the trace's wall-clock window;
* **event log** -- every instant event in timestamp order.

:func:`render_chrome` converts the events to Chrome trace-event JSON
(``ph: "X"`` complete spans, ``ph: "i"`` instants, microsecond timestamps
relative to the trace start, one synthetic pid per process label) --
loadable directly in Perfetto or ``chrome://tracing``.
"""

from __future__ import annotations

import json
from pathlib import Path

__all__ = [
    "TraceError",
    "load_trace",
    "summarize",
    "render_text",
    "render_json",
    "render_chrome",
]


class TraceError(RuntimeError):
    """Raised when a trace file is unreadable or holds no valid events."""


def _proc_label(event: dict) -> str:
    proc = event.get("proc")
    if proc:
        return str(proc)
    return f"pid-{event.get('pid', '?')}"


def load_trace(path: str | Path) -> tuple[list[dict], int]:
    """Parse *path*; returns ``(events, skipped_lines)``.

    Malformed lines (a writer crashed mid-line, or the file is not a
    trace) are skipped and counted.  Raises :class:`TraceError` when the
    file cannot be read or yields no valid event at all.
    """
    path = Path(path)
    events: list[dict] = []
    skipped = 0
    try:
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    event = json.loads(line)
                except ValueError:
                    skipped += 1
                    continue
                if (
                    isinstance(event, dict)
                    and event.get("ev") in ("span", "instant")
                    and isinstance(event.get("ts"), (int, float))
                    and isinstance(event.get("name"), str)
                ):
                    events.append(event)
                else:
                    skipped += 1
    except OSError as exc:
        raise TraceError(f"cannot read trace file {path}: {exc}") from exc
    if not events:
        raise TraceError(
            f"{path} holds no valid trace events"
            + (f" ({skipped} malformed line(s))" if skipped else "")
        )
    events.sort(key=lambda event: event["ts"])
    return events, skipped


def summarize(events: list[dict], skipped: int = 0) -> dict:
    """Reduce *events* to the stage / worker / event-log views (JSON-ready)."""
    spans = [e for e in events if e["ev"] == "span"]
    instants = [e for e in events if e["ev"] == "instant"]
    start = min(e["ts"] for e in events)
    end = max(e["ts"] + float(e.get("dur", 0.0) or 0.0) for e in events)
    wall = max(end - start, 0.0)

    stages: dict[str, dict] = {}
    for event in spans:
        dur = float(event.get("dur", 0.0) or 0.0)
        queue = 0.0
        args = event.get("args")
        if isinstance(args, dict):
            raw = args.get("queue_seconds")
            if isinstance(raw, (int, float)):
                queue = float(raw)
        stage = stages.setdefault(event["name"], {
            "cat": event.get("cat", "misc"),
            "count": 0,
            "seconds": 0.0,
            "max_seconds": 0.0,
            "queue_seconds": 0.0,
        })
        stage["count"] += 1
        stage["seconds"] += dur
        stage["max_seconds"] = max(stage["max_seconds"], dur)
        stage["queue_seconds"] += queue
    for stage in stages.values():
        stage["mean_seconds"] = (
            stage["seconds"] / stage["count"] if stage["count"] else 0.0
        )

    workers: dict[str, dict] = {}
    for event in spans:
        label = _proc_label(event)
        worker = workers.setdefault(label, {"spans": 0, "busy_seconds": 0.0})
        worker["spans"] += 1
        worker["busy_seconds"] += float(event.get("dur", 0.0) or 0.0)
    for worker in workers.values():
        worker["utilization"] = worker["busy_seconds"] / wall if wall else 0.0

    event_counts: dict[str, int] = {}
    event_log: list[dict] = []
    for event in instants:
        event_counts[event["name"]] = event_counts.get(event["name"], 0) + 1
        entry = {
            "ts": event["ts"],
            "offset_seconds": event["ts"] - start,
            "name": event["name"],
            "cat": event.get("cat", "misc"),
            "proc": _proc_label(event),
        }
        if isinstance(event.get("args"), dict):
            entry["args"] = event["args"]
        event_log.append(entry)

    return {
        "events": len(events),
        "spans": len(spans),
        "instants": len(instants),
        "skipped_lines": skipped,
        "start_unix": start,
        "end_unix": end,
        "wall_seconds": wall,
        "stages": {name: stages[name] for name in sorted(stages)},
        "workers": {name: workers[name] for name in sorted(workers)},
        "event_counts": {name: event_counts[name] for name in sorted(event_counts)},
        "event_log": event_log,
    }


_EVENT_LOG_LIMIT = 60


def render_text(summary: dict) -> str:
    """The human-readable three-table report."""
    # Lazy: the engine (inside repro.analysis) imports repro.obs, so a
    # module-level import of repro.analysis.tables here would be circular.
    from repro.analysis.tables import Table

    blocks: list[str] = []
    header = (
        f"trace: {summary['events']} events ({summary['spans']} spans, "
        f"{summary['instants']} instants) over {summary['wall_seconds']:.3f}s"
    )
    if summary.get("skipped_lines"):
        header += f"; skipped {summary['skipped_lines']} malformed line(s)"
    blocks.append(header)

    stages = Table(
        title="per-stage timing",
        columns=["stage", "cat", "count", "total s", "mean s", "max s", "queue s"],
    )
    for name, stage in summary["stages"].items():
        stages.add_row(
            name, stage["cat"], stage["count"],
            round(stage["seconds"], 6), round(stage["mean_seconds"], 6),
            round(stage["max_seconds"], 6), round(stage["queue_seconds"], 6),
        )
    stages.add_note(
        "'queue s' totals the queue_seconds carried by the stage's spans "
        "(submit->start wait, split from compute time)"
    )
    blocks.append(stages.to_text())

    workers = Table(
        title="per-worker utilization",
        columns=["worker", "spans", "busy s", "utilization"],
    )
    for name, worker in summary["workers"].items():
        workers.add_row(
            name, worker["spans"], round(worker["busy_seconds"], 6),
            f"{worker['utilization'] * 100:.1f}%",
        )
    workers.add_note(
        "utilization = span-busy seconds / trace wall-clock window; "
        "overlapping spans on one worker can exceed 100%"
    )
    blocks.append(workers.to_text())

    log = Table(
        title="event log",
        columns=["offset s", "event", "proc", "detail"],
    )
    entries = summary["event_log"]
    for entry in entries[:_EVENT_LOG_LIMIT]:
        args = entry.get("args", {})
        detail = ", ".join(f"{k}={v}" for k, v in sorted(args.items()))
        log.add_row(
            round(entry["offset_seconds"], 3), entry["name"], entry["proc"],
            detail or "-",
        )
    if len(entries) > _EVENT_LOG_LIMIT:
        log.add_note(
            f"showing the first {_EVENT_LOG_LIMIT} of {len(entries)} instant "
            f"events; --format json holds the full log"
        )
    blocks.append(log.to_text())
    return "\n\n".join(blocks)


def render_json(summary: dict) -> str:
    """The summary as pretty-printed JSON (what the CI gate parses)."""
    return json.dumps(summary, indent=2, sort_keys=True)


def render_chrome(events: list[dict]) -> str:
    """Chrome trace-event JSON (Perfetto / ``chrome://tracing``).

    Every distinct process label becomes one synthetic pid with a
    ``process_name`` metadata record; spans map to ``ph: "X"`` complete
    events and instants to thread-scoped ``ph: "i"``, with microsecond
    timestamps relative to the first event.
    """
    base = min(event["ts"] for event in events)
    pids: dict[str, int] = {}
    trace_events: list[dict] = []
    for label in sorted({_proc_label(event) for event in events}):
        pids[label] = len(pids) + 1
        trace_events.append({
            "ph": "M",
            "name": "process_name",
            "pid": pids[label],
            "tid": 0,
            "args": {"name": label},
        })
    for event in events:
        pid = pids[_proc_label(event)]
        record = {
            "name": event["name"],
            "cat": str(event.get("cat", "misc")),
            "pid": pid,
            "tid": int(event.get("tid", 0)) % 2**31,
            "ts": (event["ts"] - base) * 1e6,
        }
        if isinstance(event.get("args"), dict):
            record["args"] = event["args"]
        if event["ev"] == "span":
            record["ph"] = "X"
            record["dur"] = float(event.get("dur", 0.0) or 0.0) * 1e6
        else:
            record["ph"] = "i"
            record["s"] = "t"
        trace_events.append(record)
    return json.dumps(
        {"traceEvents": trace_events, "displayTimeUnit": "ms"},
        separators=(",", ":"),
    )
