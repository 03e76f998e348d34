"""Thread-safe structured tracing with span + instant events.

One :class:`Tracer` serves a whole process.  Events are flat JSON objects,
one per line (JSONL), so a trace survives crashed writers (every complete
line is valid on its own) and concurrent processes (the sink appends in
``O_APPEND`` mode with one ``write`` per line).  Two event shapes:

* **span** -- a named interval: ``{"ev": "span", "name", "cat", "ts",
  "dur", "id", "parent", "pid", "tid", "proc", "args"}``.  ``ts`` is
  wall-clock epoch seconds (comparable across processes and machines);
  ``dur`` is measured with ``time.perf_counter`` so an NTP step cannot
  produce a negative duration.  ``parent`` nests spans per thread.
* **instant** -- a point event: same fields minus ``dur``/``id``/``parent``.

The process-global tracer (:func:`get_tracer`) is a shared
:class:`NullTracer` unless tracing was enabled -- via ``$REPRO_TRACE``
(which ``kecss ... --trace FILE`` exports, so pool worker processes
inherit it) or :func:`enable_tracing`.  Disabled, every instrumentation
site costs one attribute check and no allocation.

The hard invariant (tested): tracing **observes, never participates** --
enabling it must leave trial results, RNG streams and cache keys
bit-identical.  Nothing here touches ``random`` or any trial input.
"""

from __future__ import annotations

import json
import os
import threading
import time
from pathlib import Path
from typing import Mapping

__all__ = [
    "TRACE_ENV",
    "Tracer",
    "NullTracer",
    "JsonlSink",
    "MemorySink",
    "get_tracer",
    "enable_tracing",
    "disable_tracing",
    "reset_tracer",
]

#: Environment switch: a file path enables tracing for this process and
#: every child that inherits the environment (pool worker processes).
TRACE_ENV = "REPRO_TRACE"


class JsonlSink:
    """Appends events to a JSONL file, one atomic line write per event.

    The file opens lazily (append mode) on the first event, so merely
    constructing a tracer in a worker process creates nothing.  Each event
    is serialized to one line and written with a single ``write`` call
    under a lock; with ``O_APPEND`` semantics concurrent processes sharing
    the path interleave whole lines, never bytes.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._lock = threading.Lock()
        self._handle = None

    def write(self, event: Mapping) -> None:
        line = json.dumps(event, separators=(",", ":"), default=str) + "\n"
        with self._lock:
            if self._handle is None:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                self._handle = open(self.path, "a", encoding="utf-8")
            self._handle.write(line)
            self._handle.flush()

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None


class MemorySink:
    """Collects events into a list (tests, in-process consumers)."""

    def __init__(self) -> None:
        self.events: list[dict] = []
        self._lock = threading.Lock()

    def write(self, event: Mapping) -> None:
        with self._lock:
            self.events.append(dict(event))

    def close(self) -> None:  # pragma: no cover -- symmetry with JsonlSink
        pass


class _SpanHandle:
    """Context manager for one span: measures, then emits on exit."""

    __slots__ = ("_tracer", "_name", "_cat", "_args", "_span_id", "_parent",
                 "_ts", "_t0")

    def __init__(self, tracer: "Tracer", name: str, cat: str, args: dict) -> None:
        self._tracer = tracer
        self._name = name
        self._cat = cat
        self._args = args

    def __enter__(self) -> "_SpanHandle":
        tracer = self._tracer
        self._span_id = tracer._next_id()
        stack = tracer._stack()
        self._parent = stack[-1] if stack else None
        stack.append(self._span_id)
        self._ts = time.time()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        dur = time.perf_counter() - self._t0
        stack = self._tracer._stack()
        if stack and stack[-1] == self._span_id:
            stack.pop()
        event = {
            "ev": "span",
            "name": self._name,
            "cat": self._cat,
            "ts": self._ts,
            "dur": dur,
            "id": self._span_id,
            "pid": os.getpid(),
            "tid": threading.get_ident(),
        }
        if self._parent is not None:
            event["parent"] = self._parent
        if self._tracer.proc is not None:
            event["proc"] = self._tracer.proc
        if self._args:
            event["args"] = self._args
        self._tracer.emit(event)


class _NullContext:
    """A reusable no-op context manager (the disabled-tracing fast path)."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


_NULL_CONTEXT = _NullContext()


class NullTracer:
    """The disabled tracer: every operation is a no-op.

    One shared instance backs :func:`get_tracer` when tracing is off, so
    instrumented code never branches -- it calls the same API and pays one
    shared-object method dispatch.
    """

    enabled = False
    proc = None

    def span(self, name: str, cat: str = "misc", **args) -> _NullContext:
        return _NULL_CONTEXT

    def instant(self, name: str, cat: str = "misc", **args) -> None:
        return None

    def emit(self, event: Mapping) -> None:
        return None

    def summary(self) -> dict:
        return {"enabled": False, "events": 0, "spans": 0, "instants": 0}


_NULL_TRACER = NullTracer()


class Tracer:
    """Emits span and instant events to a sink, thread-safely.

    Args:
        sink: Anything with ``write(event_dict)`` (:class:`JsonlSink`,
            :class:`MemorySink`).
        proc: Optional process/worker label stamped on every event;
            ``None`` lets the timeline fall back to the numeric pid.

    Span ids are ``"<pid>-<counter>"`` so ids from different processes
    appending to one file never collide.  The parent-span stack is
    per-thread, so concurrent threads nest independently.  A lightweight
    aggregate (:meth:`summary`) is maintained as events are emitted --
    total counts, per-category seconds, per-proc busy seconds -- which
    provenance blocks persist without re-reading the trace file.
    """

    enabled = True

    def __init__(self, sink, proc: str | None = None) -> None:
        self._sink = sink
        self.proc = proc
        self._lock = threading.Lock()
        self._counter = 0
        self._local = threading.local()
        self._agg = {
            "events": 0,
            "spans": 0,
            "instants": 0,
            "seconds_by_cat": {},
            "busy_by_proc": {},
        }

    # ----------------------------------------------------------- internals
    def _next_id(self) -> str:
        with self._lock:
            self._counter += 1
            return f"{os.getpid()}-{self._counter}"

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # ----------------------------------------------------------- emission
    def span(self, name: str, cat: str = "misc", **args) -> _SpanHandle:
        """An interval context manager; the event is emitted on exit."""
        return _SpanHandle(self, name, cat, args)

    def instant(self, name: str, cat: str = "misc", **args) -> None:
        """Emit one point event."""
        event = {
            "ev": "instant",
            "name": name,
            "cat": cat,
            "ts": time.time(),
            "pid": os.getpid(),
            "tid": threading.get_ident(),
        }
        if self.proc is not None:
            event["proc"] = self.proc
        if args:
            event["args"] = args
        self.emit(event)

    def emit(self, event: Mapping) -> None:
        """Write a pre-built event."""
        event = dict(event)
        with self._lock:
            agg = self._agg
            agg["events"] += 1
            if event.get("ev") == "span":
                agg["spans"] += 1
                dur = float(event.get("dur", 0.0) or 0.0)
                cat = str(event.get("cat", "misc"))
                agg["seconds_by_cat"][cat] = (
                    agg["seconds_by_cat"].get(cat, 0.0) + dur
                )
                proc = event.get("proc") or str(event.get("pid", "?"))
                agg["busy_by_proc"][proc] = (
                    agg["busy_by_proc"].get(proc, 0.0) + dur
                )
            else:
                agg["instants"] += 1
        self._sink.write(event)

    # ------------------------------------------------------------ summary
    def summary(self) -> dict:
        """JSON-ready aggregate of everything emitted through this tracer."""
        with self._lock:
            agg = self._agg
            payload = {
                "enabled": True,
                "events": agg["events"],
                "spans": agg["spans"],
                "instants": agg["instants"],
                "seconds_by_cat": dict(agg["seconds_by_cat"]),
                "busy_by_proc": dict(agg["busy_by_proc"]),
            }
        path = getattr(self._sink, "path", None)
        if path is not None:
            payload["file"] = str(path)
        return payload


# ------------------------------------------------------------ process-global
_global_lock = threading.Lock()
_global_tracer: Tracer | NullTracer | None = None


def get_tracer() -> Tracer | NullTracer:
    """The process-global tracer.

    It is resolved lazily from ``$REPRO_TRACE`` on first use and cached;
    :func:`reset_tracer` drops the cache (tests, re-configuration).
    """
    global _global_tracer
    if _global_tracer is None:
        with _global_lock:
            if _global_tracer is None:
                path = os.environ.get(TRACE_ENV, "").strip()
                _global_tracer = Tracer(JsonlSink(path)) if path else _NULL_TRACER
    return _global_tracer


def enable_tracing(path: str | Path, truncate: bool = False) -> Tracer:
    """Enable tracing to *path* for this process **and its children**.

    Publishes ``$REPRO_TRACE`` (so pool worker processes inherit the
    sink) and replaces the cached global tracer.  *truncate* empties an
    existing file first -- the driving CLI sets it so each ``--trace`` run
    starts a fresh trace instead of appending to a stale one.
    """
    path = Path(path)
    if truncate:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("")
    os.environ[TRACE_ENV] = str(path)
    global _global_tracer
    with _global_lock:
        _global_tracer = Tracer(JsonlSink(path))
        return _global_tracer


def disable_tracing() -> None:
    """Drop the env switch and restore the shared no-op tracer."""
    os.environ.pop(TRACE_ENV, None)
    global _global_tracer
    with _global_lock:
        _global_tracer = _NULL_TRACER


def reset_tracer() -> None:
    """Forget the cached global tracer; the next use re-reads the env."""
    global _global_tracer
    with _global_lock:
        _global_tracer = None
