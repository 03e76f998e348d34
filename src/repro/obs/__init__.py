"""``repro.obs``: dependency-free structured observability.

Two pieces, both stdlib:

* :mod:`repro.obs.trace` -- a thread-safe :class:`~repro.obs.trace.Tracer`
  emitting span and instant events to a JSONL sink.  The process-global
  :func:`~repro.obs.trace.get_tracer` is a no-op unless tracing is enabled
  (``kecss ... --trace FILE`` or ``$REPRO_TRACE``), so the instrumented hot
  paths pay one attribute check when tracing is off.  Spans observe, never
  participate: enabling tracing leaves trial results, RNG streams and cache
  keys bit-identical (enforced by ``tests/test_obs.py``).
* :mod:`repro.obs.timeline` -- loads a trace file and renders per-stage
  timing, per-worker utilization and the event log (``kecss trace``,
  ``--format text|json|chrome``; chrome emits Chrome trace-event JSON
  loadable in Perfetto).

See ``docs/observability.md`` for the event schema and workflow.
"""

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
from repro.obs.timeline import (
    TraceError,
    load_trace,
    render_chrome,
    render_json,
    render_text,
    summarize,
)

__all__ = [
    "TRACE_ENV",
    "JsonlSink",
    "MemorySink",
    "NullTracer",
    "TraceError",
    "Tracer",
    "disable_tracing",
    "enable_tracing",
    "get_tracer",
    "load_trace",
    "render_chrome",
    "render_json",
    "render_text",
    "reset_tracer",
    "summarize",
]
