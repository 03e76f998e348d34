"""Per-layer tracing from outside the library.

:class:`SpanRecorder` keeps spans in memory in the ``repro.obs`` JSONL span
schema (``ev/name/cat/ts/dur/id/parent/pid/tid/proc/args``) and writes them
out once, at the end of a traced run, so ``kecss trace`` can render them.

:class:`LayerWrappers` times calls into each layer's public functions.  The
library binds most of them with ``from ... import``, so one function can
live under several module namespaces (``hop_diameter`` is bound in
``repro.mst.distributed``, ``repro.core.three_ecss``, ``repro.core.k_ecss``
and more).  The wrappers therefore resolve each target through
``sys.modules`` / ``importlib.import_module`` -- never attribute access,
because ``repro.core.two_ecss`` as an attribute is the re-exported
*function* -- and patch every ``repro`` namespace binding that is the same
object.  Methods are patched on their class.  Leaving the context restores
every original binding.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import threading
import time
from pathlib import Path

#: Timed layers: metric prefix -> (defining module, qualified name).
LAYERS: dict[str, tuple[str, str]] = {
    "graphs.hop_diameter": ("repro.graphs.fastgraph", "hop_diameter"),
    "graphs.is_k_edge_connected": ("repro.graphs.connectivity", "is_k_edge_connected"),
    "graphs.cuts": ("repro.graphs.cuts", "enumerate_cuts_of_size"),
    "graphs.verify": ("repro.graphs.connectivity", "verify_spanning_subgraph"),
    "congest.bfs_sim": ("repro.congest.primitives", "simulate_bfs_tree"),
    "mst.build": ("repro.mst.distributed", "build_mst_with_fragments"),
    "mst.kruskal": ("repro.mst.sequential", "minimum_spanning_tree"),
    "decomposition.build": ("repro.decomposition.segments", "build_decomposition"),
    "tap.solve": ("repro.tap.distributed", "distributed_tap"),
    "cycle_space.labels": ("repro.cycle_space.labels", "compute_labels"),
    "core.fastaug.score_round": ("repro.core.fastaug", "PathLabelKernel.score_round"),
    "core.fastaug.cover_score": ("repro.core.fastaug", "BitsetCoverKernel.score"),
    "core.two_ecss": ("repro.core.two_ecss", "two_ecss"),
    "core.three_ecss": ("repro.core.three_ecss", "three_ecss"),
    "core.k_ecss": ("repro.core.k_ecss", "k_ecss"),
}

#: The solvers report only their self time (span minus wrapped children) as
#: ``<layer>.self_s``; ``mst.build.s`` is self time too.
SOLVER_LAYERS = {"core.two_ecss", "core.three_ecss", "core.k_ecss"}
SELF_TIMED = SOLVER_LAYERS | {"mst.build"}

#: Untimed probes: they record return values without opening a span, so the
#: caller's self time keeps the probed function's own loop.
PROBES: dict[str, tuple[str, str]] = {
    "core.k_ecss.augment": ("repro.core.k_ecss", "augment_to_k"),
}

#: Wrappers (and probes) that must fire on each solver workload; a renamed
#: or bypassed function then fails the run instead of reading 0 s.
EXPECTED: dict[str, tuple[str, ...]] = {
    "two_ecss": (
        "core.two_ecss", "graphs.hop_diameter", "graphs.is_k_edge_connected",
        "graphs.verify", "congest.bfs_sim", "mst.build", "mst.kruskal",
        "decomposition.build", "tap.solve",
    ),
    "three_ecss": (
        "core.three_ecss", "graphs.hop_diameter", "graphs.is_k_edge_connected",
        "graphs.verify", "cycle_space.labels", "core.fastaug.score_round",
    ),
    "k_ecss": (
        "core.k_ecss", "graphs.hop_diameter", "graphs.is_k_edge_connected",
        "graphs.verify", "graphs.cuts", "mst.kruskal", "core.fastaug.cover_score",
        "core.k_ecss.augment",
    ),
}


class SpanRecorder:
    """In-memory spans for one thread, in the ``repro.obs`` event schema."""

    def __init__(self, proc: str) -> None:
        self.proc = proc
        self.events: list[dict] = []
        self._pid = os.getpid()
        self._tid = threading.get_ident()
        self._counter = 0
        self._stack: list[list] = []  # [span id, seconds covered by children]

    def _open(self) -> tuple[str, str | None, list]:
        self._counter += 1
        span_id = f"{self._pid}-{self._counter}"
        parent = self._stack[-1][0] if self._stack else None
        frame = [span_id, 0.0]
        self._stack.append(frame)
        return span_id, parent, frame

    def _close(self, name, cat, span_id, parent, frame, ts, dur, args) -> None:
        self._stack.pop()
        if self._stack:
            self._stack[-1][1] += dur
        event = {
            "ev": "span", "name": name, "cat": cat, "ts": ts, "dur": dur,
            "id": span_id, "pid": self._pid, "tid": self._tid, "proc": self.proc,
            "args": {**args, "self_s": dur - frame[1]},
        }
        if parent is not None:
            event["parent"] = parent
        self.events.append(event)

    def span(self, name: str, cat: str = "bench", **args):
        return _Span(self, name, cat, args)

    def write_jsonl(self, path: Path) -> Path:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for event in self.events:
                handle.write(json.dumps(event, separators=(",", ":")) + "\n")
        return path


class _Span:
    """One span around a block: a wrapped call, an instance, a pass, a batch."""

    def __init__(self, recorder: SpanRecorder, name: str, cat: str, args: dict) -> None:
        self._recorder, self._name, self._cat, self._args = recorder, name, cat, args

    def __enter__(self) -> "_Span":
        self._ids = self._recorder._open()
        self._ts = time.time()
        self._started = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        dur = time.perf_counter() - self._started
        self._recorder._close(self._name, self._cat, *self._ids, self._ts, dur, self._args)


def _resolve(module_name: str, qualname: str):
    """``(owner, attribute, original)`` for a dotted name inside a module."""
    module = sys.modules.get(module_name) or importlib.import_module(module_name)
    owner = module
    *path, attribute = qualname.split(".")
    for part in path:
        owner = vars(owner)[part]
    try:
        return owner, attribute, vars(owner)[attribute]
    except KeyError:
        raise RuntimeError(
            f"layer target {module_name}:{qualname} no longer exists; "
            f"update perfbench/layers.py"
        ) from None


class LayerWrappers:
    """Context manager that installs the layer wrappers and probes, then restores."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self.calls: dict[str, int] = {}
        self.probed: dict[str, list] = {name: [] for name in PROBES}
        self._patches: list[tuple[object, str, object]] = []

    def _patch_everywhere(self, owner, attribute: str, original, replacement) -> None:
        if isinstance(owner, type):
            self._patches.append((owner, attribute, original))
            setattr(owner, attribute, replacement)
            return
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "repro" or module_name.startswith("repro.")):
                continue
            for name, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, name, original))
                    setattr(module, name, replacement)

    def _timed(self, metric: str, original):
        recorder, calls, cat = self.recorder, self.calls, metric.split(".")[0]

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            calls[metric] = calls.get(metric, 0) + 1
            with recorder.span(metric, cat):
                return original(*args, **kwargs)

        return wrapper

    def _probe(self, metric: str, original):
        calls, sink = self.calls, self.probed[metric]

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            calls[metric] = calls.get(metric, 0) + 1
            result = original(*args, **kwargs)
            sink.append(result)
            return result

        return wrapper

    def __enter__(self) -> "LayerWrappers":
        try:
            for metric, (module_name, qualname) in LAYERS.items():
                owner, attribute, original = _resolve(module_name, qualname)
                self._patch_everywhere(owner, attribute, original, self._timed(metric, original))
            for metric, (module_name, qualname) in PROBES.items():
                owner, attribute, original = _resolve(module_name, qualname)
                self._patch_everywhere(owner, attribute, original, self._probe(metric, original))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._restore()

    def _restore(self) -> None:
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        self._patches.clear()


def check_expected(solver: str, calls: dict[str, int]) -> None:
    """Raise when a wrapper expected on *solver*'s workload never fired."""
    silent = [name for name in EXPECTED.get(solver, ()) if not calls.get(name)]
    if silent:
        raise RuntimeError(
            f"layer wrappers never fired on the {solver} workload: {silent}; "
            f"a traced function was renamed or bypassed"
        )


def layer_totals(events: list[dict]) -> dict[str, dict[str, float]]:
    """Per span name: inclusive seconds, self seconds and call count."""
    totals: dict[str, dict[str, float]] = {}
    for event in events:
        bucket = totals.setdefault(event["name"], {"s": 0.0, "self_s": 0.0, "calls": 0})
        bucket["s"] += event["dur"]
        bucket["self_s"] += event["args"]["self_s"]
        bucket["calls"] += 1
    return totals
