"""Execution backends for the experiment engine.

An :class:`ExecutionBackend` maps a picklable function over a batch of items
and returns the results **in item order**; the engine hands it its job
batches.  Two backends ship:

* ``"serial"`` -- in-process ``for`` loop; zero overhead, the reference.
* ``"processes"`` -- ``ProcessPoolExecutor``; true parallelism for CPU-bound
  solver trials (functions and items must pickle).

:func:`resolve_backend` turns a name, an instance or ``None`` (serial for
one worker, processes otherwise) into a backend.  The process backend is
also a context manager: entering it starts one executor pool that
successive ``map`` calls reuse, and exiting shuts it down.  The engine
enters its backend when used as ``with engine:`` so pool startup amortises
across batches; an un-entered ``map`` acquires and releases a pool per call.

Because trial seeds are derived up front, both backends produce
bit-identical results; only the wall-clock differs.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Protocol, Sequence, TypeVar, runtime_checkable

__all__ = [
    "ExecutionBackend",
    "SerialBackend",
    "ProcessBackend",
    "resolve_backend",
]

_Item = TypeVar("_Item")
_Result = TypeVar("_Result")


@runtime_checkable
class ExecutionBackend(Protocol):
    """Maps a function over a batch of items, preserving item order.

    Implementations must be deterministic in *ordering*: ``map(f, items)``
    returns ``[f(items[0]), f(items[1]), ...]`` regardless of the order the
    calls actually execute in.  ``name`` identifies the backend in summaries.
    """

    name: str

    def map(
        self, function: Callable[[_Item], _Result], items: Sequence[_Item]
    ) -> list[_Result]:
        """Apply *function* to every item; results come back in item order."""
        ...


@dataclass
class SerialBackend:
    """In-process sequential execution; the reference the pool must match."""

    workers: int = 1
    name: str = "serial"

    def map(self, function, items):
        return [function(item) for item in items]


def _map_chunksize(n_items: int, pool_size: int) -> int:
    """``Executor.map`` chunksize: a few chunks per worker, never below 1.

    ``ProcessPoolExecutor.map`` defaults to chunksize 1 -- one IPC round
    trip per item, which dominates the wall clock when trials run in
    microseconds.  A few chunks per worker amortises the pickling without
    costing load balance on small batches.
    """
    return max(1, n_items // (max(1, pool_size) * 4))


@dataclass
class ProcessBackend:
    """``ProcessPoolExecutor`` fan-out; functions and items must pickle.

    Used as a context manager, one executor pool persists across ``map``
    calls (``ExperimentEngine`` enters its backend under ``with engine:``
    to amortise pool startup over a batch sequence); un-entered, each
    ``map`` spins up and tears down its own pool.
    """

    workers: int = 2
    name: str = "processes"
    _pool = None  # class attribute: set per instance while entered

    def __enter__(self):
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=max(1, self.workers))
        return self

    def __exit__(self, exc_type, exc, tb):
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown()

    def map(self, function, items):
        items = list(items)
        if self._pool is not None:
            return list(
                self._pool.map(
                    function, items,
                    chunksize=_map_chunksize(len(items), self.workers),
                )
            )
        if self.workers <= 1 or len(items) <= 1:
            return [function(item) for item in items]
        pool_size = min(self.workers, len(items))
        with ProcessPoolExecutor(max_workers=pool_size) as pool:
            return list(
                pool.map(
                    function, items,
                    chunksize=_map_chunksize(len(items), pool_size),
                )
            )


_BACKENDS = {"serial": SerialBackend, "processes": ProcessBackend}


def resolve_backend(
    spec: str | ExecutionBackend | None, workers: int = 1
) -> ExecutionBackend:
    """Resolve *spec* to a backend instance.

    ``None`` picks serial for one worker and processes otherwise, a name
    (``"serial"`` or ``"processes"``) is instantiated with
    ``workers=workers``, and an existing backend instance passes through
    unchanged.
    """
    if spec is None:
        spec = "serial" if workers <= 1 else "processes"
    if not isinstance(spec, str):
        return spec
    try:
        return _BACKENDS[spec](workers=workers)
    except KeyError:
        raise KeyError(
            f"no execution backend named {spec!r}; "
            f"known backends: {sorted(_BACKENDS)}"
        ) from None
