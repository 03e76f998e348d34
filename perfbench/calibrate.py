"""Host-speed calibration: rescales measured times to a reference host speed.

The benchmark runs on shared hosts whose speed drifts by up to 2x for minutes
at a time, which moves process CPU time as much as wall time.  A run therefore
interleaves short *bursts* of a fixed reference kernel with the work it times
and divides each timed part by the kernel's mean time in the bursts on either
side of it.  A slow stretch slows the kernel and the program alike, so the
ratio holds still while both numbers move.

The kernel is plain Python over dicts plus a NumPy pass over a few MB, the
mix the solvers spend their time in, and imports nothing from ``repro``, so a
change to the program never changes the yardstick.  ``REF_KERNEL_S`` turns
the ratio back into seconds: it is the kernel's mean time on a quiet 2-vCPU
KVM guest, so a normalised time there reads close to the wall time.
"""

from __future__ import annotations

import gc
import heapq
import random
import statistics
import time

import numpy as np

#: Mean seconds of one kernel call on the reference host (a quiet moment on
#: the 2-vCPU KVM guest the benchmark was tuned on).
REF_KERNEL_S = 0.0060
#: Kernel calls per burst.
BURST_CALLS = 10


def _make_graph(n: int = 2000, degree: int = 6, seed: int = 20240611) -> dict:
    rng = random.Random(seed)
    adjacency: dict[int, dict[int, float]] = {v: {} for v in range(n)}
    for v in range(n):
        for _ in range(degree // 2):
            u = rng.randrange(n)
            if u != v:
                weight = rng.random()
                adjacency[v][u] = weight
                adjacency[u][v] = weight
    return adjacency


def _kernel(adjacency: dict, array: np.ndarray) -> float:
    """Dijkstra from vertex 0, a sort, and one streaming NumPy reduction."""
    dist = {0: 0.0}
    heap = [(0.0, 0)]
    done = set()
    while heap:
        d, v = heapq.heappop(heap)
        if v in done:
            continue
        done.add(v)
        for u, w in adjacency[v].items():
            nd = d + w
            if nd < dist.get(u, float("inf")):
                dist[u] = nd
                heapq.heappush(heap, (nd, u))
    middle = sorted(dist.values())[len(dist) // 2]
    return middle + float(np.minimum(array, middle).sum())


class HostClock:
    """Runs calibration bursts and rescales the times measured between them."""

    def __init__(self) -> None:
        self._graph = _make_graph()
        self._array = np.linspace(0.0, 1.0, 400_000)
        self.kernel_s: list[float] = []
        self._last = self.burst()

    def burst(self) -> float:
        """Mean seconds of one kernel call over one burst (also recorded).

        The collector is off during the burst: a full collection walks every
        object the workload keeps alive and would time the heap, not the host.
        One untimed call first refills the caches the timed work evicted.
        """
        enabled = gc.isenabled()
        gc.disable()
        try:
            _kernel(self._graph, self._array)
            started = time.perf_counter()
            for _ in range(BURST_CALLS):
                _kernel(self._graph, self._array)
            seconds = (time.perf_counter() - started) / BURST_CALLS
        finally:
            if enabled:
                gc.enable()
        self.kernel_s.append(seconds)
        return seconds

    def normalize(self, *seconds: float) -> list[float]:
        """Rescale times measured since the last burst to the reference host.

        Runs one burst, and divides each of *seconds* by the mean kernel time
        of the bursts before and after it.
        """
        before, after = self._last, self.burst()
        self._last = after
        scale = REF_KERNEL_S / ((before + after) / 2)
        return [s * scale for s in seconds]

    def median_kernel_s(self) -> float:
        return statistics.median(self.kernel_s)
