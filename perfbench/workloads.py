"""The benchmark's workloads: instance tables, solvers and rationale.

Each solver workload is a fixed list of instance slots.  A slot names a
graph family, a size and a connectivity target; the concrete graph and the
solver's RNG seed are derived from the benchmark ``--seed``, so one seed
always yields the same inputs.  Slot labels (``<family>-<n>``) name the
per-instance metrics and stay the same in smoke mode, which shrinks every
slot to ``smoke_n`` vertices so the full metric and wrapper set can be
exercised in seconds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Slot:
    """One instance of a solver workload."""

    family: str
    n: int
    k: int
    smoke_n: int
    unit_weights: bool = False
    replicas: int = 1

    @property
    def label(self) -> str:
        return f"{self.family}-{self.n}"

    def size(self, smoke: bool) -> int:
        return self.smoke_n if smoke else self.n


@dataclass(frozen=True)
class Workload:
    name: str
    solver: str  # "two_ecss" | "three_ecss" | "k_ecss" | "harness"
    why: str
    slots: tuple[Slot, ...] = ()


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="two-ecss-n2048",
            solver="two_ecss",
            why=(
                "2-ECSS, k=2: weighted-sparse, powerlaw, clique-chain n=2048 and "
                "weighted-dense n=512 (D=2..~1000, m/n=2..80); diameter, CONGEST BFS, "
                "MST and TAP do the work"
            ),
            slots=(
                Slot("weighted-sparse", 2048, 2, smoke_n=32),
                Slot("powerlaw", 2048, 2, smoke_n=32),
                Slot("clique-chain", 2048, 2, smoke_n=32),
                Slot("weighted-dense", 512, 2, smoke_n=24),
            ),
        ),
        Workload(
            name="three-ecss-labels",
            solver="three_ecss",
            why=(
                "unit-weight 3-ECSS: 2x torus n=256, hypercube n=128, 3x weighted-k3 "
                "n=128; labelling, path-label scoring and graph rebuilds dominate; TAP, "
                "MST and decomposition never run"
            ),
            # Replicas average out the solver's seed dependence: iterations
            # ranged 500-569 on the torus and 137-247 on weighted-k3 n=128,
            # and with one of each solve_s varied by 10 % from seed to seed.
            slots=(
                Slot("torus", 256, 3, smoke_n=16, replicas=2),
                Slot("hypercube", 128, 3, smoke_n=16),
                Slot("weighted-k3", 128, 3, smoke_n=16, unit_weights=True, replicas=3),
            ),
        ),
        Workload(
            name="k-ecss-cover",
            solver="k_ecss",
            why=(
                "weighted k-ECSS: 2x weighted-k3 n=96 k=3, torus n=64 k=4, 2x "
                "weighted-sparse n=256 k=2; cut enumeration, cover scoring and "
                "MST-filter Kruskal do the work"
            ),
            # Two random graphs per random family: with one graph each (at
            # n=128 and n=512) Σ rounds varied by 15 % (quartile spread) from
            # seed to seed.  The torus is fixed; only its solver seed varies.
            slots=(
                Slot("weighted-k3", 96, 3, smoke_n=12, replicas=2),
                Slot("torus", 64, 4, smoke_n=16),
                Slot("weighted-sparse", 256, 2, smoke_n=16, replicas=2),
            ),
        ),
        Workload(
            name="harness-batch",
            solver="harness",
            why=(
                "176 registered trials (e2, e3, e5, e6, e9 at n<=144) through a "
                "2-worker process engine: import, pool dispatch, cache writes, "
                "replays and store ingest dominate"
            ),
        ),
    )
}


def derive(seed: int, *parts: object) -> int:
    """A 31-bit seed derived from the benchmark seed and a label.

    ``random.Random`` seeded with a string hashes it with SHA-512, so the
    result does not depend on ``PYTHONHASHSEED`` or the platform.
    """
    key = ":".join(str(part) for part in (seed, *parts))
    return random.Random(key).randrange(2 ** 31)


def instance_seeds(workload: str, seed: int, slot_index: int, replica: int) -> tuple[int, int]:
    """``(graph_seed, solver_seed)`` of one replica of one slot."""
    return (
        derive(seed, workload, slot_index, replica, "graph"),
        derive(seed, workload, slot_index, replica, "solver"),
    )


def all_slot_labels() -> list[str]:
    """Every per-instance label across the solver workloads, in table order."""
    labels: list[str] = []
    for workload in WORKLOADS.values():
        for slot in workload.slots:
            if slot.label not in labels:
                labels.append(slot.label)
    return labels
