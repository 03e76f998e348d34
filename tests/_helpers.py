"""Plain helper functions shared by several test modules."""

from __future__ import annotations

import random
from contextlib import contextmanager
from typing import Callable

import networkx as nx

from repro.graphs.generators import FAMILIES
from repro.trees.rooted import RootedTree

#: The generator families every differential sweep runs on: registering a
#: family in ``FAMILIES`` enrolls it.
SWEEP_FAMILIES = sorted(FAMILIES)


def random_tree_edges(n: int, seed: int) -> list[tuple[int, int]]:
    """The edges of a random tree on ``n`` vertices (random attachment)."""
    rng = random.Random(seed)
    return [(node, rng.randrange(node)) for node in range(1, n)]


def random_tree(n: int, seed: int) -> RootedTree:
    """The tree of :func:`random_tree_edges`, rooted at vertex 0."""
    return RootedTree(random_tree_edges(n, seed), root=0)


def sweep_instance(family: str, seed: int) -> nx.Graph:
    """The seeded *family* instance of the kernel sweeps (n = 10..30)."""
    return FAMILIES[family](10 + seed % 21, seed=seed)


def shuffled_string_copy(graph: nx.Graph, seed: int) -> nx.Graph:
    """*graph* with vertices renamed ``"v<name>"``, in seeded-shuffled node and edge order."""
    rng = random.Random(seed)
    nodes = [f"v{node}" for node in graph.nodes()]
    edges = [(f"v{u}", f"v{v}") for u, v in graph.edges()]
    rng.shuffle(nodes)
    rng.shuffle(edges)
    copy = nx.Graph()
    copy.add_nodes_from(nodes)
    copy.add_edges_from(edges)
    return copy


# -------------------------------------------------------- store crash points
class InjectedCrash(RuntimeError):
    """Raised by :func:`crash_store_at` to simulate a store writer dying."""


@contextmanager
def store_crash_hook(hook: Callable[[str], None] | None):
    """Install *hook* as the store's ``_crash_point`` observer for the block."""
    from repro.store import store as store_module

    previous = store_module._crash_hook
    store_module._crash_hook = hook
    try:
        yield
    finally:
        store_module._crash_hook = previous


@contextmanager
def crash_store_at(point: str):
    """Kill the store writer (raise :class:`InjectedCrash`) at *point*."""

    def hook(name: str) -> None:
        if name == point:
            raise InjectedCrash(f"injected writer crash at store point {name!r}")

    with store_crash_hook(hook):
        yield


def record_store_crash_points(action: Callable[[], object]) -> list[str]:
    """Run *action* with a recording hook; returns the crash points it passed.

    This is how the crash-point test matrix stays exhaustive without a
    hand-maintained list: record one clean write, then kill a fresh writer
    at every recorded point.
    """
    points: list[str] = []
    with store_crash_hook(points.append):
        action()
    return points


def ingest_sample_run(store, experiment: str = "e3", stamp: float = 1.0):
    """Ingest a fixed three-trial run: the unit write the crash tests kill."""
    trials = [
        {
            "config": {"family": "f"},
            "seed": i,
            "index": i,
            "duration": 0.25,
            "cached": False,
            "metrics": {"value": i * 2},
        }
        for i in range(3)
    ]
    return store.ingest(
        experiment, trials, created_unix=stamp,
        provenance={"code_version": "v1"},
    )
