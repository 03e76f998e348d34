"""Exact minimum TAP and minimum k-ECSS via integer programming.

The approximation-ratio experiments (E1, E4) need the true optimum on small
and moderate instances.  Both problems are covering ILPs:

* TAP: ``min sum w_e x_e`` s.t. every tree edge is covered by a chosen link;
* k-ECSS: ``min sum w_e x_e`` s.t. every vertex bipartition is crossed by at
  least ``k`` chosen edges.  The exponentially many cut constraints are added
  lazily: solve, find a violated cut of the chosen subgraph, add it, repeat.

Solved with ``scipy.optimize.milp`` (HiGHS); practical up to roughly a hundred
vertices for the instance families used in the benchmarks.  ``scipy.optimize``
is imported inside the functions that use it: it costs about half a second,
and every ``import repro.cli`` reaches this module.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Hashable, Iterable

import networkx as nx
import numpy as np

from repro.graphs.connectivity import canonical_edge, is_k_edge_connected
from repro.tap.fastcover import FastCoverage
from repro.trees.rooted import RootedTree

if TYPE_CHECKING:
    from scipy.optimize import LinearConstraint

Edge = tuple[Hashable, Hashable]

__all__ = ["exact_tap", "exact_k_ecss", "exact_k_ecss_weight"]


def _solve_binary_program(
    weights: np.ndarray, constraints: list[LinearConstraint]
) -> np.ndarray:
    """Solve ``min w.x`` over binary x subject to *constraints*; return x."""
    from scipy.optimize import Bounds, milp

    result = milp(
        c=weights,
        constraints=constraints,
        integrality=np.ones_like(weights),
        bounds=Bounds(0, 1),
    )
    if not result.success:
        raise RuntimeError(f"MILP solver failed: {result.message}")
    return np.round(result.x).astype(int)


def exact_tap(graph: nx.Graph, tree: RootedTree) -> tuple[frozenset[Edge], int]:
    """Exact minimum-weight tree augmentation of *tree* within *graph*.

    Returns ``(links, weight)``.  Raises if the tree cannot be augmented
    (the graph is not 2-edge-connected).
    """
    from scipy.optimize import LinearConstraint

    fast = FastCoverage(graph, tree)
    links = fast.nt_edges
    if not links:
        raise ValueError("the graph has no non-tree edges; TAP is infeasible")
    weights = np.array(fast.nt_weight, dtype=float)

    rows = []
    for index, tree_edge in enumerate(fast.tree_edges):
        row = np.zeros(len(links))
        # The transposed path CSR gives every link over this tree edge directly.
        covering = fast.covering(index)
        if not covering:
            raise ValueError(
                f"tree edge {tree_edge!r} is a bridge of the graph; TAP is infeasible"
            )
        row[covering] = 1
        rows.append(row)
    constraint = LinearConstraint(np.array(rows), lb=1, ub=np.inf)
    solution = _solve_binary_program(weights, [constraint])
    chosen = [j for j in range(len(links)) if solution[j] == 1]
    return frozenset(links[j] for j in chosen), int(sum(fast.nt_weight[j] for j in chosen))


def _violated_cuts(graph: nx.Graph, chosen: Iterable[Edge], k: int) -> list[frozenset[Hashable]]:
    """Return bipartition sides crossed by fewer than *k* chosen edges (empty if none)."""
    subgraph = nx.Graph()
    subgraph.add_nodes_from(graph.nodes())
    subgraph.add_edges_from(chosen)
    if not nx.is_connected(subgraph):
        # Add one constraint per connected component: each must be crossed k times.
        components = list(nx.connected_components(subgraph))
        return [frozenset(component) for component in components[:-1]]
    # Boolean k-connectivity check: for k <= 3 this is decided entirely on
    # the flat-array kernel (bridges / cut pairs), never via max-flow.
    if is_k_edge_connected(subgraph, k):
        return []
    cut_value, (side_a, _) = nx.stoer_wagner(subgraph)
    del cut_value
    return [frozenset(side_a)]


def exact_k_ecss(
    graph: nx.Graph, k: int, max_cut_rounds: int = 200
) -> tuple[frozenset[Edge], int]:
    """Exact minimum-weight k-ECSS of *graph* via lazy cut generation.

    Returns ``(edges, weight)``.
    """
    from scipy.optimize import LinearConstraint

    if k < 1:
        raise ValueError("k must be >= 1")
    edges = [canonical_edge(u, v) for u, v in graph.edges()]
    edge_index = {edge: i for i, edge in enumerate(edges)}
    weights = np.array(
        [graph[u][v].get("weight", 1) for u, v in edges], dtype=float
    )

    def cut_row(side: frozenset[Hashable]) -> np.ndarray:
        row = np.zeros(len(edges))
        for (u, v), i in edge_index.items():
            if (u in side) != (v in side):
                row[i] = 1
        return row

    # Initial constraints: every single vertex needs k incident chosen edges.
    constraint_rows = [cut_row(frozenset({v})) for v in graph.nodes()]

    for _ in range(max_cut_rounds):
        constraint = LinearConstraint(np.array(constraint_rows), lb=k, ub=np.inf)
        solution = _solve_binary_program(weights, [constraint])
        chosen = [edge for edge, i in edge_index.items() if solution[i] == 1]
        violated = _violated_cuts(graph, chosen, k)
        if not violated:
            weight = int(sum(graph[u][v].get("weight", 1) for u, v in chosen))
            return frozenset(chosen), weight
        constraint_rows.extend(cut_row(side) for side in violated)
    raise RuntimeError(
        f"exact k-ECSS did not converge within {max_cut_rounds} cut-generation rounds"
    )


def exact_k_ecss_weight(graph: nx.Graph, k: int) -> int:
    """Convenience wrapper returning only the optimal weight."""
    _, weight = exact_k_ecss(graph, k)
    return weight
