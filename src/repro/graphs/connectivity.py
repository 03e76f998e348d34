"""Connectivity queries and verification helpers.

These are the *verification* side of the reproduction: every algorithm in
:mod:`repro.core` promises a k-edge-connected spanning subgraph, and the test
suite checks that promise with the functions here.

The hot paths run on the flat-array CSR kernel of
:mod:`repro.graphs.fastgraph`: connectivity 0/1/2 is decided exactly by BFS,
iterative Tarjan bridge finding and the exact cut-pair characterisation of
Claim 5.6, and connectivity 3 by a certificate -- a degree-3 vertex or a
3-edge cut the exact cycle-space enumerator found and confirmed in the cut
space.  So every ``k <= 4`` check is exact without networkx max-flow,
and ``nx.edge_connectivity`` runs only to get the *value* of a graph with
edge connectivity >= 4.  The historical networkx implementations are the
reference oracles in ``tests/oracles.py``.
"""

from __future__ import annotations

from typing import Hashable, Iterable

import networkx as nx

from repro.graphs.fastgraph import FastGraph, canonical_edge

Edge = tuple[Hashable, Hashable]

__all__ = [
    "edge_connectivity",
    "is_k_edge_connected",
    "check_solver_input",
    "is_positive_int",
    "bridges",
    "subgraph_weight",
    "verify_spanning_subgraph",
    "edge_set",
    "canonical_edge",
]


def edge_set(graph_or_edges: nx.Graph | Iterable[Edge]) -> frozenset[Edge]:
    """Return the edges of a graph (or edge iterable) as a canonical frozenset."""
    if isinstance(graph_or_edges, nx.Graph):
        edges: Iterable[Edge] = graph_or_edges.edges()
    else:
        edges = graph_or_edges
    return frozenset(canonical_edge(u, v) for u, v in edges)


def _small_connectivity(fast: FastGraph) -> int:
    """Exact edge connectivity when it is at most 2, else 3 meaning ">= 3".

    Decided entirely on the CSR kernel: BFS for connectivity, iterative
    Tarjan for bridges, min degree and the exact Claim 5.6 cut-pair test for
    the 2-cut case.
    """
    if fast.n <= 1 or not fast.is_connected():
        return 0
    if fast.bridges():
        return 1
    degree = fast.min_degree()
    if degree <= 2 or fast.has_cut_pair():
        return 2
    return 3


def _edge_connectivity(fast: FastGraph) -> int:
    """:func:`edge_connectivity` on the kernel snapshot *fast*."""
    small = _small_connectivity(fast)
    if small < 3:
        return small
    if fast.min_degree() == 3 or fast.has_cut_triple():
        return 3
    return nx.edge_connectivity(fast.to_nx())


def edge_connectivity(graph: nx.Graph | FastGraph) -> int:
    """Return the (global, unweighted) edge connectivity of *graph*.

    A disconnected or single-vertex graph has edge connectivity 0.  Values
    up to 3 are decided exactly on the flat-array kernel, each with a
    certificate (a bridge, a cut pair, a degree-3 vertex or a confirmed
    3-edge cut); only graphs with edge connectivity >= 4 pay for a networkx
    max-flow sweep.
    """
    fast = FastGraph.of(graph)
    return _edge_connectivity(fast) if fast.n > 1 else 0


def is_k_edge_connected(graph: nx.Graph | FastGraph, k: int) -> bool:
    """Return ``True`` iff *graph* remains connected after any ``k - 1`` edge removals."""
    if k <= 0:
        return True
    fast = FastGraph.of(graph)
    return fast.n > 1 and _is_k_edge_connected(fast, k)


def _is_k_edge_connected(fast: FastGraph, k: int) -> bool:
    """:func:`is_k_edge_connected` (``k >= 1``, ``n >= 2``) on the snapshot *fast*."""
    if k == 1:
        return fast.is_connected()
    if fast.min_degree() < k:
        return False
    if k == 2:
        # Connected and bridgeless suffices; no need to look for 2-cuts.
        return fast.is_connected() and not fast.bridges()
    if k <= 4:
        # Exact without max-flow: connected, bridgeless, no 2-edge cut, and
        # for k = 4 no 3-edge cut.
        return _small_connectivity(fast) >= 3 and (k == 3 or not fast.has_cut_triple())
    return _edge_connectivity(fast) >= k


def is_positive_int(value: object) -> bool:
    """True for an ``int`` >= 1 that is not a ``bool``."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= 1


def check_solver_input(graph: nx.Graph, k: int, problem: str) -> FastGraph:
    """Enforce the solvers' input contract and return the snapshot of *graph*.

    Every k-ECSS solver takes a simple undirected graph whose edges are
    unweighted (weight 1) or carry non-negative ``int`` weights, and which
    is k-edge-connected, for an ``int`` ``k >= 1``.  Parallel edges and self-loops would pass the
    connectivity check and then break the tree-augmentation stage (a
    self-loop can even land in the output), and float or negative
    weights would break (or silently falsify) the weight classes, so each
    is rejected here with a ``ValueError`` naming the breach, before any
    solver work starts.  The :class:`FastGraph` built for the check is the
    one every later stage of the solve reads, so a solve converts its input
    exactly once.
    """
    if not is_positive_int(k):
        raise ValueError(f"{problem}: k must be an int >= 1, got {k!r}")
    if graph.is_multigraph():
        raise ValueError(
            f"{problem} needs a simple graph; got a {type(graph).__name__} "
            f"(parallel edges are not supported)"
        )
    if graph.is_directed():
        raise ValueError(f"{problem} needs an undirected graph; got a {type(graph).__name__}")
    looped = next(nx.nodes_with_selfloops(graph), None)
    if looped is not None:
        raise ValueError(f"{problem} needs a simple graph; vertex {looped!r} has a self-loop")
    fast = FastGraph.from_nx(graph)
    for eid, weight in enumerate(fast.weight):
        if isinstance(weight, bool) or not isinstance(weight, int) or weight < 0:
            u, v = fast.edge_labels(eid)
            raise ValueError(
                f"{problem} needs non-negative integer edge weights; "
                f"edge ({u!r}, {v!r}) has weight {weight!r}"
            )
    if not is_k_edge_connected(fast, k):
        raise ValueError(
            f"the input graph is not {k}-edge-connected; {problem} is infeasible"
        )
    return fast


def bridges(graph: nx.Graph) -> set[Edge]:
    """Return the set of bridges (cut edges) of *graph* in canonical form.

    Runs the iterative Tarjan low-link pass of the CSR kernel (works on any
    number of components and does not recurse, so deep path-like graphs are
    safe).
    """
    if graph.number_of_edges() == 0:
        return set()
    fast = FastGraph.from_nx(graph)
    return {canonical_edge(*fast.edge_labels(eid)) for eid in fast.bridges()}


def subgraph_weight(graph: nx.Graph, edges: Iterable[Edge]) -> int:
    """Return the total ``weight`` of *edges*, looked up in *graph*.

    Raises ``KeyError`` if an edge is not present in *graph*.
    """
    total = 0
    for u, v in edges:
        if not graph.has_edge(u, v):
            raise KeyError(f"edge ({u!r}, {v!r}) is not an edge of the graph")
        total += graph[u][v].get("weight", 1)
    return total


def verify_spanning_subgraph(
    graph: nx.Graph,
    edges: Iterable[Edge],
    k: int,
) -> tuple[bool, str]:
    """Check that *edges* form a k-edge-connected spanning subgraph of *graph*.

    Returns a ``(ok, reason)`` pair: ``reason`` is the empty string when the
    check passes and a human-readable explanation otherwise.  Used pervasively
    by the tests and the CLI ``verify`` command.
    """
    chosen = edge_set(edges)
    graph_edges = edge_set(graph)
    foreign = chosen - graph_edges
    if foreign:
        return False, f"{len(foreign)} selected edges are not edges of the input graph"
    subgraph = nx.Graph()
    subgraph.add_nodes_from(graph.nodes())
    subgraph.add_edges_from(chosen)
    if not nx.is_connected(subgraph):
        return False, "selected subgraph is not connected"
    connectivity = edge_connectivity(subgraph)
    if connectivity < k:
        return False, f"selected subgraph has edge connectivity {connectivity} < {k}"
    return True, ""
