"""Enumeration of small edge cuts.

The augmentation framework of the paper (Section 2) reduces ``Aug_k`` to a
covering problem over the cuts of size ``k - 1`` of a ``(k-1)``-edge-connected
subgraph ``H``.  Because ``H`` is ``(k-1)``-edge-connected, those cuts are
exactly the *minimum* cuts of ``H`` (when any exist), and there are at most
``n choose 2`` of them (Dinitz-Karzanov-Lomonosov; footnote 4 of the paper).

This module enumerates them:

* size 1 -- bridges (exact, linear time),
* size 2 -- cut pairs via the spanning-tree covering-set characterisation of
  Claim 5.6 (exact),
* size >= 3 -- randomised contraction (Karger) seeded with all degree cuts,
  which finds every minimum cut with high probability, plus an exhaustive
  bipartition enumeration used as ground truth on tiny graphs.

A cut is represented by the vertex set of one side; an edge *covers* the cut
iff it crosses the bipartition, matching Definition 2.1 (removing the cut
leaves exactly two components, and a crossing edge reconnects them).

The enumerators run on the flat-array CSR kernel of
:mod:`repro.graphs.fastgraph` (integer ids, skip-edge BFS verification,
array union-find contraction) and return exactly the same :class:`Cut` sets
as the historical dict-of-dicts implementations, which remain available as
``*_nx`` oracles for the differential tests.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Hashable, Iterable, Sequence

import networkx as nx

from repro.graphs.connectivity import canonical_edge, edge_connectivity
from repro.graphs.fastgraph import FastGraph

Edge = tuple[Hashable, Hashable]

__all__ = [
    "Cut",
    "enumerate_bridge_cuts",
    "enumerate_cut_pairs",
    "enumerate_cut_pairs_nx",
    "enumerate_min_cuts_contraction",
    "enumerate_min_cuts_contraction_nx",
    "enumerate_cuts_exhaustive",
    "enumerate_cuts_of_size",
    "cut_is_covered",
    "edge_covers_cut",
]


@dataclass(frozen=True)
class Cut:
    """An edge cut of a graph ``H`` identified by one side of its bipartition.

    Attributes:
        side: The vertex set of one side (the lexicographically smaller side
            representation is chosen on construction so equal cuts compare equal).
        edges: The edges of ``H`` crossing the bipartition, in canonical form.
    """

    side: frozenset[Hashable]
    edges: frozenset[Edge] = field(compare=False)

    @property
    def size(self) -> int:
        """Number of edges in the cut."""
        return len(self.edges)

    @staticmethod
    def from_side(graph: nx.Graph, side: Iterable[Hashable]) -> "Cut":
        """Build a :class:`Cut` of *graph* from one side of a bipartition."""
        side_set = frozenset(side)
        other = frozenset(graph.nodes()) - side_set
        if not side_set or not other:
            raise ValueError("a cut side must be a proper non-empty subset of the vertices")
        crossing = frozenset(
            canonical_edge(u, v)
            for u, v in graph.edges()
            if (u in side_set) != (v in side_set)
        )
        canonical_side = _canonical_side(side_set, other)
        return Cut(side=canonical_side, edges=crossing)


def _canonical_side(side: frozenset, other: frozenset) -> frozenset:
    """Pick a canonical representative between the two sides of a bipartition."""
    if len(side) != len(other):
        return side if len(side) < len(other) else other
    return min(side, other, key=lambda s: sorted(repr(v) for v in s))


def edge_covers_cut(edge: Edge, cut: Cut) -> bool:
    """Return ``True`` iff *edge* crosses the bipartition of *cut* (Definition 2.1)."""
    u, v = edge
    return (u in cut.side) != (v in cut.side)


def cut_is_covered(cut: Cut, edges: Iterable[Edge]) -> bool:
    """Return ``True`` iff at least one edge in *edges* covers *cut*."""
    return any(edge_covers_cut(edge, cut) for edge in edges)


def _cut_from_side_ids(graph: nx.Graph, fast: FastGraph, side_ids: Iterable[int]) -> Cut:
    """Build a :class:`Cut` of *graph* from kernel vertex ids (one side).

    Produces exactly what ``Cut.from_side`` would, but computes the crossing
    edges on the flat edge arrays instead of iterating ``graph.edges()``.
    """
    in_side = [False] * fast.n
    for v in side_ids:
        in_side[v] = True
    labels = fast.labels
    side = frozenset(labels[v] for v in range(fast.n) if in_side[v])
    other = frozenset(labels[v] for v in range(fast.n) if not in_side[v])
    if not side or not other:
        raise ValueError("a cut side must be a proper non-empty subset of the vertices")
    tail, head = fast.tail, fast.head
    crossing = frozenset(
        canonical_edge(labels[tail[eid]], labels[head[eid]])
        for eid in range(fast.m)
        if in_side[tail[eid]] != in_side[head[eid]]
    )
    return Cut(side=_canonical_side(side, other), edges=crossing)


def enumerate_bridge_cuts(graph: nx.Graph) -> list[Cut]:
    """Return one :class:`Cut` per bridge of a connected *graph* (cuts of size 1).

    Bridges come from the kernel's iterative Tarjan pass and each side from a
    skip-edge BFS; the graph is never copied.
    """
    fast = FastGraph.from_nx(graph)
    cuts = []
    for eid in fast.bridges():
        # The cut side is the component containing one endpoint of the
        # bridge (not components[0], which on a disconnected input could be
        # an unrelated component whose "cut" the bridge does not cross).
        endpoint = fast.tail[eid]
        side = next(
            component
            for component in fast.components_without_edges((eid,))
            if endpoint in component
        )
        cuts.append(_cut_from_side_ids(graph, fast, side))
    return cuts


def enumerate_cut_pairs(graph: nx.Graph) -> list[Cut]:
    """Return all cuts of size 2 of a 2-edge-connected *graph* (exact).

    Uses the characterisation of Claim 5.6 on the flat-array kernel: fix any
    spanning tree ``T``.  A pair ``{e, f}`` is a cut pair iff either

    1. ``e`` is a tree edge and ``f`` is the unique non-tree edge covering it, or
    2. ``e`` and ``f`` are tree edges covered by exactly the same non-tree edges.

    Candidate pairs are verified by skip-edge BFS (exactly two components
    must remain), so inputs that are not 2-edge-connected are handled
    defensively exactly like the networkx oracle.
    """
    if graph.number_of_nodes() < 2:
        return []
    fast = FastGraph.from_nx(graph)
    if not fast.is_connected():
        raise ValueError("cut-pair enumeration requires a connected graph")
    cuts = []
    for pair in fast.cut_pairs():
        components = fast.components_without_edges(pair)
        cuts.append(_cut_from_side_ids(graph, fast, components[0]))
    return _dedupe(cuts)


def enumerate_cut_pairs_nx(graph: nx.Graph) -> list[Cut]:
    """The historical all-networkx cut-pair enumeration (differential oracle)."""
    if graph.number_of_nodes() < 2:
        return []
    if not nx.is_connected(graph):
        raise ValueError("cut-pair enumeration requires a connected graph")
    tree = nx.minimum_spanning_tree(graph, weight=None)
    tree_edges = [canonical_edge(u, v) for u, v in tree.edges()]
    tree_edge_set = set(tree_edges)
    non_tree_edges = [
        canonical_edge(u, v)
        for u, v in graph.edges()
        if canonical_edge(u, v) not in tree_edge_set
    ]
    root = next(iter(graph.nodes()))
    parent = {root: None}
    depth = {root: 0}
    for child, par in nx.bfs_predecessors(tree, root):
        parent[child] = par
        depth[child] = depth[par] + 1

    def tree_path_edges(u: Hashable, v: Hashable) -> set[Edge]:
        """Edges on the unique tree path between u and v."""
        path = set()
        a, b = u, v
        while a != b:
            if depth[a] >= depth[b]:
                path.add(canonical_edge(a, parent[a]))
                a = parent[a]
            else:
                path.add(canonical_edge(b, parent[b]))
                b = parent[b]
        return path

    cover_sets: dict[Edge, set[Edge]] = {t: set() for t in tree_edges}
    for f in non_tree_edges:
        for t in tree_path_edges(*f):
            cover_sets[t].add(f)

    pairs: set[frozenset[Edge]] = set()
    # Case 1: tree edge covered by a single non-tree edge.
    for t, covering in cover_sets.items():
        if len(covering) == 1:
            pairs.add(frozenset({t, next(iter(covering))}))
    # Case 2: tree edges with identical (non-empty or empty) cover sets.
    by_cover: dict[frozenset[Edge], list[Edge]] = {}
    for t, covering in cover_sets.items():
        by_cover.setdefault(frozenset(covering), []).append(t)
    for group in by_cover.values():
        for t1, t2 in itertools.combinations(group, 2):
            pairs.add(frozenset({t1, t2}))

    cuts = []
    for pair in pairs:
        pruned = graph.copy()
        pruned.remove_edges_from(pair)
        components = list(nx.connected_components(pruned))
        if len(components) != 2:
            # The pair is not actually a cut pair (can happen only if the
            # graph is not 2-edge-connected); skip defensively.
            continue
        cuts.append(Cut.from_side(graph, components[0]))
    return _dedupe(cuts)


def enumerate_cuts_exhaustive(graph: nx.Graph, size: int) -> list[Cut]:
    """Enumerate all cuts of exactly *size* edges by trying every bipartition.

    Exponential in ``n``; intended as ground truth for tests on graphs with at
    most ~16 vertices.
    """
    nodes = sorted(graph.nodes(), key=repr)
    if len(nodes) > 20:
        raise ValueError("exhaustive cut enumeration is limited to 20 vertices")
    anchor = nodes[0]
    rest = nodes[1:]
    cuts = []
    for r in range(0, len(rest) + 1):
        for subset in itertools.combinations(rest, r):
            side = frozenset(subset) | {anchor}
            if len(side) == len(nodes):
                continue
            cut = Cut.from_side(graph, side)
            if cut.size == size and _is_minimal_cut(graph, cut):
                cuts.append(cut)
    return _dedupe(cuts)


def _is_minimal_cut(graph: nx.Graph, cut: Cut) -> bool:
    """A bipartition cut is minimal iff removing it leaves exactly two components."""
    pruned = graph.copy()
    pruned.remove_edges_from(cut.edges)
    return nx.number_connected_components(pruned) == 2


def enumerate_min_cuts_contraction(
    graph: nx.Graph,
    size: int,
    seed: int | random.Random | None = None,
    runs: int | None = None,
) -> list[Cut]:
    """Enumerate cuts of exactly *size* edges via repeated random contraction.

    Karger's analysis shows each minimum cut survives a single contraction run
    with probability at least ``1 / (n choose 2)``, so ``O(n^2 log n)`` runs
    find all of them with high probability.  The run count can be overridden
    for speed; all degree cuts of the right size are always included, and
    every returned cut is verified.

    Contraction, crossing-edge counting and minimality verification all run
    on the flat-array kernel (array union-find, skip-edge BFS); the graph is
    never copied.  Most runs end on a side an earlier run already produced,
    and the check of a side is deterministic, so each distinct side is
    checked once.
    """
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    n = graph.number_of_nodes()
    if n < 2:
        return []
    if runs is None:
        runs = min(4 * n * n, 6000)

    fast = FastGraph.from_nx(graph)
    found: dict[frozenset, Cut] = {}
    seen: set[tuple[int, ...]] = set()

    def record(side_ids: list[int]) -> None:
        key = tuple(side_ids)
        if key in seen:
            return
        seen.add(key)
        if not side_ids or len(side_ids) >= fast.n:
            return
        crossing = fast.crossing_edges(side_ids)
        if len(crossing) != size:
            return
        if len(fast.components_without_edges(crossing)) != 2:
            return
        cut = _cut_from_side_ids(graph, fast, side_ids)
        found[cut.side] = cut

    # Seed with all single-vertex (degree) cuts.
    for v in range(fast.n):
        if fast.degree(v) == size:
            record([v])

    for _ in range(runs):
        order = list(range(fast.m))
        rng.shuffle(order)
        record(fast.contract_to_side(order))
    return list(found.values())


def enumerate_min_cuts_contraction_nx(
    graph: nx.Graph,
    size: int,
    seed: int | random.Random | None = None,
    runs: int | None = None,
) -> list[Cut]:
    """The historical dict-based contraction enumerator (differential oracle)."""
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    n = graph.number_of_nodes()
    if n < 2:
        return []
    if runs is None:
        runs = min(4 * n * n, 6000)

    found: dict[frozenset, Cut] = {}

    def record(side: Iterable[Hashable]) -> None:
        try:
            cut = Cut.from_side(graph, side)
        except ValueError:
            return
        if cut.size == size and _is_minimal_cut(graph, cut):
            found[cut.side] = cut

    # Seed with all single-vertex (degree) cuts.
    for node in graph.nodes():
        if graph.degree(node) == size:
            record({node})

    edges = [canonical_edge(u, v) for u, v in graph.edges()]
    for _ in range(runs):
        side = _contract_once(graph, edges, rng)
        record(side)
    return list(found.values())


def _contract_once(
    graph: nx.Graph,
    edges: Sequence[Edge],
    rng: random.Random,
) -> set[Hashable]:
    """One run of Karger contraction; returns the vertex set of one super-node."""
    label: dict[Hashable, Hashable] = {v: v for v in graph.nodes()}
    members: dict[Hashable, set[Hashable]] = {v: {v} for v in graph.nodes()}
    remaining = len(members)
    order = list(edges)
    rng.shuffle(order)
    for u, v in order:
        if remaining <= 2:
            break
        ru, rv = _find(label, u), _find(label, v)
        if ru == rv:
            continue
        # Union by size.
        if len(members[ru]) < len(members[rv]):
            ru, rv = rv, ru
        label[rv] = ru
        members[ru].update(members[rv])
        del members[rv]
        remaining -= 1
    # Return the smaller remaining super-node as the cut side.
    groups = sorted(members.values(), key=len)
    return set(groups[0])


def _find(label: dict, node: Hashable) -> Hashable:
    root = node
    while label[root] != root:
        root = label[root]
    while label[node] != root:
        label[node], node = root, label[node]
    return root


def _dedupe(cuts: Iterable[Cut]) -> list[Cut]:
    seen: dict[frozenset, Cut] = {}
    for cut in cuts:
        seen[cut.side] = cut
    return list(seen.values())


def enumerate_cuts_of_size(
    graph: nx.Graph,
    size: int,
    seed: int | random.Random | None = None,
    runs: int | None = None,
) -> list[Cut]:
    """Enumerate the cuts of exactly *size* edges of a connected *graph*.

    Dispatches to the exact enumerators for sizes 1 and 2, and to randomised
    contraction (exact w.h.p.) otherwise.  When the edge connectivity of the
    graph exceeds *size* the result is empty (there is nothing to cover and
    the corresponding ``Aug`` instance is already solved).
    """
    if size < 1:
        raise ValueError("cut size must be >= 1")
    if graph.number_of_nodes() < 2:
        return []
    connectivity = edge_connectivity(graph)
    if connectivity > size:
        return []
    if connectivity < size:
        raise ValueError(
            f"graph has edge connectivity {connectivity} < requested cut size {size}; "
            "the augmentation framework requires a (size)-edge-connected input"
        )
    if size == 1:
        return enumerate_bridge_cuts(graph)
    if size == 2:
        return enumerate_cut_pairs(graph)
    if graph.number_of_nodes() <= 14:
        return enumerate_cuts_exhaustive(graph, size)
    return enumerate_min_cuts_contraction(graph, size, seed=seed, runs=runs)
