"""Reference implementations the library's array kernels are tested against.

Each definition here is the historical networkx / set-algebra version of a
solver or kernel in :mod:`repro`.  The library runs one path per solver --
the flat-array kernels -- and the differential sweeps in ``test_fastgraph``,
``test_fastcover`` and ``test_fastaug`` assert that every kernel reproduces
its reference here bit for bit: edge sets, weights, iteration counts,
per-iteration histories and ledger round totals, with identical RNG streams.

Where a reference shares a preamble or a driver with its kernel (input
validation and ``H`` for 3-ECSS, the Theorem 1.2 composition, the TAP run
parameters), it imports the library's private helper instead of copying it,
so the two can only differ in the loop under test.  The library builds
each ``Aug_k`` level on the input's :class:`FastGraph` snapshot; the
reference keeps the networkx level set-up (:func:`_level_setup`).

Tests import this module as ``from oracles import ...``.
"""

from __future__ import annotations

import heapq
import itertools
import random
from collections import Counter, deque
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Hashable, Iterable

import networkx as nx

from repro.congest.cost_model import CostModel
from repro.congest.metrics import RoundLedger
from repro.core.fastaug import INFINITE_EFFECTIVENESS, GuessingSchedule
from repro.core.k_ecss import AugIterationStats, AugmentationResult, _k_ecss_impl
from repro.decomposition.skeleton import SkeletonTree
from repro.core.result import ECSSResult
from repro.core.three_ecss import ThreeEcssIterationStats, _result, _setup, _stall
from repro.cycle_space.labels import (
    EdgeLabelling,
    _check,
    _default_bits,
    compute_labels,
)
from repro.graphs.connectivity import canonical_edge
from repro.graphs.cuts import enumerate_cuts_of_size
from repro.graphs.fastgraph import FastGraph, hop_diameter
from repro.mst.sequential import minimum_spanning_tree
from repro.tap.distributed import (
    TapIterationStats,
    TapResult,
    _resolve_run_parameters,
)
from repro.tap.greedy import GreedyTapResult
from repro.trees.rooted import RootedTree

Edge = tuple[Hashable, Hashable]


# ------------------------------------------------------------------ trees
def bfs_tree_nx(edges: Iterable[Edge], root: Hashable) -> tuple[list, dict]:
    """``(bfs_order, parent)`` of the tree on the ordered *edges*, via networkx.

    The historical :class:`RootedTree` built an ``nx.Graph`` from the edges
    and ran ``nx.bfs_edges`` from the root; the root's parent is ``None``.
    """
    tree = nx.Graph()
    tree.add_node(root)
    tree.add_edges_from(edges)
    parent: dict[Hashable, Hashable | None] = {root: None}
    order = [root]
    for u, v in nx.bfs_edges(tree, root):
        parent[v] = u
        order.append(v)
    return order, parent


def build_subgraph(graph: nx.Graph, edges: Iterable[Edge]) -> nx.Graph:
    """Return the spanning subgraph of *graph* induced by *edges* (weights copied)."""
    subgraph = nx.Graph()
    subgraph.add_nodes_from(graph.nodes())
    for u, v in edges:
        subgraph.add_edge(u, v, weight=graph[u][v].get("weight", 1))
    return subgraph


def skeleton_as_networkx(skeleton: SkeletonTree) -> nx.Graph:
    """The skeleton tree as an ``nx.Graph`` over the marked vertices."""
    graph = nx.Graph()
    graph.add_nodes_from(skeleton.nodes())
    for child in skeleton.nodes():
        parent = skeleton.parent(child)
        if parent is not None:
            graph.add_edge(parent, child)
    return graph


def prim_mst(graph: nx.Graph, start: Hashable | None = None) -> list[Edge]:
    """The canonical edges of an MST of *graph* via Prim's algorithm.

    A cross-check on :func:`repro.mst.sequential.minimum_spanning_tree`.
    Heap entries compare by ``(weight, repr(edge))``, so node labels need
    not be mutually comparable.
    """
    if graph.number_of_nodes() == 0:
        raise ValueError("cannot compute an MST of an empty graph")
    if not nx.is_connected(graph):
        raise ValueError("the graph is not connected; it has no spanning tree")
    if start is None:
        start = min(graph.nodes(), key=repr)

    def push(heap: list, u: Hashable, v: Hashable) -> None:
        edge = canonical_edge(u, v)
        heapq.heappush(heap, (graph[u][v].get("weight", 1), repr(edge), edge))

    visited = {start}
    tree: list[Edge] = []
    heap: list[tuple[int, str, Edge]] = []
    for neighbor in graph.neighbors(start):
        push(heap, start, neighbor)
    while heap and len(visited) < graph.number_of_nodes():
        _, _, (u, v) = heapq.heappop(heap)
        if u in visited and v in visited:
            continue
        new = v if u in visited else u
        tree.append((u, v))
        visited.add(new)
        for neighbor in graph.neighbors(new):
            if neighbor not in visited:
                push(heap, new, neighbor)
    return tree


# ------------------------------------------------- cost-effectiveness
# Section 2.1 in exact fractions: rho(e) = |C_e| / w(e), rounded up to
# rho~, the smallest power of two strictly greater than rho.  The kernels
# compare integer exponents of rho~ instead.
def cost_effectiveness(uncovered: int, weight: int) -> object:
    """Return ``rho = uncovered / weight`` (infinite when ``weight == 0``)."""
    if uncovered < 0:
        raise ValueError("the number of uncovered cuts cannot be negative")
    if weight < 0:
        raise ValueError("edge weights must be non-negative")
    if weight == 0:
        return INFINITE_EFFECTIVENESS
    return Fraction(uncovered, weight)


def round_up_to_power_of_two(value: Fraction) -> Fraction:
    """Return the smallest power of two strictly greater than *value* (> 0).

    The paper rounds ``rho`` "to the closest power of 2 that is greater than
    rho", so for every candidate ``rho~ / 2 <= rho < rho~`` -- the property the
    approximation analysis (Lemma 3.6) uses.
    """
    if value <= 0:
        raise ValueError("can only round positive values")
    power = Fraction(1)
    if value >= 1:
        while power <= value:
            power *= 2
        return power
    while power / 2 > value:
        power /= 2
    return power


def rounded_cost_effectiveness(uncovered: int, weight: int) -> object:
    """Return ``rho~`` for an edge covering *uncovered* cuts at cost *weight*."""
    rho = cost_effectiveness(uncovered, weight)
    if rho is INFINITE_EFFECTIVENESS:
        return rho
    if rho == 0:
        return Fraction(0)
    return round_up_to_power_of_two(rho)


# ---------------------------------------------------------- connectivity
def edge_connectivity_nx(graph: nx.Graph) -> int:
    """The historical all-networkx edge connectivity."""
    if graph.number_of_nodes() <= 1:
        return 0
    if not nx.is_connected(graph):
        return 0
    return nx.edge_connectivity(graph)


def components_without_edges(fast: FastGraph, removed: Iterable[int]) -> list[list[int]]:
    """Connected components of *fast* after deleting the edge ids in *removed*.

    A BFS that skips the removed slots; the tests confirm the cut methods
    with it (a bipartition cut is minimal iff exactly two components remain).
    """
    skip = set(removed)
    comp = [-1] * fast.n
    components: list[list[int]] = []
    indptr, adj, adj_eid = fast.indptr, fast.adj, fast.adj_eid
    for start in range(fast.n):
        if comp[start] >= 0:
            continue
        label = len(components)
        comp[start] = label
        members = [start]
        queue = deque([start])
        while queue:
            v = queue.popleft()
            for slot in range(indptr[v], indptr[v + 1]):
                if adj_eid[slot] in skip:
                    continue
                w = adj[slot]
                if comp[w] < 0:
                    comp[w] = label
                    members.append(w)
                    queue.append(w)
        components.append(members)
    return components


def bridges_nx(graph: nx.Graph) -> set[Edge]:
    """The historical networkx bridge finder."""
    if graph.number_of_edges() == 0:
        return set()
    return {canonical_edge(u, v) for u, v in nx.bridges(graph)}


# ------------------------------------------------------------------ cuts
@dataclass(frozen=True)
class Cut:
    """An edge cut of a graph ``H`` in node labels, identified by one side.

    The label form of the ``(edge ids, side ids)`` pairs that
    :func:`repro.graphs.cuts.enumerate_cuts_of_size` returns.

    Attributes:
        side: The vertex set of one side: the smaller one, and on a tie the
            one whose sorted ``repr`` labels come first, so equal cuts
            compare equal.
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
        if len(side_set) != len(other):
            canonical = side_set if len(side_set) < len(other) else other
        else:
            canonical = min(side_set, other, key=lambda s: sorted(repr(v) for v in s))
        return Cut(side=canonical, edges=crossing)


def label_cuts(graph: nx.Graph, size: int) -> list[Cut]:
    """:func:`enumerate_cuts_of_size` on *graph*, each cut as a label :class:`Cut`.

    Asserts that every cut's edge ids are exactly the edges crossing its side.
    """
    fast = FastGraph.from_nx(graph)
    cuts = []
    for edge_ids, side in enumerate_cuts_of_size(fast, size):
        cut = Cut.from_side(graph, [fast.labels[v] for v in side])
        assert {frozenset(fast.edge_labels(eid)) for eid in edge_ids} == {
            frozenset(edge) for edge in cut.edges
        }
        cuts.append(cut)
    return cuts


def enumerate_cut_pairs_nx(graph: nx.Graph) -> list[Cut]:
    """The historical all-networkx cut-pair enumeration."""
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

    Exponential in ``n``; ground truth on graphs with at most ~16 vertices.
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


def _dedupe(cuts: Iterable[Cut]) -> list[Cut]:
    seen: dict[frozenset, Cut] = {}
    for cut in cuts:
        seen[cut.side] = cut
    return list(seen.values())


# ---------------------------------------------------------------- labels
def _labels_nx(
    non_tree_edges: list[Edge],
    tree: RootedTree,
    bits: int,
    mode: str,
    rng: random.Random,
) -> tuple[dict[Edge, object], dict[Edge, frozenset[Edge]]]:
    """Labels of *non_tree_edges* (drawn in list order) and of the tree edges.

    Random mode draws one ``bits``-bit int per non-tree edge and XORs it
    onto each tree edge of its path; exact mode labels edge ``e`` with
    ``{e}`` and each tree edge with its covering set.  Returns ``(labels,
    tree_paths)``.
    """
    tree_paths = {edge: frozenset(tree.tree_path_edges(*edge)) for edge in non_tree_edges}
    labels: dict[Edge, object] = {}
    if mode == "random":
        for edge in non_tree_edges:
            labels[edge] = rng.getrandbits(bits)
        accumulator: dict[Edge, int] = {t: 0 for t in tree.tree_edges()}
        for edge in non_tree_edges:
            for t in tree_paths[edge]:
                accumulator[t] ^= labels[edge]
        labels.update(accumulator)
    else:
        for edge in non_tree_edges:
            labels[edge] = frozenset({edge})
        covering: dict[Edge, set[Edge]] = {t: set() for t in tree.tree_edges()}
        for edge in non_tree_edges:
            for t in tree_paths[edge]:
                covering[t].add(edge)
        for t, cover in covering.items():
            labels[t] = frozenset(cover)
    return labels, tree_paths


def compute_labels_nx(
    graph: nx.Graph,
    tree: RootedTree | None = None,
    bits: int | None = None,
    mode: str = "random",
    seed: int | random.Random | None = None,
) -> EdgeLabelling:
    """The historical per-path accumulation.

    Draws the same RNG stream and produces identical labels to
    :func:`repro.cycle_space.labels.compute_labels`, but XORs every non-tree
    label onto each tree edge of its path individually -- O(sum of path
    lengths).
    """
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    _check(graph.number_of_nodes(), mode)
    if tree is None:
        tree = RootedTree.bfs_tree(graph)
    if bits is None:
        bits = _default_bits(graph.number_of_nodes())
    if mode == "exact":
        bits = 0
    tree_edge_set = set(tree.tree_edges())
    non_tree_edges = [
        edge
        for edge in (canonical_edge(u, v) for u, v in graph.edges())
        if edge not in tree_edge_set
    ]
    labels, tree_paths = _labels_nx(non_tree_edges, tree, bits, mode, rng)
    return EdgeLabelling(
        tree=tree,
        non_tree_edges=non_tree_edges,
        non_tree_labels=[labels[edge] for edge in non_tree_edges],
        tree_labels=[labels[edge] for edge in tree.parent_edges[1:]],
        bits=bits,
        mode=mode,
        graph=graph,
        labels=labels,
        tree_paths=tree_paths,
    )


# ------------------------------------------------------------------- TAP
class CoverageStateNX:
    """The historical ``frozenset``-based TAP coverage bookkeeping.

    For every non-tree edge ``e`` it keeps the set ``S_e`` of tree edges on
    its tree path as a ``frozenset`` of tree-edge indices (tree edges sorted
    by ``repr``, the index space of :class:`repro.tap.fastcover.FastCoverage`)
    and answers every query with Python set algebra.
    """

    def __init__(self, graph: nx.Graph, tree: RootedTree) -> None:
        self.graph = graph
        self.tree = tree

        self._tree_edges: list[Edge] = sorted(tree.tree_edges(), key=repr)
        self._tree_edge_index: dict[Edge, int] = {
            edge: index for index, edge in enumerate(self._tree_edges)
        }
        self._covered: set[int] = set()

        tree_edge_set = set(self._tree_edges)
        self._paths: dict[Edge, frozenset[int]] = {}
        self._weights: dict[Edge, int] = {}
        for u, v, data in graph.edges(data=True):
            edge = canonical_edge(u, v)
            if edge in tree_edge_set:
                continue
            path = frozenset(
                self._tree_edge_index[canonical_edge(a, b)]
                for a, b in tree.tree_path_edges(u, v)
            )
            self._paths[edge] = path
            self._weights[edge] = data.get("weight", 1)

    # --------------------------------------------------------------- queries
    @property
    def tree_edges(self) -> list[Edge]:
        return list(self._tree_edges)

    @property
    def non_tree_edges(self) -> list[Edge]:
        return list(self._paths)

    def weight(self, edge: Edge) -> int:
        return self._weights[canonical_edge(*edge)]

    def path(self, edge: Edge) -> frozenset[int]:
        return self._paths[canonical_edge(*edge)]

    def covered_indices(self) -> frozenset[int]:
        return frozenset(self._covered)

    def uncovered_indices(self) -> frozenset[int]:
        return frozenset(range(len(self._tree_edges))) - frozenset(self._covered)

    def uncovered_on_path(self, edge: Edge) -> frozenset[int]:
        return self.path(edge) - frozenset(self._covered)

    def uncovered_count(self, edge: Edge) -> int:
        return len(self.uncovered_on_path(edge))

    def all_covered(self) -> bool:
        return len(self._covered) == len(self._tree_edges)

    # --------------------------------------------------------------- updates
    def cover_with(self, edge: Edge) -> set[int]:
        path = self.path(edge)
        new = set(path) - self._covered
        self._covered.update(path)
        return new

    def cover_with_many(self, edges: Iterable[Edge]) -> set[int]:
        new: set[int] = set()
        for edge in edges:
            new.update(self.cover_with(edge))
        return new

    # ------------------------------------------------------------ validation
    def verify_augmentation(self, edges: Iterable[Edge]) -> bool:
        covered: set[int] = set()
        for edge in edges:
            covered.update(self.path(edge))
        return len(covered) == len(self._tree_edges)


def greedy_tap_nx(graph: nx.Graph, tree: RootedTree) -> GreedyTapResult:
    """The historical per-step rescan greedy TAP.

    Re-evaluates ``cost_effectiveness`` as exact fractions and breaks ties
    by ``repr`` inside the loop, the behaviour
    :func:`repro.tap.greedy.greedy_tap` reproduces exactly.
    """
    state = CoverageStateNX(graph, tree)
    augmentation: set[Edge] = set()
    steps = 0

    zero_weight = [edge for edge in state.non_tree_edges if state.weight(edge) == 0]
    if zero_weight:
        augmentation.update(zero_weight)
        state.cover_with_many(zero_weight)

    while not state.all_covered():
        steps += 1
        best_edge = None
        best_value = None
        for edge in state.non_tree_edges:
            if edge in augmentation:
                continue
            uncovered = state.uncovered_count(edge)
            if uncovered == 0:
                continue
            value = cost_effectiveness(uncovered, state.weight(edge))
            if best_value is None or value > best_value or (
                value == best_value and repr(edge) < repr(best_edge)
            ):
                best_value = value
                best_edge = edge
        if best_edge is None:
            raise RuntimeError(
                "greedy TAP ran out of covering edges; the graph is not 2-edge-connected"
            )
        augmentation.add(best_edge)
        state.cover_with(best_edge)

    weight = sum(state.weight(edge) for edge in augmentation)
    return GreedyTapResult(augmentation=augmentation, weight=weight, steps=steps)


def distributed_tap_nx(
    graph: nx.Graph,
    tree: RootedTree,
    seed: int | random.Random | None = None,
    segment_diameter: int | None = None,
    cost_model: CostModel | None = None,
    symmetry_breaking: bool = True,
    max_iterations: int | None = None,
) -> TapResult:
    """The historical set-algebra distributed TAP.

    Bit-identical to :func:`repro.tap.distributed.distributed_tap` on every
    input -- same RNG stream, candidate order, tie-breaks and ledger charges
    -- but runs on :class:`CoverageStateNX` ``frozenset`` paths.
    """
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    n = graph.number_of_nodes()
    cost_model, segment_diameter, max_iterations = _resolve_run_parameters(
        graph, cost_model, segment_diameter, max_iterations
    )

    state = CoverageStateNX(graph, tree)
    ledger = RoundLedger()
    augmentation: set[Edge] = set()
    history: list[TapIterationStats] = []

    zero_weight = [edge for edge in state.non_tree_edges if state.weight(edge) == 0]
    if zero_weight:
        augmentation.update(zero_weight)
        state.cover_with_many(zero_weight)
        ledger.add(
            "tap-zero-weight-setup",
            cost_model.tap_iteration_rounds(segment_diameter),
            note="initial coverage by zero-weight edges (pre-iteration Line 6)",
        )

    iteration = 0
    while not state.all_covered():
        iteration += 1
        if iteration > max_iterations:
            raise RuntimeError(
                f"weighted TAP did not converge within {max_iterations} iterations; "
                "is the input graph 2-edge-connected?"
            )

        # Line 1-2: rounded cost-effectiveness and candidate selection.
        effectiveness: dict[Edge, object] = {}
        for edge in state.non_tree_edges:
            if edge in augmentation:
                continue
            uncovered = state.uncovered_count(edge)
            if uncovered == 0:
                continue
            effectiveness[edge] = rounded_cost_effectiveness(uncovered, state.weight(edge))
        if not effectiveness:
            raise RuntimeError(
                "no non-tree edge covers the remaining uncovered tree edges; "
                "the input graph is not 2-edge-connected"
            )
        maximum = max(effectiveness.values())
        candidates = sorted(
            (edge for edge, value in effectiveness.items() if value == maximum), key=repr
        )

        if symmetry_breaking:
            added = _voting_round_nx(state, candidates, rng, n)
        else:
            added = list(candidates)

        newly_covered = state.cover_with_many(added)
        augmentation.update(added)

        ledger.add(
            "tap-iteration",
            cost_model.tap_iteration_rounds(segment_diameter),
            note=f"iteration {iteration} (Lemma 3.3: O(D + sqrt n))",
        )
        history.append(
            TapIterationStats(
                iteration=iteration,
                max_rounded_effectiveness=maximum,
                candidates=len(candidates),
                added=len(added),
                newly_covered=len(newly_covered),
                uncovered_remaining=len(state.uncovered_indices()),
            )
        )

    weight = sum(state.weight(edge) for edge in augmentation)
    return TapResult(
        augmentation=augmentation,
        weight=weight,
        iterations=iteration,
        ledger=ledger,
        history=history,
    )


def _voting_round_nx(
    state: CoverageStateNX,
    candidates: list[Edge],
    rng: random.Random,
    n: int,
) -> list[Edge]:
    """Lines 3-5: random numbers, votes of uncovered tree edges, threshold check."""
    numbers = {edge: rng.randint(1, n ** 8) for edge in candidates}

    # Every uncovered tree edge votes for the first candidate covering it.
    votes: dict[Edge, int] = {edge: 0 for edge in candidates}
    candidate_uncovered = {edge: state.uncovered_on_path(edge) for edge in candidates}
    voters: dict[int, list[Edge]] = {}
    for edge, uncovered in candidate_uncovered.items():
        for index in uncovered:
            voters.setdefault(index, []).append(edge)
    for index, covering in voters.items():
        chosen = min(covering, key=lambda edge: (numbers[edge], repr(edge)))
        votes[chosen] += 1

    added = []
    for edge in candidates:
        uncovered = candidate_uncovered[edge]
        if not uncovered:
            continue
        # Line 5: votes >= |C_e| / 8, in exact integer arithmetic.
        if 8 * votes[edge] >= len(uncovered):
            added.append(edge)
    return added


# ---------------------------------------------------------------- 3-ECSS
def _score_round_nx(
    labels: dict[Edge, object],
    tree_edge_set: set[Edge],
    candidate_paths: dict[Edge, list[Edge]],
    added: set[Edge],
) -> tuple[int, dict[Edge, Fraction]]:
    """One iteration of the historical Claim 5.8 scoring.

    Returns ``(tree_in_pairs, rounded)`` where *rounded* maps each candidate
    with positive cost-effectiveness to its rounded value ``rho~`` -- computed
    once per candidate and reused for both the maximum and the candidate
    filter.
    """
    n_phi = Counter(labels.values())
    tree_in_pairs = sum(1 for t in tree_edge_set if n_phi[labels[t]] > 1)
    if tree_in_pairs == 0:
        return 0, {}

    # Claim 5.8: cost-effectiveness of e is sum over labels on its path of
    # n_{phi,e} * (n_phi - n_{phi,e}).
    rounded: dict[Edge, Fraction] = {}
    for edge, path in candidate_paths.items():
        if edge in added:
            continue
        on_path = Counter(labels[t] for t in path)
        value = sum(
            count * (n_phi[label] - count) for label, count in on_path.items()
        )
        if value > 0:
            rounded[edge] = round_up_to_power_of_two(Fraction(value))
    return tree_in_pairs, rounded


def three_ecss_nx(
    graph: nx.Graph,
    seed: int | random.Random | None = None,
    label_bits: int | None = None,
    exact_labels: bool = False,
    schedule_constant: int = 2,
    simulate_bfs: bool = False,
) -> ECSSResult:
    """The set/``Counter`` 3-ECSS on one evolving label dict.

    Same arguments and bit-identical output as
    :func:`repro.core.three_ecss.three_ecss`: ``H`` is labelled once, each
    activated edge draws one label (a ``{e}`` frozenset in exact mode) that
    is XORed onto every tree edge of its path, and after every addition the
    whole labelling is rescored with a :class:`collections.Counter` per
    candidate path and exact :class:`~fractions.Fraction` values.  A stall
    redraws ``H ∪ A`` once, in the solver's draw order (``H``, then ``A`` in
    activation order).
    """
    rng, cost_model, ledger, h_edges, tree, h_order = _setup(
        graph, seed, label_bits, schedule_constant, simulate_bfs
    )
    # H as an nx.Graph whose edges() order is h_order, the draw order.
    current = nx.Graph()
    current.add_nodes_from(graph.nodes())
    current.add_edges_from(h_order)
    tree_edge_set = set(tree.tree_edges())
    mode = "exact" if exact_labels else "random"

    # Pre-compute the tree path of every potential candidate edge.
    candidate_paths: dict[Edge, list[Edge]] = {}
    for u, v in graph.edges():
        edge = canonical_edge(u, v)
        if edge in h_edges:
            continue
        candidate_paths[edge] = [canonical_edge(a, b) for a, b in tree.tree_path_edges(u, v)]

    labelling = compute_labels(current, tree=tree, bits=label_bits, mode=mode, seed=rng)
    labels = dict(labelling.labels)
    bits = labelling.bits
    draw_order = labelling.non_tree_edges()
    added: set[Edge] = set()
    scan = _score_round_nx(labels, tree_edge_set, candidate_paths, added)
    history: list[ThreeEcssIterationStats] = []

    schedule = GuessingSchedule(
        graph.number_of_edges(), max(1, schedule_constant * cost_model.log_n)
    )
    previous_max: Fraction | None = None
    previous_probability_was_one = False

    n = graph.number_of_nodes()
    max_iterations = 16 * schedule_constant * cost_model.log_n ** 3 + 8 * n + 64
    iteration = 0
    while True:
        iteration += 1
        if iteration > max_iterations:
            raise RuntimeError(f"3-ECSS did not converge within {max_iterations} iterations")

        ledger.add(
            "3ecss-iteration",
            cost_model.three_ecss_iteration_rounds(),
            note=f"iteration {iteration} (labels + cost-effectiveness, O(D))",
        )
        tree_in_pairs, rounded = scan
        if tree_in_pairs and not rounded:
            labels, _ = _labels_nx(draw_order, tree, bits, mode, rng)
            scan = _score_round_nx(labels, tree_edge_set, candidate_paths, added)
            tree_in_pairs, rounded = scan
        if tree_in_pairs == 0:
            history.append(
                ThreeEcssIterationStats(
                    iteration=iteration,
                    probability=schedule.probability,
                    candidates=0,
                    added=0,
                    tree_edges_in_cut_pairs=0,
                )
            )
            break
        if not rounded:
            raise _stall(tree_in_pairs, label_bits)

        computed_max = max(rounded.values())
        # Lemma 5.11's robustness tweak: the maximum rounded cost-effectiveness
        # is forced to be non-increasing, and to halve after a p = 1 iteration.
        maximum = computed_max
        if previous_max is not None:
            maximum = min(maximum, previous_max)
            if previous_probability_was_one:
                maximum = min(maximum, previous_max / 2)
        candidates = sorted(
            (edge for edge, value in rounded.items() if value >= maximum),
            key=repr,
        )

        probability = schedule.update(maximum)
        previous_max = maximum
        previous_probability_was_one = probability >= 1.0

        if probability >= 1.0:
            active = list(candidates)
        else:
            active = [edge for edge in candidates if rng.random() < probability]
        if active:
            for edge in active:
                label = frozenset({edge}) if mode == "exact" else rng.getrandbits(bits)
                labels[edge] = label
                for t in candidate_paths[edge]:
                    labels[t] ^= label
            draw_order.extend(active)
            added.update(active)
            scan = _score_round_nx(labels, tree_edge_set, candidate_paths, added)

        history.append(
            ThreeEcssIterationStats(
                iteration=iteration,
                probability=probability,
                candidates=len(candidates),
                added=len(active),
                tree_edges_in_cut_pairs=tree_in_pairs,
            )
        )

    return _result(graph, h_edges, added, history, mode, cost_model, ledger, iteration)


# ---------------------------------------------------------------- k-ECSS
def _recompute_effectiveness_nx(
    candidates_pool: list[Edge],
    added: set[Edge],
    covers: dict[Edge, frozenset[int]],
    uncovered: set[int],
    weight_of: dict[Edge, int],
) -> dict[Edge, object]:
    """The historical O(|E| * |cuts|) recompute (the ``Aug_k`` inner loop)."""
    effectiveness: dict[Edge, object] = {}
    for edge in candidates_pool:
        if edge in added:
            continue
        live = len(covers[edge] & uncovered)
        if live == 0:
            continue
        effectiveness[edge] = rounded_cost_effectiveness(live, weight_of[edge])
    return effectiveness


def _level_setup(
    graph: nx.Graph,
    current_edges: frozenset[Edge],
    k: int,
    cost_model: CostModel | None,
) -> tuple[CostModel, RoundLedger, list[Cut], list[Edge], dict[Edge, int]]:
    """The networkx preamble of one ``Aug_k`` level (broadcast + cut enumeration)."""
    if cost_model is None:
        cost_model = CostModel(n=graph.number_of_nodes(), diameter=hop_diameter(graph))
    subgraph = build_subgraph(graph, current_edges)
    ledger = RoundLedger()
    ledger.add(
        "aug-state-broadcast",
        cost_model.aug_state_broadcast_rounds(len(current_edges)),
        note=f"all vertices learn H (|H| = {len(current_edges)} edges, O(D + |H|))",
    )
    cuts = label_cuts(subgraph, k - 1)
    current = frozenset(canonical_edge(u, v) for u, v in current_edges)
    candidates_pool = [
        canonical_edge(u, v) for u, v in graph.edges() if canonical_edge(u, v) not in current
    ]
    weight_of = {
        edge: graph[edge[0]][edge[1]].get("weight", 1) for edge in candidates_pool
    }
    return cost_model, ledger, cuts, candidates_pool, weight_of


def augment_to_k_nx(
    graph: nx.Graph,
    current_edges: frozenset[Edge],
    k: int,
    seed: int | random.Random | None = None,
    schedule_constant: int = 2,
    cost_model: CostModel | None = None,
    use_mst_filter: bool = True,
    max_iterations: int | None = None,
) -> AugmentationResult:
    """The historical frozenset ``Aug_k``.

    Same arguments and bit-identical output as
    :func:`repro.core.k_ecss.augment_to_k`; coverage is recomputed with
    frozenset intersections against the uncovered-cut set whenever edges
    join ``A``, and Line 4 rebuilds the reweighted graph for a full MST.
    """
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    n = graph.number_of_nodes()
    m = graph.number_of_edges()
    cost_model, ledger, cuts, candidates_pool, weight_of = _level_setup(
        graph, current_edges, k, cost_model
    )
    if max_iterations is None:
        max_iterations = 16 * schedule_constant * cost_model.log_n ** 3 + 8 * n + 64
    if not cuts:
        return AugmentationResult(
            added=frozenset(), weight=0, iterations=0, ledger=ledger,
            metadata={"cuts": 0, "history": [], "k": k},
        )

    covers: dict[Edge, frozenset[int]] = {}
    for edge in candidates_pool:
        u, v = edge
        covers[edge] = frozenset(
            index for index, cut in enumerate(cuts) if (u in cut.side) != (v in cut.side)
        )

    uncovered: set[int] = set(range(len(cuts)))
    added: set[Edge] = set()
    history: list[AugIterationStats] = []

    schedule = GuessingSchedule(m, max(1, schedule_constant * cost_model.log_n))
    effectiveness_dirty = True
    effectiveness: dict[Edge, object] = {}

    iteration = 0
    while uncovered:
        iteration += 1
        if iteration > max_iterations:
            raise RuntimeError(
                f"Aug_{k} did not converge within {max_iterations} iterations"
            )

        # Lines 1-2: (re)compute rounded cost-effectiveness when coverage changed.
        if effectiveness_dirty:
            effectiveness = _recompute_effectiveness_nx(
                candidates_pool, added, covers, uncovered, weight_of
            )
            effectiveness_dirty = False
        if not effectiveness:
            raise RuntimeError(
                f"no edge of G covers the remaining cuts of size {k - 1}; "
                f"the input graph is not {k}-edge-connected"
            )
        maximum = max(effectiveness.values())
        candidate_edges = sorted(
            (edge for edge, value in effectiveness.items() if value == maximum), key=repr
        )

        probability = schedule.update(maximum)

        # Line 3: activation.
        if probability >= 1.0:
            active = list(candidate_edges)
        else:
            active = [edge for edge in candidate_edges if rng.random() < probability]

        # Line 4: MST filtering keeps A acyclic.
        newly_added: list[Edge] = []
        if active:
            if use_mst_filter:
                chosen = _mst_filter(graph, added, active)
            else:
                chosen = list(active)
            for edge in chosen:
                if edge not in added:
                    added.add(edge)
                    newly_added.append(edge)

        if newly_added:
            for edge in newly_added:
                uncovered -= covers[edge]
            effectiveness_dirty = True

        ledger.add(
            "aug-iteration",
            cost_model.aug_iteration_rounds(len(newly_added)),
            note=f"Aug_{k} iteration {iteration} (Lemma 4.4)",
        )
        history.append(
            AugIterationStats(
                iteration=iteration,
                probability=probability,
                candidates=len(candidate_edges),
                active=len(active),
                added=len(newly_added),
                uncovered_remaining=len(uncovered),
            )
        )

    return AugmentationResult(
        added=frozenset(added),
        weight=sum(weight_of[edge] for edge in added),
        iterations=iteration,
        ledger=ledger,
        metadata={"cuts": len(cuts), "history": history, "k": k},
    )


def _mst_filter(graph: nx.Graph, zero_weight_edges: set[Edge], active: list[Edge]) -> list[Edge]:
    """Line 4: keep only the active candidates that appear in the filtered MST.

    The MST is computed over ``G`` with weight 0 for edges already in ``A``,
    weight 1 for active candidates and weight 2 for everything else; ties are
    broken by canonical edge id, so the filter is deterministic given the set
    of active candidates.  The library runs the equivalent persistent
    union-find, ``repro.core.k_ecss._forest_filter``.
    """
    active_set = set(active)
    reweighted = nx.Graph()
    reweighted.add_nodes_from(graph.nodes())
    for u, v in graph.edges():
        edge = canonical_edge(u, v)
        if edge in zero_weight_edges:
            weight = 0
        elif edge in active_set:
            weight = 1
        else:
            weight = 2
        reweighted.add_edge(u, v, weight=weight)
    mst = set(minimum_spanning_tree(reweighted))
    return [edge for edge in active if canonical_edge(*edge) in mst]


def k_ecss_nx(
    graph: nx.Graph,
    k: int,
    seed: int | random.Random | None = None,
    schedule_constant: int = 2,
    use_mst_filter: bool = True,
) -> ECSSResult:
    """:func:`repro.core.k_ecss.k_ecss` over the :func:`augment_to_k_nx` levels.

    The driver hands each level the input's snapshot; the reference levels
    run on *graph* itself.
    """

    def level_solver(fast: FastGraph, *args, **kwargs) -> AugmentationResult:
        del fast
        return augment_to_k_nx(graph, *args, **kwargs)

    return _k_ecss_impl(graph, k, seed, schedule_constant, use_mst_filter, level_solver)
