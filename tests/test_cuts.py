"""Tests for the cut enumeration machinery."""

from __future__ import annotations

import itertools

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    Cut,
    components_without_edges,
    edge_connectivity_nx,
    enumerate_cuts_exhaustive,
    label_cuts,
)
from repro.graphs import fastgraph
from repro.graphs.cuts import enumerate_cuts_of_size
from repro.graphs.fastgraph import FastGraph
from repro.graphs.generators import (
    FAMILIES,
    cycle_with_chords,
    harary_graph,
    random_k_edge_connected_graph,
)


def _cut_keys(cuts) -> set:
    return {(cut.side, cut.edges) for cut in cuts}


def _kernel_cuts(graph: nx.Graph, size: int) -> set:
    """``FastGraph.cuts_of_size`` as (side, crossing edges) keys of *graph*."""
    fast = FastGraph.from_nx(graph)
    keys = set()
    for edge_ids, side in fast.cuts_of_size(size):
        cut = Cut.from_side(graph, [fast.labels[v] for v in side])
        assert {frozenset(fast.edge_labels(eid)) for eid in edge_ids} == {
            frozenset(edge) for edge in cut.edges
        }
        keys.add((cut.side, cut.edges))
    return keys


def _brute_force_cuts(graph: nx.Graph, size: int) -> set:
    """Every *size*-subset of edges whose removal leaves exactly two
    components with every removed edge between them."""
    keys = set()
    for subset in itertools.combinations(graph.edges(), size):
        pruned = graph.copy()
        pruned.remove_edges_from(subset)
        components = list(nx.connected_components(pruned))
        if len(components) != 2:
            continue
        cut = Cut.from_side(graph, components[0])
        if cut.size == size:
            keys.add((cut.side, cut.edges))
    return keys


class TestCutObject:
    def test_from_side_computes_crossing_edges(self):
        graph = nx.cycle_graph(6)
        cut = Cut.from_side(graph, {0, 1, 2})
        assert cut.size == 2
        assert cut.edges == frozenset({(0, 5), (2, 3)})

    def test_canonical_side_makes_equal_cuts_equal(self):
        graph = nx.cycle_graph(6)
        a = Cut.from_side(graph, {0, 1})
        b = Cut.from_side(graph, {2, 3, 4, 5})
        assert a == b
        assert a.side == b.side

    def test_rejects_trivial_sides(self):
        graph = nx.cycle_graph(4)
        with pytest.raises(ValueError):
            Cut.from_side(graph, set())
        with pytest.raises(ValueError):
            Cut.from_side(graph, set(graph.nodes()))


def _oracle_bridge_cuts(graph: nx.Graph) -> set:
    """``nx.bridges`` plus ``Cut.from_side`` on a connected *graph*."""
    keys = set()
    for u, v in nx.bridges(graph):
        pruned = graph.copy()
        pruned.remove_edge(u, v)
        cut = Cut.from_side(graph, nx.node_connected_component(pruned, u))
        keys.add((cut.side, cut.edges))
    return keys


class TestBridgeCuts:
    @pytest.mark.parametrize("seed", range(6))
    def test_one_pass_sides_match_nx_bridges_on_msts(self, seed):
        graph = random_k_edge_connected_graph(40, 2, extra_edge_prob=0.1, seed=seed)
        tree = nx.minimum_spanning_tree(graph)
        cuts = label_cuts(tree, 1)
        assert len(cuts) == tree.number_of_nodes() - 1
        assert _cut_keys(cuts) == _oracle_bridge_cuts(tree)

    @pytest.mark.parametrize("seed", range(6))
    def test_one_pass_sides_match_nx_bridges_on_bridged_graphs(self, seed):
        # Cycles with chords hung off each other by single edges, plus a
        # pendant path: bridges between 2-edge-connected blocks.
        graph = nx.Graph()
        offset = 0
        for block in range(4):
            part = cycle_with_chords(5 + block, extra_edges=2, seed=seed + block)
            graph.add_edges_from((u + offset, v + offset) for u, v in part.edges())
            if offset:
                graph.add_edge(offset - 1, offset + seed % 3)
            offset += part.number_of_nodes()
        graph.add_edges_from([(offset - 1, offset), (offset, offset + 1)])
        assert graph.number_of_edges() > graph.number_of_nodes()
        cuts = label_cuts(graph, 1)
        assert len(cuts) == 5
        assert _cut_keys(cuts) == _oracle_bridge_cuts(graph)

    def test_disconnected_input_is_rejected(self):
        graph = nx.Graph([(0, 1), (1, 2), (2, 0), (2, 3), (4, 5), (5, 6)])
        with pytest.raises(ValueError, match="graph is not connected"):
            FastGraph.from_nx(graph).bridge_sides()
        with pytest.raises(ValueError, match="edge connectivity 0"):
            enumerate_cuts_of_size(graph, 1)

    def test_path_graph(self):
        graph = nx.path_graph(5)
        cuts = label_cuts(graph, 1)
        assert len(cuts) == 4
        assert all(cut.size == 1 for cut in cuts)

    def test_cycle_has_none(self):
        assert enumerate_cuts_of_size(nx.cycle_graph(5), 1) == []

    def test_barbell_single_bridge(self):
        graph = nx.barbell_graph(4, 0)
        cuts = label_cuts(graph, 1)
        assert len(cuts) == 1
        assert cuts[0].edges == frozenset({(3, 4)})
        assert cuts[0].side in (frozenset({0, 1, 2, 3}), frozenset({4, 5, 6, 7}))


class TestCutPairs:
    def test_cycle_every_pair_is_a_cut_pair(self):
        graph = nx.cycle_graph(5)
        cuts = enumerate_cuts_of_size(graph, 2)
        # Every pair of cycle edges disconnects a cycle: C(5, 2) = 10 cuts.
        assert len(cuts) == 10

    def test_matches_exhaustive_enumeration(self):
        graph = cycle_with_chords(9, extra_edges=3, seed=2)
        expected = {cut.side for cut in enumerate_cuts_exhaustive(graph, 2)}
        actual = {cut.side for cut in label_cuts(graph, 2)}
        assert actual == expected

    def test_three_connected_graph_has_no_cut_pairs(self):
        graph = harary_graph(10, 3)
        assert enumerate_cuts_of_size(graph, 2) == []

    def test_requires_connected_graph(self):
        graph = nx.Graph()
        graph.add_edges_from([(0, 1), (2, 3)])
        with pytest.raises(ValueError):
            enumerate_cuts_of_size(graph, 2)

    @given(seed=st.integers(min_value=0, max_value=500))
    @settings(max_examples=20, deadline=None)
    def test_property_every_reported_pair_disconnects(self, seed):
        graph = cycle_with_chords(10, extra_edges=3, seed=seed)
        for cut in label_cuts(graph, 2):
            pruned = graph.copy()
            pruned.remove_edges_from(cut.edges)
            assert not nx.is_connected(pruned)
            assert cut.size == 2


#: Family instances with at most 16 vertices (exhaustive search is 2^(n-1)),
#: each with the cut sizes 3 and 4 inside the ``2 * lambda > size`` contract
#: of ``FastGraph.cuts_of_size`` (below it, two disjoint 2-cuts also form a
#: 4-edge cut-space element; ``test_size_at_twice_lambda_is_outside_the_contract``).
SMALL_FAMILY_CUTS = [
    pytest.param(name, n, size, id=f"{size}-{name}-{n}")
    for size in (3, 4)
    for name in sorted(FAMILIES)
    for n in (10, 14)
    if FAMILIES[name](n, seed=n).number_of_nodes() <= 16
    and 2 * edge_connectivity_nx(FAMILIES[name](n, seed=n)) > size
]
#: Family instances with at most 14 vertices.
SMALL_FAMILY_GRAPHS_14 = [
    pytest.param(name, n, id=f"{name}-{n}")
    for name in sorted(FAMILIES)
    for n in (10, 14)
    if FAMILIES[name](n, seed=n).number_of_nodes() <= 14
]


class TestExactEnumeration:
    @pytest.mark.parametrize("name, n, size", SMALL_FAMILY_CUTS)
    def test_matches_exhaustive_on_every_family(self, name, n, size):
        graph = FAMILIES[name](n, seed=n)
        assert _kernel_cuts(graph, size) == _cut_keys(enumerate_cuts_exhaustive(graph, size))

    @pytest.mark.parametrize("n, k", [(9, 3), (12, 4)])
    @pytest.mark.parametrize("size", [3, 4])
    def test_matches_exhaustive_on_harary_graphs(self, n, k, size):
        # H_{3,9} has odd n, so its antipodal edges make it 4-regular and
        # 4-edge-connected: both graphs have 4-cuts and no 3-cut.
        graph = harary_graph(n, k)
        expected = _cut_keys(enumerate_cuts_exhaustive(graph, size))
        assert bool(expected) == (size == 4)
        assert _kernel_cuts(graph, size) == expected
        assert _cut_keys(label_cuts(graph, size)) == expected

    @given(
        n=st.integers(min_value=5, max_value=9),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=25, deadline=None)
    def test_property_matches_brute_force_on_3_edge_connected_graphs(self, n, seed):
        graph = random_k_edge_connected_graph(n, 3, extra_edge_prob=0.15, seed=seed)
        assert _kernel_cuts(graph, 3) == _brute_force_cuts(graph, 3)

    @pytest.mark.parametrize(
        "graph, size",
        [
            (harary_graph(10, 3), 3),
            (harary_graph(11, 4), 4),
            # Edge connectivity 2: a cut pair plus any third edge leaves two
            # components, so confirmation must also check every edge crosses.
            (cycle_with_chords(11, extra_edges=3, seed=2), 3),
        ],
        ids=["harary-3", "harary-4", "cycle-chords"],
    )
    def test_label_collisions_cannot_change_the_output(self, monkeypatch, graph, size):
        expected = _cut_keys(enumerate_cuts_exhaustive(graph, size))
        assert expected
        fast = FastGraph.from_nx(graph)
        wide = len(list(fast._cut_candidates(size)))
        monkeypatch.setattr(fastgraph, "CUT_LABEL_BITS", 2)
        # Two-bit labels collide constantly: far more false candidates...
        assert len(list(fast._cut_candidates(size))) > 2 * wide
        # ...and every one of them is rejected by the confirmation.
        assert _kernel_cuts(graph, size) == expected

    @pytest.mark.parametrize("n, k, size", [(10, 3, 3), (11, 4, 4)])
    def test_lookup_blocks_do_not_change_the_candidates(self, monkeypatch, n, k, size):
        fast = FastGraph.from_nx(harary_graph(n, k))
        expected = list(fast._cut_candidates(size))
        assert expected
        monkeypatch.setattr(fastgraph, "_LOOKUP_BLOCK", 1)  # one X per pass
        assert list(fast._cut_candidates(size)) == expected

    def test_has_cut_triple(self):
        assert FastGraph.from_nx(harary_graph(10, 3)).has_cut_triple()
        assert not FastGraph.from_nx(harary_graph(10, 4)).has_cut_triple()
        assert not FastGraph.from_nx(nx.complete_graph(6)).has_cut_triple()

    def test_candidates_need_size_three(self):
        with pytest.raises(ValueError):
            FastGraph.from_nx(harary_graph(8, 3)).cuts_of_size(2)

    def test_output_does_not_depend_on_the_label_seed(self, monkeypatch):
        graph = random_k_edge_connected_graph(40, 3, extra_edge_prob=0.02, seed=5)
        expected = enumerate_cuts_of_size(graph, 3)
        assert expected
        for label_seed in (1, 2, 3):
            monkeypatch.setattr(fastgraph, "CUT_LABEL_SEED", label_seed)
            assert enumerate_cuts_of_size(graph, 3) == expected


# ------------------------------------------- cut-space confirmation vs BFS
def _bfs_side(fast: FastGraph, edges) -> list[int] | None:
    """The skip-edge BFS confirmation the cut methods used to run (oracle):
    the side holding vertex 0 when removing *edges* leaves exactly two
    components with every removed edge between them, else ``None``."""
    components = components_without_edges(fast, edges)
    if len(components) != 2:
        return None
    side = set(components[0])
    if all((fast.tail[eid] in side) != (fast.head[eid] in side) for eid in edges):
        return components[0]
    return None


def _oracle_cut_pairs(fast: FastGraph) -> list[tuple[int, int]]:
    """Claim 5.6 candidates from a BFS-tree path walk, each confirmed by BFS."""
    parent, parent_eid, depth = fast.bfs_tree(0)
    tree = {eid for eid in parent_eid if eid >= 0}
    cover: dict[int, list[int]] = {eid: [] for eid in tree}
    for eid in range(fast.m):
        if eid in tree:
            continue
        a, b = fast.tail[eid], fast.head[eid]
        while a != b:
            if depth[a] < depth[b]:
                a, b = b, a
            cover[parent_eid[a]].append(eid)
            a = parent[a]
    candidates = set()
    for t, covering in cover.items():
        if len(covering) == 1:
            candidates.add(tuple(sorted((t, covering[0]))))
    groups: dict[tuple[int, ...], list[int]] = {}
    for t, covering in cover.items():
        groups.setdefault(tuple(covering), []).append(t)
    for group in groups.values():
        candidates.update(itertools.combinations(sorted(group), 2))
    return sorted(
        pair for pair in candidates if len(components_without_edges(fast, pair)) == 2
    )


def _oracle_cuts_of_size(fast: FastGraph, size: int) -> list:
    """The label-lookup proposals, each confirmed by BFS (oracle)."""
    confirmed = []
    for edges in fast._cut_candidates(size):
        side = _bfs_side(fast, edges)
        if side is not None:
            confirmed.append((edges, side))
    return confirmed


def _bipartition(fast: FastGraph, side) -> frozenset:
    """The side holding vertex 0, from either side's vertex ids."""
    side = frozenset(side)
    return frozenset(range(fast.n)) - side if 0 not in side else side


def _assert_matches_bfs_oracle(graph: nx.Graph, sizes=(3,)) -> None:
    fast = FastGraph.from_nx(graph)
    pairs = _oracle_cut_pairs(fast)
    assert fast.cut_pairs() == pairs
    assert fast.has_cut_pair() == bool(pairs)
    for pair in pairs:
        side = fast._cut_side(pair)
        assert len(side) <= fast.n - len(side)
        assert _bipartition(fast, side) == frozenset(_bfs_side(fast, pair))
    for size in sizes:
        expected = _oracle_cuts_of_size(fast, size)
        found = fast.cuts_of_size(size)
        assert [edges for edges, _ in found] == [edges for edges, _ in expected]
        for (_, side), (_, oracle_side) in zip(found, expected):
            assert len(side) <= fast.n - len(side)
            assert _bipartition(fast, side) == frozenset(oracle_side)
        if size == 3:
            assert fast.has_cut_triple() == bool(expected)


def _lambda_at_least_three(graph: nx.Graph) -> bool:
    fast = FastGraph.from_nx(graph)
    return not fast.bridges() and not _oracle_cut_pairs(fast)


def _bridged_graph(seed: int) -> nx.Graph:
    """2-edge-connected blocks hung off each other by bridges, plus a pendant path."""
    graph = nx.Graph()
    offset = 0
    for block in range(4):
        part = cycle_with_chords(5 + 2 * block, extra_edges=2, seed=seed + block)
        graph.add_edges_from((u + offset, v + offset) for u, v in part.edges())
        if offset:
            graph.add_edge(offset - 1, offset + seed % 3)
        offset += part.number_of_nodes()
    graph.add_edges_from([(offset - 1, offset), (offset, offset + 1)])
    return graph


class TestCutSpaceConfirmation:
    """The no-search cut methods against the skip-edge BFS they replaced."""

    @pytest.mark.parametrize("name", sorted(FAMILIES))
    @pytest.mark.parametrize("n", [24, 64])
    def test_matches_bfs_confirmation_on_every_family(self, name, n):
        for seed in range(3):
            graph = FAMILIES[name](n, seed=seed)
            # 2 * lambda > 4 needs lambda >= 3; size 4 only on small graphs.
            four = n <= 24 and _lambda_at_least_three(graph)
            _assert_matches_bfs_oracle(graph, sizes=(3, 4) if four else (3,))

    @pytest.mark.parametrize("seed", range(6))
    def test_pairs_of_bridges_are_never_cut_pairs(self, seed):
        graph = _bridged_graph(seed)
        fast = FastGraph.from_nx(graph)
        bridges = set(fast.bridges())
        assert len(bridges) >= 2
        assert fast.cut_pairs() == _oracle_cut_pairs(fast)
        assert not any(set(pair) <= bridges for pair in fast.cut_pairs())
        assert not any(set(pair) & bridges for pair in fast.cut_pairs())

    @pytest.mark.parametrize("name, n", SMALL_FAMILY_GRAPHS_14)
    def test_cut_pairs_match_exhaustive(self, name, n):
        graph = FAMILIES[name](n, seed=n)
        assert _cut_keys(label_cuts(graph, 2)) == _cut_keys(enumerate_cuts_exhaustive(graph, 2))

    @given(
        n=st.integers(min_value=5, max_value=30),
        extra=st.floats(min_value=0.0, max_value=0.3),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_matches_bfs_on_2_edge_connected_graphs(self, n, extra, seed):
        graph = random_k_edge_connected_graph(n, 2, extra_edge_prob=extra, seed=seed)
        _assert_matches_bfs_oracle(graph)

    def test_size_at_twice_lambda_is_outside_the_contract(self):
        # On a cycle (lambda = 2) two disjoint cut pairs form a 4-edge
        # cut-space element that leaves four components: cuts_of_size(s)
        # needs 2 * lambda > s to read cut-space elements as cuts.
        graph = nx.cycle_graph(8)
        fast = FastGraph.from_nx(graph)
        eid = {frozenset(fast.edge_labels(e)): e for e in range(fast.m)}
        union = sorted(eid[frozenset({i, i + 1})] for i in (0, 2, 4, 6))
        assert fast._is_cut(union)
        assert len(components_without_edges(fast, union)) == 4


class TestEnumerateCutsOfSize:
    def test_dispatch_size_one(self):
        graph = nx.path_graph(4)
        cuts = enumerate_cuts_of_size(graph, 1)
        assert len(cuts) == 3

    def test_dispatch_size_two(self):
        graph = nx.cycle_graph(6)
        cuts = enumerate_cuts_of_size(graph, 2)
        assert len(cuts) == 15

    def test_higher_connectivity_returns_empty(self):
        graph = harary_graph(8, 3)
        assert enumerate_cuts_of_size(graph, 2) == []

    def test_lower_connectivity_raises(self):
        graph = nx.path_graph(5)
        with pytest.raises(ValueError):
            enumerate_cuts_of_size(graph, 2)

    def test_rejects_nonpositive_size(self):
        with pytest.raises(ValueError):
            enumerate_cuts_of_size(nx.cycle_graph(4), 0)

    def test_exhaustive_rejects_large_graphs(self):
        with pytest.raises(ValueError):
            enumerate_cuts_exhaustive(nx.cycle_graph(25), 2)

    @pytest.mark.parametrize(
        "graph, size",
        [
            (nx.barbell_graph(4, 0), 1),
            (nx.path_graph(6), 1),
            (nx.cycle_graph(6), 2),
            (cycle_with_chords(12, extra_edges=4, seed=1), 2),
            (harary_graph(9, 3), 4),
        ],
        ids=["barbell-1", "path-1", "cycle-2", "chords-2", "harary-4"],
    )
    def test_returns_edge_ids_and_the_smaller_side(self, graph, size):
        fast = FastGraph.from_nx(graph)
        cuts = enumerate_cuts_of_size(graph, size)
        assert cuts
        for edge_ids, side in cuts:
            assert list(edge_ids) == sorted(set(edge_ids)) and len(edge_ids) == size
            assert 0 < 2 * len(side) <= fast.n
            on_side = set(side)
            crossing = [
                eid for eid in range(fast.m)
                if (fast.tail[eid] in on_side) != (fast.head[eid] in on_side)
            ]
            assert crossing == list(edge_ids)

    def test_dinitz_karzanov_lomonosov_bound(self):
        # At most n choose 2 minimum cuts (footnote 4 of the paper).
        graph = cycle_with_chords(12, extra_edges=4, seed=1)
        cuts = enumerate_cuts_of_size(graph, 2)
        n = graph.number_of_nodes()
        assert len(cuts) <= n * (n - 1) // 2
