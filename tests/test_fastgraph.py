"""The flat-array CSR kernel: unit tests and the fastgraph differential suite.

Two layers:

* direct unit tests of :class:`repro.graphs.fastgraph.FastGraph` and
  :class:`~repro.graphs.fastgraph.ArrayUnionFind` on hand-built graphs
  (converters, BFS, bridges, cut pairs, skip-edge components);
* the seeded differential sweep: 50 instances of **every** registered
  generator family per kernel primitive, each asserting exact parity with
  the historical networkx oracles of ``tests/oracles.py`` (bridges, edge
  connectivity, cut pairs, Kruskal MST weight, hop diameter) and, for the
  exact cycle-space enumeration of cuts of size 3 and 4, with a brute force
  over edge subsets.
"""

from __future__ import annotations

import itertools
import random

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from _helpers import SWEEP_FAMILIES, sweep_instance
from oracles import (
    Cut,
    bridges_nx,
    components_without_edges,
    edge_connectivity_nx,
    enumerate_cut_pairs_nx,
    label_cuts,
)
from repro.graphs.connectivity import (
    bridges,
    canonical_edge,
    edge_connectivity,
    is_k_edge_connected,
)
from repro.graphs.fastgraph import ArrayUnionFind, FastGraph, hop_diameter
from repro.graphs.generators import FAMILIES, cycle_with_chords
from repro.mst.sequential import minimum_spanning_tree, mst_weight

N_GRAPHS = 50


# ---------------------------------------------------------------- unit tests
class TestArrayUnionFind:
    def test_union_find_merges_and_counts_components(self):
        forest = ArrayUnionFind(5)
        assert forest.components == 5
        assert forest.union(0, 1)
        assert forest.union(1, 2)
        assert not forest.union(0, 2)
        assert forest.components == 3
        assert forest.find(0) == forest.find(2)
        assert forest.find(3) != forest.find(0)

    def test_path_compression_flattens_chains(self):
        forest = ArrayUnionFind(64)
        for i in range(63):
            forest.union(i, i + 1)
        root = forest.find(63)
        assert forest.parent[63] == root
        assert forest.components == 1


class TestFastGraphConversion:
    def test_roundtrip_preserves_labels_edges_and_weights(self):
        graph = nx.Graph()
        graph.add_edge("a", "b", weight=3)
        graph.add_edge("b", "c", weight=7)
        graph.add_node("isolated")
        fast = FastGraph.from_nx(graph)
        assert fast.n == 4 and fast.m == 2
        back = fast.to_nx()
        assert set(back.nodes()) == set(graph.nodes())
        assert back["a"]["b"]["weight"] == 3
        assert back["b"]["c"]["weight"] == 7

    def test_edge_labels_and_degrees(self):
        graph = nx.cycle_graph(4)
        fast = FastGraph.from_nx(graph)
        assert fast.min_degree() == 2
        assert all(fast.degree(v) == 2 for v in range(4))
        endpoints = {frozenset(fast.edge_labels(eid)) for eid in range(fast.m)}
        assert endpoints == {frozenset(edge) for edge in graph.edges()}

    def test_of_passes_a_snapshot_through_and_converts_anything_else(self):
        graph = nx.cycle_graph(5)
        fast = FastGraph.of(graph)
        assert FastGraph.of(fast) is fast
        assert fast.labels == list(graph.nodes())
        assert [fast.edge_labels(eid) for eid in range(fast.m)] == list(graph.edges())

    @pytest.mark.parametrize("labels", ["int", "mixed"])
    def test_canonical_edges_rank_the_sorted_canonical_edges(self, labels):
        graph = nx.relabel_nodes(
            nx.petersen_graph(),
            {v: str(v) if labels == "mixed" and v % 2 else v for v in range(10)},
        )
        fast = FastGraph.from_nx(graph)
        edges, rank = fast.canonical_edges()
        assert edges == [canonical_edge(u, v) for u, v in graph.edges()]
        key = repr if labels == "mixed" else None
        assert [edges[eid] for eid in sorted(range(fast.m), key=rank.__getitem__)] == (
            sorted(edges, key=key)
        )
        assert fast.canonical_edges() is fast.canonical_edges()


class TestFastGraphBfs:
    def test_bfs_levels_match_networkx_shortest_paths(self):
        graph = nx.random_regular_graph(3, 16, seed=4)
        fast = FastGraph.from_nx(graph)
        source = fast.labels.index(0)
        levels = fast.bfs_levels(source)
        oracle = nx.single_source_shortest_path_length(graph, 0)
        assert {fast.labels[v]: d for v, d in enumerate(levels)} == dict(oracle)

    def test_diameter_matches_networkx(self):
        for graph in (
            nx.path_graph(9), nx.cycle_graph(10), nx.complete_graph(5), nx.star_graph(6),
        ):
            assert hop_diameter(graph) == nx.diameter(graph)

    def test_diameter_raises_on_disconnected_and_empty_graphs(self):
        with pytest.raises(ValueError):
            hop_diameter(nx.empty_graph(0))
        disconnected = nx.Graph([(0, 1), (2, 3)])
        with pytest.raises(ValueError):
            hop_diameter(disconnected)

    def test_diameter_of_a_single_vertex_is_zero(self):
        assert hop_diameter(nx.empty_graph(1)) == 0


class TestHopDiameterParity:
    """``hop_diameter`` (sweeps + bit-parallel BFS) against ``nx.diameter``."""

    @pytest.mark.parametrize(
        "family, n",
        [
            # Vertex-transitive: every vertex has the same eccentricity, so
            # the sweeps prune nothing and (almost) all n are BFS sources.
            ("torus", 64),
            ("torus", 144),
            ("hypercube", 64),
            ("hypercube", 128),
            # D = Theta(n): the sweeps leave only a few candidates.
            ("clique-chain", 64),
            ("clique-chain", 400),
            # D = 2 and m ~ 0.15 n^2.  At n = 200 the 197 sources need two
            # blocks of 192: the per-level 2m x words gather is capped at
            # the n^2 words of the distance matrix it replaces.
            ("weighted-dense", 60),
            ("weighted-dense", 200),
            ("weighted-sparse", 300),
            ("powerlaw", 300),
        ],
    )
    def test_family_instances(self, family, n):
        for seed in (1, 2):
            graph = FAMILIES[family](n, seed=seed)
            assert hop_diameter(graph) == nx.diameter(graph)

    @pytest.mark.parametrize("n", [2, 3, 63, 64, 65, 129])
    def test_around_the_64_bit_word_boundary(self, n):
        graphs = [nx.complete_graph(n), nx.path_graph(n), nx.star_graph(n - 1)]
        if n >= 3:
            graphs.append(nx.cycle_graph(n))
        if n >= 4:
            graphs.append(cycle_with_chords(n, extra_edges=n // 4, seed=n))
        for graph in graphs:
            assert hop_diameter(graph) == nx.diameter(graph)

    @given(
        n=st.integers(min_value=2, max_value=90),
        chords=st.integers(min_value=0, max_value=60),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_random_connected_graphs(self, n, chords, seed):
        """A random spanning tree plus random chords: connected by construction."""
        rng = random.Random(seed)
        graph = nx.Graph()
        graph.add_node(0)
        for v in range(1, n):
            graph.add_edge(v, rng.randrange(v))
        for _ in range(chords):
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v:
                graph.add_edge(u, v)
        assert hop_diameter(graph) == nx.diameter(graph)

    def test_components_without_edges_skips_without_copying(self):
        graph = nx.cycle_graph(6)
        fast = FastGraph.from_nx(graph)
        eid_of = {
            frozenset(fast.edge_labels(eid)): eid for eid in range(fast.m)
        }
        assert len(components_without_edges(fast, ())) == 1
        assert len(components_without_edges(fast, (eid_of[frozenset({0, 1})],))) == 1
        two = components_without_edges(
            fast, (eid_of[frozenset({0, 1})], eid_of[frozenset({3, 4})])
        )
        assert len(two) == 2
        assert sorted(len(side) for side in two) == [3, 3]


class TestFastGraphBridges:
    def test_path_graph_every_edge_is_a_bridge(self):
        fast = FastGraph.from_nx(nx.path_graph(8))
        assert len(fast.bridges()) == 7

    def test_cycle_has_no_bridges_and_barbell_has_one(self):
        assert FastGraph.from_nx(nx.cycle_graph(8)).bridges() == []
        barbell = nx.barbell_graph(4, 0)  # two K4s joined by one edge
        fast = FastGraph.from_nx(barbell)
        eids = fast.bridges()
        assert len(eids) == 1
        assert canonical_edge(*fast.edge_labels(eids[0])) == canonical_edge(3, 4)

    def test_deep_path_does_not_hit_the_recursion_limit(self):
        # An iterative Tarjan must handle paths much deeper than
        # sys.getrecursionlimit(); a recursive one would crash here.
        deep = nx.path_graph(5000)
        assert len(FastGraph.from_nx(deep).bridges()) == 4999


class TestFastGraphCutPairs:
    def test_pure_cycle_every_edge_pair_is_a_cut_pair(self):
        fast = FastGraph.from_nx(nx.cycle_graph(5))
        assert len(fast.cut_pairs()) == 10  # C(5, 2)

    def test_three_connected_graph_has_no_cut_pairs(self):
        assert FastGraph.from_nx(nx.complete_graph(5)).cut_pairs() == []

    def test_bridge_pairs_are_filtered_by_verification(self):
        # Two triangles joined by one bridge: no 2-edge cut of the required
        # "exactly two components" shape involves the bridge twice.
        graph = nx.Graph(
            [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 3)]
        )
        fast = FastGraph.from_nx(graph)
        pairs = fast.cut_pairs()
        bridge_eids = set(fast.bridges())
        assert all(not (set(pair) <= bridge_eids) for pair in pairs)


# ------------------------------------------------------ differential sweep
def _cut_key_set(cuts) -> set:
    """A comparable identity for a list of cuts: (side, crossing edges)."""
    return {(cut.side, cut.edges) for cut in cuts}


def _brute_force_cuts(graph: nx.Graph, size: int) -> set:
    """Every cut of exactly *size* edges of a connected graph, by trying
    every *size*-subset of its edges.

    An edge set is an edge cut iff it meets every fundamental cycle of a
    spanning tree in an even number of edges (exact GF(2) orthogonality to
    the cycle space; no sampling).  So for each ``(size - 1)``-subset the
    only completions worth trying are the edges whose cycle-incidence mask
    equals the subset's XOR, looked up in a dict; each resulting set is kept
    iff removing it from a copy of the graph leaves exactly two components
    with every removed edge between them.
    """
    tree = nx.minimum_spanning_tree(graph, weight=None)
    edges = [canonical_edge(u, v) for u, v in graph.edges()]
    masks = {edge: 0 for edge in edges}
    fundamental = [edge for edge in edges if not tree.has_edge(*edge)]
    for bit, edge in enumerate(fundamental):
        masks[edge] |= 1 << bit
        path = nx.shortest_path(tree, *edge)
        for u, v in zip(path, path[1:]):
            masks[canonical_edge(u, v)] |= 1 << bit
    by_mask: dict[int, list] = {}
    for edge in edges:
        by_mask.setdefault(masks[edge], []).append(edge)
    subsets = set()
    for rest in itertools.combinations(edges, size - 1):
        parity = 0
        for edge in rest:
            parity ^= masks[edge]
        for edge in by_mask.get(parity, ()):
            if edge not in rest:
                subsets.add(frozenset((*rest, edge)))
    cuts = set()
    for subset in subsets:
        pruned = graph.copy()
        pruned.remove_edges_from(subset)
        components = list(nx.connected_components(pruned))
        if len(components) != 2:
            continue
        cut = Cut.from_side(graph, components[0])
        if cut.size == size:
            cuts.add((cut.side, cut.edges))
    return cuts


@pytest.mark.parametrize("family", SWEEP_FAMILIES)
class TestFastgraphDifferentialSweep:
    """50 seeded graphs per generator family, per kernel primitive."""

    def test_connectivity_matches_networkx(self, family):
        """Bridges / edge connectivity / diameter parity with the networkx oracles."""
        for seed in range(N_GRAPHS):
            graph = sweep_instance(family, seed)
            assert bridges(graph) == bridges_nx(graph), seed
            oracle = edge_connectivity_nx(graph)
            assert edge_connectivity(graph) == oracle, seed
            for k in (1, 2, 3, 4):
                assert is_k_edge_connected(graph, k) == (oracle >= k), (seed, k)
            assert hop_diameter(graph) == nx.diameter(graph), seed

    def test_cut_pairs_match_networkx(self, family):
        """Exact cut-pair enumeration parity (Claim 5.6) with the networkx oracle."""
        for seed in range(N_GRAPHS):
            graph = sweep_instance(family, seed)
            fast = _cut_key_set(label_cuts(graph, 2))
            assert fast == _cut_key_set(enumerate_cut_pairs_nx(graph)), seed

    def test_min_cuts_match_brute_force(self, family):
        """Exact cycle-space cut enumeration vs a brute force over edge subsets.

        Size 3 on every instance -- non-minimum cuts on the 2-edge-connected
        families, none on the 4- and 5-edge-connected ones -- and size 4 on
        the 4-edge-connected instances, where the 4-cuts are the minimum cuts.
        Every instance must satisfy ``2 * lambda > size``, the precondition
        under which a confirmed cut-space element is exactly one cut.
        """
        for seed in range(N_GRAPHS):
            graph = sweep_instance(family, seed)
            connectivity = edge_connectivity_nx(graph)
            fast_graph = FastGraph.from_nx(graph)
            for size in (3, 4) if connectivity == 4 else (3,):
                # cuts_of_size reads cut-space elements as cuts, which needs 2 lambda > s.
                assert 2 * connectivity > size, (seed, connectivity, size)
                fast = _cut_key_set(
                    Cut.from_side(graph, [fast_graph.labels[v] for v in side])
                    for _, side in fast_graph.cuts_of_size(size)
                )
                assert fast == _brute_force_cuts(graph, size), (seed, size)

    def test_mst_matches_networkx(self, family):
        """Kruskal-on-array-union-find parity with the networkx MST oracle."""
        for seed in range(N_GRAPHS):
            graph = sweep_instance(family, seed)
            edges = minimum_spanning_tree(graph)
            tree = nx.Graph(edges)
            assert set(tree) == set(graph) and nx.is_tree(tree), seed
            assert len(edges) == tree.number_of_edges(), seed
            weight = sum(graph[u][v].get("weight", 1) for u, v in edges)
            oracle = sum(
                data.get("weight", 1)
                for _, _, data in nx.minimum_spanning_tree(graph).edges(data=True)
            )
            assert weight == oracle, seed
            assert mst_weight(graph) == weight, seed
