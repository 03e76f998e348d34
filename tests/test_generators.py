"""Tests for the graph generators and weight schemes."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.graphs.connectivity import edge_connectivity, is_k_edge_connected
from repro.graphs.generators import (
    FAMILIES,
    assign_random_weights,
    assign_unit_weights,
    clique_chain,
    cycle_with_chords,
    grid_torus,
    harary_graph,
    hypercube_graph,
    make_family,
    powerlaw_two_edge_connected,
    random_k_edge_connected_graph,
)


class TestHararyGraph:
    @pytest.mark.parametrize("n,k", [(6, 2), (10, 3), (12, 4), (15, 5)])
    def test_edge_connectivity_at_least_k(self, n, k):
        graph = harary_graph(n, k)
        assert edge_connectivity(graph) >= k

    @pytest.mark.parametrize("n,k", [(8, 2), (9, 3), (16, 4)])
    def test_minimum_degree_is_k_or_more(self, n, k):
        graph = harary_graph(n, k)
        assert min(d for _, d in graph.degree()) >= k

    def test_even_k_is_circulant_with_k_per_vertex(self):
        graph = harary_graph(10, 4)
        degrees = {d for _, d in graph.degree()}
        assert degrees == {4}

    def test_nodes_are_range(self):
        graph = harary_graph(7, 2)
        assert sorted(graph.nodes()) == list(range(7))

    def test_unit_weights(self):
        graph = harary_graph(9, 3)
        assert all(data["weight"] == 1 for _, _, data in graph.edges(data=True))

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            harary_graph(5, 0)
        with pytest.raises(ValueError):
            harary_graph(3, 4)


class TestCycleWithChords:
    def test_plain_cycle_is_2_edge_connected(self):
        graph = cycle_with_chords(12)
        assert is_k_edge_connected(graph, 2)
        assert graph.number_of_edges() == 12

    def test_chords_are_added(self):
        graph = cycle_with_chords(20, extra_edges=5, seed=1)
        assert graph.number_of_edges() == 25

    def test_chord_count_caps_at_available_pairs(self):
        # A triangle has no room for chords at all.
        graph = cycle_with_chords(3, extra_edges=10, seed=1)
        assert graph.number_of_edges() == 3

    def test_deterministic_given_seed(self):
        a = cycle_with_chords(15, extra_edges=4, seed=9)
        b = cycle_with_chords(15, extra_edges=4, seed=9)
        assert set(a.edges()) == set(b.edges())

    def test_rejects_tiny_cycle(self):
        with pytest.raises(ValueError):
            cycle_with_chords(2)


class TestCliqueChain:
    def test_two_edge_connected_with_double_bridges(self):
        graph = clique_chain(5, clique_size=4, bridges_between=2)
        assert is_k_edge_connected(graph, 2)

    def test_vertex_count(self):
        graph = clique_chain(6, clique_size=5)
        assert graph.number_of_nodes() == 30

    def test_single_bridge_gives_connectivity_one(self):
        graph = clique_chain(3, clique_size=4, bridges_between=1)
        assert edge_connectivity(graph) == 1

    def test_diameter_grows_linearly(self):
        import networkx as nx

        short = nx.diameter(clique_chain(3, 4, 2))
        long = nx.diameter(clique_chain(9, 4, 2))
        assert long > short

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            clique_chain(0)
        with pytest.raises(ValueError):
            clique_chain(2, clique_size=1)
        with pytest.raises(ValueError):
            clique_chain(2, clique_size=3, bridges_between=4)


class TestGridTorus:
    def test_four_edge_connected(self):
        graph = grid_torus(4, 4)
        assert edge_connectivity(graph) == 4

    def test_regular_degree_four(self):
        graph = grid_torus(3, 5)
        assert {d for _, d in graph.degree()} == {4}

    def test_vertex_and_edge_counts(self):
        graph = grid_torus(4, 5)
        assert graph.number_of_nodes() == 20
        assert graph.number_of_edges() == 40

    def test_rejects_small_dimensions(self):
        with pytest.raises(ValueError):
            grid_torus(2, 5)


class TestRandomKEdgeConnectedGraph:
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_is_k_edge_connected(self, k):
        graph = random_k_edge_connected_graph(14, k, extra_edge_prob=0.2, seed=k)
        assert is_k_edge_connected(graph, k)

    def test_weights_in_range(self):
        graph = random_k_edge_connected_graph(12, 2, weight_range=(5, 9), seed=0)
        weights = {data["weight"] for _, _, data in graph.edges(data=True)}
        assert weights <= set(range(5, 10))

    def test_unit_weights_when_range_is_none(self):
        graph = random_k_edge_connected_graph(12, 2, weight_range=None, seed=0)
        assert all(data["weight"] == 1 for _, _, data in graph.edges(data=True))

    def test_deterministic_given_seed(self):
        a = random_k_edge_connected_graph(16, 2, seed=3)
        b = random_k_edge_connected_graph(16, 2, seed=3)
        assert set(a.edges()) == set(b.edges())
        assert all(a[u][v]["weight"] == b[u][v]["weight"] for u, v in a.edges())

    def test_extra_edges_increase_density(self):
        sparse = random_k_edge_connected_graph(20, 2, extra_edge_prob=0.0, seed=1)
        dense = random_k_edge_connected_graph(20, 2, extra_edge_prob=0.5, seed=1)
        assert dense.number_of_edges() > sparse.number_of_edges()

    @given(n=st.integers(min_value=6, max_value=24), k=st.integers(min_value=2, max_value=3))
    @settings(max_examples=15, deadline=None)
    def test_property_always_k_edge_connected(self, n, k):
        graph = random_k_edge_connected_graph(n, k, extra_edge_prob=0.1, seed=n * 31 + k)
        assert is_k_edge_connected(graph, k)


class TestPowerlawTwoEdgeConnected:
    @pytest.mark.parametrize("seed", range(5))
    def test_is_two_edge_connected(self, seed):
        graph = powerlaw_two_edge_connected(24, seed=seed)
        assert is_k_edge_connected(graph, 2)

    def test_degrees_are_heavy_tailed(self):
        # Preferential attachment: the hub dominates the median degree.
        graph = powerlaw_two_edge_connected(120, seed=1)
        degrees = sorted(d for _, d in graph.degree())
        assert degrees[-1] >= 3 * degrees[len(degrees) // 2]

    def test_deterministic_given_seed(self):
        a = powerlaw_two_edge_connected(30, seed=9)
        b = powerlaw_two_edge_connected(30, seed=9)
        assert set(a.edges()) == set(b.edges())

    def test_unit_weights(self):
        graph = powerlaw_two_edge_connected(16, seed=2)
        assert all(d["weight"] == 1 for _, _, d in graph.edges(data=True))

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            powerlaw_two_edge_connected(3, attachments=2)
        with pytest.raises(ValueError):
            powerlaw_two_edge_connected(10, attachments=0)


class TestHypercubeGraph:
    @pytest.mark.parametrize("dimension", [2, 3, 4, 5])
    def test_d_regular_and_d_edge_connected(self, dimension):
        graph = hypercube_graph(dimension)
        assert graph.number_of_nodes() == 2 ** dimension
        assert {d for _, d in graph.degree()} == {dimension}
        assert edge_connectivity(graph) == dimension

    def test_diameter_is_the_dimension(self):
        import networkx as nx

        assert nx.diameter(hypercube_graph(4)) == 4

    def test_family_builder_rounds_to_the_nearest_power_of_two(self):
        graph = make_family("hypercube")(20, seed=0)
        assert graph.number_of_nodes() == 16  # Q_4: round(log2 20) = 4

    def test_rejects_small_dimension(self):
        with pytest.raises(ValueError):
            hypercube_graph(1)


class TestNewFamiliesInDiffSweeps:
    def test_both_families_are_in_every_differential_sweep(self):
        """Registering in FAMILIES is what enrolls a family in the kernel
        sweeps of ``test_fastgraph``, ``test_fastcover`` and ``test_fastaug``,
        which are parametrized over ``SWEEP_FAMILIES``."""
        from _helpers import SWEEP_FAMILIES

        assert {"powerlaw", "hypercube"} <= set(SWEEP_FAMILIES)
        assert SWEEP_FAMILIES == sorted(FAMILIES)


class TestWeightAssignment:
    def test_assign_unit_weights_overwrites(self, small_weighted_graph):
        assign_unit_weights(small_weighted_graph)
        assert all(d["weight"] == 1 for _, _, d in small_weighted_graph.edges(data=True))

    def test_assign_random_weights_bounds(self, small_weighted_graph):
        assign_random_weights(small_weighted_graph, 3, 4, seed=0)
        assert all(d["weight"] in (3, 4) for _, _, d in small_weighted_graph.edges(data=True))

    def test_assign_random_weights_validates_arguments(self, small_weighted_graph):
        with pytest.raises(ValueError):
            assign_random_weights(small_weighted_graph, -1, 5)
        with pytest.raises(ValueError):
            assign_random_weights(small_weighted_graph, 10, 5)


class TestFamilies:
    @pytest.mark.parametrize("name", sorted(FAMILIES))
    def test_every_family_builds_a_connected_graph_of_promised_connectivity(self, name):
        family = FAMILIES[name]
        graph = family(20, seed=0)
        assert is_k_edge_connected(graph, family.connectivity)

    def test_make_family_unknown_name(self):
        with pytest.raises(KeyError):
            make_family("no-such-family")

    def test_weighted_flag_matches_weights(self):
        for family in FAMILIES.values():
            graph = family(16, seed=1)
            weights = {d.get("weight", 1) for _, _, d in graph.edges(data=True)}
            if not family.weighted:
                assert weights == {1}
