"""Tests for connectivity queries and subgraph verification."""

from __future__ import annotations

import importlib
import random

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.k_ecss import augment_to_k, k_ecss
from repro.core.three_ecss import three_ecss
from repro.core.two_ecss import two_ecss
from repro.graphs.connectivity import (
    bridges,
    canonical_edge,
    check_solver_input,
    edge_connectivity,
    edge_set,
    is_k_edge_connected,
    subgraph_weight,
    verify_spanning_subgraph,
)
from repro.graphs.fastgraph import FastGraph
from repro.graphs.generators import (
    FAMILIES,
    grid_torus,
    harary_graph,
    hypercube_graph,
    random_k_edge_connected_graph,
)


#: A spanning path of ``nx.cycle_graph(6)``: a 1-edge-connected ``H``.
_CYCLE6_PATH = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]


class TestCanonicalEdge:
    def test_sorts_comparable_endpoints(self):
        assert canonical_edge(3, 1) == (1, 3)
        assert canonical_edge(1, 3) == (1, 3)

    def test_handles_incomparable_endpoints(self):
        edge = canonical_edge("a", 1)
        assert set(edge) == {"a", 1}
        assert canonical_edge(1, "a") == edge

    def test_edge_set_from_graph(self):
        graph = nx.path_graph(4)
        assert edge_set(graph) == frozenset({(0, 1), (1, 2), (2, 3)})

    def test_edge_set_from_iterable(self):
        assert edge_set([(2, 1), (1, 2)]) == frozenset({(1, 2)})


class TestEdgeConnectivity:
    def test_cycle_is_two(self):
        assert edge_connectivity(nx.cycle_graph(6)) == 2

    def test_path_is_one(self):
        assert edge_connectivity(nx.path_graph(5)) == 1

    def test_complete_graph(self):
        assert edge_connectivity(nx.complete_graph(5)) == 4

    def test_disconnected_is_zero(self):
        graph = nx.Graph()
        graph.add_edges_from([(0, 1), (2, 3)])
        assert edge_connectivity(graph) == 0

    def test_single_vertex_is_zero(self):
        graph = nx.Graph()
        graph.add_node(0)
        assert edge_connectivity(graph) == 0


def _two_k5s_joined_by_three_edges() -> nx.Graph:
    """Edge connectivity 3 with minimum degree 4: no degree certificate."""
    graph = nx.complete_graph(5)
    graph.add_edges_from((u + 5, v + 5) for u, v in nx.complete_graph(5).edges())
    graph.add_edges_from([(0, 5), (1, 6), (2, 7)])
    return graph


#: Graphs with edge connectivity 3, 4 and 5 (networkx max-flow decides).
CERTIFIED_GRAPHS = {
    "harary-3": lambda: harary_graph(10, 3),
    "two-k5s": _two_k5s_joined_by_three_edges,
    "random-k3": lambda: random_k_edge_connected_graph(18, 3, extra_edge_prob=0.1, seed=3),
    "torus": lambda: grid_torus(5, 5),
    "harary-4": lambda: harary_graph(11, 4),
    "random-k4": lambda: random_k_edge_connected_graph(16, 4, extra_edge_prob=0.15, seed=4),
    "hypercube": lambda: hypercube_graph(5),
    "harary-5": lambda: harary_graph(12, 5),
}


class TestCertifiedConnectivity:
    @pytest.mark.parametrize("name", sorted(CERTIFIED_GRAPHS))
    def test_matches_max_flow(self, name):
        graph = CERTIFIED_GRAPHS[name]()
        expected = nx.edge_connectivity(graph)
        assert edge_connectivity(graph) == expected
        for k in range(1, 7):
            assert is_k_edge_connected(graph, k) == (expected >= k)

    def test_the_lambda_values_are_covered(self):
        values = {nx.edge_connectivity(build()) for build in CERTIFIED_GRAPHS.values()}
        assert values == {3, 4, 5}

    @pytest.mark.parametrize("name", ["harary-3", "two-k5s", "random-k3", "torus", "harary-4"])
    def test_no_max_flow_below_connectivity_4(self, monkeypatch, name):
        graph = CERTIFIED_GRAPHS[name]()
        expected = nx.edge_connectivity(graph)

        def forbidden(*args, **kwargs):
            raise AssertionError("nx.edge_connectivity called")

        monkeypatch.setattr(nx, "edge_connectivity", forbidden)
        assert is_k_edge_connected(graph, 4) == (expected >= 4)
        if expected == 3:
            # two-k5s has minimum degree 4: a confirmed 3-edge cut certifies it.
            assert edge_connectivity(graph) == 3


class TestIsKEdgeConnected:
    def test_k_zero_always_true(self):
        assert is_k_edge_connected(nx.empty_graph(3), 0)

    def test_cycle(self):
        cycle = nx.cycle_graph(8)
        assert is_k_edge_connected(cycle, 1)
        assert is_k_edge_connected(cycle, 2)
        assert not is_k_edge_connected(cycle, 3)

    def test_degree_shortcut(self):
        # A graph with a degree-1 vertex can never be 2-edge-connected.
        graph = nx.cycle_graph(5)
        graph.add_edge(0, 99)
        assert not is_k_edge_connected(graph, 2)

    def test_single_vertex(self):
        graph = nx.Graph()
        graph.add_node(0)
        assert not is_k_edge_connected(graph, 1)


class TestBridges:
    def test_cycle_has_no_bridges(self):
        assert bridges(nx.cycle_graph(5)) == set()

    def test_path_every_edge_is_a_bridge(self):
        assert bridges(nx.path_graph(4)) == {(0, 1), (1, 2), (2, 3)}

    def test_empty_graph(self):
        assert bridges(nx.empty_graph(3)) == set()

    def test_barbell(self):
        graph = nx.barbell_graph(4, 0)
        assert bridges(graph) == {(3, 4)}


class TestSubgraphWeight:
    def test_sums_weights(self):
        graph = nx.Graph()
        graph.add_edge(0, 1, weight=3)
        graph.add_edge(1, 2, weight=4)
        assert subgraph_weight(graph, [(0, 1), (1, 2)]) == 7

    def test_missing_weight_defaults_to_one(self):
        graph = nx.path_graph(3)
        assert subgraph_weight(graph, [(0, 1)]) == 1

    def test_unknown_edge_raises(self):
        graph = nx.path_graph(3)
        with pytest.raises(KeyError):
            subgraph_weight(graph, [(0, 2)])


class TestVerifySpanningSubgraph:
    def test_accepts_the_graph_itself(self, small_weighted_graph):
        ok, reason = verify_spanning_subgraph(
            small_weighted_graph, small_weighted_graph.edges(), 2
        )
        assert ok and reason == ""

    def test_rejects_foreign_edges(self):
        graph = nx.cycle_graph(5)
        ok, reason = verify_spanning_subgraph(graph, [(0, 1), (0, 3)], 1)
        assert not ok
        assert "not edges" in reason

    def test_rejects_disconnected_selection(self):
        graph = nx.cycle_graph(6)
        ok, reason = verify_spanning_subgraph(graph, [(0, 1), (3, 4)], 1)
        assert not ok
        assert "not connected" in reason

    def test_rejects_insufficient_connectivity(self):
        graph = nx.complete_graph(5)
        spanning_tree = [(0, 1), (1, 2), (2, 3), (3, 4)]
        ok, reason = verify_spanning_subgraph(graph, spanning_tree, 2)
        assert not ok
        assert "edge connectivity" in reason

    def test_accepts_cycle_for_k2(self):
        graph = nx.complete_graph(5)
        cycle = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]
        ok, _ = verify_spanning_subgraph(graph, cycle, 2)
        assert ok


def _unit_k5(graph_cls=nx.Graph):
    graph = graph_cls(nx.complete_graph(5))
    nx.set_edge_attributes(graph, 1, "weight")
    return graph


#: Every solver, called on a graph that is 3-edge-connected when valid.
SOLVERS = {
    "2-ECSS": lambda graph: two_ecss(graph, seed=0),
    "3-ECSS": lambda graph: three_ecss(graph, seed=0),
    "k-ECSS": lambda graph: k_ecss(graph, 3, seed=0),
}


#: Ways to spoil a generated instance; "none" and "mixed-labels" keep it valid.
_ADVERSARIES = (
    "none", "bridge", "component", "multigraph", "digraph", "float", "bool",
    "negative", "str", "mixed-labels", "self-loop",
)


def _adversarial(graph: nx.Graph, adversary: str, rng: random.Random) -> nx.Graph:
    """A copy of *graph* spoiled by *adversary*."""
    graph = graph.copy()
    u, v = rng.choice(list(graph.edges()))
    if adversary == "bridge":
        graph.add_edge(u, "pendant", weight=1)
    elif adversary == "component":
        graph.add_edges_from([("x", "y"), ("y", "z"), ("z", "x")], weight=1)
    elif adversary == "multigraph":
        graph = nx.MultiGraph(graph)
    elif adversary == "digraph":
        graph = nx.DiGraph(graph)
    elif adversary in _BAD_WEIGHTS:
        graph[u][v]["weight"] = _BAD_WEIGHTS[adversary]
    elif adversary == "mixed-labels":
        graph = nx.relabel_nodes(graph, {node: str(node) for node in list(graph)[::2]})
    elif adversary == "self-loop":
        graph.add_edge(u, u, weight=1)
    return graph


_BAD_WEIGHTS = {"float": 1.5, "bool": True, "negative": -3, "str": "3"}


class TestCheckSolverInput:
    def test_valid_input_passes(self):
        check_solver_input(_unit_k5(), 3, "k-ECSS")

    @pytest.mark.parametrize("problem", sorted(SOLVERS))
    def test_every_solver_enforces_the_contract(self, problem):
        solve = SOLVERS[problem]
        assert solve(_unit_k5()).verify()[0]

        negative = _unit_k5()
        negative[0][1]["weight"] = -5
        with pytest.raises(ValueError, match=f"{problem} needs non-negative integer"):
            solve(negative)

        fractional = _unit_k5()
        fractional[1][2]["weight"] = 1.5
        with pytest.raises(ValueError, match=r"edge \(1, 2\) has weight 1\.5"):
            solve(fractional)

        multi = _unit_k5(nx.MultiGraph)
        multi.add_edge(0, 1, weight=1)
        with pytest.raises(ValueError, match=f"{problem} needs a simple graph"):
            solve(multi)

        directed = _unit_k5(nx.DiGraph)
        with pytest.raises(ValueError, match=f"{problem} needs an undirected graph"):
            solve(directed)

        path = nx.path_graph(5)
        with pytest.raises(ValueError, match=f"edge-connected; {problem} is infeasible"):
            solve(path)

        looped = _unit_k5()
        looped.add_edge(3, 3, weight=1)
        with pytest.raises(ValueError, match=f"{problem} needs a simple graph; vertex 3"):
            solve(looped)

    def test_self_loop_is_rejected_before_any_work(self, monkeypatch):
        # Past the check, the free loop (0, 0) would land in the 2-ECSS output.
        graph = nx.cycle_graph(6)
        nx.set_edge_attributes(graph, 1, "weight")
        graph.add_edge(0, 0, weight=0)

        def no_snapshot(cls, source):
            raise AssertionError("the self-loop must be rejected before the snapshot")

        monkeypatch.setattr(FastGraph, "from_nx", classmethod(no_snapshot))
        with pytest.raises(ValueError, match="2-ECSS needs a simple graph; vertex 0 has a self-loop"):
            two_ecss(graph, seed=0)

    @pytest.mark.parametrize(
        "solve",
        [
            lambda graph, k, constant: k_ecss(graph, k, seed=0, schedule_constant=constant),
            lambda graph, k, constant: augment_to_k(
                graph, frozenset(), k, seed=0, schedule_constant=constant
            ),
        ],
        ids=["k_ecss", "augment_to_k"],
    )
    @pytest.mark.parametrize(
        "k, constant, match",
        [
            # k=2.5 and k="3" used to raise TypeError; k=True solved as k=1.
            *[(k, 2, "k") for k in (2.5, "3", True, 0, -1, None)],
            # schedule_constant=-1 used to end in "did not converge within
            # -1744 iterations", "2" in a TypeError; 0 and 1.5 ran.
            *[(3, c, "schedule_constant") for c in (-1, 0, 1.5, "2", True, None)],
        ],
    )
    def test_k_ecss_rejects_bad_k_and_schedule_constant_before_any_work(
        self, monkeypatch, solve, k, constant, match
    ):
        def no_snapshot(cls, source):
            raise AssertionError("bad arguments must be rejected before the snapshot")

        monkeypatch.setattr(FastGraph, "from_nx", classmethod(no_snapshot))
        with pytest.raises(ValueError, match=f"{match} must be an int >= 1, got"):
            solve(_unit_k5(), k, constant)

    @pytest.mark.parametrize(
        "weight, k, current, match",
        [
            # k=1 used to fail in the cut enumeration: "cut size must be >= 1".
            (1, 1, _CYCLE6_PATH, "Aug_k needs k >= 2: level 1 is the MST of k_ecss"),
            # A float weight used to die in a TypeError of the weight classes.
            (1.5, 2, _CYCLE6_PATH,
             r"Aug_k needs non-negative integer edge weights; edge \(0, 1\) has weight 1.5"),
            # A G below k used to raise RuntimeError only after the loop ran.
            (1, 3, _CYCLE6_PATH, "the input graph is not 3-edge-connected; Aug_k is infeasible"),
            # A foreign edge used to be dropped, then reported as "graph has
            # edge connectivity 0".
            (1, 2, [*_CYCLE6_PATH, (3, 0)],
             r"current_edges holds \(3, 0\), which is not an edge of G"),
            (1, 2, _CYCLE6_PATH[:-1],
             "Aug_2 needs a 1-edge-connected H, but current_edges has edge connectivity 0"),
        ],
        ids=["k=1", "float-weight", "G-below-k", "foreign-edge", "H-below-k-1"],
    )
    def test_augment_to_k_enforces_its_input_contract(
        self, monkeypatch, weight, k, current, match
    ):
        graph = nx.cycle_graph(6)
        graph[0][1]["weight"] = weight

        def no_kernel(*args):
            raise AssertionError("a bad input must be rejected before the cover kernel")

        monkeypatch.setattr(
            importlib.import_module("repro.core.k_ecss"), "BitsetCoverKernel", no_kernel
        )
        with pytest.raises(ValueError, match=match):
            augment_to_k(graph, current, k, seed=0)

    @pytest.mark.parametrize("weight", [True, 2.0, "3", None])
    def test_non_int_weights_are_rejected(self, weight):
        graph = _unit_k5()
        graph[0][1]["weight"] = weight
        with pytest.raises(ValueError, match="non-negative integer edge weights"):
            check_solver_input(graph, 3, "k-ECSS")

    def test_missing_weights_default_to_one(self):
        check_solver_input(nx.complete_graph(5), 3, "3-ECSS")

    def test_returns_the_snapshot_of_the_input(self):
        graph = _unit_k5()
        fast = check_solver_input(graph, 3, "k-ECSS")
        assert fast.labels == list(graph.nodes())
        assert [fast.edge_labels(eid) for eid in range(fast.m)] == list(graph.edges())

    @given(
        problem=st.sampled_from(sorted(SOLVERS)),
        family=st.sampled_from(sorted(FAMILIES)),
        n=st.integers(4, 10),
        seed=st.integers(0, 1000),
        adversary=st.sampled_from(_ADVERSARIES),
    )
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_property_value_error_or_verified(self, problem, family, n, seed, adversary):
        # Whatever the input, a solver either rejects it with a ValueError
        # or returns a subgraph that verifies: no other exception, and no
        # unverified result.
        graph = _adversarial(FAMILIES[family](n, seed), adversary, random.Random(seed))
        if adversary == "self-loop":
            with pytest.raises(ValueError, match="has a self-loop"):
                SOLVERS[problem](graph)
            return
        try:
            result = SOLVERS[problem](graph)
        except ValueError:
            return
        assert result.verify() == (True, "")
