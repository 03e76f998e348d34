"""Tests for the simulated CONGEST primitives (BFS, broadcast, convergecast, ...)."""

from __future__ import annotations

import networkx as nx
import pytest

from repro.congest.network import CongestNetwork, CongestNode
from repro.congest.primitives import (
    simulate_bfs_tree,
    simulate_broadcast,
    simulate_convergecast_max,
    simulate_convergecast_sum,
    simulate_leader_election,
    simulate_pipelined_upcast,
)
from repro.graphs.generators import (
    clique_chain,
    cycle_with_chords,
    random_k_edge_connected_graph,
)


class TestBfsTree:
    def test_depths_equal_graph_distances(self):
        graph = cycle_with_chords(14, extra_edges=3, seed=0)
        tree, report = simulate_bfs_tree(graph, root=0)
        for node in graph.nodes():
            assert tree.depth(node) == nx.shortest_path_length(graph, 0, node)
        assert report.rounds <= nx.eccentricity(graph, 0) + 2

    def test_rounds_scale_with_eccentricity_not_n(self):
        graph = nx.path_graph(30)
        graph.add_edge(0, 29)  # a cycle: eccentricity 15 from node 0
        tree, report = simulate_bfs_tree(graph, root=0)
        assert report.rounds <= 17
        assert tree.number_of_nodes() == 30

    def test_default_root_is_min_id(self):
        graph = nx.cycle_graph(6)
        tree, _ = simulate_bfs_tree(graph)
        assert tree.root == 0

    def test_messages_bounded_by_two_per_directed_edge(self):
        graph = random_k_edge_connected_graph(20, 2, extra_edge_prob=0.2, seed=1)
        _, report = simulate_bfs_tree(graph)
        assert report.messages <= 2 * graph.number_of_edges()
        assert report.max_congestion <= 1

    def test_rounds_are_root_eccentricity_plus_one_and_messages_2m(self):
        graph = cycle_with_chords(14, extra_edges=3, seed=0)
        _, report = simulate_bfs_tree(graph, root=0)
        assert report.rounds == nx.eccentricity(graph, 0) + 1
        assert report.messages == 2 * graph.number_of_edges()

    def test_single_vertex_takes_zero_rounds(self):
        tree, report = simulate_bfs_tree(nx.empty_graph(1))
        assert (report.rounds, report.messages) == (0, 0)
        assert tree.number_of_nodes() == 1

    def test_disconnected_graph_names_an_unreached_vertex(self):
        graph = nx.Graph([(0, 1), (1, 2), (3, 4)])
        with pytest.raises(ValueError, match=r"vertex 3 is not reachable from root 0"):
            simulate_bfs_tree(graph)


class TestBroadcast:
    def test_all_vertices_receive_all_items_in_order(self):
        graph = cycle_with_chords(12, extra_edges=2, seed=1)
        tree, _ = simulate_bfs_tree(graph, root=0)
        items = ["a", "b", "c", "d"]
        received, report = simulate_broadcast(graph, tree, items)
        for node, values in received.items():
            assert values == items
        assert report.rounds <= tree.height() + len(items) + 3

    def test_pipelining_round_bound(self):
        # Broadcasting l items over a path of depth d takes ~d + l rounds, not d * l.
        graph = nx.path_graph(12)
        tree, _ = simulate_bfs_tree(graph, root=0)
        items = list(range(8))
        _, report = simulate_broadcast(graph, tree, items)
        assert report.rounds <= tree.height() + len(items) + 3
        assert report.rounds < tree.height() * len(items)

    def test_empty_item_list(self):
        graph = nx.cycle_graph(5)
        tree, _ = simulate_bfs_tree(graph, root=0)
        received, _ = simulate_broadcast(graph, tree, [])
        assert all(values == [] for values in received.values())


class TestConvergecast:
    def test_max_and_sum(self):
        graph = cycle_with_chords(10, extra_edges=2, seed=2)
        tree, _ = simulate_bfs_tree(graph, root=0)
        values = {node: node * 3 for node in graph.nodes()}
        maximum, _ = simulate_convergecast_max(graph, tree, values)
        total, _ = simulate_convergecast_sum(graph, tree, values)
        assert maximum == max(values.values())
        assert total == sum(values.values())

    def test_rounds_bounded_by_height(self):
        graph = nx.path_graph(16)
        tree, _ = simulate_bfs_tree(graph, root=0)
        _, report = simulate_convergecast_sum(graph, tree, {node: 1 for node in graph})
        assert report.rounds <= tree.height() + 2

    def test_missing_values_default_to_zero(self):
        graph = nx.cycle_graph(6)
        tree, _ = simulate_bfs_tree(graph, root=0)
        total, _ = simulate_convergecast_sum(graph, tree, {0: 5})
        assert total == 5


class TestLeaderElection:
    def test_elects_minimum_id(self):
        graph = cycle_with_chords(9, extra_edges=2, seed=3)
        leader, _ = simulate_leader_election(graph)
        assert leader == 0

    def test_works_with_relabelled_nodes(self):
        graph = nx.relabel_nodes(nx.cycle_graph(6), {i: i + 10 for i in range(6)})
        leader, _ = simulate_leader_election(graph)
        assert leader == 10

    def test_insufficient_round_bound_raises(self):
        graph = nx.path_graph(12)
        with pytest.raises(RuntimeError):
            simulate_leader_election(graph, rounds_bound=2)


class TestPipelinedUpcast:
    def test_all_items_reach_the_root(self):
        graph = cycle_with_chords(10, extra_edges=2, seed=4)
        tree, _ = simulate_bfs_tree(graph, root=0)
        items = {node: [f"item-{node}-{i}" for i in range(2)] for node in graph.nodes()}
        collected, report = simulate_pipelined_upcast(graph, tree, items)
        expected = {value for values in items.values() for value in values}
        assert set(collected) >= expected
        assert report.rounds <= tree.height() + 2 * graph.number_of_nodes() + 3

    def test_pipelining_beats_sequential_upcast(self):
        graph = nx.path_graph(10)
        tree, _ = simulate_bfs_tree(graph, root=0)
        items = {node: [f"x{node}"] for node in graph.nodes()}
        _, report = simulate_pipelined_upcast(graph, tree, items)
        # Sequential upcast would need ~height * items rounds; pipelining needs height + items.
        assert report.rounds <= tree.height() + len(items) + 3


# ------------------------------------------------------------ simulator contract
CONTRACT_GRAPHS = {
    "petersen": nx.petersen_graph,
    "chords-12": lambda: cycle_with_chords(12, extra_edges=4, seed=7),
    "clique-chain-3": lambda: clique_chain(3),
}

#: (rounds, messages, max_congestion) per primitive and graph, recorded from
#: the simulator that called every node's ``on_round`` and drained every
#: outbox in every round.  Skipping idle nodes must not move any of them.
CONTRACT_REPORTS = {
    "petersen": {
        "bfs": (3, 30, 1), "broadcast": (5, 27, 1), "max": (3, 9, 1),
        "sum": (3, 9, 1), "leader": (10, 75, 1), "upcast": (25, 30, 1),
    },
    "chords-12": {
        "bfs": (5, 32, 1), "broadcast": (7, 33, 1), "max": (5, 11, 1),
        "sum": (5, 11, 1), "leader": (12, 99, 1), "upcast": (31, 54, 1),
    },
    "clique-chain-3": {
        "bfs": (4, 44, 1), "broadcast": (6, 33, 1), "max": (4, 11, 1),
        "sum": (4, 11, 1), "leader": (12, 110, 1), "upcast": (30, 42, 1),
    },
}

#: BFS parent of every vertex (default root: the minimum id).
CONTRACT_BFS_PARENTS = {
    "petersen": {0: None, 1: 0, 2: 1, 3: 4, 4: 0, 5: 0, 6: 1, 7: 5, 8: 5, 9: 4},
    "chords-12": {
        0: None, 1: 0, 2: 1, 3: 2, 4: 3, 5: 2, 6: 10, 7: 8, 8: 1, 9: 10, 10: 11, 11: 0,
    },
    "clique-chain-3": {
        0: None, 1: 0, 2: 0, 3: 0, 4: 0, 5: 1, 6: 4, 7: 4, 8: 4, 9: 5, 10: 8, 11: 8,
    },
}

#: The root's upcast ``known`` list, in arrival order: it follows the inbox
#: order, so it pins the order in which senders are drained.
CONTRACT_UPCAST_KNOWN = {
    "petersen": [
        0, 1, 10, 40, 50, 11, 41, 51, 20, 30, 70, 60, 90, 80, 21, 31, 71, 61, 91, 81,
    ],
    "chords-12": [
        0, 1, 10, 110, 11, 111, 20, 100, 80, 101, 21, 60, 81, 90, 30, 61, 70, 91,
        50, 71, 31, 51, 40, 41,
    ],
    "clique-chain-3": [
        0, 1, 10, 20, 30, 40, 11, 21, 31, 41, 50, 60, 51, 70, 90, 80, 91, 61, 71,
        81, 100, 110, 101, 111,
    ],
}


def _triple(report):
    return report.rounds, report.messages, report.max_congestion


@pytest.mark.parametrize("name", sorted(CONTRACT_GRAPHS))
class TestSimulatorContract:
    """Every primitive reproduces its recorded rounds, traffic and outputs."""

    def test_bfs_tree(self, name):
        graph = CONTRACT_GRAPHS[name]()
        tree, report = simulate_bfs_tree(graph)
        assert _triple(report) == CONTRACT_REPORTS[name]["bfs"]
        assert {v: tree.parent(v) for v in graph} == CONTRACT_BFS_PARENTS[name]

    def test_broadcast(self, name):
        graph = CONTRACT_GRAPHS[name]()
        tree, _ = simulate_bfs_tree(graph)
        items = ["a", "b", "c"]
        received, report = simulate_broadcast(graph, tree, items)
        assert _triple(report) == CONTRACT_REPORTS[name]["broadcast"]
        assert received == {v: items for v in graph}

    def test_convergecasts(self, name):
        graph = CONTRACT_GRAPHS[name]()
        tree, _ = simulate_bfs_tree(graph)
        values = {v: (7 * v) % 11 for v in graph}
        maximum, report = simulate_convergecast_max(graph, tree, values)
        assert _triple(report) == CONTRACT_REPORTS[name]["max"]
        assert maximum == max(values.values())
        total, report = simulate_convergecast_sum(graph, tree, values)
        assert _triple(report) == CONTRACT_REPORTS[name]["sum"]
        assert total == sum(values.values())

    def test_leader_election(self, name):
        graph = CONTRACT_GRAPHS[name]()
        leader, report = simulate_leader_election(graph)
        assert _triple(report) == CONTRACT_REPORTS[name]["leader"]
        assert leader == 0

    def test_pipelined_upcast(self, name):
        graph = CONTRACT_GRAPHS[name]()
        tree, _ = simulate_bfs_tree(graph)
        items = {v: [10 * v, 10 * v + 1] for v in graph}
        known, report = simulate_pipelined_upcast(graph, tree, items)
        assert _triple(report) == CONTRACT_REPORTS[name]["upcast"]
        assert known == CONTRACT_UPCAST_KNOWN[name]


class _SleeperNode(CongestNode):
    """Node 0 halts at once; node 1 runs three rounds, optionally mailing 0."""

    mail_in_round: int | None = None

    def initialize(self) -> None:
        self.calls: list[tuple[int, int]] = []
        if self.node_id == 0:
            self.halt()

    def on_round(self, round_number, messages):
        self.calls.append((round_number, len(messages)))
        if self.node_id == 1:
            if round_number == self.mail_in_round:
                self.send(0, "wake")
            if round_number == 3:
                self.halt()


def _run_sleepers(mail_in_round):
    class Node(_SleeperNode):
        pass

    Node.mail_in_round = mail_in_round
    network = CongestNetwork(nx.path_graph(2))
    report = network.run(lambda *args: Node(*args), max_rounds=5)
    return network.node_states(), report


class TestHaltedNodeScheduling:
    def test_halted_node_with_empty_inbox_is_not_scheduled(self):
        nodes, report = _run_sleepers(mail_in_round=None)
        assert report.rounds == 3
        assert nodes[0].calls == []
        assert nodes[1].calls == [(1, 0), (2, 0), (3, 0)]

    def test_halted_node_with_mail_is_scheduled(self):
        nodes, report = _run_sleepers(mail_in_round=1)
        assert report.messages == 1
        # Woken in round 2 by the message sent in round 1, and only then.
        assert nodes[0].calls == [(2, 1)]
