"""Tests for the CONGEST network simulator."""

from __future__ import annotations

import networkx as nx
import pytest

from repro.congest.network import BandwidthExceeded, CongestNetwork, CongestNode, Message


class _EchoNode(CongestNode):
    """Sends one message to every neighbour in round 1, then halts."""

    def on_round(self, round_number, messages):
        if round_number == 1:
            self.send_all(("hello", self.node_id))
        else:
            self.received = [m.content for m in messages]
            self.halt()


class _ChattyNode(CongestNode):
    """Violates the bandwidth budget by sending many words over one edge."""

    def on_round(self, round_number, messages):
        for neighbor in self.neighbors:
            for _ in range(5):
                self.send(neighbor, "spam")


class _NeverHaltNode(CongestNode):
    def on_round(self, round_number, messages):
        pass


class TestMessageAndNodeBasics:
    def test_message_defaults_to_one_word(self):
        message = Message(src=0, dst=1, content="x")
        assert message.words == 1

    def test_send_to_non_neighbor_raises(self):
        network = CongestNetwork(nx.path_graph(3))

        class Bad(CongestNode):
            def on_round(self, round_number, messages):
                self.send(2, "oops")  # node 0 is not adjacent to node 2

        with pytest.raises(ValueError):
            network.run(lambda *args: Bad(*args), max_rounds=3)

    def test_send_with_zero_words_raises(self):
        node = CongestNode(0, (1,), None)
        with pytest.raises(ValueError):
            node.send(1, "x", words=0)

    def test_base_on_round_is_abstract(self):
        node = CongestNode(0, (), None)
        with pytest.raises(NotImplementedError):
            node.on_round(1, [])


class TestNetworkExecution:
    def test_echo_delivers_messages_to_all_neighbours(self):
        graph = nx.cycle_graph(5)
        network = CongestNetwork(graph)
        report = network.run(lambda *args: _EchoNode(*args), max_rounds=5)
        assert report.rounds == 2
        assert report.messages == 10  # every vertex messages both neighbours once
        for node_id, node in network.node_states().items():
            senders = {content[1] for content in node.received}
            assert senders == set(graph.neighbors(node_id))

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError):
            CongestNetwork(nx.Graph())

    def test_bandwidth_violation_detected(self):
        network = CongestNetwork(nx.path_graph(2), bandwidth_words=2)
        with pytest.raises(BandwidthExceeded):
            network.run(lambda *args: _ChattyNode(*args), max_rounds=2)

    def test_non_terminating_algorithm_raises(self):
        network = CongestNetwork(nx.path_graph(3))
        with pytest.raises(RuntimeError):
            network.run(lambda *args: _NeverHaltNode(*args), max_rounds=4)

    def test_edge_weight_accessor(self):
        graph = nx.Graph()
        graph.add_edge(0, 1, weight=7)
        graph.add_edge(1, 2)
        network = CongestNetwork(graph)
        assert network.edge_weight(0, 1) == 7
        assert network.edge_weight(1, 2) == 1

    def test_last_report_is_stored(self):
        graph = nx.cycle_graph(4)
        network = CongestNetwork(graph)
        assert network.last_report is None
        report = network.run(lambda *args: _EchoNode(*args), max_rounds=5)
        assert network.last_report is report

    def test_diameter_helper(self):
        network = CongestNetwork(nx.path_graph(5))
        assert network.diameter() == 4

    def test_inbox_lists_senders_in_node_order(self):
        """Messages queued in initialize() and in round 1 share one delivery
        round; the inbox still lists them by sender node order."""

        class Mixed(CongestNode):
            def initialize(self):
                self.inboxes = []
                if self.node_id == 2:
                    self.send(1, "from 2, initialize")

            def on_round(self, round_number, messages):
                self.inboxes.append([m.content for m in messages])
                if round_number == 1 and self.node_id == 0:
                    self.send(1, "from 0, round 1")
                if round_number == 2:
                    self.halt()

        network = CongestNetwork(nx.path_graph(3))
        network.run(lambda *args: Mixed(*args), max_rounds=3)
        assert network.node_states()[1].inboxes == [
            [], ["from 0, round 1", "from 2, initialize"],
        ]

    def test_max_congestion_reported(self):
        graph = nx.cycle_graph(4)
        network = CongestNetwork(graph)
        report = network.run(lambda *args: _EchoNode(*args), max_rounds=5)
        assert report.max_congestion == 1


class _BudgetNode(CongestNode):
    """Node 0 ships a configurable word pattern to node 1 in round 1."""

    #: list of per-message word counts node 0 sends to node 1 in round 1
    plan: list[int] = []

    def on_round(self, round_number, messages):
        if round_number == 1 and self.node_id == 0:
            for words in self.plan:
                self.send(1, "payload", words=words)
        self.halt()


def _run_budget_plan(plan, bandwidth_words):
    class Node(_BudgetNode):
        pass

    Node.plan = list(plan)
    network = CongestNetwork(nx.path_graph(2), bandwidth_words=bandwidth_words)
    return network.run(lambda *args: Node(*args), max_rounds=3)


class TestBandwidthConformance:
    """The budget must fire at exactly budget+1 words on one edge in one
    round, with multi-message aggregation accounted per directed edge."""

    def test_exactly_budget_words_is_allowed(self):
        report = _run_budget_plan([3], bandwidth_words=3)
        assert report.messages == 1

    def test_single_message_of_budget_plus_one_words_fires(self):
        with pytest.raises(BandwidthExceeded) as excinfo:
            _run_budget_plan([4], bandwidth_words=3)
        assert "4 words" in str(excinfo.value)
        assert "budget 3" in str(excinfo.value)
        assert "round 1" in str(excinfo.value)

    def test_aggregation_across_messages_exactly_at_budget_is_allowed(self):
        # 1 + 1 + 1 words over one edge in one round == budget: fine.
        report = _run_budget_plan([1, 1, 1], bandwidth_words=3)
        assert report.messages == 3

    def test_aggregation_across_messages_fires_at_budget_plus_one(self):
        # 1 + 1 + 1 + 1 crosses the 3-word budget by exactly one word.
        with pytest.raises(BandwidthExceeded) as excinfo:
            _run_budget_plan([1, 1, 1, 1], bandwidth_words=3)
        assert "carried 4 words" in str(excinfo.value)

    def test_mixed_message_sizes_aggregate(self):
        with pytest.raises(BandwidthExceeded):
            _run_budget_plan([2, 2], bandwidth_words=3)

    def test_budget_is_per_directed_edge_not_per_node(self):
        """A node may spend the full budget towards each neighbour."""

        class Spread(CongestNode):
            def on_round(self, round_number, messages):
                if round_number == 1 and self.node_id == 1:
                    for neighbor in self.neighbors:
                        self.send(neighbor, "x", words=2)
                self.halt()

        network = CongestNetwork(nx.path_graph(3), bandwidth_words=2)
        report = network.run(lambda *args: Spread(*args), max_rounds=3)
        assert report.messages == 2
        assert report.max_congestion == 2

    def test_opposite_directions_are_accounted_separately(self):
        """u->v and v->u are distinct directed edges for the budget."""

        class BothWays(CongestNode):
            def on_round(self, round_number, messages):
                if round_number == 1:
                    self.send_all("x", words=2)
                self.halt()

        network = CongestNetwork(nx.path_graph(2), bandwidth_words=2)
        report = network.run(lambda *args: BothWays(*args), max_rounds=3)
        assert report.messages == 2

    def test_budget_resets_every_round(self):
        class TwoRounds(CongestNode):
            def on_round(self, round_number, messages):
                if self.node_id == 0 and round_number <= 2:
                    self.send(1, "x", words=2)
                if round_number >= 2:
                    self.halt()

        network = CongestNetwork(nx.path_graph(2), bandwidth_words=2)
        report = network.run(lambda *args: TwoRounds(*args), max_rounds=5)
        assert report.messages == 2
