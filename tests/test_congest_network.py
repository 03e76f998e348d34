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


class _DormantFlood(CongestNode):
    """Every node halts in initialize(); node 0 starts a flood first.

    A node forwards the flood once, on the first mail it gets, and records
    every round in which it ran with the size of its inbox.
    """

    def initialize(self):
        self.calls = []
        self.reached = 0 if self.node_id == 0 else None
        if self.node_id == 0:
            self.send_all("flood")
        self.halt()

    def on_round(self, round_number, messages):
        self.calls.append((round_number, len(messages)))
        if self.reached is None:
            self.reached = round_number
            self.send_all("flood")


class _PingPong(CongestNode):
    """Halted nodes that answer every message: the mail never stops."""

    def initialize(self):
        if self.node_id == 0:
            self.send(1, "ping")
        self.halt()

    def on_round(self, round_number, messages):
        for message in messages:
            self.send(message.src, "pong")


class _Silent(CongestNode):
    def initialize(self):
        self.calls = 0
        self.halt()

    def on_round(self, round_number, messages):
        self.calls += 1


class TestQuiescence:
    """A run ends when every node has halted and no mail is in flight."""

    def test_flood_of_nodes_halted_in_initialize_runs_to_completion(self):
        network = CongestNetwork(nx.path_graph(4))
        report = network.run(lambda *args: _DormantFlood(*args), max_rounds=10)
        # Node 0's mail leaves in round 1; node 3 forwards last, in round 4.
        # The echo it causes is delivered in round 5, which is not counted.
        assert (report.rounds, report.messages, report.max_congestion) == (4, 6, 1)
        nodes = network.node_states()
        assert {v: node.reached for v, node in nodes.items()} == {0: 0, 1: 2, 2: 3, 3: 4}
        # Dormant nodes run only in rounds in which they have mail.
        assert {v: node.calls for v, node in nodes.items()} == {
            0: [(3, 1)], 1: [(2, 1), (4, 1)], 2: [(3, 1), (5, 1)], 3: [(4, 1)],
        }

    def test_flood_round_count_fits_max_rounds_with_the_echo(self):
        """The uncounted echo round still runs inside ``max_rounds``."""
        network = CongestNetwork(nx.path_graph(4))
        assert network.run(lambda *args: _DormantFlood(*args), max_rounds=5).rounds == 4
        with pytest.raises(RuntimeError, match="did not terminate within 4 rounds"):
            network.run(lambda *args: _DormantFlood(*args), max_rounds=4)

    def test_halted_nodes_ping_ponging_hit_max_rounds(self):
        network = CongestNetwork(nx.path_graph(2))
        with pytest.raises(RuntimeError, match="did not terminate within 6 rounds"):
            network.run(lambda *args: _PingPong(*args), max_rounds=6)

    def test_network_that_halts_without_sending_reports_zero_rounds(self):
        network = CongestNetwork(nx.cycle_graph(5))
        report = network.run(lambda *args: _Silent(*args), max_rounds=3)
        assert (report.rounds, report.messages, report.max_congestion) == (0, 0, 0)
        assert all(node.calls == 0 for node in network.node_states().values())


class _PlanNode(CongestNode):
    """Node 1 of a path 0-1-2 runs a plan of sends in round 1.

    Plan steps are ``("send", words)`` (to neighbour 0) and
    ``("send_all", words)``; every node halts after round 1.
    """

    plan: list[tuple[str, int]] = []

    def on_round(self, round_number, messages):
        if round_number == 1 and self.node_id == 1:
            for kind, words in self.plan:
                if kind == "send":
                    self.send(0, "payload", words=words)
                else:
                    self.send_all("payload", words=words)
        self.halt()


def _run_send_plan(plan, bandwidth_words):
    class Node(_PlanNode):
        pass

    Node.plan = list(plan)
    network = CongestNetwork(nx.path_graph(3), bandwidth_words=bandwidth_words)
    return network.run(lambda *args: Node(*args), max_rounds=3)


class TestSendAllBandwidth:
    """A lone send_all is checked once per fan-out; mixed with more sends it
    adds up per directed edge like any other traffic."""

    def test_send_all_at_budget_is_allowed(self):
        report = _run_send_plan([("send_all", 3)], bandwidth_words=3)
        assert (report.rounds, report.messages, report.max_congestion) == (1, 2, 3)

    def test_send_all_over_budget_raises(self):
        with pytest.raises(BandwidthExceeded) as excinfo:
            _run_send_plan([("send_all", 4)], bandwidth_words=3)
        assert "edge 1->0 carried 4 words in round 1 (budget 3)" in str(excinfo.value)

    @pytest.mark.parametrize("plan", [
        [("send_all", 2), ("send", 1)],
        [("send", 1), ("send_all", 2)],
    ])
    def test_send_all_and_send_add_up_to_the_budget(self, plan):
        report = _run_send_plan(plan, bandwidth_words=3)
        assert (report.messages, report.max_congestion) == (3, 3)

    @pytest.mark.parametrize("plan", [
        [("send_all", 2), ("send", 2)],
        [("send", 2), ("send_all", 2)],
    ])
    def test_send_all_and_send_fire_at_budget_plus_one(self, plan):
        with pytest.raises(BandwidthExceeded) as excinfo:
            _run_send_plan(plan, bandwidth_words=3)
        assert "edge 1->0 carried 4 words" in str(excinfo.value)

    def test_two_send_alls_add_up(self):
        report = _run_send_plan([("send_all", 2), ("send_all", 2)], bandwidth_words=4)
        assert (report.messages, report.max_congestion) == (4, 4)
        with pytest.raises(BandwidthExceeded) as excinfo:
            _run_send_plan([("send_all", 2), ("send_all", 2)], bandwidth_words=3)
        assert "edge 1->0 carried 4 words" in str(excinfo.value)

    def test_fan_out_and_queued_mail_arrive_alike(self):
        """A lone send_all and the same messages queued with send() give
        identical inboxes."""

        class Recorder(CongestNode):
            fan_out = True

            def initialize(self):
                self.inbox = None

            def on_round(self, round_number, messages):
                if round_number == 1 and self.node_id == 1:
                    if self.fan_out:
                        self.send_all(("x", 1), words=2)
                    else:
                        for neighbor in self.neighbors:
                            self.send(neighbor, ("x", 1), words=2)
                if round_number == 2:
                    self.inbox = messages
                    self.halt()

        inboxes = []
        for fan_out in (True, False):
            Recorder.fan_out = fan_out
            network = CongestNetwork(nx.path_graph(3))
            network.run(lambda *args: Recorder(*args), max_rounds=4)
            inboxes.append({v: node.inbox for v, node in network.node_states().items()})
        assert inboxes[0] == inboxes[1]
        assert inboxes[0][0] == [Message(1, 0, ("x", 1), 2)]
