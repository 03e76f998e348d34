"""Synchronous CONGEST network simulator.

The simulator executes node programs in lock-step rounds.  In every round each
node receives the messages sent to it in the previous round, runs its
``on_round`` handler, and queues messages for the next round.  Bandwidth is
accounted per directed edge per round in *words*, where one word models the
``O(log n)`` bits the CONGEST model allows; exceeding the per-edge budget
raises :class:`BandwidthExceeded` so that algorithm bugs (accidentally
shipping whole paths over one edge in one round) surface as test failures
rather than silently unrealistic simulations.

A round only touches nodes with work: ``on_round`` runs for every node that
has not halted plus every halted node with mail, and only the nodes that
queued a message that round have their outbox drained (a node registers
with the network on its first queued message of a round).  Both visits go
in node order, so every inbox receives its messages in sender node order.
A node whose whole round is one :meth:`CongestNode.send_all` is delivered as
one fan-out: one message per neighbour, checked against the budget once.

A run stops at quiescence: every node has halted and no mail is in flight.
Its ``rounds`` is the last round that started with a live (not halted) node
or in which some node sent -- mail sent in ``initialize()`` counts as sent
in round 1 -- so a trailing round that only delivers mail to halted nodes
which send nothing is not counted.  A program that is not quiet after
``max_rounds`` rounds raises ``RuntimeError``.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Callable, Hashable, Mapping, NamedTuple

import networkx as nx

from repro.congest.metrics import RoundReport

__all__ = ["Message", "CongestNode", "CongestNetwork", "BandwidthExceeded"]


class BandwidthExceeded(RuntimeError):
    """Raised when a node ships more words over one edge in one round than allowed."""


class Message(NamedTuple):
    """A single CONGEST message.

    Attributes:
        src: Sending vertex.
        dst: Receiving vertex (must be a neighbour of ``src``).
        content: Arbitrary payload; by convention payloads are small tuples of
            vertex ids / integers so that ``words`` honestly reflects size.
        words: How many O(log n)-bit words the payload occupies.
    """

    src: Hashable
    dst: Hashable
    content: object
    words: int = 1


class CongestNode:
    """Base class for a node program.

    Subclasses override :meth:`initialize` (called once before round 1) and
    :meth:`on_round` (called every round with the messages received that
    round).  Sending is done with :meth:`send` and :meth:`send_all`; a node
    signals local termination with :meth:`halt` -- the simulation stops once
    every node has halted and no mail is in flight, and raises
    ``RuntimeError`` if that has not happened after ``max_rounds`` rounds.

    A halted node is woken only by incoming mail: its ``on_round`` runs in a
    round where its inbox is non-empty and is skipped otherwise.  A node may
    therefore halt in :meth:`initialize` and still take part, woken by its
    first message; such a dormant node costs nothing in rounds it gets no mail.
    """

    def __init__(self, node_id: Hashable, neighbors: tuple[Hashable, ...], network: "CongestNetwork") -> None:
        self.node_id = node_id
        self.neighbors = neighbors
        self._neighbor_set = frozenset(neighbors)
        self._network = network
        self._outbox: list[Message] = []
        # A send_all into an empty outbox is kept as (content, words) and
        # delivered as one fan-out unless the node queues more that round.
        self._fanout: tuple[object, int] | None = None
        self._halted = False

    # ------------------------------------------------------------- overrides
    def initialize(self) -> None:
        """Hook called once before the first round."""

    def on_round(self, round_number: int, messages: list[Message]) -> None:
        """Hook called every round with the messages delivered this round."""
        raise NotImplementedError

    # --------------------------------------------------------------- actions
    def send(self, dst: Hashable, content: object, words: int = 1) -> None:
        """Queue a message to neighbour *dst* for delivery next round."""
        if dst not in self._neighbor_set:
            raise ValueError(f"node {self.node_id!r} has no edge to {dst!r}")
        if words < 1:
            raise ValueError("a message occupies at least one word")
        if self._fanout is not None:
            self._expand_fanout()
        elif not self._outbox:
            self._network._note_sender(self)
        self._outbox.append(Message(self.node_id, dst, content, words))

    def send_all(self, content: object, words: int = 1) -> None:
        """Queue the same message to every neighbour (local broadcast)."""
        if not self.neighbors:
            return
        if words < 1:
            raise ValueError("a message occupies at least one word")
        if self._fanout is not None:
            self._expand_fanout()
        elif not self._outbox:
            self._network._note_sender(self)
            self._fanout = (content, words)
            return
        src = self.node_id
        self._outbox.extend([Message(src, dst, content, words) for dst in self.neighbors])

    def halt(self) -> None:
        """Mark this node as locally terminated."""
        if not self._halted:
            self._halted = True
            self._network._note_halt()

    @property
    def halted(self) -> bool:
        return self._halted

    # -------------------------------------------------------------- internal
    def _expand_fanout(self) -> None:
        """Turn a pending fan-out into queued messages, so more can join them."""
        (content, words), self._fanout = self._fanout, None
        src = self.node_id
        self._outbox = [Message(src, dst, content, words) for dst in self.neighbors]

    def _drain_outbox(self) -> tuple[tuple[object, int] | None, list[Message]]:
        """Hand over this round's mail: a fan-out ``(content, words)`` or
        ``None``, and the queued messages (empty when there is a fan-out)."""
        fanout, queued = self._fanout, self._outbox
        self._fanout, self._outbox = None, []
        return fanout, queued


class CongestNetwork:
    """A synchronous message-passing network over an undirected graph.

    Args:
        graph: The communication graph.  Nodes keep references to their
            incident edge weights via ``graph`` so that algorithms can read
            local edge weights "for free", exactly as the CONGEST model allows.
        bandwidth_words: Words allowed per directed edge per round.  The model
            allows a single O(log n)-bit message; a small constant (default 2)
            is accepted because the paper freely packs "an edge id and a
            weight" into one message.
    """

    def __init__(self, graph: nx.Graph, bandwidth_words: int = 2) -> None:
        if graph.number_of_nodes() == 0:
            raise ValueError("cannot simulate an empty network")
        self.graph = graph
        self.bandwidth_words = bandwidth_words
        self.nodes: dict[Hashable, CongestNode] = {}
        self._last_report: RoundReport | None = None
        self._halted_count = 0
        self._senders: list[CongestNode] = []

    def _note_halt(self) -> None:
        """Called by :meth:`CongestNode.halt` (at most once per node)."""
        self._halted_count += 1

    def _note_sender(self, node: CongestNode) -> None:
        """Called by a node when it queues its first message of a round."""
        self._senders.append(node)

    # ------------------------------------------------------------------ runs
    def run(
        self,
        node_factory: Callable[[Hashable, tuple[Hashable, ...], "CongestNetwork"], CongestNode],
        max_rounds: int = 10_000,
        label: str = "congest-run",
    ) -> RoundReport:
        """Instantiate one node program per vertex and run rounds to quiescence.

        Returns a :class:`RoundReport` with the number of rounds (the last
        round that started with a live node or in which some node sent), the
        total message count and the maximum per-edge congestion observed.
        Raises ``RuntimeError`` if the network is not quiet -- every node
        halted and no mail in flight -- after *max_rounds* rounds.
        """
        self._halted_count = 0
        self._senders = []
        self.nodes = {
            v: node_factory(v, tuple(self.graph.neighbors(v)), self)
            for v in self.graph.nodes()
        }
        programs = list(self.nodes.values())
        position = {v: i for i, v in enumerate(self.nodes)}
        for node in programs:
            node.initialize()

        total_messages = 0
        max_congestion = 0
        # Positions of the nodes that have not halted, in node order; halts
        # are counted in halt(), so the list is refiltered only after a
        # round in which some node halted.
        live = [i for i, node in enumerate(programs) if not node._halted]
        inboxes: defaultdict[int, list[Message]] = defaultdict(list)
        # Message's own constructor minus its Python-level __new__ frame.
        new_message = tuple.__new__
        bandwidth = self.bandwidth_words
        rounds = 0
        round_number = 0
        while live or inboxes or self._senders:
            if round_number == max_rounds:
                raise RuntimeError(f"{label}: did not terminate within {max_rounds} rounds")
            round_number += 1
            halted_before = self._halted_count
            if live:
                rounds = round_number
            woken = [i for i in inboxes if programs[i]._halted]
            for i in sorted(live + woken) if woken else live:
                programs[i].on_round(round_number, inboxes.get(i) or [])
            # Nodes that sent during initialize() are drained with round 1,
            # so restore node order before draining.
            senders, self._senders = self._senders, []
            if senders:
                rounds = round_number
                senders.sort(key=lambda node: position[node.node_id])
            inboxes = defaultdict(list)
            for node in senders:
                fanout, outbox = node._drain_outbox()
                if fanout is not None:
                    # One message of `words` words to each distinct
                    # neighbour: every directed edge carries `words`.
                    content, words = fanout
                    src = node.node_id
                    if words > bandwidth:
                        raise BandwidthExceeded(
                            f"edge {src!r}->{node.neighbors[0]!r} carried {words} words "
                            f"in round {round_number} (budget {bandwidth})"
                        )
                    if words > max_congestion:
                        max_congestion = words
                    total_messages += len(node.neighbors)
                    for dst in node.neighbors:
                        inboxes[position[dst]].append(new_message(Message, (src, dst, content, words)))
                    continue
                # A sender is drained once per round, so its own tally is
                # the per-directed-edge word count of this round.
                words_to: dict[Hashable, int] = {}
                total_messages += len(outbox)
                for message in outbox:
                    dst = message.dst
                    used = words_to.get(dst, 0) + message.words
                    if used > bandwidth:
                        raise BandwidthExceeded(
                            f"edge {message.src!r}->{dst!r} carried {used} words "
                            f"in round {round_number} (budget {bandwidth})"
                        )
                    words_to[dst] = used
                    if used > max_congestion:
                        max_congestion = used
                    inboxes[position[dst]].append(message)
            if self._halted_count != halted_before:
                live = [i for i in live if not programs[i]._halted]

        report = RoundReport(
            label=label,
            rounds=rounds,
            messages=total_messages,
            max_congestion=max_congestion,
        )
        self._last_report = report
        return report

    @property
    def last_report(self) -> RoundReport | None:
        """The report of the most recent :meth:`run`, if any."""
        return self._last_report

    # --------------------------------------------------------------- queries
    def node_states(self) -> Mapping[Hashable, CongestNode]:
        """Return the node programs after a run (for result extraction)."""
        return dict(self.nodes)

    def edge_weight(self, u: Hashable, v: Hashable) -> int:
        """Return the weight of edge ``{u, v}`` (1 if unweighted)."""
        return self.graph[u][v].get("weight", 1)
