"""Message-passing implementations of the CONGEST building blocks.

Every algorithm in the paper is built from a handful of primitives (Section
1.3): building a BFS tree in O(D) rounds, broadcasting / upcasting ``l``
values over it in O(D + l) rounds, convergecasts, and leader election.  The
node programs below actually run on :class:`~repro.congest.network.CongestNetwork`
and their measured round counts are what the experiments report for the
"simulated" part of the ledgers.
"""

from __future__ import annotations

from typing import Callable, Hashable, Iterable, Mapping

import networkx as nx

from repro.congest.network import CongestNetwork, CongestNode, Message
from repro.congest.metrics import RoundReport
from repro.trees.rooted import RootedTree

__all__ = [
    "simulate_bfs_tree",
    "simulate_broadcast",
    "simulate_convergecast_max",
    "simulate_convergecast_sum",
    "simulate_leader_election",
    "simulate_pipelined_upcast",
]


# --------------------------------------------------------------------------- BFS
class _BfsNode(CongestNode):
    """Flooding BFS: join the tree on the first wave received, then forward.

    Every node halts in :meth:`initialize` -- the root right after its
    ``send_all`` -- and is woken only by mail, so a round runs ``on_round``
    just for the nodes the wave reaches that round (plus already-joined
    neighbours of the wave front, which ignore the echo).
    """

    root: Hashable = None

    def initialize(self) -> None:
        self.parent: Hashable | None = None
        self.distance: int | None = None
        if self.node_id == self.root:
            self.distance = 0
            self.send_all(("bfs", 0))
        self.halt()

    def on_round(self, round_number: int, messages: list[Message]) -> None:
        if self.distance is not None:
            return
        waves = [m for m in messages if isinstance(m.content, tuple) and m.content[0] == "bfs"]
        if not waves:
            return
        best = min(waves, key=lambda m: (m.content[1], repr(m.src)))
        self.parent = best.src
        self.distance = best.content[1] + 1
        self.send_all(("bfs", self.distance))


def simulate_bfs_tree(
    graph: nx.Graph,
    root: Hashable | None = None,
    bandwidth_words: int = 2,
) -> tuple[RootedTree, RoundReport]:
    """Build a BFS tree of *graph* by flooding from *root* (min-id by default).

    Returns the resulting :class:`RootedTree` -- rooted from the
    ``(child, parent)`` pairs the nodes chose, in node order -- together with
    the simulated round report.  On two or more vertices ``rounds`` is the root's
    eccentricity plus one (``D + O(1)``; the echo the wave's last senders
    cause is not counted) and ``messages`` is ``2m`` (every vertex
    broadcasts once).  Nodes sleep until the wave reaches them, so the
    simulation touches each vertex only in the rounds it receives mail.
    Raises ``ValueError`` naming a vertex the wave did not reach when
    *graph* is disconnected.
    """
    if root is None:
        root = min(graph.nodes(), key=repr)
    network = CongestNetwork(graph, bandwidth_words=bandwidth_words)

    def factory(node_id, neighbors, net):
        node = _BfsNode(node_id, neighbors, net)
        node.root = root
        return node

    report = network.run(factory, max_rounds=graph.number_of_nodes() + 2, label="bfs-tree")
    edges = []
    for node_id, node in network.node_states().items():
        if node.distance is None:
            raise ValueError(
                f"bfs-tree: vertex {node_id!r} is not reachable from root {root!r} "
                "(the graph is disconnected)"
            )
        if node.parent is not None:
            edges.append((node_id, node.parent))
    return RootedTree(edges, root=root), report


# --------------------------------------------------------------------- broadcast
class _BroadcastNode(CongestNode):
    """Pipelined broadcast of a list of items from the root down a rooted tree."""

    children: tuple[Hashable, ...] = ()
    items: tuple = ()
    is_root: bool = False
    total_items: int = 0

    def initialize(self) -> None:
        self.received: list = list(self.items) if self.is_root else []
        self.forwarded = 0

    def on_round(self, round_number: int, messages: list[Message]) -> None:
        for message in messages:
            kind, item = message.content
            if kind == "bcast":
                self.received.append(item)
        if self.forwarded < len(self.received):
            item = self.received[self.forwarded]
            for child in self.children:
                self.send(child, ("bcast", item))
            self.forwarded += 1
        if self.forwarded >= self.total_items:
            self.halt()


def simulate_broadcast(
    graph: nx.Graph,
    tree: RootedTree,
    items: Iterable,
    bandwidth_words: int = 2,
) -> tuple[dict[Hashable, list], RoundReport]:
    """Broadcast *items* from the root of *tree* to every vertex, pipelined.

    Returns the per-vertex received lists and the round report; the round
    count is ``O(depth + len(items))`` as promised in Section 1.3.
    """
    items = tuple(items)
    network = CongestNetwork(graph, bandwidth_words=bandwidth_words)

    def factory(node_id, neighbors, net):
        node = _BroadcastNode(node_id, neighbors, net)
        node.children = tuple(tree.children(node_id))
        node.is_root = node_id == tree.root
        node.items = items
        node.total_items = len(items)
        return node

    horizon = tree.height() + len(items) + 3
    report = network.run(factory, max_rounds=horizon + 2, label="broadcast")
    received = {
        node_id: list(node.received) for node_id, node in network.node_states().items()
    }
    return received, report


# ------------------------------------------------------------------ convergecast
class _ConvergecastNode(CongestNode):
    """Bottom-up aggregation over a rooted tree (max or sum)."""

    children: tuple[Hashable, ...] = ()
    parent: Hashable | None = None
    value: int = 0
    combine: Callable[[int, int], int] = staticmethod(max)

    def initialize(self) -> None:
        self.pending = set(self.children)
        self.accumulated = self.value
        self.sent = False
        if not self.pending and self.parent is not None:
            self.send(self.parent, ("agg", self.accumulated))
            self.sent = True
            self.halt()
        if not self.pending and self.parent is None:
            self.halt()

    def on_round(self, round_number: int, messages: list[Message]) -> None:
        for message in messages:
            kind, value = message.content
            if kind == "agg" and message.src in self.pending:
                self.pending.discard(message.src)
                self.accumulated = self.combine(self.accumulated, value)
        if not self.pending and not self.sent:
            if self.parent is not None:
                self.send(self.parent, ("agg", self.accumulated))
            self.sent = True
            self.halt()


def _simulate_convergecast(
    graph: nx.Graph,
    tree: RootedTree,
    values: Mapping[Hashable, int],
    combine: Callable[[int, int], int],
    label: str,
    bandwidth_words: int = 2,
) -> tuple[int, RoundReport]:
    network = CongestNetwork(graph, bandwidth_words=bandwidth_words)

    def factory(node_id, neighbors, net):
        node = _ConvergecastNode(node_id, neighbors, net)
        node.children = tuple(tree.children(node_id))
        node.parent = tree.parent(node_id)
        node.value = values.get(node_id, 0)
        node.combine = combine
        return node

    report = network.run(factory, max_rounds=tree.height() + 3, label=label)
    root_node = network.node_states()[tree.root]
    return root_node.accumulated, report


def simulate_convergecast_max(
    graph: nx.Graph, tree: RootedTree, values: Mapping[Hashable, int]
) -> tuple[int, RoundReport]:
    """Compute the maximum of per-vertex *values* at the root in O(height) rounds."""
    return _simulate_convergecast(graph, tree, values, max, "convergecast-max")


def simulate_convergecast_sum(
    graph: nx.Graph, tree: RootedTree, values: Mapping[Hashable, int]
) -> tuple[int, RoundReport]:
    """Compute the sum of per-vertex *values* at the root in O(height) rounds."""
    return _simulate_convergecast(graph, tree, values, lambda a, b: a + b, "convergecast-sum")


# -------------------------------------------------------------- leader election
class _LeaderNode(CongestNode):
    """Flood the minimum vertex id; after ``horizon`` rounds adopt it as leader."""

    horizon: int = 0

    def initialize(self) -> None:
        self.best = self.node_id
        self.send_all(("leader", self.best))

    def on_round(self, round_number: int, messages: list[Message]) -> None:
        improved = False
        for message in messages:
            kind, candidate = message.content
            if kind == "leader" and repr(candidate) < repr(self.best):
                self.best = candidate
                improved = True
        if improved:
            self.send_all(("leader", self.best))
        if round_number >= self.horizon:
            self.halt()


def simulate_leader_election(
    graph: nx.Graph, rounds_bound: int | None = None
) -> tuple[Hashable, RoundReport]:
    """Elect the minimum-id vertex by flooding (the paper's choice of BFS root).

    ``rounds_bound`` defaults to the number of vertices, an upper bound on the
    diameter; all vertices agree on the leader when the run finishes.
    """
    if rounds_bound is None:
        rounds_bound = graph.number_of_nodes()
    network = CongestNetwork(graph)

    def factory(node_id, neighbors, net):
        node = _LeaderNode(node_id, neighbors, net)
        node.horizon = rounds_bound
        return node

    report = network.run(factory, max_rounds=rounds_bound + 2, label="leader-election")
    leaders = {node.best for node in network.node_states().values()}
    if len(leaders) != 1:
        raise RuntimeError("leader election did not converge within the round bound")
    return leaders.pop(), report


# ------------------------------------------------------------- pipelined upcast
class _UpcastNode(CongestNode):
    """Pipelined upcast: every vertex owns items; all items reach the root.

    Each round a vertex forwards to its parent the smallest not-yet-forwarded
    item it knows; the standard pipelining argument gives O(height + total
    items) rounds (Section 1.3, "distribute l different messages").
    """

    parent: Hashable | None = None
    own_items: tuple = ()
    horizon: int = 0

    def initialize(self) -> None:
        self.known: list = sorted(self.own_items, key=repr)
        self.forwarded = 0

    def on_round(self, round_number: int, messages: list[Message]) -> None:
        for message in messages:
            kind, item = message.content
            if kind == "upcast":
                self.known.append(item)
        if self.parent is not None and self.forwarded < len(self.known):
            self.send(self.parent, ("upcast", self.known[self.forwarded]))
            self.forwarded += 1
        if round_number >= self.horizon:
            self.halt()


def simulate_pipelined_upcast(
    graph: nx.Graph,
    tree: RootedTree,
    items: Mapping[Hashable, Iterable],
    bandwidth_words: int = 2,
) -> tuple[list, RoundReport]:
    """Upcast all per-vertex *items* to the root of *tree*, pipelined.

    Returns the list of items known at the root and the round report.
    """
    items = {node: tuple(values) for node, values in items.items()}
    total = sum(len(values) for values in items.values())
    horizon = tree.height() + total + 3
    network = CongestNetwork(graph, bandwidth_words=bandwidth_words)

    def factory(node_id, neighbors, net):
        node = _UpcastNode(node_id, neighbors, net)
        node.parent = tree.parent(node_id)
        node.own_items = items.get(node_id, ())
        node.horizon = horizon
        return node

    report = network.run(factory, max_rounds=horizon + 2, label="pipelined-upcast")
    root_node = network.node_states()[tree.root]
    return list(root_node.known), report
