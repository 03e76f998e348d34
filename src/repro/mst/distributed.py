"""CONGEST-facing MST construction (Kutten-Peleg [25] substitution).

The paper uses the Kutten-Peleg algorithm twice: to obtain the MST ``T`` that
2-ECSS augments, and to obtain its *fragments*, which seed the decomposition
of Section 3.2.  Re-implementing Kutten-Peleg at the message level would not
change any output of the algorithms under study (the MST is unique given the
canonical tie-breaking), so this module computes the canonical MST centrally,
derives the fragment decomposition with the cap the paper requires, and
charges ``O(D + sqrt(n) log* n)`` rounds on the ledger -- the bound of [25]
evaluated on the instance's measured diameter (see
:class:`repro.congest.cost_model.CostModel`).

The BFS tree used for global communication *is* simulated message-by-message
(:func:`repro.congest.primitives.simulate_bfs_tree`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Hashable

import networkx as nx

from repro.congest.cost_model import CostModel
from repro.congest.metrics import RoundLedger
from repro.congest.primitives import simulate_bfs_tree
from repro.graphs.fastgraph import hop_diameter
from repro.mst.fragments import FragmentDecomposition, decompose_tree_into_fragments
from repro.mst.sequential import minimum_spanning_tree
from repro.trees.rooted import RootedTree

__all__ = ["MstResult", "build_mst_with_fragments"]


@dataclass
class MstResult:
    """Everything the 2-ECSS pipeline needs from the MST stage.

    Attributes:
        mst: The canonical MST, rooted at the minimum-id vertex.
        fragments: Fragment decomposition with cap ~ sqrt(n).
        bfs_tree: The BFS tree of the communication graph (for broadcasts).
        diameter: Hop diameter of the communication graph.
        ledger: Round charges for this stage.
    """

    mst: RootedTree
    fragments: FragmentDecomposition
    bfs_tree: RootedTree
    diameter: int
    ledger: RoundLedger


def build_mst_with_fragments(
    graph: nx.Graph,
    root: Hashable | None = None,
    fragment_cap: int | None = None,
    simulate_bfs: bool = True,
    cost_model: CostModel | None = None,
) -> MstResult:
    """Build the rooted MST, its fragment decomposition and the round ledger.

    Args:
        graph: Connected weighted graph.
        root: Root vertex; defaults to the minimum-id vertex as in the paper.
        fragment_cap: Fragment size threshold; defaults to ``ceil(sqrt(n))``.
        simulate_bfs: When ``True`` (default) the BFS tree is built by actual
            message passing and its measured rounds recorded; when ``False``
            the BFS tree is computed centrally and O(D) rounds are charged
            (useful for very large experiment instances).
        cost_model: The solve's round cost model, whose diameter the stage
            reports; built from *graph* when omitted.
    """
    if graph.number_of_nodes() == 0:
        raise ValueError("cannot build an MST of an empty graph")
    if not nx.is_connected(graph):
        raise ValueError("the input graph must be connected")
    if root is None:
        root = min(graph.nodes(), key=repr)

    ledger = RoundLedger()
    if cost_model is None:
        cost_model = CostModel(n=graph.number_of_nodes(), diameter=hop_diameter(graph))

    if simulate_bfs and graph.number_of_nodes() > 1:
        bfs_tree, report = simulate_bfs_tree(graph, root=root)
        ledger.add_report(report)
    else:
        bfs_tree = RootedTree.bfs_tree(graph, root=root)
        ledger.add("bfs-tree", cost_model.bfs_rounds(), kind="modelled",
                   note="BFS construction charged at O(D)")

    mst_graph = minimum_spanning_tree(graph)
    mst = RootedTree(mst_graph, root=root)
    if fragment_cap is None:
        fragment_cap = max(1, math.isqrt(graph.number_of_nodes()))
    fragments = decompose_tree_into_fragments(mst, cap=fragment_cap)
    ledger.add(
        "mst-kutten-peleg",
        cost_model.mst_rounds(),
        kind="modelled",
        note="Kutten-Peleg MST + fragments, O(D + sqrt(n) log* n) rounds [25]",
    )
    return MstResult(
        mst=mst,
        fragments=fragments,
        bfs_tree=bfs_tree,
        diameter=cost_model.diameter,
        ledger=ledger,
    )
