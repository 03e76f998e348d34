"""CONGEST-facing MST construction (Kutten-Peleg [25] substitution).

The paper uses the Kutten-Peleg algorithm twice: to obtain the MST ``T`` that
2-ECSS augments, and to obtain its *fragments*, which seed the decomposition
of Section 3.2.  Re-implementing Kutten-Peleg at the message level would not
change any output of the algorithms under study (the MST is unique given the
canonical tie-breaking), so this module computes the canonical MST centrally,
roots it at the minimum-id vertex straight from its Kruskal-ordered edge
list, derives the fragment decomposition with the ``sqrt(n)`` cap the paper
requires, and charges ``O(D + sqrt(n) log* n)`` rounds on the ledger -- the
bound of [25] evaluated on the instance's measured diameter (see
:class:`repro.congest.cost_model.CostModel`).

The BFS tree used for global communication *is* simulated message-by-message
(:func:`repro.congest.primitives.simulate_bfs_tree`); the stage keeps only
its round report.
"""

from __future__ import annotations

from dataclasses import dataclass

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
        fragments: Fragment decomposition with cap ``isqrt(n)``.
        ledger: Round charges for this stage.
    """

    mst: RootedTree
    fragments: FragmentDecomposition
    ledger: RoundLedger


def build_mst_with_fragments(
    graph: nx.Graph,
    simulate_bfs: bool = True,
    cost_model: CostModel | None = None,
) -> MstResult:
    """Build the rooted MST, its fragment decomposition and the round ledger.

    Args:
        graph: Connected weighted graph; a disconnected one raises
            ``ValueError`` (from the BFS simulation or from Kruskal).
        simulate_bfs: When ``True`` (default) the BFS tree is built by actual
            message passing and its measured rounds recorded; when ``False``
            O(D) rounds are charged for it (useful for very large experiment
            instances).
        cost_model: The solve's round cost model; built from *graph* when
            omitted.
    """
    if graph.number_of_nodes() == 0:
        raise ValueError("cannot build an MST of an empty graph")
    root = min(graph.nodes(), key=repr)

    ledger = RoundLedger()
    if cost_model is None:
        cost_model = CostModel(n=graph.number_of_nodes(), diameter=hop_diameter(graph))

    if simulate_bfs and graph.number_of_nodes() > 1:
        _, report = simulate_bfs_tree(graph, root=root)
        ledger.add_report(report)
    else:
        ledger.add("bfs-tree", cost_model.bfs_rounds(), kind="modelled",
                   note="BFS construction charged at O(D)")

    mst = RootedTree(minimum_spanning_tree(graph), root=root)
    fragments = decompose_tree_into_fragments(mst)
    ledger.add(
        "mst-kutten-peleg",
        cost_model.mst_rounds(),
        kind="modelled",
        note="Kutten-Peleg MST + fragments, O(D + sqrt(n) log* n) rounds [25]",
    )
    return MstResult(mst=mst, fragments=fragments, ledger=ledger)
