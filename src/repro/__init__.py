"""repro: distributed approximation of minimum k-edge-connected spanning subgraphs.

A reproduction of Michal Dory, "Distributed Approximation of Minimum
k-edge-connected Spanning Subgraphs" (PODC 2018): the CONGEST-model
algorithms for weighted 2-ECSS, weighted k-ECSS and unweighted 3-ECSS,
together with the substrates they rely on (a CONGEST simulator, MST
fragments, the segment decomposition, cycle space sampling), baseline
algorithms, an experiment harness and exact references.

Quickstart::

    import repro
    graph = repro.random_k_edge_connected_graph(32, 2, seed=0)
    result = repro.two_ecss(graph, seed=0)
    print(result.weight, result.rounds, result.verify())

See ``examples/`` for runnable tours and :mod:`repro.analysis.experiments`
for the experiments that measure each theorem.
"""

from repro.core.two_ecss import two_ecss, weighted_tap
from repro.core.k_ecss import k_ecss, augment_to_k
from repro.core.three_ecss import three_ecss, unweighted_two_ecss_2approx
from repro.core.result import ECSSResult
from repro.graphs.generators import (
    GraphFamily,
    FAMILIES,
    assign_random_weights,
    assign_unit_weights,
    clique_chain,
    cycle_with_chords,
    grid_torus,
    harary_graph,
    random_k_edge_connected_graph,
)
from repro.graphs.connectivity import (
    edge_connectivity,
    is_k_edge_connected,
    verify_spanning_subgraph,
)
from repro.congest.metrics import RoundLedger, RoundReport
from repro.congest.cost_model import CostModel

__version__ = "1.0.0"

__all__ = [
    "two_ecss",
    "weighted_tap",
    "k_ecss",
    "augment_to_k",
    "three_ecss",
    "unweighted_two_ecss_2approx",
    "ECSSResult",
    "GraphFamily",
    "FAMILIES",
    "assign_random_weights",
    "assign_unit_weights",
    "clique_chain",
    "cycle_with_chords",
    "grid_torus",
    "harary_graph",
    "random_k_edge_connected_graph",
    "edge_connectivity",
    "is_k_edge_connected",
    "verify_spanning_subgraph",
    "RoundLedger",
    "RoundReport",
    "CostModel",
    "__version__",
]
