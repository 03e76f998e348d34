"""Graph substrate: generators, connectivity queries and cut enumeration.

The algorithms in :mod:`repro.core` operate on weighted undirected
``networkx.Graph`` instances whose edges carry an integer ``weight``
attribute (the paper assumes integer weights polynomial in ``n``).  This
subpackage provides

* :mod:`repro.graphs.generators` -- families of k-edge-connected test graphs,
* :mod:`repro.graphs.connectivity` -- connectivity queries and verification,
* :mod:`repro.graphs.cuts` -- enumeration of small edge cuts (the objects the
  augmentation algorithms must cover), as edge ids and the vertex ids of
  one side in the graph's :class:`FastGraph` snapshot (the label ``Cut`` the
  tests compare against lives in ``tests/oracles.py``),
* :mod:`repro.graphs.fastgraph` -- the flat-array CSR kernel the hot paths
  above run on (integer relabelling, iterative Tarjan, array union-find,
  cycle-space cut lookup).
"""

from repro.graphs.fastgraph import ArrayUnionFind, FastGraph, hop_diameter
from repro.graphs.generators import (
    GraphFamily,
    random_k_edge_connected_graph,
    cycle_with_chords,
    harary_graph,
    clique_chain,
    grid_torus,
    assign_random_weights,
    assign_unit_weights,
)
from repro.graphs.connectivity import (
    edge_connectivity,
    is_k_edge_connected,
    bridges,
    verify_spanning_subgraph,
    subgraph_weight,
)
from repro.graphs.cuts import enumerate_cuts_of_size

__all__ = [
    "ArrayUnionFind",
    "FastGraph",
    "hop_diameter",
    "GraphFamily",
    "random_k_edge_connected_graph",
    "cycle_with_chords",
    "harary_graph",
    "clique_chain",
    "grid_torus",
    "assign_random_weights",
    "assign_unit_weights",
    "edge_connectivity",
    "is_k_edge_connected",
    "bridges",
    "verify_spanning_subgraph",
    "subgraph_weight",
    "enumerate_cuts_of_size",
]
