"""Cut-pair detection from cycle-space labels (Sections 5.1-5.2).

A *cut pair* of a 2-edge-connected graph is a pair of edges whose joint
removal disconnects it.  With the labelling ``phi`` of
:mod:`repro.cycle_space.labels`, ``{e, f}`` is a cut pair iff
``phi(e) == phi(f)`` (always when it is a cut pair; with probability ``2^-b``
otherwise -- Lemma 5.4 / Corollary 5.3).
"""

from __future__ import annotations

import itertools
from collections import Counter, defaultdict
from typing import Hashable

import networkx as nx

from repro.cycle_space.labels import EdgeLabelling, compute_labels
from repro.graphs.connectivity import canonical_edge

Edge = tuple[Hashable, Hashable]
Pair = frozenset  # frozenset of two canonical edges

__all__ = ["label_multiplicities", "cut_pairs_from_labels", "exact_cut_pairs", "is_cut_pair"]


def label_multiplicities(labelling: EdgeLabelling) -> Counter:
    """Return ``n_phi``: how many edges of the graph carry each label.

    For a tree edge ``t``, ``n_phi(t) == 1`` iff ``t`` participates in no cut
    pair; the 3-ECSS algorithm terminates when this holds for every tree edge
    (Claim 5.10).
    """
    return Counter(labelling.labels.values())


def cut_pairs_from_labels(labelling: EdgeLabelling) -> set[Pair]:
    """Return all edge pairs with equal labels (the detected cut pairs).

    Any true cut pair contains at least one tree edge; pairs of two non-tree
    edges with colliding random labels are false positives and are excluded,
    mirroring the fact that the algorithm only ever inspects labels of tree
    edges.
    """
    tree_edges = set(labelling.tree.tree_edges())
    by_label: dict[object, list[Edge]] = defaultdict(list)
    for edge, label in labelling.labels.items():
        by_label[label].append(edge)
    pairs: set[Pair] = set()
    for edges in by_label.values():
        if len(edges) < 2:
            continue
        for e, f in itertools.combinations(edges, 2):
            if e in tree_edges or f in tree_edges:
                pairs.add(frozenset({e, f}))
    return pairs


def is_cut_pair(graph: nx.Graph, e: Edge, f: Edge) -> bool:
    """Ground-truth check: does removing ``{e, f}`` disconnect *graph*?"""
    pruned = graph.copy()
    pruned.remove_edge(*e)
    pruned.remove_edge(*f)
    return not nx.is_connected(pruned)


def exact_cut_pairs(graph: nx.Graph) -> set[Pair]:
    """Return the exact set of cut pairs of a 2-edge-connected *graph*.

    Uses the deterministic covering-set labels (``mode="exact"``), for which
    label equality characterises cut pairs with no error (Claim 5.6).
    """
    labelling = compute_labels(graph, mode="exact")
    return cut_pairs_from_labels(labelling)


def covered_cut_pairs(
    labelling: EdgeLabelling,
    candidate: Edge,
) -> int:
    """Return how many cut pairs of the labelled graph *candidate* covers (Claim 5.8).

    For a non-edge ``e`` of the labelled graph with tree path ``S^1_e``, the
    number of covered cut pairs with label ``phi(t)`` is
    ``n_{phi(t),e} * (n_phi(t) - n_{phi(t),e})``, summed over the distinct
    labels appearing on ``S^1_e``.  The caller supplies the tree path via the
    labelling's tree (the candidate edge need not belong to the labelled graph).
    """
    u, v = candidate
    path = labelling.tree.tree_path_edges(u, v)
    n_phi = label_multiplicities(labelling)
    on_path = Counter(labelling.labels[canonical_edge(*t)] for t in path)
    total = 0
    for label, count_on_path in on_path.items():
        total += count_on_path * (n_phi[label] - count_on_path)
    return total
