"""Incremental connectivity upgrade of a long-haul topology (the Aug_k view).

A regional ISP runs a ring-of-sites backbone (cheap, 2-edge-connected) and
wants to upgrade to survive two simultaneous fibre cuts by leasing extra links
from a price list.  That is exactly the augmentation problem ``Aug_3`` of
Section 4: given the existing 2-edge-connected plant ``H``, buy a minimum-cost
set of extra links so that ``H`` plus the purchases is 3-edge-connected.

Run with::

    python examples/datacenter_upgrade.py
"""

from __future__ import annotations

import random

import networkx as nx

from repro.core.k_ecss import augment_to_k
from repro.graphs.connectivity import canonical_edge, edge_connectivity


def build_isp_topology(sites: int, seed: int) -> tuple[nx.Graph, frozenset]:
    """A ring of sites (owned fibre, weight 0) plus leasable links (positive cost)."""
    rng = random.Random(seed)
    graph = nx.Graph()
    owned = set()
    for i in range(sites):
        j = (i + 1) % sites
        graph.add_edge(i, j, weight=0)  # already-owned fibre costs nothing extra
        owned.add(canonical_edge(i, j))
    # Leasable links: metro shortcuts are cheap, long-haul links expensive.
    for i in range(sites):
        for j in range(i + 2, sites):
            if (i, j) == (0, sites - 1):
                continue
            hop_distance = min(j - i, sites - (j - i))
            price = 10 * hop_distance + rng.randint(0, 20)
            if rng.random() < 0.45:
                graph.add_edge(i, j, weight=price)
    return graph, frozenset(owned)


def main() -> None:
    sites = 24
    graph, owned = build_isp_topology(sites, seed=3)
    print(f"sites: {sites}, owned ring links: {len(owned)}, "
          f"leasable links: {graph.number_of_edges() - len(owned)}")
    print(f"current edge connectivity (ring only): "
          f"{edge_connectivity(graph.edge_subgraph(owned))}")

    # Upgrade in two steps, exactly as Claim 2.1 composes Aug_i stages.
    current = owned
    total_cost = 0
    for target in (3,):
        stage = augment_to_k(graph, current, target, seed=3)
        current = frozenset(current | stage.added)
        total_cost += stage.weight
        upgraded = graph.edge_subgraph(current)
        print(f"\nupgrade to {target}-edge-connectivity:")
        print(f"  links leased       : {len(stage.added)}")
        print(f"  lease cost         : {stage.weight}")
        print(f"  covering iterations: {stage.iterations}")
        print(f"  new connectivity   : {edge_connectivity(upgraded)}")
        print(f"  CONGEST rounds     : {stage.ledger.total_rounds}")

    print(f"\ntotal upgrade cost: {total_cost}")
    leased = sorted(edge for edge in current - owned)
    print(f"leased links ({len(leased)}): {leased}")


if __name__ == "__main__":
    main()
