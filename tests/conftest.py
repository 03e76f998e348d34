"""Shared fixtures for the test suite."""

from __future__ import annotations

import random

import networkx as nx
import pytest

from repro.graphs.generators import (
    cycle_with_chords,
    harary_graph,
    random_k_edge_connected_graph,
)
from repro.mst.sequential import minimum_spanning_tree
from repro.trees.rooted import RootedTree


@pytest.fixture
def rng() -> random.Random:
    return random.Random(1234)


@pytest.fixture
def small_weighted_graph() -> nx.Graph:
    """A 16-vertex 2-edge-connected weighted graph used across many tests."""
    return random_k_edge_connected_graph(16, 2, extra_edge_prob=0.3, seed=7)


@pytest.fixture
def medium_weighted_graph() -> nx.Graph:
    """A 40-vertex 2-edge-connected weighted graph."""
    return random_k_edge_connected_graph(40, 2, extra_edge_prob=0.15, seed=11)


@pytest.fixture
def unweighted_cycle_graph() -> nx.Graph:
    """A cycle with chords (unit weights, diameter Theta(n))."""
    return cycle_with_chords(20, extra_edges=6, seed=3)


@pytest.fixture
def three_connected_graph() -> nx.Graph:
    """A 3-edge-connected unweighted graph for the 3-ECSS tests."""
    return random_k_edge_connected_graph(18, 3, extra_edge_prob=0.3, weight_range=None, seed=5)


@pytest.fixture
def weighted_k3_graph() -> nx.Graph:
    """A small 3-edge-connected weighted graph for the k-ECSS tests."""
    return random_k_edge_connected_graph(12, 3, extra_edge_prob=0.35, seed=13)


@pytest.fixture
def small_mst_tree(small_weighted_graph) -> RootedTree:
    """The canonical rooted MST of ``small_weighted_graph``."""
    return RootedTree(minimum_spanning_tree(small_weighted_graph), root=0)


@pytest.fixture
def path_tree() -> RootedTree:
    """A 10-vertex path rooted at one end."""
    return RootedTree(nx.path_graph(10).edges(), root=0)


@pytest.fixture
def star_tree() -> RootedTree:
    """A 9-leaf star rooted at the centre."""
    return RootedTree(nx.star_graph(9).edges(), root=0)
