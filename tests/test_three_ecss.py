"""Tests for the unweighted 3-ECSS algorithm (Section 5, Theorem 1.3)."""

from __future__ import annotations

import importlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import networkx as nx
import pytest

import repro
from oracles import three_ecss_nx
from repro.baselines.thurimella import sparse_certificate_k_ecss
from repro.core.fastaug import PathLabelKernel
from repro.core.three_ecss import three_ecss, unweighted_two_ecss_2approx
from repro.graphs.connectivity import is_k_edge_connected
from repro.graphs.generators import grid_torus, harary_graph, random_k_edge_connected_graph


class TestUnweightedTwoEcss2Approx:
    def test_output_is_2_edge_connected(self, three_connected_graph):
        edges, tree, ledger = unweighted_two_ecss_2approx(three_connected_graph)
        subgraph = nx.Graph()
        subgraph.add_nodes_from(three_connected_graph.nodes())
        subgraph.add_edges_from(edges)
        assert is_k_edge_connected(subgraph, 2)
        assert ledger.total_rounds > 0

    def test_size_at_most_twice_n_minus_1(self, three_connected_graph):
        edges, _, _ = unweighted_two_ecss_2approx(three_connected_graph)
        n = three_connected_graph.number_of_nodes()
        assert len(edges) <= 2 * (n - 1)

    def test_contains_the_bfs_tree(self, three_connected_graph):
        edges, tree, _ = unweighted_two_ecss_2approx(three_connected_graph)
        assert set(tree.tree_edges()) <= set(edges)

    def test_rejects_graphs_with_bridges(self):
        with pytest.raises(ValueError):
            unweighted_two_ecss_2approx(nx.path_graph(5))


class TestThreeEcss:
    @pytest.mark.parametrize("seed", range(3))
    def test_output_is_3_edge_connected(self, seed):
        graph = random_k_edge_connected_graph(
            14, 3, extra_edge_prob=0.3, weight_range=None, seed=seed
        )
        result = three_ecss(graph, seed=seed)
        ok, reason = result.verify()
        assert ok, reason
        assert result.k == 3

    def test_works_on_structured_graphs(self):
        for graph in [harary_graph(12, 3), grid_torus(4, 4)]:
            result = three_ecss(graph, seed=1)
            ok, reason = result.verify()
            assert ok, reason

    def test_size_lower_bound_and_reasonable_quality(self, three_connected_graph):
        result = three_ecss(three_connected_graph, seed=2)
        n = three_connected_graph.number_of_nodes()
        # Any 3-ECSS has at least ceil(3n/2) edges; an O(log n) approximation
        # stays within a log factor of the sparse-certificate baseline.
        assert result.num_edges >= math.ceil(3 * n / 2)
        certificate = sparse_certificate_k_ecss(three_connected_graph, 3)
        assert result.num_edges <= 2 * math.log2(n) * certificate.size

    def test_weight_equals_edge_count(self, three_connected_graph):
        result = three_ecss(three_connected_graph, seed=3)
        assert result.weight == result.num_edges

    def test_exact_label_mode(self, three_connected_graph):
        result = three_ecss(three_connected_graph, seed=4, exact_labels=True)
        ok, reason = result.verify()
        assert ok, reason
        assert result.metadata["label_mode"] == "exact"

    def test_metadata_and_history(self, three_connected_graph):
        result = three_ecss(three_connected_graph, seed=5)
        metadata = result.metadata
        assert metadata["h_size"] + metadata["augmentation_size"] >= result.num_edges
        history = metadata["iterations_history"]
        assert len(history) == result.iterations
        assert history[-1].tree_edges_in_cut_pairs == 0

    def test_rounds_below_theorem_bound_and_iterations_polylog(self, three_connected_graph):
        result = three_ecss(three_connected_graph, seed=6)
        assert result.rounds <= result.metadata["round_bound"]
        n = three_connected_graph.number_of_nodes()
        assert result.iterations <= 64 * math.log2(n) ** 3

    def test_simulated_bfs_option(self):
        graph = harary_graph(10, 3)
        result = three_ecss(graph, seed=7, simulate_bfs=True)
        assert result.ledger.simulated_rounds > 0
        ok, _ = result.verify()
        assert ok

    def test_rejects_graphs_that_are_not_3_edge_connected(self):
        graph = nx.cycle_graph(8)
        with pytest.raises(ValueError):
            three_ecss(graph)

    def test_already_3_connected_h_terminates_quickly(self):
        # A complete graph: H (BFS tree + covers) may already be far from
        # 3-connected, but the loop must still terminate and verify.
        graph = nx.complete_graph(9)
        result = three_ecss(graph, seed=8)
        ok, reason = result.verify()
        assert ok, reason


def _string_torus() -> nx.Graph:
    """The 6 x 6 torus with vertices relabelled ``"v0"`` .. ``"v35"``."""
    graph = grid_torus(6, 6)
    return nx.relabel_nodes(graph, {node: f"v{i}" for i, node in enumerate(graph.nodes())})


_HASH_SEED_SCRIPT = """
import json
import networkx as nx
from repro.core.three_ecss import three_ecss
from repro.graphs.generators import grid_torus

graph = grid_torus(6, 6)
graph = nx.relabel_nodes(graph, {node: f"v{i}" for i, node in enumerate(graph.nodes())})
outcomes = []
for seed in range(4):
    try:
        result = three_ecss(graph, seed=seed, label_bits=10)
        outcomes.append([sorted(map(list, result.edges)), result.iterations])
    except RuntimeError as error:
        outcomes.append(str(error))
print(json.dumps(outcomes))
"""


class TestThreeEcssDeterminism:
    def _run_under_hash_seed(self, hash_seed: str) -> list:
        src = str(Path(repro.__file__).resolve().parents[1])
        pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": pythonpath}
        completed = subprocess.run(
            [sys.executable, "-c", _HASH_SEED_SCRIPT],
            env=env, capture_output=True, text=True, check=True, timeout=120,
        )
        return json.loads(completed.stdout)

    def test_string_labelled_solve_ignores_hash_seed(self):
        # H ∪ A is built in graph.edges() + activation order, so the label
        # draw order -- and with 10-bit labels, which collisions happen --
        # cannot depend on how Python hashes the vertex names.
        first = self._run_under_hash_seed("1")
        assert len(first) == 4
        assert first == self._run_under_hash_seed("2")


class TestThreeEcssLabelCollisions:
    @pytest.mark.parametrize("solver", [three_ecss, three_ecss_nx])
    def test_rejects_non_positive_label_bits(self, solver):
        with pytest.raises(ValueError, match="label_bits"):
            solver(_string_torus(), seed=0, label_bits=0)

    @pytest.mark.parametrize("solver", [three_ecss, three_ecss_nx])
    @pytest.mark.parametrize("label_bits", [True, False, 12.0, "12", -3])
    def test_rejects_label_bits_that_are_not_positive_ints(self, solver, label_bits):
        # True used to run with 1-bit labels and end in a "label collision";
        # 12.0 and "12" used to raise TypeError deep inside the labelling.
        with pytest.raises(ValueError, match="label_bits"):
            solver(_string_torus(), seed=0, label_bits=label_bits)

    @pytest.mark.parametrize("solver", [three_ecss, three_ecss_nx])
    @pytest.mark.parametrize("schedule_constant", [-1, 0, 1.5, 2.0, "2", True, None])
    def test_rejects_schedule_constant_that_is_not_a_positive_int(
        self, solver, schedule_constant
    ):
        # -1 used to run until "did not converge within -832 iterations".
        with pytest.raises(ValueError, match="schedule_constant"):
            solver(_string_torus(), seed=0, schedule_constant=schedule_constant)

    @pytest.mark.parametrize("solver", [three_ecss, three_ecss_nx])
    @pytest.mark.parametrize("schedule_constant", [1, 2, 4])
    def test_accepts_the_schedule_constants_callers_use(self, solver, schedule_constant):
        result = solver(_string_torus(), seed=0, schedule_constant=schedule_constant)
        ok, reason = result.verify()
        assert ok, reason

    @pytest.mark.parametrize("solver", [three_ecss, three_ecss_nx])
    def test_stall_is_reported_as_a_label_collision(self, solver):
        # 6-bit labels on 72 edges collide: the input is 3-edge-connected
        # (checked at entry), so the stall must not blame the graph.
        with pytest.raises(RuntimeError, match="label collision") as info:
            solver(_string_torus(), seed=0, label_bits=6)
        message = str(info.value)
        assert "not 3-edge-connected" not in message
        assert "label_bits" in message and "exact_labels=True" in message

    def test_exact_labels_never_stall(self):
        result = three_ecss(_string_torus(), seed=0, exact_labels=True)
        ok, reason = result.verify()
        assert ok, reason

    def test_one_bit_labels_redraw_once_per_stall(self, monkeypatch):
        # One-bit labels collide constantly.  A stall redraws H ∪ A once;
        # a second stall straight after the redraw raises the collision
        # error, so after the labelling of H two labellings never run back
        # to back.  The oracle follows the same stream to the same outcome.
        module = importlib.import_module("repro.core.three_ecss")
        events: list[str] = []
        label, add = module.compute_labels, PathLabelKernel.add_edges

        def counting_labels(*args, **kwargs):
            events.append("label")
            return label(*args, **kwargs)

        def counting_add(self, ids, rng):
            if ids:
                events.append("add")
            return add(self, ids, rng)

        monkeypatch.setattr(module, "compute_labels", counting_labels)
        monkeypatch.setattr(PathLabelKernel, "add_edges", counting_add)
        graph = _string_torus()
        for seed in range(4):
            events.clear()
            try:
                result = module.three_ecss(graph, seed=seed, label_bits=1)
            except RuntimeError as error:
                outcome = str(error)
                assert "label collision" in outcome
                assert events[-1] == "label"
            else:
                ok, reason = result.verify()
                assert ok, reason
                outcome = sorted(result.edges)
            assert events.count("label") >= 2, events
            assert ["label", "label"] not in [events[i:i + 2] for i in range(1, len(events))]
            try:
                expected = sorted(three_ecss_nx(graph, seed=seed, label_bits=1).edges)
            except RuntimeError as error:
                expected = str(error)
            assert outcome == expected
