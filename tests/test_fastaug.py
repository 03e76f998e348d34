"""The flat-array solver kernels: unit tests and differential sweeps.

Three layers:

* direct unit tests of :class:`repro.core.fastaug.GuessingSchedule` -- the
  Section 4 probability schedule shared by ``Aug_k`` and the 3-ECSS loop:
  doubling cadence, reset on maximum drop, the frozen phase counter at
  ``p = 1``, and a fixed-seed lock of the probabilities a full solver run
  produces;
* direct unit tests of :class:`repro.core.fastaug.PathLabelKernel` and
  :class:`repro.core.fastaug.BitsetCoverKernel` -- CSR path parity with
  ``RootedTree.tree_path_edges``, Claim 5.8 scores vs the ``Counter`` oracle,
  the evolving labelling (every tree label the XOR of its covering edges
  after any ``add_edges`` batches, incremental rescans equal to full
  ``Counter`` scans, wide random labels splitting ``H ∪ A`` into Claim
  5.6's exact classes), the cover score memo, packed cover masks vs the
  frozenset relation, and the incremental live counters vs recomputation;
* the seeded solver-kernel differential sweep: 50 instances of **every**
  registered generator family per solver (plus k=4 k-ECSS cells on 3-edge
  cuts from the cycle-space label lookup), each asserting bit-identical
  output (added-edge sets, weights, iteration counts, histories, ledger
  round totals) against the ``three_ecss_nx`` / ``k_ecss_nx`` /
  ``augment_to_k_nx`` oracles of ``tests/oracles.py``.
"""

from __future__ import annotations

import random
from fractions import Fraction

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from _helpers import SWEEP_FAMILIES, shuffled_string_copy
from oracles import (
    _recompute_effectiveness_nx,
    _score_round_nx,
    augment_to_k_nx,
    compute_labels_nx,
    k_ecss_nx,
    label_cuts,
    rounded_cost_effectiveness,
    three_ecss_nx,
)
from repro.core import fastaug
from repro.core.fastaug import (
    INFINITE_EFFECTIVENESS,
    BitsetCoverKernel,
    GuessingSchedule,
    PathLabelKernel,
    probability_schedule_start,
)
from repro.core.k_ecss import augment_to_k, k_ecss
from repro.core.three_ecss import three_ecss, unweighted_two_ecss_2approx
from repro.cycle_space.labels import CycleSpace, compute_labels
from repro.graphs.connectivity import canonical_edge, is_k_edge_connected
from repro.graphs.generators import FAMILIES, random_k_edge_connected_graph
from repro.mst.sequential import minimum_spanning_tree
from repro.tap.fastcover import (
    DEAD_EXPONENT,
    INFINITE_EXPONENT,
    rounded_exponents,
    weight_array,
    weight_scale,
)

N_GRAPHS = 50

#: Seeds of the k=4 k-ECSS cells: ``Aug_4`` covers the 3-edge cuts found by
#: the cycle-space label lookup, on top of forests that persist through
#: ``Aug_2``..``Aug_4``.
KECSS_K4_SEEDS = (11, 12)


# ------------------------------------------------------------ GuessingSchedule
class TestGuessingSchedule:
    def test_start_probability(self):
        assert probability_schedule_start(64) == 1 / 64
        assert probability_schedule_start(65) == 1 / 128
        assert probability_schedule_start(1) == 1 / 2
        schedule = GuessingSchedule(64, phase_length=3)
        assert schedule.probability == 1 / 64

    def test_doubles_every_phase_length_while_maximum_constant(self):
        schedule = GuessingSchedule(64, phase_length=2)
        probabilities = [schedule.update(Fraction(8)) for _ in range(7)]
        assert probabilities == [
            1 / 64, 1 / 64, 1 / 32, 1 / 32, 1 / 16, 1 / 16, 1 / 8,
        ]

    def test_resets_on_maximum_drop(self):
        schedule = GuessingSchedule(64, phase_length=1)
        for _ in range(5):
            schedule.update(Fraction(8))
        assert schedule.probability > 1 / 64
        assert schedule.update(Fraction(4)) == 1 / 64
        assert schedule.phase_counter == 1

    def test_phase_counter_freezes_at_probability_one(self):
        schedule = GuessingSchedule(4, phase_length=1)
        probabilities = [schedule.update(Fraction(8)) for _ in range(10)]
        assert probabilities[:3] == [1 / 4, 1 / 2, 1.0]
        assert all(p == 1.0 for p in probabilities[2:])
        # The counter is only ever read while p < 1 and a maximum drop resets
        # it, so it stays frozen instead of growing without bound.
        assert schedule.phase_counter == 0
        assert schedule.update(Fraction(4)) == 1 / 4
        assert schedule.phase_counter == 1

    def test_matches_reference_replay_on_random_maxima(self):
        # The paper's schedule, replayed naively: reset on change, double
        # every phase_length iterations below p = 1.
        rng = random.Random(11)
        maximum = 1 << 12
        for phase_length in (1, 2, 5):
            schedule = GuessingSchedule(100, phase_length=phase_length)
            probability = probability_schedule_start(100)
            previous = None
            counter = 0
            for _ in range(200):
                if rng.random() < 0.15 and maximum > 1:
                    maximum //= 2
                if maximum != previous:
                    probability = probability_schedule_start(100)
                    counter = 0
                elif counter >= phase_length and probability < 1.0:
                    probability = min(1.0, probability * 2)
                    counter = 0
                counter += 1
                previous = maximum
                assert schedule.update(maximum) == probability

    def test_fixed_seed_solver_probabilities_locked(self):
        # Lock the full 3-ECSS schedule behaviour on one pinned instance:
        # any change to the reset / doubling / halving rules shifts these.
        graph = random_k_edge_connected_graph(
            14, 3, extra_edge_prob=0.3, weight_range=None, seed=7
        )
        result = three_ecss(graph, seed=7)
        history = result.metadata["iterations_history"]
        probabilities = [record.probability for record in history]
        # m = 43 edges -> p starts at 1/64 and doubles every 2 log2(n) = 8
        # iterations; the first additions (iterations 17 and 26) drop the
        # maximum at iteration 27, restarting the schedule from 1/64.
        assert result.iterations == 53
        assert probabilities == (
            [1 / 64] * 8 + [1 / 32] * 8 + [1 / 16] * 8 + [1 / 8] * 2
            + [1 / 64] * 8 + [1 / 32] * 8 + [1 / 16] * 8 + [1 / 8] * 3
        )
        assert [record.added for record in history if record.added] == [1, 1, 1, 1]
        assert history[-1].tree_edges_in_cut_pairs == 0
        exact = three_ecss(graph, seed=7, exact_labels=True)
        assert exact.iterations == 42


# ------------------------------------------------------------- PathLabelKernel
def _three_ecss_state(n: int, seed: int):
    graph = random_k_edge_connected_graph(
        n, 3, extra_edge_prob=0.3, weight_range=None, seed=seed
    )
    h_edges, tree, _ = unweighted_two_ecss_2approx(graph)
    return graph, h_edges, tree


class TestPathLabelKernel:
    def test_candidate_paths_match_rooted_tree(self):
        graph, h_edges, tree = _three_ecss_state(16, 0)
        kernel = PathLabelKernel(graph, tree, skip=h_edges)
        assert kernel.m_candidates == len(
            [e for u, v in graph.edges() if (e := canonical_edge(u, v)) not in h_edges]
        )
        for j, (u, v) in enumerate(kernel.cand_edges):
            expected = [canonical_edge(a, b) for a, b in tree.tree_path_edges(u, v)]
            materialised = [tree.parent_edges[vid] for vid in kernel.path_indices(j)]
            assert materialised == expected

    def test_score_round_matches_counter_oracle(self):
        for seed in range(4):
            graph, h_edges, tree = _three_ecss_state(14, seed)
            kernel = PathLabelKernel(graph, tree, skip=h_edges)
            tree_edge_set = set(tree.tree_edges())
            candidate_paths = {
                edge: [canonical_edge(a, b) for a, b in tree.tree_path_edges(*edge)]
                for edge in kernel.cand_edges
            }
            current = nx.Graph()
            current.add_nodes_from(graph.nodes())
            current.add_edges_from(h_edges)
            for mode in ("random", "exact"):
                labelling = compute_labels(current, tree=tree, mode=mode, seed=seed)
                pairs, cand_ids, values, max_value = kernel.score_round(labelling)
                oracle_pairs, rounded = _score_round_nx(
                    labelling.labels, tree_edge_set, candidate_paths, set()
                )
                assert pairs == oracle_pairs
                fast_rounded = {
                    kernel.cand_edges[j]: Fraction(1 << value.bit_length())
                    for j, value in zip(cand_ids, values)
                }
                assert fast_rounded == rounded
                if values:
                    assert Fraction(1 << max_value.bit_length()) == max(
                        rounded.values()
                    )

    def test_added_candidates_are_never_scored(self):
        graph, h_edges, tree = _three_ecss_state(14, 1)
        kernel = PathLabelKernel(graph, tree, skip=h_edges)
        current = nx.Graph()
        current.add_nodes_from(graph.nodes())
        current.add_edges_from(h_edges)
        labelling = compute_labels(current, tree=tree, mode="exact")
        _, before_ids, _, _ = kernel.score_round(labelling)
        assert before_ids
        kernel.add_edges(before_ids[:1], random.Random(0))
        _, after_ids, _, _ = kernel.score_round()
        assert before_ids[0] not in after_ids
        # A reload keeps A: the added candidate stays unscored.
        _, reloaded_ids, _, _ = kernel.score_round(labelling)
        assert set(reloaded_ids) == set(before_ids[1:])

    def _h_graph(self, graph, h_edges):
        current = nx.Graph()
        current.add_nodes_from(graph.nodes())
        current.add_edges_from(h_edges)
        return current

    def _oracle(self, kernel, tree, labels, added=frozenset()):
        candidate_paths = {
            edge: [canonical_edge(a, b) for a, b in tree.tree_path_edges(*edge)]
            for edge in kernel.cand_edges
        }
        pairs, rounded = _score_round_nx(
            labels, set(tree.tree_edges()), candidate_paths, set(added)
        )
        return pairs, rounded

    def _rounded(self, kernel, cand_ids, values):
        return {
            kernel.cand_edges[j]: Fraction(1 << value.bit_length())
            for j, value in zip(cand_ids, values)
        }

    def test_score_round_without_additions_returns_the_last_scan(self):
        graph, h_edges, tree = _three_ecss_state(16, 3)
        kernel = PathLabelKernel(graph, tree, skip=h_edges)
        current = self._h_graph(graph, h_edges)
        first = kernel.score_round(compute_labels(current, tree=tree, seed=1))
        assert first[0] > 0 and first[1]
        assert kernel.score_round() is first
        # An empty batch draws nothing and changes no label.
        kernel.add_edges([], random.Random(0))
        assert kernel.score_round() == first

    def test_add_edges_needs_a_loaded_labelling(self):
        graph, h_edges, tree = _three_ecss_state(14, 2)
        kernel = PathLabelKernel(graph, tree, skip=h_edges)
        with pytest.raises(RuntimeError, match="labelling"):
            kernel.score_round()
        with pytest.raises(RuntimeError, match="labelling"):
            kernel.add_edges([0], random.Random(0))

    def test_memo_rescores_a_different_partition(self):
        graph, h_edges, tree = _three_ecss_state(16, 4)
        kernel = PathLabelKernel(graph, tree, skip=h_edges)
        current = self._h_graph(graph, h_edges)
        first = kernel.score_round(compute_labels(current, tree=tree, mode="exact"))
        # Label H plus one candidate without marking it added: A (and the
        # kernel version) is unchanged but the partition is not.
        current.add_edge(*kernel.cand_edges[first[1][0]])
        labelling = compute_labels(current, tree=tree, seed=5)
        second = kernel.score_round(labelling)
        assert second is not first and second != first
        pairs, rounded = self._oracle(kernel, tree, labelling.labels)
        assert second[0] == pairs
        assert self._rounded(kernel, second[1], second[2]) == rounded

    def test_frozenset_labels_match_counter_oracle(self):
        graph, h_edges, tree = _three_ecss_state(14, 5)
        kernel = PathLabelKernel(graph, tree, skip=h_edges)
        current = self._h_graph(graph, h_edges)
        labelling = compute_labels_nx(current, tree=tree, mode="exact")
        labels = labelling.labels
        assert all(isinstance(label, frozenset) for label in labels.values())
        first = kernel.score_round(labelling)
        pairs, rounded = self._oracle(kernel, tree, labels)
        assert first[0] == pairs
        assert self._rounded(kernel, first[1], first[2]) == rounded
        # Equal covering sets give equal one-hot bitmasks: the same scores.
        assert kernel.score_round(compute_labels(current, tree=tree, mode="exact")) == first

    def test_add_edges_rejects_a_repeat_and_bumps_the_version(self):
        graph, h_edges, tree = _three_ecss_state(14, 1)
        kernel = PathLabelKernel(graph, tree, skip=h_edges)
        kernel.score_round(compute_labels(self._h_graph(graph, h_edges), tree=tree, seed=1))
        version = kernel.version
        kernel.add_edges([0, 1], random.Random(0))
        assert kernel.version > version
        with pytest.raises(ValueError, match="only once"):
            kernel.add_edges([1], random.Random(0))

    def test_termination_when_every_label_unique(self):
        graph, h_edges, tree = _three_ecss_state(12, 2)
        kernel = PathLabelKernel(graph, tree, skip=h_edges)
        # G is 3-edge-connected, so its exact labels are pairwise distinct.
        labelling = compute_labels(graph, tree=tree, mode="exact")
        assert len(set(labelling.labels.values())) == graph.number_of_edges()
        pairs, cand_ids, values, max_value = kernel.score_round(labelling)
        assert (pairs, cand_ids, values, max_value) == (0, [], [], 0)

    def _assert_matches_oracle(self, kernel, tree, labelling, added=frozenset(), labels=None):
        pairs, cand_ids, values, max_value = kernel.score_round(labelling)
        if labels is None:
            labels = labelling.labels
        oracle_pairs, rounded = self._oracle(kernel, tree, labels, added)
        assert pairs == oracle_pairs
        if pairs:
            assert self._rounded(kernel, cand_ids, values) == rounded
            assert max_value == max(values, default=0)
        return pairs, cand_ids

    def test_multi_word_labels_match_counter_oracle(self):
        for seed in range(3):
            graph, h_edges, tree = _three_ecss_state(16, seed)
            kernel = PathLabelKernel(graph, tree, skip=h_edges)
            labelling = compute_labels(
                self._h_graph(graph, h_edges), tree=tree, bits=100, seed=seed
            )
            assert max(labelling.non_tree_labels).bit_length() > 64
            pairs, cand_ids = self._assert_matches_oracle(kernel, tree, labelling)
            assert pairs > 0 and cand_ids

    def test_colliding_two_bit_labels_match_counter_oracle(self):
        collided = False
        for seed in range(6):
            graph, h_edges, tree = _three_ecss_state(16, seed)
            kernel = PathLabelKernel(graph, tree, skip=h_edges)
            labelling = compute_labels(
                self._h_graph(graph, h_edges), tree=tree, bits=2, seed=seed
            )
            # With four label values some non-tree edge shares the label of
            # a tree edge it does not form a cut pair with.
            collided |= bool(
                set(labelling.non_tree_labels) & set(labelling.tree_labels)
            )
            self._assert_matches_oracle(kernel, tree, labelling)
        assert collided

    def _kernel_labels(self, kernel, labelling, drawn):
        """Edge -> label of H ∪ A as the kernel holds it after additions."""
        labels = dict(zip(labelling.non_tree_edges(), labelling.non_tree_labels))
        for j, label in drawn.items():
            labels[kernel.cand_edges[j]] = label
        tree = kernel.tree
        for vid in range(1, len(tree.parent_edges)):
            labels[tree.parent_edges[vid]] = kernel.tree_labels[vid]
        return labels

    def _grow(self, kernel, labelling, batches, rng):
        """Run *batches* of ``add_edges``; return the labels drawn per candidate."""
        drawn: dict[int, object] = {}
        for batch in batches:
            fresh = [j for j in dict.fromkeys(batch) if not kernel.in_added[j] and j not in drawn]
            drawn.update(zip(fresh, kernel.add_edges(fresh, rng)))
        return drawn

    @given(seed=st.integers(0, 10_000), n=st.integers(8, 18), setting=st.sampled_from(
        [{"bits": 2}, {"bits": 8}, {"bits": None}, {"bits": 100}, {"mode": "exact"}]
    ))
    @settings(max_examples=40, deadline=None)
    def test_property_added_labels_are_xors_of_covering_edges(self, seed, n, setting):
        # After any sequence of add_edges batches, every tree label is the
        # XOR of the labels of the non-tree edges of H ∪ A that cover it,
        # and the incremental score equals a full Counter scan of those
        # labels -- also with 2-bit labels, whose collisions take the
        # full-scan fallback.
        rng = random.Random(seed)
        graph, h_edges, tree = _three_ecss_state(n, seed % 7)
        kernel = PathLabelKernel(graph, tree, skip=h_edges)
        labelling = compute_labels(
            CycleSpace(self._h_graph(graph, h_edges).edges(), tree), seed=rng, **setting
        )
        kernel.score_round(labelling)
        added: list = []
        drawn: dict[int, object] = {}
        for _ in range(rng.randrange(1, 5)):
            live = [j for j in range(kernel.m_candidates) if not kernel.in_added[j]]
            batch = rng.sample(live, min(len(live), rng.randrange(4)))
            drawn.update(self._grow(kernel, labelling, [batch], rng))
            added.extend(kernel.cand_edges[j] for j in batch)
            labels = self._kernel_labels(kernel, labelling, drawn)
            non_tree = list(labelling.non_tree_edges()) + added
            for vid in range(1, len(tree.parent_edges)):
                t = tree.parent_edges[vid]
                expected = 0
                for edge in non_tree:
                    if t in set(tree.tree_path_edges(*edge)):
                        expected ^= labels[edge]
                assert labels[t] == expected
            self._assert_matches_oracle(kernel, tree, None, added, labels)

    def test_random_partition_matches_exact_cut_pair_classes(self):
        # With wide labels the evolving random labelling splits H ∪ A into
        # exactly the classes of Claim 5.6's covering-set labels.
        for seed in range(6):
            rng = random.Random(seed)
            graph, h_edges, tree = _three_ecss_state(18, seed)
            kernel = PathLabelKernel(graph, tree, skip=h_edges)
            current = self._h_graph(graph, h_edges)
            labelling = compute_labels(CycleSpace(current.edges(), tree), bits=128, seed=rng)
            kernel.score_round(labelling)
            batches = [rng.sample(range(kernel.m_candidates), 3) for _ in range(3)]
            drawn = self._grow(kernel, labelling, batches, rng)
            random_labels = self._kernel_labels(kernel, labelling, drawn)
            current.add_edges_from(kernel.cand_edges[j] for j in drawn)
            exact = compute_labels(current, tree=tree, mode="exact").labels
            assert set(random_labels) == set(exact)

            def classes(labels):
                groups: dict = {}
                for edge, label in labels.items():
                    groups.setdefault(label, set()).add(edge)
                return {frozenset(group) for group in groups.values()}

            assert classes(random_labels) == classes(exact)
            pairs, _, _, _ = kernel.score_round()
            assert pairs == sum(
                1 for t in tree.tree_edges() if len([e for e in exact if exact[e] == exact[t]]) > 1
            )

    def test_incremental_scan_gathers_fewer_pairs_than_a_full_scan(self, monkeypatch):
        graph, h_edges, tree = _three_ecss_state(40, 1)
        kernel = PathLabelKernel(graph, tree, skip=h_edges)
        labelling = compute_labels(self._h_graph(graph, h_edges), tree=tree, seed=1)
        _, cand_ids, _, _ = kernel.score_round(labelling)
        gathered: list[int] = []
        rows = fastaug._csr_rows

        def counting_rows(indptr, values, ids):
            out = rows(indptr, values, ids)
            gathered.append(len(out))
            return out

        monkeypatch.setattr(fastaug, "_csr_rows", counting_rows)
        kernel.add_edges(cand_ids[:1], random.Random(2))
        kernel.score_round()
        kernel.score_round(labelling)
        incremental, full = gathered
        assert incremental < full

# ------------------------------------------------------------ BitsetCoverKernel
def _aug_level_state(n: int, seed: int, k: int = 2, weights=None):
    graph = random_k_edge_connected_graph(n, k, extra_edge_prob=0.35, seed=seed)
    base = frozenset(minimum_spanning_tree(graph))
    subgraph = nx.Graph()
    subgraph.add_nodes_from(graph.nodes())
    subgraph.add_edges_from(base)
    cuts = label_cuts(subgraph, k - 1)
    pool = [
        canonical_edge(u, v)
        for u, v in graph.edges()
        if canonical_edge(u, v) not in base
    ]
    if weights is None:
        weights = [graph[u][v].get("weight", 1) for u, v in pool]
    covers = [
        [i for i, cut in enumerate(cuts) if (u in cut.side) != (v in cut.side)]
        for u, v in pool
    ]
    node_id = {node: i for i, node in enumerate(graph.nodes())}
    side = np.zeros((len(cuts), len(node_id)), dtype=bool)
    for c, cut in enumerate(cuts):
        side[c, [node_id[v] for v in cut.side]] = True
    ends = ([node_id[u] for u, _ in pool], [node_id[v] for _, v in pool])
    kernel = BitsetCoverKernel(pool, weights, side, *ends)
    return graph, pool, weights, covers, cuts, kernel, (side, ends)


def _values(exponents) -> list:
    """Kernel exponents as the oracle's ``rho~`` values."""
    return [
        INFINITE_EFFECTIVENESS if e == INFINITE_EXPONENT else Fraction(2) ** int(e)
        for e in exponents
    ]


class TestBitsetCoverKernel:
    def test_masks_match_frozenset_covers(self):
        _, pool, _, covers, cuts, kernel, _ = _aug_level_state(16, 0)
        assert kernel.n_cuts == len(cuts)
        for j in range(len(pool)):
            assert kernel.covers_of(j) == sorted(covers[j])
            assert kernel.live[j] == len(covers[j])

    def test_transpose_matches_membership(self):
        _, pool, _, covers, cuts, kernel, _ = _aug_level_state(14, 1)
        for c in range(len(cuts)):
            expected = [j for j in range(len(pool)) if c in set(covers[j])]
            listed = kernel.cut_cover[kernel.cut_indptr[c]:kernel.cut_indptr[c + 1]]
            assert listed.tolist() == expected

    def test_cover_blocks_do_not_change_the_incidence(self, monkeypatch):
        _, pool, weights, _, _, kernel, (side, ends) = _aug_level_state(18, 7)
        monkeypatch.setattr(fastaug, "_COVER_BLOCK", 1)  # one cut per block
        blocked = BitsetCoverKernel(pool, weights, side, *ends)
        for name in ("cut_indptr", "cut_cover", "cand_indptr", "cand_cuts", "live"):
            assert np.array_equal(getattr(blocked, name), getattr(kernel, name))

    def test_incremental_live_counters_match_recompute(self):
        _, pool, _, covers, _, kernel, _ = _aug_level_state(18, 2)
        rng = random.Random(2)
        ids = list(range(len(pool)))
        rng.shuffle(ids)
        uncovered = set(range(kernel.n_cuts))
        for j in ids[: len(pool) // 2]:
            flipped = kernel.add_many([j])
            newly = set(covers[j]) & uncovered
            assert flipped == len(newly)
            uncovered -= newly
            assert kernel.uncovered_count == len(uncovered)
            for probe in range(len(pool)):
                assert kernel.live[probe] == len(set(covers[probe]) & uncovered)

    def test_add_many_is_idempotent(self):
        _, pool, _, _, _, kernel, _ = _aug_level_state(12, 3)
        first = kernel.add_many(range(len(pool)))
        assert first == kernel.n_cuts
        assert kernel.all_covered
        assert kernel.add_many(range(len(pool))) == 0
        assert kernel.uncovered_count == 0

    @pytest.mark.parametrize("seed", range(4))
    def test_score_matches_the_recompute_oracle_on_random_states(self, seed):
        rng = random.Random(seed)
        probe, *_ = _aug_level_state(16, 4 + seed)
        n_pool = probe.number_of_edges() - (probe.number_of_nodes() - 1)
        # Zero weights included: each such live edge scores infinity.
        weights = [rng.choice((0, 1, 3, 7, 50, 2**40)) for _ in range(n_pool)]
        _, pool, weights, covers, _, kernel, _ = _aug_level_state(
            16, 4 + seed, weights=weights
        )
        weight_of = dict(zip(pool, weights))
        cover_sets = {edge: frozenset(cover) for edge, cover in zip(pool, covers)}
        added: set = set()
        uncovered = set(range(kernel.n_cuts))
        while True:
            cand_ids, exponents, maximum = kernel.score()
            oracle = _recompute_effectiveness_nx(
                pool, added, cover_sets, uncovered, weight_of
            )
            assert dict(zip((pool[j] for j in cand_ids), _values(exponents))) == oracle
            if not oracle:
                assert maximum is None and kernel.max_bucket() == []
                break
            best = max(oracle.values())
            if best is INFINITE_EFFECTIVENESS:
                assert maximum is INFINITE_EFFECTIVENESS
            else:
                assert Fraction(2) ** maximum == best
            assert [pool[j] for j in kernel.max_bucket()] == sorted(
                (edge for edge, value in oracle.items() if value == best), key=repr
            )
            chosen = rng.sample(range(len(pool)), min(3, len(pool)))
            kernel.add_many(chosen)
            for j in chosen:
                added.add(pool[j])
                uncovered -= cover_sets[pool[j]]

    def test_score_is_memoised_until_an_addition(self):
        _, pool, weights, covers, _, kernel, (side, ends) = _aug_level_state(16, 5)
        first = kernel.score()
        bucket = kernel.max_bucket()
        assert kernel.score() is first
        assert kernel.max_bucket() is bucket
        cand_ids, exponents, maximum = first
        assert bucket == sorted(
            (int(j) for j, e in zip(cand_ids, exponents) if e == maximum),
            key=lambda j: repr(pool[j]),
        )

        kernel.add_many(bucket[:1])
        version = kernel.version
        rescored = kernel.score()
        assert rescored is not first
        assert bucket[0] not in rescored[0]
        # Re-adding a candidate already in A changes nothing: still a hit.
        kernel.add_many(bucket[:1])
        assert kernel.version == version
        assert kernel.score() is rescored

        fresh = BitsetCoverKernel(pool, weights, side, *ends)
        fresh.add_many(bucket[:1])
        cand_ids, exponents, maximum = fresh.score()
        assert np.array_equal(cand_ids, rescored[0])
        assert np.array_equal(exponents, rescored[1])
        assert maximum == rescored[2]

    def test_max_bucket_needs_a_current_score(self):
        kernel = _aug_level_state(12, 6)[5]
        with pytest.raises(RuntimeError):
            kernel.max_bucket()
        kernel.score()
        kernel.add_many(kernel.max_bucket()[:1])
        with pytest.raises(RuntimeError):
            kernel.max_bucket()

    def test_rounded_exponent_matches_reference(self):
        pairs = [(u, w) for u in range(40) for w in range(40)]
        huge = (2**53 + 1, 2**62 - 1, 2**62 + 3, 2**70)
        pairs += [(u, w) for u in (1, 5, 2**20) for w in huge]
        uncovered = np.array([u for u, _ in pairs], dtype=np.int64)
        for weights in (
            weight_array([w for _, w in pairs]),
            weight_array([w for _, w in pairs if w < 2**63]),
        ):
            live = uncovered[: len(weights)]
            exponents = rounded_exponents(live, weight_scale(weights))
            for u, w, e in zip(live.tolist(), weights.tolist(), exponents.tolist()):
                if u == 0:
                    assert e == DEAD_EXPONENT
                else:
                    assert _values([e]) == [rounded_cost_effectiveness(u, w)]

    def test_level_parity_with_oracle(self):
        for seed in range(4):
            graph, *_ = _aug_level_state(14, seed)
            base = frozenset(minimum_spanning_tree(graph))
            fast = augment_to_k(graph, base, 2, seed=seed)
            oracle = augment_to_k_nx(graph, base, 2, seed=seed)
            assert fast.added == oracle.added
            assert fast.weight == oracle.weight
            assert fast.iterations == oracle.iterations
            assert fast.metadata["history"] == oracle.metadata["history"]


# ------------------------------------------------------ differential sweep
def _solver_instance(family: str, seed: int, k: int) -> nx.Graph:
    """One seeded family instance lifted to k-edge-connectivity if needed."""
    graph = FAMILIES[family](10 + seed % 13, seed=seed)
    if not is_k_edge_connected(graph, k):
        graph.add_edges_from(nx.k_edge_augmentation(graph, k))
    return graph


def _assert_k_ecss_parity(family: str, seed: int, k: int) -> None:
    """The full Theorem 1.2 composition, then one explicit ``Aug_2`` level
    over the MST base, against the frozenset oracle: bit-identical runs."""
    where = (family, seed, k)
    graph = _solver_instance(family, seed, k)
    fast = k_ecss(graph, k, seed=seed)
    oracle = k_ecss_nx(graph, k, seed=seed)
    assert fast.edges == oracle.edges, where
    assert (fast.weight, fast.iterations) == (oracle.weight, oracle.iterations), where
    assert fast.metadata["stages"] == oracle.metadata["stages"], where
    assert fast.ledger.total_rounds == oracle.ledger.total_rounds, where

    mst_edges = frozenset(minimum_spanning_tree(graph))
    level = augment_to_k(graph, mst_edges, 2, seed=seed)
    level_oracle = augment_to_k_nx(graph, mst_edges, 2, seed=seed)
    assert level.added == level_oracle.added, where
    assert (level.weight, level.iterations) == (
        level_oracle.weight, level_oracle.iterations
    ), where
    # The incrementally maintained uncovered-cut counts must match record
    # for record.
    assert level.metadata["history"] == level_oracle.metadata["history"], where
    assert level.ledger.total_rounds == level_oracle.ledger.total_rounds, where


@pytest.mark.parametrize("family", SWEEP_FAMILIES)
class TestSolverKernelDifferentialSweep:
    """50 seeded graphs per generator family, per ported solver loop."""

    @pytest.mark.parametrize(
        "variant", ["random", "exact", "100-bit", "string-names"]
    )
    def test_three_ecss_matches_oracle(self, family, variant):
        """Kernel-backed 3-ECSS vs the ``Counter`` oracle: bit-identical runs.

        Both consume the same RNG stream (the labels of ``H``, then per
        iteration one draw per candidate in ``repr`` order and one label per
        activated edge), so the added-edge set, the iteration
        count and every :class:`~repro.core.three_ecss.ThreeEcssIterationStats`
        record must match exactly -- in random- and exact-label modes, with
        100-bit (multi-word) labels, and on a copy with string vertex names
        in shuffled node and edge order (which fixes a different label draw
        order).
        """
        options = {"exact": {"exact_labels": True}, "100-bit": {"label_bits": 100}}
        for seed in range(N_GRAPHS):
            graph = _solver_instance(family, seed, 3)
            if variant == "string-names":
                graph = shuffled_string_copy(graph, seed)
            fast = three_ecss(graph, seed=seed, **options.get(variant, {}))
            oracle = three_ecss_nx(graph, seed=seed, **options.get(variant, {}))
            assert fast.edges == oracle.edges, seed
            assert (fast.weight, fast.num_edges, fast.iterations) == (
                oracle.weight, oracle.num_edges, oracle.iterations
            ), seed
            assert (
                fast.metadata["iterations_history"] == oracle.metadata["iterations_history"]
            ), seed
            assert (fast.metadata["h_size"], fast.metadata["augmentation_size"]) == (
                oracle.metadata["h_size"], oracle.metadata["augmentation_size"]
            ), seed
            assert fast.ledger.total_rounds == oracle.ledger.total_rounds, seed

    @pytest.mark.parametrize("k", [2, 3])
    def test_k_ecss_matches_oracle(self, family, k):
        """The target connectivity alternates between 2 and 3 by seed, which
        exercises the bridge and cut-pair enumerators."""
        for seed in range(k - 2, N_GRAPHS, 2):
            _assert_k_ecss_parity(family, seed, k)

    def test_k_ecss_matches_oracle_at_k4(self, family):
        for seed in KECSS_K4_SEEDS:
            _assert_k_ecss_parity(family, seed, 4)
