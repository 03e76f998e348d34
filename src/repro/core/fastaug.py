"""Flat-array kernels for the augmentation solvers (Sections 4 and 5).

These are the last two Python-object inner loops of the reproduction, ported
to the same CSR/array style as :mod:`repro.tap.fastcover` (TAP coverage) and
:mod:`repro.graphs.fastgraph` (verification):

* :class:`PathLabelKernel` -- the per-iteration cost-effectiveness scoring of
  the 3-ECSS algorithm (Claim 5.8).  Candidate tree paths are materialised
  once as CSR flat arrays over integer tree-edge ids (extracted with the
  BFS tree's cached path index, :attr:`repro.trees.rooted.RootedTree.paths`);
  each iteration assigns dense integer ids to the fresh labels, turns the
  tree-edge labels into one flat array, and scores every candidate with
  round-stamped count arrays -- no ``Counter`` is allocated per candidate
  per iteration, and the power-of-two rounding collapses to one
  ``int.bit_length()`` per value.  The scan is memoised: a labelling with
  the same partition (tree-edge id array and class sizes) under the same
  ``A`` (a version counter :meth:`PathLabelKernel.mark_added` bumps) returns
  the previous result without touching the candidates.

* :class:`BitsetCoverKernel` -- the cut-coverage bookkeeping of one ``Aug_k``
  level (Section 4).  The ``covers`` relation is packed into one integer
  bitmask per candidate edge plus its CSR transpose (cut id -> covering edge
  ids); the still-uncovered cut set is a single integer mask and the live
  cover count ``|C_e|`` of every edge is maintained *incrementally* when
  edges join ``A``, so the per-iteration recompute drops from
  ``O(|E| * |cuts|)`` frozenset intersections to a flat counter scan after
  ``O(changed)`` update work.  The scan itself is memoised on a version
  counter :meth:`BitsetCoverKernel.add_many` bumps: an iteration that added
  nothing gets the previous scores (and their ``repr``-sorted maximum
  bucket) back without touching the candidates.

* :class:`GuessingSchedule` -- the probability-guessing schedule shared by
  ``Aug_k`` and the 3-ECSS loop: ``p`` starts at ``1 / 2^ceil(log2 m)``,
  doubles every ``phase_length`` iterations while the maximum rounded
  cost-effectiveness is unchanged, and restarts whenever the maximum changes.
  Both solvers keep the maximum non-increasing (exactly in ``Aug_k``, by the
  Lemma 5.11 clamp in 3-ECSS), so "changes" means "drops" -- the paper's
  reset rule.  The phase counter freezes once ``p`` reaches 1, fixing the
  historical bookkeeping that let it grow without bound while waiting for
  the next maximum drop.

Rounded cost-effectiveness values are represented by their integer exponents
(``rho~ = 2^e``) in both solvers, including the 3-ECSS Lemma 5.11 clamp, and
compared exactly against the ``Fraction`` values the retained ``*_nx``
oracles produce; the ``diff-3ecss-kernel`` /
``diff-kecss-kernel`` differential sweeps assert bit-identical added-edge
sets, weights, iteration counts and histories.
"""

from __future__ import annotations

import math
from typing import Hashable, Iterable, Mapping, Sequence

import networkx as nx

from repro.core.cost_effectiveness import INFINITE_EFFECTIVENESS
from repro.graphs.connectivity import canonical_edge
from repro.trees.rooted import RootedTree

Edge = tuple[Hashable, Hashable]

__all__ = [
    "GuessingSchedule",
    "PathLabelKernel",
    "BitsetCoverKernel",
    "probability_schedule_start",
    "rounded_exponent",
]

_UNSET = object()


def probability_schedule_start(m: int) -> float:
    """Initial activation probability ``1 / 2^ceil(log2 m)`` (Section 4)."""
    # Exact despite floats: log2 of an int is only rounded by ceil() to pick
    # the exponent, and 1 / 2^e is a binary power, representable exactly.
    return 1.0 / (2 ** max(1, math.ceil(math.log2(max(m, 2)))))  # repro: disable=DET004


def rounded_exponent(uncovered: int, weight: int) -> int:
    """The exponent ``e`` with ``rho~ = 2^e``, the smallest power of two
    strictly greater than ``uncovered / weight`` (both positive).

    Exact integer arithmetic: ``2^(e-1) <= uncovered / weight < 2^e``, the
    same value :func:`repro.core.cost_effectiveness.rounded_cost_effectiveness`
    returns as a ``Fraction`` -- without constructing one.
    """
    shift = uncovered.bit_length() - weight.bit_length()
    if shift >= 0:
        return shift + 1 if uncovered >= weight << shift else shift
    return shift + 1 if uncovered << -shift >= weight else shift


class GuessingSchedule:
    """The Section 4 probability-guessing schedule (shared by both solvers).

    Args:
        m: Number of graph edges (sets the starting probability).
        phase_length: Iterations between doublings (``M log n``).

    The caller feeds :meth:`update` the iteration's maximum rounded
    cost-effectiveness (any totally ordered representation -- ``Fraction``,
    integer exponent, or :data:`INFINITE_EFFECTIVENESS` -- as long as it is
    consistent across iterations) and receives the activation probability.
    """

    __slots__ = ("start", "phase_length", "probability", "phase_counter", "_current_max")

    def __init__(self, m: int, phase_length: int) -> None:
        self.start = probability_schedule_start(m)
        self.phase_length = max(1, phase_length)
        self.probability = self.start
        self.phase_counter = 0
        self._current_max = _UNSET

    def update(self, maximum: object) -> float:
        """Advance one iteration under *maximum*; return the probability."""
        if maximum != self._current_max:
            # The maximum dropped (it is non-increasing in both solvers):
            # restart the guessing schedule for the new cost-effectiveness
            # class, exactly as Section 4 prescribes.
            self._current_max = maximum
            self.probability = self.start
            self.phase_counter = 0
        # The schedule only ever holds binary powers 2^-e doubled up to 1, so
        # every float below is exact and the 1.0 comparisons are reliable.
        elif self.phase_counter >= self.phase_length and self.probability < 1.0:  # repro: disable=DET004
            self.probability = min(1.0, self.probability * 2)  # repro: disable=DET004
            self.phase_counter = 0
        if self.probability < 1.0:  # repro: disable=DET004
            # Once p reaches 1 the counter is frozen: it is only ever read
            # under ``probability < 1.0`` and the next maximum drop resets it,
            # so letting it grow unboundedly was pure bookkeeping waste.
            self.phase_counter += 1
        return self.probability


class PathLabelKernel:
    """Array-native Claim 5.8 scoring for the 3-ECSS augmentation loop.

    Args:
        graph: The 3-edge-connected input graph ``G``.
        tree: The BFS tree ``T`` (the same tree the driver hands to
            :func:`repro.cycle_space.labels.compute_labels`).
        skip: Edges excluded from candidacy (the 2-ECSS subgraph ``H``).

    Attributes:
        cand_edges: Candidate id -> canonical edge (``graph.edges()`` order,
            the order the historical implementation iterated in).
        cand_repr: Candidate id -> ``repr`` string (the tie-break/sort key).
        in_added: Bytearray flag per candidate (set by the driver as edges
            join ``A``; flagged candidates are skipped by the scorer).
        version: Bumped by :meth:`mark_added` whenever a candidate is newly
            flagged -- together with the label partition it keys the
            :meth:`score_round` memo.

    Tree edges are identified by the integer id of their child vertex in the
    tree, so :meth:`score_round` never touches a hashable edge object
    inside the per-candidate loop.
    """

    __slots__ = (
        "tree", "cand_edges", "cand_repr", "in_added", "version",
        "path_indptr", "path_child", "n_vertices", "_touched", "_memo",
    )

    def __init__(self, graph: nx.Graph, tree: RootedTree, skip: Iterable[Edge]) -> None:
        self.tree = tree
        skip_set = set(skip)
        index_of, paths = tree.index, tree.paths
        cand_edges: list[Edge] = []
        path_indptr = [0]
        path_child: list[int] = []
        longest = 0
        for u, v in graph.edges():
            edge = canonical_edge(u, v)
            if edge in skip_set:
                continue
            cand_edges.append(edge)
            path_child.extend(paths.path_edges(index_of[u], index_of[v]))
            longest = max(longest, len(path_child) - path_indptr[-1])
            path_indptr.append(len(path_child))
        self.cand_edges = cand_edges
        self.cand_repr = [repr(edge) for edge in cand_edges]
        self.in_added = bytearray(len(cand_edges))
        self.version = 0
        self.path_indptr = path_indptr
        self.path_child = path_child
        self.n_vertices = len(index_of)
        self._touched = [0] * max(1, longest)
        # (version, tlabel, totals, result) of the last candidate scan.
        self._memo: tuple | None = None

    @property
    def m_candidates(self) -> int:
        """Number of candidate edges (edges of ``G`` outside ``H``)."""
        return len(self.cand_edges)

    def path_indices(self, j: int) -> list[int]:
        """Child-vertex ids of the tree edges on the path of candidate *j*."""
        return self.path_child[self.path_indptr[j]:self.path_indptr[j + 1]]

    def mark_added(self, ids: Iterable[int]) -> None:
        """Flag candidates that joined ``A`` (skipped by future rounds)."""
        in_added = self.in_added
        for j in ids:
            if not in_added[j]:
                in_added[j] = 1
                self.version += 1

    def score_round(
        self, labels: Mapping[Edge, object]
    ) -> tuple[int, list[int], list[int], int]:
        """Score one iteration under the labelling ``phi``.

        Args:
            labels: The full label map of ``H ∪ A`` (tree and non-tree edges)
                as produced by ``compute_labels``; values may be any hashable
                label (random ints or exact covering frozensets).

        Returns:
            ``(tree_in_pairs, cand_ids, values, max_value)`` where
            *tree_in_pairs* is the number of tree edges sharing their label
            with another edge (the Claim 5.10 termination count), *cand_ids*
            and *values* list the candidates with positive Claim 5.8
            cost-effectiveness, and *max_value* is the largest such value
            (0 when there is none).  When *tree_in_pairs* is 0 the candidate
            scan is skipped entirely.

        The scores are a function of the label *partition* alone -- the
        tree-edge dense-id array and the class sizes, both built below in
        first-occurrence order -- and of ``A``.  While ``H ∪ A`` (hence the
        label order) and the cut-pair classes of Property 5.1 hold, a fresh
        labelling reproduces both arrays exactly, so the previous scan's
        result is returned (the lists are shared; callers must not mutate
        them).
        """
        # Dense ids for this round's labels; totals[i] is n_phi of label i.
        ids: dict = {}
        totals: list[int] = []
        for label in labels.values():
            lid = ids.get(label)
            if lid is None:
                ids[label] = len(totals)
                totals.append(1)
            else:
                totals[lid] += 1

        # Tree-edge labels as one flat array over child-vertex ids, counting
        # the Claim 5.10 termination condition on the way.
        tlabel = [0] * self.n_vertices
        tree_in_pairs = 0
        for vid, edge in enumerate(self.tree.parent_edges):
            if edge is None:
                continue
            lid = ids[labels[edge]]
            tlabel[vid] = lid
            if totals[lid] > 1:
                tree_in_pairs += 1
        if tree_in_pairs == 0:
            return 0, [], [], 0
        memo = self._memo
        if (
            memo is not None
            and memo[0] == self.version
            and memo[1] == tlabel
            and memo[2] == totals
        ):
            return memo[3]

        # Claim 5.8 per candidate: sum over the distinct labels on its path of
        # n_{phi,e} * (n_phi - n_{phi,e}), with per-candidate label counts on
        # round-stamped arrays (stamped by candidate id, so nothing is reset).
        n_labels = len(totals)
        stamp = [-1] * n_labels
        count = [0] * n_labels
        touched = self._touched
        path_indptr, path_child = self.path_indptr, self.path_child
        in_added = self.in_added
        cand_ids: list[int] = []
        values: list[int] = []
        max_value = 0
        for j in range(len(self.cand_edges)):
            if in_added[j]:
                continue
            touched_n = 0
            for s in range(path_indptr[j], path_indptr[j + 1]):
                lid = tlabel[path_child[s]]
                if stamp[lid] != j:
                    stamp[lid] = j
                    count[lid] = 1
                    touched[touched_n] = lid
                    touched_n += 1
                else:
                    count[lid] += 1
            value = 0
            for i in range(touched_n):
                lid = touched[i]
                c = count[lid]
                value += c * (totals[lid] - c)
            if value > 0:
                cand_ids.append(j)
                values.append(value)
                if value > max_value:
                    max_value = value
        result = (tree_in_pairs, cand_ids, values, max_value)
        self._memo = (self.version, tlabel, totals, result)
        return result


class BitsetCoverKernel:
    """Packed-bitmask cut coverage for one ``Aug_k`` level (Section 4).

    Args:
        cand_edges: Candidate edges outside ``H`` (``graph.edges()`` order).
        weights: Per-candidate integer weight.
        covers: Per-candidate iterable of covered cut indices (ascending).
        n_cuts: Total number of cuts of size ``k - 1``.

    Attributes:
        live: Candidate id -> current ``|C_e|`` (covered *and still
            uncovered* cuts), maintained incrementally by :meth:`add_many`.
        uncovered_mask: Bitmask of still-uncovered cut indices.
        masks: Candidate id -> bitmask of all cuts the edge covers.
        in_added: Bytearray flag per candidate already in ``A``.
        version: Bumped by :meth:`add_many` whenever a candidate is newly
            flagged; it keys the :meth:`score` memo.
    """

    __slots__ = (
        "cand_edges", "cand_repr", "weights", "masks", "live",
        "cut_indptr", "cut_cover", "uncovered_mask", "uncovered_count",
        "n_cuts", "in_added", "version", "_memo",
    )

    def __init__(
        self,
        cand_edges: Sequence[Edge],
        weights: Sequence[int],
        covers: Sequence[Iterable[int]],
        n_cuts: int,
    ) -> None:
        self.cand_edges = list(cand_edges)
        self.cand_repr = [repr(edge) for edge in self.cand_edges]
        self.weights = list(weights)
        self.n_cuts = n_cuts
        counts = [0] * n_cuts
        masks: list[int] = []
        live: list[int] = []
        cover_lists: list[list[int]] = []
        for cover in covers:
            indices = list(cover)
            mask = 0
            for c in indices:
                mask |= 1 << c
                counts[c] += 1
            masks.append(mask)
            live.append(len(indices))
            cover_lists.append(indices)
        if len(masks) != len(self.cand_edges) or len(self.weights) != len(masks):
            raise ValueError("cand_edges, weights and covers must align")
        self.masks = masks
        self.live = live

        # CSR transpose: cut id -> the candidate ids covering it.
        cut_indptr = [0] * (n_cuts + 1)
        for c in range(n_cuts):
            cut_indptr[c + 1] = cut_indptr[c] + counts[c]
        cursor = cut_indptr[:-1].copy()
        cut_cover = [0] * sum(counts)
        for j, indices in enumerate(cover_lists):
            for c in indices:
                cut_cover[cursor[c]] = j
                cursor[c] += 1
        self.cut_indptr = cut_indptr
        self.cut_cover = cut_cover

        self.uncovered_mask = (1 << n_cuts) - 1
        self.uncovered_count = n_cuts
        self.in_added = bytearray(len(self.cand_edges))
        self.version = 0
        # [version, (cand_ids, exponents, maximum), max bucket or None].
        self._memo: list | None = None

    @property
    def all_covered(self) -> bool:
        return self.uncovered_mask == 0

    def covers_of(self, j: int) -> list[int]:
        """Cut indices candidate *j* covers (from the packed mask)."""
        mask = self.masks[j]
        indices: list[int] = []
        while mask:
            low = mask & -mask
            indices.append(low.bit_length() - 1)
            mask ^= low
        return indices

    def add_many(self, ids: Iterable[int]) -> int:
        """Add candidates to ``A``; return how many cuts they newly covered.

        Every newly covered cut decrements the live counter of each edge
        covering it exactly once -- O(changed) total work, replacing the
        O(|E| * |cuts|) recompute of the historical implementation.
        """
        newly = 0
        in_added, masks = self.in_added, self.masks
        for j in ids:
            if not in_added[j]:
                in_added[j] = 1
                self.version += 1
            newly |= masks[j]
        newly &= self.uncovered_mask
        if not newly:
            return 0
        self.uncovered_mask &= ~newly
        live = self.live
        cut_indptr, cut_cover = self.cut_indptr, self.cut_cover
        flipped = 0
        while newly:
            low = newly & -newly
            c = low.bit_length() - 1
            newly ^= low
            flipped += 1
            for s in range(cut_indptr[c], cut_indptr[c + 1]):
                live[cut_cover[s]] -= 1
        self.uncovered_count -= flipped
        return flipped

    def score(self) -> tuple[list[int], list[object], object]:
        """Rounded cost-effectiveness of every live candidate outside ``A``.

        Returns ``(cand_ids, exponents, maximum)``: integer exponents ``e``
        (``rho~ = 2^e``), :data:`INFINITE_EFFECTIVENESS` for zero-weight
        edges, and the maximum (``None`` when no candidate is live).  One
        flat scan of the incrementally maintained counters -- or none: the
        scores depend only on ``A``, so while :attr:`version` is unchanged
        the previous result is returned (the lists are shared; callers must
        not mutate them).
        """
        memo = self._memo
        if memo is not None and memo[0] == self.version:
            return memo[1]
        cand_ids: list[int] = []
        exponents: list[object] = []
        maximum: object = None
        live, weights, in_added = self.live, self.weights, self.in_added
        for j in range(len(live)):
            if in_added[j]:
                continue
            uncovered = live[j]
            if uncovered == 0:
                continue
            weight = weights[j]
            if weight == 0:
                exponent: object = INFINITE_EFFECTIVENESS
            else:
                exponent = rounded_exponent(uncovered, weight)
            cand_ids.append(j)
            exponents.append(exponent)
            if maximum is None or exponent > maximum:
                maximum = exponent
        result = (cand_ids, exponents, maximum)
        self._memo = [self.version, result, None]
        return result

    def max_bucket(self) -> list[int]:
        """The ids scoring the maximum in the last :meth:`score`, ``repr``-sorted.

        Sorted once per scan and cached with it; call :meth:`score` first.
        """
        memo = self._memo
        if memo is None or memo[0] != self.version:
            raise RuntimeError("max_bucket() needs a score() of the current A")
        if memo[2] is None:
            cand_ids, exponents, maximum = memo[1]
            memo[2] = sorted(
                (j for j, exponent in zip(cand_ids, exponents) if exponent == maximum),
                key=self.cand_repr.__getitem__,
            )
        return memo[2]
