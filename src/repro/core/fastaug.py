"""Flat-array kernels for the augmentation solvers (Sections 4 and 5).

These are the last two Python-object inner loops of the reproduction, ported
to the same CSR/array style as :mod:`repro.tap.fastcover` (TAP coverage) and
:mod:`repro.graphs.fastgraph` (verification):

* :class:`PathLabelKernel` -- the per-iteration cost-effectiveness scoring of
  the 3-ECSS algorithm (Claim 5.8).  Candidate tree paths are materialised
  once as a CSR pair of NumPy arrays over integer tree-edge ids (built in one
  call of the BFS tree's vectorised path builder,
  :meth:`TreePathIndex.path_csr <repro.graphs.fastgraph.TreePathIndex.path_csr>`)
  plus their transpose (tree edge -> candidates).  Each iteration reads the
  labelling's two label lists and turns them into a class-id list with
  C-level builtins; the scan is memoised on that list and on ``A`` (a
  version counter :meth:`PathLabelKernel.mark_added` bumps), so a labelling
  with the same partition returns the previous result without touching the
  candidates.  A scan gathers, with NumPy, the candidates of only the tree
  edges whose class holds more than one edge, counts (candidate, class)
  pairs with ``np.unique`` and sums ``c * (n_phi - c)`` per candidate; the
  ``repr``-ordered candidates at or above an exponent are cached with it.

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
from typing import TYPE_CHECKING, Hashable, Iterable, Sequence

import networkx as nx
import numpy as np

from repro.core.cost_effectiveness import INFINITE_EFFECTIVENESS
from repro.graphs.connectivity import canonical_edge
from repro.trees.rooted import RootedTree

if TYPE_CHECKING:
    from repro.cycle_space.labels import EdgeLabelling

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
        tree: The BFS tree ``T`` (the same tree the driver labels over with
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
    tree.  The candidate paths are kept as a CSR pair (candidate -> child
    ids) and its transpose (child id -> candidate ids), both built once, so
    :meth:`score_round` never touches a hashable edge object.
    """

    __slots__ = (
        "tree", "cand_edges", "cand_repr", "in_added", "version",
        "path_indptr", "path_child", "_tree_indptr", "_tree_cand",
        "_by_repr", "_memo",
    )

    def __init__(self, graph: nx.Graph, tree: RootedTree, skip: Iterable[Edge]) -> None:
        self.tree = tree
        skip_set = set(skip)
        index_of = tree.index
        cand_edges: list[Edge] = []
        us: list[int] = []
        vs: list[int] = []
        for u, v in graph.edges():
            edge = canonical_edge(u, v)
            if edge in skip_set:
                continue
            cand_edges.append(edge)
            us.append(index_of[u])
            vs.append(index_of[v])
        self.cand_edges = cand_edges
        self.cand_repr = [repr(edge) for edge in cand_edges]
        self.in_added = bytearray(len(cand_edges))
        self.version = 0
        self.path_indptr, child = tree.paths.path_csr(us, vs)
        self.path_child = child

        # CSR transpose: child id -> the candidates whose path holds that
        # tree edge (ascending candidate ids, by the stable sort).
        owner = np.repeat(
            np.arange(len(cand_edges), dtype=np.int64), np.diff(self.path_indptr)
        )
        self._tree_cand = owner[np.argsort(child, kind="stable")]
        self._tree_indptr = np.concatenate(
            ([0], np.cumsum(np.bincount(child, minlength=len(index_of))))
        )
        # Candidate ids in repr order (the tie-break of the activation draw).
        self._by_repr = np.asarray(
            sorted(range(len(cand_edges)), key=self.cand_repr.__getitem__),
            dtype=np.int64,
        )
        # [version, class ids, result, exponents, {maximum: repr-ordered ids}]
        # of the last candidate scan.
        self._memo: list | None = None

    @property
    def m_candidates(self) -> int:
        """Number of candidate edges (edges of ``G`` outside ``H``)."""
        return len(self.cand_edges)

    def path_indices(self, j: int) -> list[int]:
        """Child-vertex ids of the tree edges on the path of candidate *j*."""
        return self.path_child[self.path_indptr[j]:self.path_indptr[j + 1]].tolist()

    def mark_added(self, ids: Iterable[int]) -> None:
        """Flag candidates that joined ``A`` (skipped by future rounds)."""
        in_added = self.in_added
        for j in ids:
            if not in_added[j]:
                in_added[j] = 1
                self.version += 1

    def score_round(self, labelling: EdgeLabelling) -> tuple[int, list[int], list[int], int]:
        """Score one iteration under the labelling ``phi``.

        Args:
            labelling: The :class:`~repro.cycle_space.labels.EdgeLabelling`
                of ``H ∪ A`` over this kernel's tree; its labels may be any
                hashable values (random ints, exact bitmasks or frozensets).

        Returns:
            ``(tree_in_pairs, cand_ids, values, max_value)`` where
            *tree_in_pairs* is the number of tree edges sharing their label
            with another edge (the Claim 5.10 termination count), *cand_ids*
            (ascending) and *values* list the candidates with positive
            Claim 5.8 cost-effectiveness, and *max_value* is the largest
            such value (0 when there is none).  When *tree_in_pairs* is 0 the
            candidate scan is skipped entirely.

        The scores are a function of the label *partition* alone and of
        ``A``.  The partition is the class-id list below (each edge's class
        is the position of the last edge carrying its label).  While
        ``H ∪ A`` and the cut-pair classes of Property 5.1 hold, a fresh
        labelling reproduces that list exactly, so the previous scan's result
        is returned (the lists are shared; callers must not mutate them).
        """
        values = labelling.non_tree_labels + labelling.tree_labels
        last = dict(zip(values, range(len(values))))
        classes = list(map(last.__getitem__, values))
        memo = self._memo
        if memo is not None and memo[0] == self.version and memo[1] == classes:
            return memo[2]

        # Claim 5.10: a tree edge is in a cut pair iff its class has size > 1.
        sizes = np.bincount(classes, minlength=len(values))
        tree_class = np.asarray(classes[len(labelling.non_tree_labels):], dtype=np.int64)
        shared = np.flatnonzero(sizes[tree_class] > 1)
        if not len(shared):
            return 0, [], [], 0

        # Claim 5.8 per candidate: sum over the classes on its path of
        # n_{phi,e} * (n_phi - n_{phi,e}).  Only tree edges of classes with
        # n_phi > 1 can contribute, so gather just their candidate lists from
        # the transpose, tagged with the class, and count (candidate, class)
        # pairs.
        indptr = self._tree_indptr
        starts = indptr[shared + 1]
        lengths = indptr[shared + 2] - starts
        ends = np.cumsum(lengths)
        gather = np.arange(ends[-1]) + np.repeat(starts - (ends - lengths), lengths)
        cand = self._tree_cand[gather]
        cls = np.repeat(tree_class[shared], lengths)
        live = np.frombuffer(self.in_added, dtype=np.uint8)[cand] == 0
        keys, counts = np.unique(
            cand[live] * len(values) + cls[live], return_counts=True
        )
        # The sums are integers far below 2^53, so float64 holds them
        # exactly -- and frexp's exponent is their bit_length, the e of
        # rho~ = 2^e.
        totals = np.bincount(
            keys // len(values),
            weights=counts * (sizes[keys % len(values)] - counts),
            minlength=len(self.cand_edges),
        )
        cand_ids = np.flatnonzero(totals > 0)
        scores = totals[cand_ids]
        result = (
            len(shared),
            cand_ids.tolist(),
            scores.astype(np.int64).tolist(),
            int(scores.max()) if len(scores) else 0,
        )
        # Candidates that scored nothing never pass the filter, whatever
        # exponent the clamp asks for.
        exponents = np.full(len(self.cand_edges), np.iinfo(np.int64).min)
        exponents[cand_ids] = np.frexp(scores)[1]
        self._memo = [self.version, classes, result, exponents, {}]
        return result

    def candidates(self, min_exponent: int) -> list[int]:
        """Ids of the last scan's candidates with ``bit_length(value) >= min_exponent``.

        Listed in ``repr`` order (the activation draw order), computed once
        per scan and exponent and cached with the scan; call
        :meth:`score_round` first.
        """
        memo = self._memo
        if memo is None or memo[0] != self.version:
            raise RuntimeError("candidates() needs a score_round() of the current A")
        by_exponent = memo[4]
        chosen = by_exponent.get(min_exponent)
        if chosen is None:
            order = self._by_repr
            chosen = order[memo[3][order] >= min_exponent].tolist()
            by_exponent[min_exponent] = chosen
        return chosen


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
