"""Flat-array kernels for the augmentation solvers (Sections 4 and 5).

These are the last two Python-object inner loops of the reproduction, ported
to the same CSR/array style as :mod:`repro.tap.fastcover` (TAP coverage) and
:mod:`repro.graphs.fastgraph` (verification):

* :class:`PathLabelKernel` -- the cost-effectiveness scoring of the 3-ECSS
  algorithm (Claim 5.8) on one evolving labelling of ``H ∪ A``.  Candidate
  tree paths are materialised once as a CSR pair of NumPy arrays over
  integer tree-edge ids (built in one call of the BFS tree's vectorised path
  builder,
  :meth:`TreePathIndex.path_csr <repro.graphs.fastgraph.TreePathIndex.path_csr>`)
  plus their transpose (tree edge -> candidates).  The kernel loads one full
  labelling and then extends it: :meth:`PathLabelKernel.add_edges` draws a
  label for each edge that joins ``A`` and XORs it into the tree edges on
  its path, and the next :meth:`PathLabelKernel.score_round` regroups only
  the label classes those paths crossed.  A scan gathers, with NumPy, the
  candidates of the tree edges of those classes, counts (candidate, class)
  pairs with ``np.unique`` and moves each candidate's ``sum c * (n_phi - c)``
  by the classes' new minus old contributions; the ``repr``-ordered
  candidates at or above an exponent are cached with the result.

* :class:`BitsetCoverKernel` -- the cut-coverage bookkeeping of one ``Aug_k``
  level (Section 4).  The ``covers`` relation comes from a boolean
  ``|cuts| x n`` side matrix -- candidate ``(u, v)`` covers cut ``C`` iff
  ``side[C, u] != side[C, v]`` -- compared in blocks into two CSRs (cut ->
  covering candidates, candidate -> covered cuts).  The still-uncovered
  cuts and the candidates in ``A`` are boolean arrays, and the live cover
  count ``|C_e|`` of every edge is an int64 array maintained
  *incrementally*: an addition gathers the CSR rows of the newly covered
  cuts and subtracts one ``bincount``.  A scan is one call of the exact
  int64 exponent test the TAP kernel uses
  (:func:`repro.tap.fastcover.rounded_exponents`), with no per-candidate
  Python loop, memoised on a version counter
  :meth:`BitsetCoverKernel.add_many` bumps: an iteration that added nothing
  gets the previous scores (and their ``repr``-ordered maximum bucket, read
  off a repr order built once per level) back without touching the
  candidates.

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
compared exactly against the ``Fraction`` values the ``*_nx`` oracles in
``tests/oracles.py`` produce; the solver-kernel differential sweeps in
``tests/test_fastaug.py`` assert bit-identical added-edge sets, weights,
iteration counts and histories.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from typing import TYPE_CHECKING, Hashable, Iterable, Sequence

import networkx as nx
import numpy as np

from repro.cycle_space.labels import draw_labels
from repro.graphs.connectivity import canonical_edge
from repro.graphs.fastgraph import concat_ranges
from repro.tap.fastcover import (
    DEAD_EXPONENT,
    INFINITE_EXPONENT,
    rounded_exponents,
    weight_array,
    weight_scale,
)
from repro.trees.rooted import RootedTree

if TYPE_CHECKING:
    from repro.cycle_space.labels import EdgeLabelling

Edge = tuple[Hashable, Hashable]

__all__ = [
    "INFINITE_EFFECTIVENESS",
    "GuessingSchedule",
    "PathLabelKernel",
    "BitsetCoverKernel",
    "probability_schedule_start",
]

_UNSET = object()


class _Infinity:
    """Sentinel comparing greater than every finite value (the rho of zero-weight edges)."""

    def __gt__(self, other) -> bool:
        return not isinstance(other, _Infinity)

    def __lt__(self, other) -> bool:
        return False

    def __ge__(self, other) -> bool:
        return True

    def __le__(self, other) -> bool:
        return isinstance(other, _Infinity)

    def __eq__(self, other) -> bool:
        return isinstance(other, _Infinity)

    def __hash__(self) -> int:
        return hash("INFINITE_EFFECTIVENESS")

    def __repr__(self) -> str:
        return "INFINITE_EFFECTIVENESS"


#: The maximum rounded cost-effectiveness of an ``Aug_k`` iteration that
#: holds a zero-weight candidate (the algorithms add those edges first).
INFINITE_EFFECTIVENESS = _Infinity()


def probability_schedule_start(m: int) -> float:
    """Initial activation probability ``1 / 2^ceil(log2 m)`` (Section 4)."""
    # Exact despite floats: log2 of an int is only rounded by ceil() to pick
    # the exponent, and 1 / 2^e is a binary power, representable exactly.
    return 1.0 / (2 ** max(1, math.ceil(math.log2(max(m, 2)))))  # repro: disable=DET004


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
    """Claim 5.8 scoring on one evolving labelling of ``H ∪ A`` (Section 5).

    Args:
        graph: The 3-edge-connected input graph ``G``.
        tree: The BFS tree ``T`` (the same tree the driver labels over with
            :func:`repro.cycle_space.labels.compute_labels`).
        skip: Edges excluded from candidacy (the 2-ECSS subgraph ``H``).

    Attributes:
        cand_edges: Candidate id -> canonical edge (``graph.edges()`` order,
            the order the historical implementation iterated in).
        cand_repr: Candidate id -> ``repr`` string (the tie-break/sort key).
        in_added: Bytearray flag per candidate already in ``A`` (set by
            :meth:`add_edges`; flagged candidates are never scored).
        version: Bumped by every load and every :meth:`add_edges`; it keys
            the :meth:`candidates` cache.
        tree_labels: Vertex id -> label of the tree edge to its parent (the
            root's slot 0 is unused): the loaded labelling, extended by
            every :meth:`add_edges` since.

    Tree edges are identified by the integer id of their child vertex in the
    tree.  The candidate paths are kept as a CSR pair (candidate -> child
    ids) and its transpose (child id -> candidate ids), both built once, so
    scoring never touches a hashable edge object.

    The kernel keeps the label classes of the tree edges (label -> child
    ids), the multiset of non-tree labels and each candidate's Claim 5.8
    total.  An edge joining ``A`` only changes the labels on its path, so
    :meth:`score_round` after :meth:`add_edges` regroups just the classes
    those paths crossed, and moves each candidate's total by the difference
    between their old and new contributions.
    """

    __slots__ = (
        "tree", "cand_edges", "cand_repr", "in_added", "version",
        "path_indptr", "path_child", "tree_labels",
        "_tree_indptr", "_tree_cand", "_by_repr",
        "_bits", "_next", "_groups", "_nontree", "_moved", "_fresh",
        "_totals", "_pairs", "_scan",
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
        self.tree_labels: list = []
        # The loaded labelling's width (0: exact one-hot labels) and the
        # position of the next non-tree edge.
        self._bits = 0
        self._next = 0
        # Label -> tree child ids at the last scan (None until a load), and
        # non-tree label -> multiplicity.
        self._groups: dict | None = None
        self._nontree: Counter = Counter()
        # Pending additions: child id -> its label at the last scan, and the
        # labels drawn for the edges that joined A.
        self._moved: dict[int, object] = {}
        self._fresh: list = []
        # Claim 5.8 total per candidate (0 for candidates in A) and the
        # number of tree edges in a class of size > 1.
        self._totals = np.zeros(len(cand_edges), dtype=np.int64)
        self._pairs = 0
        # [version, result, exponents, {exponent: repr-ordered ids}].
        self._scan: list | None = None

    @property
    def m_candidates(self) -> int:
        """Number of candidate edges (edges of ``G`` outside ``H``)."""
        return len(self.cand_edges)

    def path_indices(self, j: int) -> list[int]:
        """Child-vertex ids of the tree edges on the path of candidate *j*."""
        return self.path_child[self.path_indptr[j]:self.path_indptr[j + 1]].tolist()

    def add_edges(self, ids: Sequence[int], rng: random.Random) -> list:
        """Candidates *ids* join ``A``, in activation order.

        Each draws one fresh label -- :func:`~repro.cycle_space.labels.draw_labels`
        at the loaded labelling's width, so a uniform ``b``-bit int from
        *rng*, or the next one-hot bit in exact mode -- and XORs it into the
        tree edges on its path.  Returns the labels drawn.  The next
        :meth:`score_round` rescores what the additions changed.
        """
        if self._groups is None:
            raise RuntimeError("add_edges() needs a labelling: call score_round(labelling) first")
        in_added = self.in_added
        if any(in_added[j] for j in ids):
            raise ValueError("a candidate can join A only once")
        labels = draw_labels(len(ids), self._bits, rng, self._next)
        self._next += len(ids)
        tree_labels, moved = self.tree_labels, self._moved
        indptr, child = self.path_indptr, self.path_child
        for j, label in zip(ids, labels):
            in_added[j] = 1
            for c in child[indptr[j]:indptr[j + 1]].tolist():
                if c not in moved:
                    moved[c] = tree_labels[c]
                tree_labels[c] ^= label
        self._fresh.extend(labels)
        self._totals[list(ids)] = 0
        self.version += 1
        return labels

    def score_round(self, labelling: EdgeLabelling | None = None) -> tuple[int, list[int], list[int], int]:
        """Score the current labelling of ``H ∪ A`` (Claims 5.8 and 5.10).

        Args:
            labelling: A full :class:`~repro.cycle_space.labels.EdgeLabelling`
                of ``H ∪ A`` over this kernel's tree.  It replaces the
                kernel's labels, and every class is scanned.  Without it,
                the additions since the last call are scored: only the
                classes their paths crossed are regrouped and rescanned.  A
                label that joins an untouched class (a collision) falls back
                to a full scan.

        Returns:
            ``(tree_in_pairs, cand_ids, values, max_value)`` where
            *tree_in_pairs* is the number of tree edges sharing their label
            with another edge (the Claim 5.10 termination count), *cand_ids*
            (ascending) and *values* list the candidates with positive
            Claim 5.8 cost-effectiveness, and *max_value* is the largest
            such value (0 when there is none).  The result is cached until
            the labels change (callers must not mutate the lists).

        Labels may be any hashable values (random ints, exact bitmasks or
        frozensets); :meth:`add_edges` needs the ints
        :func:`~repro.cycle_space.labels.compute_labels` draws.
        """
        if labelling is not None:
            self.tree_labels = [0, *labelling.tree_labels]
            self._nontree = Counter(labelling.non_tree_labels)
            self._bits = labelling.bits
            self._next = len(labelling.non_tree_labels)
            self._moved, self._fresh = {}, []
            self.version += 1
            self._full_scan()
        elif self._groups is None:
            raise RuntimeError("the first score_round() needs a labelling")
        elif self._moved or self._fresh:
            if not self._rescan_split():
                self._full_scan()
        scan = self._scan
        if scan is not None and scan[0] == self.version:
            return scan[1]
        totals = self._totals
        cand_ids = np.flatnonzero(totals > 0)
        scores = totals[cand_ids]
        result = (
            self._pairs,
            cand_ids.tolist(),
            scores.tolist(),
            int(scores.max()) if len(scores) else 0,
        )
        # frexp's exponent of an integer below 2^53 is its bit_length, the
        # e of rho~ = 2^e.  Candidates that scored nothing never pass the
        # filter, whatever exponent the clamp asks for.
        exponents = np.full(len(totals), np.iinfo(np.int64).min)
        exponents[cand_ids] = np.frexp(scores)[1]
        self._scan = [self.version, result, exponents, {}]
        return result

    def candidates(self, min_exponent: int) -> list[int]:
        """Ids of the last scan's candidates with ``bit_length(value) >= min_exponent``.

        Listed in ``repr`` order (the activation draw order), computed once
        per scan and exponent and cached with the scan; call
        :meth:`score_round` first.
        """
        scan = self._scan
        if scan is None or scan[0] != self.version:
            raise RuntimeError("candidates() needs a score_round() of the current A")
        by_exponent = scan[3]
        chosen = by_exponent.get(min_exponent)
        if chosen is None:
            order = self._by_repr
            chosen = order[scan[2][order] >= min_exponent].tolist()
            by_exponent[min_exponent] = chosen
        return chosen

    def _full_scan(self) -> None:
        """Group every tree edge by label and score every class."""
        self._nontree.update(self._fresh)
        self._moved, self._fresh = {}, []
        groups: dict = {}
        for c, label in enumerate(self.tree_labels[1:], 1):
            groups.setdefault(label, []).append(c)
        self._groups = groups
        nontree = self._nontree
        shared = [
            (members, size)
            for label, members in groups.items()
            if (size := len(members) + nontree[label]) > 1
        ]
        child, cls, sizes = _class_arrays(shared)
        self._pairs = len(child)
        cand, row = self._gather(child)
        self._totals = _claim58(cand, cls[row], sizes, len(self.cand_edges))

    def _rescan_split(self) -> bool:
        """Regroup the classes the pending paths crossed; ``False`` on a collision.

        Claim 5.10 and Claim 5.8 only read classes with more than one edge,
        and a class no added path crossed keeps its members and its size.
        So the crossed classes' tree edges are regrouped by their new
        labels, and each candidate's total loses the crossed classes' old
        contributions and gains the new classes'.  That is exact unless a
        new label -- of a moved tree edge or of an added edge -- equals the
        label of an uncrossed class, which would change that class's size.
        """
        groups, nontree, tree_labels = self._groups, self._nontree, self.tree_labels
        crossed = dict.fromkeys(self._moved.values())
        fresh = self._fresh
        self._moved, self._fresh = {}, []
        before = []
        for label in crossed:
            members = groups.pop(label)
            before.append((members, len(members) + nontree[label]))
        nontree.update(fresh)
        split: dict = {}
        for members, _ in before:
            for c in members:
                split.setdefault(tree_labels[c], []).append(c)
        if not (groups.keys().isdisjoint(split) and groups.keys().isdisjoint(fresh)):
            return False
        groups.update(split)
        after = [(members, len(members) + nontree[label]) for label, members in split.items()]

        old_child, old_cls, old_sizes = _class_arrays([c for c in before if c[1] > 1])
        new_child, new_cls, new_sizes = _class_arrays([c for c in after if c[1] > 1])
        self._pairs += len(new_child) - len(old_child)
        # One gather serves both sides: every tree edge of a shared class,
        # before or after, tagged with its old and new class (-1: none).
        old_of = np.full(len(tree_labels), -1, dtype=np.int64)
        old_of[old_child] = old_cls
        new_of = np.full(len(tree_labels), -1, dtype=np.int64)
        new_of[new_child] = new_cls
        rows = np.flatnonzero((old_of >= 0) | (new_of >= 0))
        cand, row = self._gather(rows)
        child = rows[row]
        m = len(self.cand_edges)
        for of, sizes, sign in ((old_of, old_sizes, -1), (new_of, new_sizes, 1)):
            cls = of[child]
            keep = cls >= 0
            self._totals += sign * _claim58(cand[keep], cls[keep], sizes, m)
        return True

    def _gather(self, child: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The (candidate, row) pairs of the tree edges *child*, candidates outside ``A``.

        *row* indexes *child*: the pair's candidate has ``child[row]`` on
        its path.
        """
        indptr = self._tree_indptr
        cand = _csr_rows(indptr, self._tree_cand, child)
        row = np.repeat(np.arange(len(child)), indptr[child + 1] - indptr[child])
        live = np.frombuffer(self.in_added, dtype=np.uint8)[cand] == 0
        return cand[live], row[live]


def _class_arrays(classes: list[tuple[list[int], int]]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(child ids, class per child, size per class)`` of ``(members, size)`` classes."""
    lengths = [len(members) for members, _ in classes]
    child = np.fromiter(
        (c for members, _ in classes for c in members), dtype=np.int64, count=sum(lengths)
    )
    cls = np.repeat(np.arange(len(classes), dtype=np.int64), lengths)
    sizes = np.fromiter((size for _, size in classes), dtype=np.int64, count=len(classes))
    return child, cls, sizes


def _claim58(cand: np.ndarray, cls: np.ndarray, sizes: np.ndarray, m: int) -> np.ndarray:
    """Claim 5.8 per candidate: the sum of ``c * (n_phi - c)`` over its classes.

    *cand* and *cls* list one (candidate, class) pair per tree edge of the
    class on the candidate's path; ``c`` counts a candidate's pairs in a
    class and ``n_phi`` is the class's size.  Returns an int64 array over
    all *m* candidates.
    """
    n_classes = max(1, len(sizes))
    keys, counts = np.unique(cand * n_classes + cls, return_counts=True)
    # The sums are integers far below 2^53, so float64 holds them exactly.
    totals = np.bincount(
        keys // n_classes,
        weights=counts * (sizes[keys % n_classes] - counts),
        minlength=m,
    )
    return totals.astype(np.int64)


def _csr_rows(indptr: np.ndarray, values: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The concatenated CSR rows ``values[indptr[r]:indptr[r + 1]]`` of *rows*."""
    starts = indptr[rows]
    return values[concat_ranges(starts, indptr[rows + 1] - starts)]


#: Side-matrix entries compared per block while building the cover incidence.
_COVER_BLOCK = 1 << 22


class BitsetCoverKernel:
    """Array cut coverage for one ``Aug_k`` level (Section 4).

    Args:
        cand_edges: Candidate edges outside ``H`` (``graph.edges()`` order).
        weights: Per-candidate integer weight.
        side: Boolean ``|cuts| x n`` matrix; ``side[c, v]`` says whether
            vertex id ``v`` is on the recorded side of cut ``c``.
        tails / heads: Per-candidate endpoint vertex ids (columns of *side*).

    Candidate ``j`` covers cut ``c`` iff ``side[c, tails[j]] !=
    side[c, heads[j]]`` (Definition 2.1); the incidence is compared in
    blocks of cuts and kept as two CSRs, cut -> covering candidates and
    candidate -> covered cuts.

    Attributes:
        live: Candidate id -> current ``|C_e|`` (covered *and still
            uncovered* cuts, int64), maintained incrementally by
            :meth:`add_many`.
        uncovered: Boolean flag per cut; ``uncovered_count`` counts them.
        in_added: Boolean flag per candidate already in ``A``.
        version: Bumped by :meth:`add_many` whenever a candidate is newly
            flagged; it keys the :meth:`score` memo.
    """

    __slots__ = (
        "cand_edges", "weights", "live", "n_cuts",
        "cut_indptr", "cut_cover", "cand_indptr", "cand_cuts",
        "uncovered", "uncovered_count", "in_added", "version",
        "_scale", "_by_repr", "_memo",
    )

    def __init__(
        self,
        cand_edges: Sequence[Edge],
        weights: Sequence[int],
        side: np.ndarray,
        tails: Sequence[int] | np.ndarray,
        heads: Sequence[int] | np.ndarray,
    ) -> None:
        self.cand_edges = list(cand_edges)
        self.weights = list(weights)
        tails = np.asarray(tails, dtype=np.intp)
        heads = np.asarray(heads, dtype=np.intp)
        n_cand = len(self.cand_edges)
        if len(self.weights) != n_cand or len(tails) != n_cand or len(heads) != n_cand:
            raise ValueError("cand_edges, weights, tails and heads must align")
        n_cuts = self.n_cuts = len(side)

        # (cut, candidate) incidence, cut-major with candidates ascending.
        cuts: list[np.ndarray] = [np.zeros(0, dtype=np.int32)]
        cands: list[np.ndarray] = [np.zeros(0, dtype=np.int32)]
        block = max(1, _COVER_BLOCK // max(1, n_cand))
        for start in range(0, n_cuts, block):
            rows = side[start:start + block]
            cut, cand = (rows[:, tails] != rows[:, heads]).nonzero()
            cuts.append((cut + start).astype(np.int32))
            cands.append(cand.astype(np.int32))
        cut = np.concatenate(cuts)
        cand = np.concatenate(cands)
        self.cut_indptr = np.zeros(n_cuts + 1, dtype=np.int64)
        np.cumsum(np.bincount(cut, minlength=n_cuts), out=self.cut_indptr[1:])
        self.cut_cover = cand
        counts = np.bincount(cand, minlength=n_cand)
        self.cand_indptr = np.zeros(n_cand + 1, dtype=np.int64)
        np.cumsum(counts, out=self.cand_indptr[1:])
        self.cand_cuts = cut[np.argsort(cand, kind="stable")]
        self.live = counts.astype(np.int64)

        self.uncovered = np.ones(n_cuts, dtype=bool)
        self.uncovered_count = n_cuts
        self.in_added = np.zeros(n_cand, dtype=bool)
        self.version = 0
        self._scale = weight_scale(weight_array(self.weights))
        # Candidate ids in repr order (the tie-break of the activation draw).
        reprs = [repr(edge) for edge in self.cand_edges]
        self._by_repr = np.asarray(
            sorted(range(n_cand), key=reprs.__getitem__), dtype=np.int64
        )
        # [version, (cand_ids, exponents, maximum), all exponents, max bucket
        # or None] of the last scan.
        self._memo: list | None = None

    @property
    def all_covered(self) -> bool:
        return self.uncovered_count == 0

    def covers_of(self, j: int) -> list[int]:
        """Cut indices candidate *j* covers, ascending."""
        return self.cand_cuts[self.cand_indptr[j]:self.cand_indptr[j + 1]].tolist()

    def add_many(self, ids: Iterable[int]) -> int:
        """Add candidates to ``A``; return how many cuts they newly covered.

        Every newly covered cut decrements the live counter of each edge
        covering it exactly once: one gather of the newly covered cuts' CSR
        rows and one ``bincount``, replacing the O(|E| * |cuts|) recompute
        of the historical implementation.
        """
        ids = np.fromiter(ids, dtype=np.int64)
        fresh = np.unique(ids[~self.in_added[ids]])
        if len(fresh):
            self.in_added[fresh] = True
            self.version += len(fresh)
        cuts = _csr_rows(self.cand_indptr, self.cand_cuts, ids)
        cuts = np.unique(cuts[self.uncovered[cuts]])
        if not len(cuts):
            return 0
        self.uncovered[cuts] = False
        self.uncovered_count -= len(cuts)
        self.live -= np.bincount(
            _csr_rows(self.cut_indptr, self.cut_cover, cuts), minlength=len(self.live)
        )
        return len(cuts)

    def score(self) -> tuple[np.ndarray, np.ndarray, object]:
        """Rounded cost-effectiveness of every live candidate outside ``A``.

        Returns ``(cand_ids, exponents, maximum)``: the live candidates
        (ascending int64 ids), their integer exponents ``e`` (``rho~ =
        2^e``, from the exact int64 test :func:`rounded_exponents` that the
        TAP kernel shares; :data:`INFINITE_EXPONENT` for a zero-weight edge),
        and the maximum -- a Python int, :data:`INFINITE_EFFECTIVENESS`, or
        ``None`` when no candidate is live.  An edge of ``A`` covers no
        uncovered cut, so its live count is already 0.  The scores depend
        only on ``A``, so while :attr:`version` is unchanged the previous
        result is returned (the arrays are shared; callers must not mutate
        them).
        """
        memo = self._memo
        if memo is not None and memo[0] == self.version:
            return memo[1]
        exponents = rounded_exponents(self.live, self._scale)
        cand_ids = np.flatnonzero(exponents != DEAD_EXPONENT)
        best = int(exponents.max(initial=DEAD_EXPONENT))
        if best == DEAD_EXPONENT:
            maximum: object = None
        elif best == INFINITE_EXPONENT:
            maximum = INFINITE_EFFECTIVENESS
        else:
            maximum = best
        result = (cand_ids, exponents[cand_ids], maximum)
        self._memo = [self.version, result, exponents, None]
        return result

    def max_bucket(self) -> list[int]:
        """The ids scoring the maximum in the last :meth:`score`, ``repr``-sorted.

        Read off the repr order built once per level, and cached with the
        scan; call :meth:`score` first.
        """
        memo = self._memo
        if memo is None or memo[0] != self.version:
            raise RuntimeError("max_bucket() needs a score() of the current A")
        if memo[3] is None:
            exponents = memo[2]
            order = self._by_repr
            best = exponents.max(initial=DEAD_EXPONENT)
            memo[3] = order[exponents[order] == best].tolist() if best != DEAD_EXPONENT else []
        return memo[3]
