"""Experiment harness: engine, backends, tables and the experiments.

The paper contains no empirical evaluation, so the experiments here measure
the quantitative content of its theorems (Theorems 1.1-1.3, Lemma 3.11,
Claim 4.1 and Lemma 5.4; see :mod:`repro.analysis.experiments`) --
approximation ratios against exact optima / lower bounds, round-complexity
scaling against the claimed bounds, iteration counts, decomposition and
cycle-space properties, and ablations of the design choices.

Trials fan out over an execution backend
(:mod:`repro.analysis.backends`: serial or a process pool) and replay from an on-disk cache via
:class:`~repro.analysis.engine.ExperimentEngine`.  Cache entries are keyed by
:data:`~repro.analysis.engine.CODE_VERSION`, the content hash of the whole
``repro`` package (:mod:`repro.analysis.code_version`), and cleaned up with
:func:`~repro.analysis.engine.cache_gc` /
:func:`~repro.analysis.engine.cache_clear`.  See
:mod:`repro.analysis.experiments` for the registered experiments; the
differential sweeps against the reference oracles are plain tests
(``tests/oracles.py``).
"""

from repro.analysis.tables import Table
from repro.analysis.runner import TrialFailure, TrialResult
from repro.analysis.backends import (
    ExecutionBackend,
    ProcessBackend,
    SerialBackend,
    resolve_backend,
)
from repro.analysis.engine import (
    CODE_VERSION,
    CacheFidelityError,
    ExperimentEngine,
    TrialJob,
    cache_clear,
    cache_gc,
    cache_stats,
)
from repro.analysis import experiments

__all__ = [
    "Table",
    "TrialResult",
    "TrialFailure",
    "ExperimentEngine",
    "TrialJob",
    "CODE_VERSION",
    "CacheFidelityError",
    "cache_stats",
    "cache_gc",
    "cache_clear",
    "ExecutionBackend",
    "SerialBackend",
    "ProcessBackend",
    "resolve_backend",
    "experiments",
]
