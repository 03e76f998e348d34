"""Randomized differential tests, sharded through the experiment engine.

For ~50 seeded random graphs per class, the 2-ECSS / 3-ECSS / k-ECSS solver
outputs are checked to be k-edge-connected spanning subgraphs through the
independent verifiers in :mod:`repro.graphs.connectivity` (networkx max-flow,
not the algorithms under test), and on small instances their weight/size is
differenced against the exact ILP optimum from :mod:`repro.baselines.exact`
within the paper's approximation factors (Theorems 1.1-1.3).

The checks themselves live in :mod:`repro.analysis.differential` as trial
functions registered with the engine, so the suite fans out over the same
execution backends as the experiments (and scales to thousands of instances
by raising the job counts).  A violated invariant raises inside the trial;
the engine captures it per-(config, seed) and ``trial_groups`` re-raises it
here with the offending instance attached, so a failure pinpoints the graph
that broke.

Seeds are fixed, so every assertion is deterministic on every backend; a
``slow``-marked sweep extends the same checks to larger instances.
"""

from __future__ import annotations

import pytest

from repro.analysis.differential import (
    k_ecss_jobs,
    medium_sweep_jobs,
    three_ecss_jobs,
    two_ecss_jobs,
)
from repro.analysis.engine import ExperimentEngine
from repro.analysis.runner import trial_groups

N_GRAPHS = 50
EXACT_GRAPHS = 15

#: The full-size sweeps run serially: the trials take milliseconds, so a
#: pool would cost more in start-up than it saves.  The process path is
#: covered by the parity test below.
SWEEP_BACKEND = "serial"
SWEEP_WORKERS = 1


def _run(experiment: str, jobs, backend=SWEEP_BACKEND, workers=SWEEP_WORKERS):
    """Run a differential batch; raises TrialFailure listing any violations."""
    engine = ExperimentEngine(workers=workers, backend=backend)
    results = engine.run_jobs(experiment, jobs)
    # Any trial that raised (verifier rejection, approximation bound breach)
    # surfaces here with its (config, seed) pair and traceback.
    trial_groups(results, key=lambda r: r.config["family"])
    return results


def _exact_results(results):
    exact = [r for r in results if str(r.config["family"]).endswith("-exact")]
    assert exact, "sweep contained no exact-diffed instances"
    return exact


class TestTwoEcssDifferential:
    def test_sweep_is_two_edge_connected_and_within_paper_factor(self):
        results = _run("diff-2ecss", two_ecss_jobs(N_GRAPHS, EXACT_GRAPHS))
        assert len(results) == 2 * N_GRAPHS + EXACT_GRAPHS
        for result in _exact_results(results):
            # Theorem 1.1: within the 2 log2 n ceiling of the exact optimum.
            assert 1.0 <= result.metrics["ratio"] <= result.metrics["factor"]


class TestThreeEcssDifferential:
    def test_sweep_is_three_edge_connected_and_within_factor_two(self):
        results = _run("diff-3ecss", three_ecss_jobs(N_GRAPHS, EXACT_GRAPHS))
        assert len(results) == N_GRAPHS + EXACT_GRAPHS
        for result in _exact_results(results):
            # Theorem 1.3: 2-approximation for unweighted 3-ECSS.
            assert 1.0 <= result.metrics["ratio"] <= 2.0


class TestKEcssDifferential:
    def test_sweep_is_k_edge_connected_and_within_paper_factor(self):
        results = _run("diff-kecss", k_ecss_jobs(N_GRAPHS, EXACT_GRAPHS))
        assert len(results) == 2 * (N_GRAPHS // 2 + EXACT_GRAPHS // 2)
        assert {r.config["k"] for r in results} == {2, 3}
        for result in _exact_results(results):
            # Theorem 1.2: within the k log2 n ceiling of the exact optimum.
            assert 1.0 <= result.metrics["ratio"] <= result.metrics["factor"]


class TestBackendParityOnDifferentialTrials:
    """A reduced grid must be bit-identical on both backends."""

    @pytest.mark.parametrize(
        "experiment, jobs",
        [
            ("diff-2ecss", two_ecss_jobs(6, 3)),
            ("diff-3ecss", three_ecss_jobs(6, 3)),
            ("diff-kecss", k_ecss_jobs(6, 2)),
        ],
    )
    def test_backends_agree_bit_for_bit(self, experiment, jobs):
        outcomes = {
            backend: _run(experiment, jobs, backend=backend, workers=2)
            for backend in ("serial", "processes")
        }
        baseline = [
            (r.config, r.seed, r.metrics) for r in outcomes["serial"]
        ]
        for backend, results in outcomes.items():
            assert [
                (r.config, r.seed, r.metrics) for r in results
            ] == baseline, backend


@pytest.mark.slow
class TestLargeDifferentialSweep:
    """Same invariants on bigger instances; excluded from the default run."""

    @pytest.mark.parametrize("experiment", sorted(medium_sweep_jobs(1)))
    def test_medium_instances_through_the_process_backend(self, experiment):
        jobs = medium_sweep_jobs(10)[experiment]
        results = _run(experiment, jobs, backend="processes", workers=4)
        assert len(results) == 10
        assert all(r.ok for r in results)
