"""Serial vs process-pool parity over every experiment the engine runs.

The process pool is the engine's only parallel path, so it must match the
serial reference bit for bit on each experiment E1-E10 at reduced sizes.
Trial seeds are derived before dispatch, so any divergence means a trial
leaks state between calls or depends on the process it runs in.  Every
experiment also asserts that no trial failed.
"""

from __future__ import annotations

import pytest

from repro.analysis.backends import ProcessBackend
from repro.analysis.engine import ExperimentEngine
from repro.analysis.experiments import (
    experiment_e1_two_ecss_approximation,
    experiment_e2_two_ecss_rounds,
    experiment_e3_tap_iterations,
    experiment_e4_k_ecss,
    experiment_e5_three_ecss_rounds,
    experiment_e6_decomposition,
    experiment_e7_cycle_space,
    experiment_e8_augmentation_invariants,
    experiment_e9_voting_ablation,
    experiment_e10_schedule_ablation,
)


def _key(results):
    return [(r.config, r.seed, r.index, r.metrics, r.error) for r in results]


@pytest.fixture(scope="module")
def pool():
    """One 2-worker process pool shared by every test in the module."""
    with ProcessBackend(workers=2) as backend:
        yield backend


#: Each experiment at sizes small enough for tier-1; E1 and E4 still diff
#: against their exact ILP baselines at these sizes.
EXPERIMENTS = {
    "e1": (experiment_e1_two_ecss_approximation, dict(sizes=(12,), trials=2)),
    "e2": (experiment_e2_two_ecss_rounds, dict(sizes=(16,), trials=1)),
    "e3": (experiment_e3_tap_iterations, dict(sizes=(16,), trials=2)),
    "e4": (experiment_e4_k_ecss, dict(sizes=(10,), ks=(2, 3), trials=1)),
    "e5": (experiment_e5_three_ecss_rounds, dict(sizes=(16,), trials=1)),
    "e6": (experiment_e6_decomposition, dict(sizes=(64,), trials=1)),
    "e7": (experiment_e7_cycle_space, dict(n=16, bits_values=(1, 4), trials=2)),
    "e8": (experiment_e8_augmentation_invariants, dict(n=12, k=3, trials=1)),
    "e9": (experiment_e9_voting_ablation, dict(sizes=(24,), trials=2)),
    "e10": (
        experiment_e10_schedule_ablation,
        dict(n=12, k=3, trials=1, schedule_constants=(1, 2)),
    ),
}


def _run_experiment(experiment_id, backend):
    """The experiment's table rows and per-trial results on *backend*."""
    experiment, params = EXPERIMENTS[experiment_id]
    seen = []
    engine = ExperimentEngine(
        workers=2, backend=backend,
        observers=[lambda _job, result: seen.append(result)],
    )
    table = experiment(engine=engine, **params)
    return table.rows, _key(seen)


@pytest.mark.parametrize("experiment_id", sorted(EXPERIMENTS))
def test_process_pool_matches_serial_on_every_experiment(pool, experiment_id):
    serial_rows, serial_results = _run_experiment(experiment_id, "serial")
    assert serial_rows and serial_results
    assert [error for *_, error in serial_results] == [None] * len(serial_results)
    assert _run_experiment(experiment_id, pool) == (serial_rows, serial_results)
