"""Serial vs process-pool parity over every trial the engine runs.

The process pool is the engine's only parallel path, so it must match the
serial reference bit for bit on every registered trial: each differential
trial on each generator family it sweeps, and each experiment E1-E10 at
reduced sizes.  Trial seeds are derived before dispatch, so any divergence
means a trial leaks state between calls or depends on the process it runs
in.

The differential grid runs once per module through one entered 2-worker
pool and once serially; each test then compares a single (trial, family)
cell, so a parity break names the trial and family that diverged.  A
differential trial raises when its solver output fails an independent
verifier, so every cell also asserts that no trial failed.
"""

from __future__ import annotations

import pytest

from repro.analysis.backends import ProcessBackend
from repro.analysis.differential import (
    fastgraph_jobs,
    k_ecss_jobs,
    solver_kernel_jobs,
    tap_labels_jobs,
    three_ecss_jobs,
    two_ecss_jobs,
)
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

#: Seeded instances per (trial, family) cell.
SEEDS_PER_CELL = 5


def _grid_jobs() -> dict[str, list]:
    """Every differential trial's jobs at a few seeds per family."""
    grid = {
        "diff-2ecss": two_ecss_jobs(SEEDS_PER_CELL, SEEDS_PER_CELL),
        "diff-3ecss": three_ecss_jobs(SEEDS_PER_CELL, SEEDS_PER_CELL),
        "diff-kecss": k_ecss_jobs(2 * SEEDS_PER_CELL, 2 * SEEDS_PER_CELL),
    }
    grid.update(fastgraph_jobs(SEEDS_PER_CELL))
    grid.update(tap_labels_jobs(SEEDS_PER_CELL))
    grid.update(solver_kernel_jobs(SEEDS_PER_CELL))
    return grid


GRID_JOBS = _grid_jobs()
CELLS = sorted(
    {
        (trial, job.config_dict["family"])
        for trial, jobs in GRID_JOBS.items()
        for job in jobs
    }
)


def _key(results):
    return [(r.config, r.seed, r.index, r.metrics, r.error) for r in results]


@pytest.fixture(scope="module")
def pool():
    """One 2-worker process pool shared by every test in the module."""
    with ProcessBackend(workers=2) as backend:
        yield backend


@pytest.fixture(scope="module")
def grid_results(pool):
    """``{trial: (serial results, pooled results)}`` over the whole grid."""
    serial = ExperimentEngine(backend="serial")
    pooled = ExperimentEngine(workers=2, backend=pool)
    return {
        trial: (serial.run_jobs(trial, jobs), pooled.run_jobs(trial, jobs))
        for trial, jobs in GRID_JOBS.items()
    }


def test_grid_covers_every_differential_trial_and_family():
    trials = {trial for trial, _ in CELLS}
    assert trials == set(GRID_JOBS)
    # The kernel sweeps cover all 8 generator families.
    assert len([cell for cell in CELLS if cell[0] == "diff-fastgraph-mst"]) == 8


@pytest.mark.parametrize("trial, family", CELLS)
def test_process_pool_matches_serial_on_every_differential_cell(
    grid_results, trial, family
):
    serial, pooled = grid_results[trial]
    assert len(pooled) == len(serial) == len(GRID_JOBS[trial])

    def cell(results):
        return [r for r in results if r.config["family"] == family]

    serial_cell, pooled_cell = cell(serial), cell(pooled)
    assert serial_cell, f"no {trial} jobs for family {family!r}"
    assert [r.error for r in serial_cell] == [None] * len(serial_cell)
    assert _key(pooled_cell) == _key(serial_cell)


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
