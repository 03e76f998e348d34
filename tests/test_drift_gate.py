"""Tests for the baseline drift gate in ``repro.analysis.bench``.

``kecss bench <id> --against BENCH_<id>.json`` reads the stored file through
:func:`load_baseline` (schema check plus experiment id), then fails on any
difference :func:`compare_tables` or :func:`compare_trials` reports.  These
tests pin each piece on its own: every schema rule of
:func:`validate_baseline`, every way :func:`load_baseline` refuses a file,
and what the two comparisons do and do not count as drift.  The end-to-end
exit codes are covered in ``tests/test_cli.py::TestBenchAgainst``.
"""

from __future__ import annotations

import copy
import json
from pathlib import Path

import pytest

from repro.analysis.bench import (
    compare_tables,
    compare_trials,
    load_baseline,
    validate_baseline,
    write_baseline,
)
from repro.analysis.tables import Table

REPO_ROOT = Path(__file__).resolve().parents[1]
COMMITTED = ["e2", "e3", "e4", "e5", "e6", "e9"]


def _e3() -> dict:
    return json.loads((REPO_ROOT / "BENCH_e3.json").read_text())


def _table_of(payload: dict) -> Table:
    table = payload["table"]
    return Table(
        title=table["title"],
        columns=table["columns"],
        rows=[tuple(row) for row in table["rows"]],
    )


@pytest.mark.parametrize("experiment_id", COMMITTED)
def test_committed_baseline_loads_and_matches_itself(experiment_id):
    path = REPO_ROOT / f"BENCH_{experiment_id}.json"
    payload = load_baseline(path, experiment_id)
    assert payload == json.loads(path.read_text())
    assert validate_baseline(payload) == []
    assert compare_tables(payload, _table_of(payload)) == []
    assert compare_trials(payload, copy.deepcopy(payload)) == []


# ------------------------------------------------------------ validate_baseline
def _set(path: str, value):
    """A mutator that sets ``payload[a][b]...`` (``path`` is dot-separated;
    integer parts index lists)."""

    def mutate(payload):
        *parents, last = path.split(".")
        node = payload
        for part in parents:
            node = node[int(part)] if isinstance(node, list) else node[part]
        if isinstance(node, list):
            node[int(last)] = value
        else:
            node[last] = value
        return payload

    return mutate


def _drop(path: str):
    def mutate(payload):
        *parents, last = path.split(".")
        node = payload
        for part in parents:
            node = node[int(part)] if isinstance(node, list) else node[part]
        del node[last]
        return payload

    return mutate


@pytest.mark.parametrize(
    "mutate, expected",
    [
        (lambda payload: [], "baseline must be a JSON object, got list"),
        (_set("schema", "other"), "schema must be 'kecss-bench-baseline'"),
        (_set("schema_version", "1"), "schema_version must be an integer"),
        (_drop("experiment"), "experiment must be a string"),
        (_set("created_unix", "yesterday"), "created_unix must be a number"),
        (_drop("provenance.code_version"), "provenance.code_version must be a string"),
        (_drop("provenance.engine"), "provenance.engine must be an object with a backend"),
        (_set("table.columns", []), "table.columns must be a non-empty list"),
        (_set("table.rows.0", [16]), "table.rows[0] must be a list of 5 values"),
        (_set("trials", {}), "trials must be a list"),
        (_drop("trials.0.index"), "trials[0] is missing fields: ['index']"),
        (_set("trials.1.config", [16]), "trials[1]: config and metrics must be objects"),
        (_set("trials.0.metrics", None), "trials[0]: config and metrics must be objects"),
        (_set("trials.0.seed", "4120464092"), "seed and index integers"),
        (_set("trials.2.index", 0.5), "trials[2]: config and metrics must be objects, "
                                      "seed and index integers"),
        (_drop("summary"), "summary must be an object with an integer trial_count"),
        (_set("summary.trial_count", 8), "summary.trial_count (8) != len(trials) (9)"),
    ],
    ids=[
        "not-an-object", "schema", "schema-version", "experiment", "created-unix",
        "code-version", "engine", "empty-columns", "ragged-row", "trials-not-list",
        "trial-without-index", "config-not-object", "metrics-not-object",
        "seed-not-int", "index-not-int", "summary-missing", "trial-count",
    ],
)
def test_each_schema_violation_is_named(mutate, expected):
    payload = mutate(_e3())
    problems = validate_baseline(payload)
    assert any(expected in problem for problem in problems), problems


def test_write_baseline_refuses_an_invalid_payload(tmp_path):
    payload = _drop("trials.0.index")(_e3())
    path = tmp_path / "BENCH_e3.json"
    with pytest.raises(ValueError, match="refusing to write an invalid baseline"):
        write_baseline(payload, path)
    assert not path.exists()


# ---------------------------------------------------------------- load_baseline
@pytest.mark.parametrize(
    "make, expected",
    [
        (lambda d: d / "missing.json", "cannot read baseline"),
        (lambda d: d, "cannot read baseline"),
        (lambda d: _write(d, "{ not json"), "cannot read baseline"),
        (lambda d: _write(d, "[]"), "invalid baseline"),
        (lambda d: _write(d, json.dumps(_drop("trials.0.index")(_e3()))),
         "is missing fields: ['index']"),
        (lambda d: REPO_ROOT / "BENCH_e9.json", "records experiment 'e9', not 'e3'"),
    ],
    ids=["missing-file", "directory", "bad-json", "list", "no-index", "other-experiment"],
)
def test_load_baseline_refuses_with_a_named_problem(tmp_path, make, expected):
    path = make(tmp_path)
    with pytest.raises(ValueError) as excinfo:
        load_baseline(path, "e3")
    assert expected in str(excinfo.value)
    assert str(path) in str(excinfo.value)


def _write(directory: Path, text: str) -> Path:
    path = directory / "baseline.json"
    path.write_text(text)
    return path


# --------------------------------------------------------------- compare_trials
class TestCompareTrials:
    def test_trial_order_does_not_matter(self):
        baseline = _e3()
        fresh = copy.deepcopy(baseline)
        fresh["trials"].reverse()
        assert compare_trials(baseline, fresh) == []

    def test_config_key_order_does_not_matter(self):
        baseline = {"trials": [_trial({"n": 8, "k": 3}, {"rounds": 5})]}
        fresh = {"trials": [_trial({"k": 3, "n": 8}, {"rounds": 5})]}
        assert compare_trials(baseline, fresh) == []

    def test_durations_and_cache_flags_are_not_gated(self):
        baseline = _e3()
        fresh = copy.deepcopy(baseline)
        for trial in fresh["trials"]:
            trial["duration"] *= 10
            trial["cached"] = not trial["cached"]
        assert compare_trials(baseline, fresh) == []

    def test_fresh_values_compare_as_their_json_form(self):
        """A fresh run holds tuples where the written baseline holds lists;
        the gate compares what a written baseline would hold."""
        baseline = {"trials": [_trial({"n": 8}, {"path": [1, 2, 3]})]}
        fresh = {"trials": [_trial({"n": 8}, {"path": (1, 2, 3)})]}
        assert compare_trials(baseline, fresh) == []

    def test_swapped_metrics_report_both_trials(self):
        """Swapping two trials' metrics keeps every per-config mean, so only
        a per-trial comparison sees it."""
        baseline = {"trials": [
            _trial({"n": 16}, {"iterations": 1}, index=0),
            _trial({"n": 16}, {"iterations": 4}, index=1),
        ]}
        fresh = copy.deepcopy(baseline)
        fresh["trials"][0]["metrics"], fresh["trials"][1]["metrics"] = (
            fresh["trials"][1]["metrics"], fresh["trials"][0]["metrics"]
        )
        problems = compare_trials(baseline, fresh)
        assert len(problems) == 2
        assert all("metrics differ on iterations" in p for p in problems)
        assert "index=0" in problems[0] and "index=1" in problems[1]

    def test_nan_never_matches_itself(self):
        baseline = {"trials": [_trial({"n": 8}, {"ratio": float("nan")})]}
        fresh = copy.deepcopy(baseline)
        assert compare_trials(baseline, fresh) == [
            "trial config={\"n\": 8} seed=1 index=0 metrics differ on ratio: "
            "baseline {'ratio': nan} vs fresh {'ratio': nan}"
        ]

    @pytest.mark.parametrize("side", ["baseline", "fresh"])
    def test_a_metric_on_one_side_only_is_drift(self, side):
        runs = {
            "baseline": {"trials": [_trial({"n": 8}, {"rounds": 5})]},
            "fresh": {"trials": [_trial({"n": 8}, {"rounds": 5})]},
        }
        runs[side]["trials"][0]["metrics"]["extra"] = 0
        problems = compare_trials(runs["baseline"], runs["fresh"])
        assert len(problems) == 1
        assert "metrics differ on extra" in problems[0]

    def test_missing_and_extra_trials_are_named_by_key(self):
        baseline = {"trials": [_trial({"n": 8}, {"rounds": 5}, seed=7, index=0)]}
        fresh = {"trials": [_trial({"n": 16}, {"rounds": 5}, seed=7, index=0)]}
        assert compare_trials(baseline, fresh) == [
            'trial config={"n": 8} seed=7 index=0 is missing from the fresh run',
            'trial config={"n": 16} seed=7 index=0 is not in the baseline',
        ]

    def test_index_distinguishes_trials_of_one_config_and_seed(self):
        baseline = {"trials": [
            _trial({"n": 8}, {"rounds": 5}, index=0),
            _trial({"n": 8}, {"rounds": 6}, index=1),
        ]}
        fresh = {"trials": [_trial({"n": 8}, {"rounds": 5}, index=0)]}
        assert compare_trials(baseline, fresh) == [
            'trial config={"n": 8} seed=1 index=1 is missing from the fresh run'
        ]


def _trial(config, metrics, seed=1, index=0):
    return {
        "experiment": "unit",
        "config": dict(config),
        "seed": seed,
        "index": index,
        "duration": 0.25,
        "cached": False,
        "error": None,
        "metrics": dict(metrics),
    }


# --------------------------------------------------------------- compare_tables
class TestCompareTables:
    def test_list_and_tuple_rows_compare_equal(self):
        baseline = _e3()
        assert compare_tables(baseline, _table_of(baseline)) == []

    def test_changed_columns_stop_the_comparison(self):
        baseline = _e3()
        fresh = _table_of(baseline)
        fresh.columns = fresh.columns[:-1] + ["renamed"]
        problems = compare_tables(baseline, fresh)
        assert len(problems) == 1
        assert problems[0].startswith("columns differ")

    def test_row_count_difference(self):
        baseline = _e3()
        fresh = _table_of(baseline)
        fresh.rows = fresh.rows[:-1]
        problems = compare_tables(baseline, fresh)
        assert len(problems) == 1
        assert problems[0].startswith("row count differs")

    def test_each_changed_row_is_listed(self):
        baseline = _e3()
        fresh = _table_of(baseline)
        fresh.rows[0] = (fresh.rows[0][0], 99.0) + fresh.rows[0][2:]
        fresh.rows[2] = (fresh.rows[2][0], 99.0) + fresh.rows[2][2:]
        problems = compare_tables(baseline, fresh)
        assert [p.split(" differs")[0] for p in problems] == ["row 0", "row 2"]

    def test_equal_tables_with_different_trials_pass_the_table_check(self):
        """The table check alone cannot see per-trial drift; the gate runs
        :func:`compare_trials` as well."""
        baseline = _e3()
        fresh = copy.deepcopy(baseline)
        n16 = [t for t in fresh["trials"] if t["config"] == {"n": 16}]
        n16[0]["metrics"], n16[1]["metrics"] = n16[1]["metrics"], n16[0]["metrics"]
        assert compare_tables(baseline, _table_of(fresh)) == []
        assert compare_trials(baseline, fresh) != []
