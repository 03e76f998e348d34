"""Tests for the ``kecss`` command line interface."""

from __future__ import annotations

import copy
import json
from pathlib import Path

import pytest

import repro.analysis.engine as engine_module
from repro.cli import build_parser, main

REPO_ROOT = Path(__file__).resolve().parents[1]


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_family_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["solve", "--family", "nope"])


class TestFamiliesCommand:
    def test_lists_all_families(self, capsys):
        assert main(["families"]) == 0
        output = capsys.readouterr().out
        assert "weighted-sparse" in output
        assert "torus" in output
        assert "powerlaw" in output
        assert "hypercube" in output

    def test_prints_descriptions_and_size_scaling(self, capsys):
        """Each family row carries its builder description and the instance
        size the builder actually returns for ~48 requested vertices."""
        assert main(["families"]) == 0
        output = capsys.readouterr().out
        from repro.graphs.generators import FAMILIES

        for family in FAMILIES.values():
            assert family.description in output
            graph = family(48, seed=0)
            assert f"{graph.number_of_nodes()}v/{graph.number_of_edges()}e" in output


class TestSolveCommand:
    def test_solve_2ecss_json(self, capsys):
        code = main(["solve", "--family", "weighted-sparse", "--n", "14",
                     "--k", "2", "--seed", "1", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["k"] == 2
        assert payload["valid"] is True
        assert payload["weight"] > 0
        assert payload["rounds"] > 0

    def test_solve_text_output(self, capsys):
        code = main(["solve", "--family", "unweighted-cycle-chords", "--n", "12",
                     "--k", "2", "--seed", "2"])
        assert code == 0
        output = capsys.readouterr().out
        assert "verified      : True" in output
        assert "total rounds" in output

    def test_solve_unweighted_3ecss_auto_dispatch(self, capsys):
        code = main(["solve", "--family", "torus", "--n", "9", "--k", "3",
                     "--seed", "0", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["algorithm"] == "dory-3ecss"
        assert payload["valid"] is True

    def test_solve_weighted_kecss_dispatch(self, capsys):
        code = main(["solve", "--family", "weighted-k3", "--n", "10", "--k", "3",
                     "--seed", "3", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["algorithm"] == "dory-kecss"
        assert payload["valid"] is True


class TestVerifyCommand:
    def test_accepts_the_solvers_own_output(self, capsys):
        main(["solve", "--family", "weighted-sparse", "--n", "12", "--k", "2",
              "--seed", "4", "--json"])
        payload = json.loads(capsys.readouterr().out)
        edges_json = json.dumps(payload["edges"])
        code = main(["verify", "--family", "weighted-sparse", "--n", "12", "--k", "2",
                     "--seed", "4", edges_json])
        assert code == 0
        assert "OK" in capsys.readouterr().out

    def test_rejects_a_bogus_edge_list(self, capsys):
        code = main(["verify", "--family", "weighted-sparse", "--n", "12", "--k", "2",
                     "--seed", "4", "[[0, 1]]"])
        assert code == 1
        assert "INVALID" in capsys.readouterr().out


class TestExperimentCommand:
    def test_single_experiment_runs(self, capsys):
        code = main(["experiment", "e7"])
        assert code == 0
        assert "E7" in capsys.readouterr().out

    def test_markdown_flag(self, capsys):
        code = main(["experiment", "e7", "--markdown"])
        assert code == 0
        assert "|" in capsys.readouterr().out

    def test_workers_flag_picks_the_process_pool(self, capsys):
        code = main(["experiment", "e7", "--workers", "2"])
        assert code == 0
        captured = capsys.readouterr()
        assert "E7" in captured.out
        assert "backend=processes" in captured.err

    @pytest.mark.parametrize(
        "argv",
        [
            ["experiment", "e7", "--backend", "threads"],
            ["--log-level", "debug", "families"],
            ["worker", "--connect", "127.0.0.1:7781"],
            ["experiment", "e7", "--store-dir", "store"],
            ["bench", "e3", "--store-dir", "store"],
            ["history", "e3"],
            ["regress", "e3"],
            ["store", "ls"],
            ["experiment", "e7", "--no-cache"],
            ["bench", "e3", "--no-cache"],
            ["bench", "e3", "--cache-dir", "cache"],
            ["experiment", "--id", "e7"],
            ["lint", "--select", "DET001"],
            ["lint", "--list-rules"],
        ],
    )
    def test_retired_options_are_rejected(self, argv):
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)

    def test_cache_dir_is_created_and_populated(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        code = main(["experiment", "e7", "--cache-dir", str(cache_dir)])
        assert code == 0
        assert list(cache_dir.rglob("*.json"))


class TestCacheCommand:
    def _populate(self, cache_dir):
        main(["experiment", "e7", "--cache-dir", str(cache_dir)])

    def test_stats_lists_per_experiment_entries(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        self._populate(cache_dir)
        capsys.readouterr()
        assert main(["cache", "stats", "--cache-dir", str(cache_dir)]) == 0
        output = capsys.readouterr().out
        assert "e7" in output and "entries" in output and "stale" in output

    def test_gc_on_a_fresh_cache_evicts_nothing(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        self._populate(cache_dir)
        entries = len(list(cache_dir.rglob("*.json")))
        capsys.readouterr()
        assert main(["cache", "gc", "--cache-dir", str(cache_dir)]) == 0
        assert "evicted 0" in capsys.readouterr().out
        assert len(list(cache_dir.rglob("*.json"))) == entries

    def test_gc_after_a_source_edit_evicts_every_entry(
        self, tmp_path, capsys, monkeypatch
    ):
        cache_dir = tmp_path / "cache"
        self._populate(cache_dir)
        entries = len(list(cache_dir.rglob("*.json")))
        # Any edit to the package changes CODE_VERSION; simulate the new checkout.
        monkeypatch.setattr(engine_module, "CODE_VERSION", "0123456789abcdef")
        capsys.readouterr()
        assert main(["cache", "gc", "--cache-dir", str(cache_dir)]) == 0
        assert f"evicted {entries} stale" in capsys.readouterr().out
        assert not list(cache_dir.rglob("*.json"))

    def test_clear_removes_every_entry(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        self._populate(cache_dir)
        capsys.readouterr()
        assert main(["cache", "clear", "--cache-dir", str(cache_dir)]) == 0
        assert "removed" in capsys.readouterr().out
        assert not list(cache_dir.rglob("*.json"))

    def test_missing_cache_dir_is_not_an_error(self, tmp_path, capsys):
        missing = tmp_path / "nope"
        for action in ("stats", "gc", "clear"):
            assert main(["cache", action, "--cache-dir", str(missing)]) == 0
        assert "no cache directory" in capsys.readouterr().out


class TestLintCommand:
    """Exit codes: 0 clean, 1 findings, 2 usage error (argparse errors
    also exit 2)."""

    @staticmethod
    def _root_with_finding(tmp_path):
        pkg = tmp_path / "checkout" / "src" / "repro"
        pkg.mkdir(parents=True)
        (pkg / "__init__.py").write_text(
            "import random\n"
            "def draw():\n"
            "    return random.random()\n"
        )
        return tmp_path / "checkout"

    def test_clean_repo_exits_zero(self, capsys):
        assert main(["lint"]) == 0
        assert "no findings" in capsys.readouterr().out

    def test_findings_exit_one(self, tmp_path, capsys):
        root = self._root_with_finding(tmp_path)
        assert main(["lint", "--root", str(root)]) == 1
        output = capsys.readouterr().out
        assert "DET001" in output and "1 finding" in output

    def test_json_format_carries_summary(self, tmp_path, capsys):
        root = self._root_with_finding(tmp_path)
        assert main(["lint", "--root", str(root), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"] == {"total": 1, "rules": {"DET001": 1}}
        assert payload["findings"][0]["code"] == "DET001"
        assert sorted(payload["rules"]) == ["DET001", "DET002", "DET003", "DET004"]
        assert all(set(rule) == {"title"} for rule in payload["rules"].values())

    def test_bad_root_is_a_usage_error(self, tmp_path, capsys):
        assert main(["lint", "--root", str(tmp_path / "nope")]) == 2
        assert "src/repro" in capsys.readouterr().err

    def test_bad_format_exits_two_via_argparse(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["lint", "--format", "yaml"])
        assert excinfo.value.code == 2

    def test_a_lint_baseline_file_grandfathers_nothing(self, tmp_path, capsys):
        root = self._root_with_finding(tmp_path)
        (root / "lint-baseline.json").write_text(
            json.dumps({"version": 1, "findings": [{"code": "DET001"}]})
        )
        assert main(["lint", "--root", str(root)]) == 1
        assert "DET001" in capsys.readouterr().out


def _swap_n16_metrics(payload):
    first, second = [t for t in payload["trials"] if t["config"] == {"n": 16}][:2]
    assert first["metrics"] != second["metrics"]
    first["metrics"], second["metrics"] = second["metrics"], first["metrics"]


def _nan_metric(payload):
    payload["trials"][0]["metrics"]["iterations"] = float("nan")


def _one_sided_metric(payload):
    payload["trials"][0]["metrics"]["baseline_only"] = 1


def _missing_trial(payload):
    payload["trials"].pop()
    payload["summary"]["trial_count"] -= 1


def _extra_trial(payload):
    extra = copy.deepcopy(payload["trials"][0])
    extra["index"] = 99
    payload["trials"].append(extra)
    payload["summary"]["trial_count"] += 1


class TestBenchAgainst:
    """``kecss bench <id> --against PATH``: 0 match, 1 drift, 2 a baseline
    the gate cannot use."""

    @pytest.mark.parametrize(
        "mutate, expected",
        [
            (_swap_n16_metrics, "metrics differ on iterations"),
            (_nan_metric, "metrics differ on iterations"),
            (_one_sided_metric, "metrics differ on baseline_only"),
            (_missing_trial, "is not in the baseline"),
            (_extra_trial, "is missing from the fresh run"),
        ],
        ids=["swapped", "nan", "one-sided-key", "missing-trial", "extra-trial"],
    )
    def test_trial_drift_with_an_equal_table_exits_one(
        self, tmp_path, capsys, mutate, expected
    ):
        """Each edited copy of ``BENCH_e3.json`` keeps the stored table, so
        only the per-trial check can catch it.  A trial missing from the
        baseline shows up as a fresh trial the baseline lacks, and vice
        versa."""
        payload = json.loads((REPO_ROOT / "BENCH_e3.json").read_text())
        mutate(payload)
        path = tmp_path / "BENCH_e3.json"
        path.write_text(json.dumps(payload))
        assert main(["bench", "e3", "--against", str(path)]) == 1
        out = capsys.readouterr().out
        assert expected in out
        assert "row" not in out and "columns differ" not in out

    @pytest.mark.parametrize(
        "content, expected",
        [
            ("[]", "baseline must be a JSON object, got list"),
            ('{"schema": "nope"}', "schema must be 'kecss-bench-baseline'"),
            (None, "cannot read baseline"),
            ("BENCH_e9.json", "records experiment 'e9', not 'e3'"),
        ],
        ids=["list", "schema-broken", "unreadable", "other-experiment"],
    )
    def test_unusable_baseline_exits_two_with_a_message(
        self, tmp_path, capsys, content, expected
    ):
        if content is None:
            path = tmp_path / "missing.json"
        elif content.startswith("BENCH_"):
            path = REPO_ROOT / content
        else:
            path = tmp_path / "baseline.json"
            path.write_text(content)
        assert main(["bench", "e3", "--against", str(path)]) == 2
        captured = capsys.readouterr()
        assert expected in captured.err
        assert "Traceback" not in captured.err and captured.out == ""

    def test_table_drift_exits_one(self, tmp_path, capsys):
        payload = json.loads((REPO_ROOT / "BENCH_e3.json").read_text())
        payload["table"]["rows"][1][1] += 1
        path = tmp_path / "BENCH_e3.json"
        path.write_text(json.dumps(payload))
        assert main(["bench", "e3", "--against", str(path)]) == 1
        out = capsys.readouterr().out
        assert "row 1 differs" in out
        assert "metrics differ" not in out

    def test_a_matching_run_writes_nothing(self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "BENCH_e3.json"
        path.write_text((REPO_ROOT / "BENCH_e3.json").read_text())
        monkeypatch.chdir(tmp_path)
        assert main(["bench", "e3", "--against", str(path)]) == 0
        assert "table and 9 trials match" in capsys.readouterr().out
        assert [p.name for p in tmp_path.iterdir()] == ["BENCH_e3.json"]
        assert path.read_text() == (REPO_ROOT / "BENCH_e3.json").read_text()

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (["bench", "all", "--against", "BENCH_e3.json"],
             "--against requires a single experiment id"),
            (["bench", "e3", "--against", "BENCH_e3.json", "--out", "x.json"],
             "--against does not write baselines"),
        ],
        ids=["all", "with-out"],
    )
    def test_against_usage_errors_write_nothing(
        self, tmp_path, monkeypatch, argv, expected
    ):
        monkeypatch.chdir(tmp_path)
        argv = [str(REPO_ROOT / a) if a.startswith("BENCH_") else a for a in argv]
        with pytest.raises(SystemExit, match=expected):
            main(argv)
        assert list(tmp_path.iterdir()) == []

    def test_fresh_baselines_carry_producer_git_provenance(self):
        """Live runs stamp git describe at production time (when a checkout
        is reachable), so a baseline names the commit that produced it."""
        from repro.analysis.bench import build_baseline
        from repro.analysis.code_version import git_describe

        payload = build_baseline("e3")
        assert payload["provenance"]["git_describe"] == git_describe()
