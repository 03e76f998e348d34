"""Tests for the ``kecss`` command line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main


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
        code = main(["experiment", "--id", "e7"])
        assert code == 0
        assert "E7" in capsys.readouterr().out

    def test_markdown_flag(self, capsys):
        code = main(["experiment", "--id", "e7", "--markdown"])
        assert code == 0
        assert "|" in capsys.readouterr().out

    def test_workers_flag_picks_the_process_pool(self, capsys):
        code = main(["experiment", "--id", "e7", "--workers", "2"])
        assert code == 0
        captured = capsys.readouterr()
        assert "E7" in captured.out
        assert "backend=processes" in captured.err

    @pytest.mark.parametrize(
        "argv",
        [
            ["experiment", "--id", "e7", "--backend", "threads"],
            ["--log-level", "debug", "families"],
            ["worker", "--connect", "127.0.0.1:7781"],
        ],
    )
    def test_retired_options_are_rejected(self, argv):
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)

    def test_no_cache_does_not_create_the_cache_dir(self, tmp_path, capsys):
        cache_dir = tmp_path / "never-created"
        code = main(["experiment", "--id", "e7", "--cache-dir", str(cache_dir),
                     "--no-cache"])
        assert code == 0
        assert not cache_dir.exists()

    def test_cache_dir_is_created_and_populated(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        code = main(["experiment", "--id", "e7", "--cache-dir", str(cache_dir)])
        assert code == 0
        assert list(cache_dir.rglob("*.json"))


class TestCacheCommand:
    def _populate(self, cache_dir):
        main(["experiment", "--id", "e7", "--cache-dir", str(cache_dir)])

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
    """Exit codes follow the ``kecss regress`` convention: 0 clean, 1 new
    findings, 2 usage error (argparse errors also exit 2)."""

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
        assert payload["summary"]["new"] == 1
        assert payload["findings"][0]["code"] == "DET001"
        assert "CACHE001" in payload["rules"]

    def test_bad_root_is_a_usage_error(self, tmp_path, capsys):
        assert main(["lint", "--root", str(tmp_path / "nope")]) == 2
        assert "src/repro" in capsys.readouterr().err

    def test_unknown_rule_is_a_usage_error(self, capsys):
        assert main(["lint", "--select", "NOPE"]) == 2
        assert "unknown lint rule" in capsys.readouterr().err

    def test_missing_explicit_baseline_is_a_usage_error(self, tmp_path, capsys):
        assert main(["lint", "--baseline", str(tmp_path / "gone.json")]) == 2
        assert "does not exist" in capsys.readouterr().err

    def test_bad_format_exits_two_via_argparse(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["lint", "--format", "yaml"])
        assert excinfo.value.code == 2

    def test_write_baseline_then_lint_is_clean(self, tmp_path, capsys):
        root = self._root_with_finding(tmp_path)
        baseline = root / "lint-baseline.json"
        assert main(["lint", "--root", str(root), "--write-baseline"]) == 0
        assert baseline.exists()
        capsys.readouterr()
        # The grandfathered finding is still reported but does not fail.
        assert main(["lint", "--root", str(root)]) == 0
        output = capsys.readouterr().out
        assert "(baselined)" in output and "0 new" in output
        # --no-baseline restores failure.
        assert main(["lint", "--root", str(root), "--no-baseline"]) == 1

    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        output = capsys.readouterr().out
        for code in ("DET001", "DET002", "DET003", "DET004", "CACHE001"):
            assert code in output
