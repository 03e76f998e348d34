"""Smoke tests: the example scripts run end-to-end and the package exports are sane."""

from __future__ import annotations

import importlib.util
import os
import pathlib
import subprocess
import sys

import pytest

import repro

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parent.parent / "examples"


def _load_example(name: str):
    path = EXAMPLES_DIR / name
    spec = importlib.util.spec_from_file_location(name.removesuffix(".py"), path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestPackageSurface:
    def test_version_is_exposed(self):
        assert repro.__version__

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_headline_solvers_are_importable_from_the_top_level(self):
        assert callable(repro.two_ecss)
        assert callable(repro.k_ecss)
        assert callable(repro.three_ecss)
        assert callable(repro.weighted_tap)

    def test_cli_import_leaves_scipy_optimize_unloaded(self):
        """The ILP baseline imports ``scipy.optimize`` (about half a second)
        only when it solves, so starting ``kecss`` does not pay for it."""
        src = pathlib.Path(repro.__file__).resolve().parent.parent
        env = {**os.environ, "PYTHONPATH": str(src)}
        probe = "import sys, repro.cli; print('scipy.optimize' in sys.modules)"
        proc = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"


class TestExamples:
    @pytest.mark.parametrize(
        "script",
        [
            "quickstart.py",
            "congest_primitives_tour.py",
            "datacenter_upgrade.py",
            "fault_tolerant_backbone.py",
        ],
    )
    def test_example_runs_to_completion(self, script, capsys):
        module = _load_example(script)
        module.main()
        output = capsys.readouterr().out
        assert output.strip(), f"{script} produced no output"

    def test_quickstart_reports_a_verified_solution(self, capsys):
        module = _load_example("quickstart.py")
        module.main()
        output = capsys.readouterr().out
        assert "2-edge-connected spanning subgraph found: True" in output

    def test_quickstart_second_engine_run_replays_every_trial(self, capsys):
        module = _load_example("quickstart.py")
        module.main()
        summaries = [
            line for line in capsys.readouterr().out.splitlines()
            if line.startswith("engine: ")
        ]
        assert len(summaries) == 2
        assert summaries[0].startswith("engine: 0 cached, 2 executed")
        assert summaries[1].startswith("engine: 2 cached, 2 executed")

    def test_fault_tolerance_example_shows_the_expected_ordering(self, capsys):
        module = _load_example("fault_tolerant_backbone.py")
        module.main()
        output = capsys.readouterr().out
        # The MST row reports 0% single-failure survival; the 2-ECSS row 100%.
        assert "MST" in output and "2-ECSS" in output and "3-ECSS" in output
        assert "100%" in output and "0%" in output
