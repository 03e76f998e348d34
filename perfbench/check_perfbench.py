"""The benchmark's own tests (smoke mode; a few seconds per workload).

Run from the repository root::

    PYTHONPATH=src python -m pytest perfbench/check_perfbench.py -q

The file name keeps it out of the repository's default test collection.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from catalogue import END_TO_END, per_layer  # noqa: E402
from layers import LAYERS, EXPECTED, LayerWrappers, SpanRecorder, check_expected  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_benchmark_json_matches_the_catalogue():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == per_layer()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run_reports_every_metric(workload, trace):
    out = run_bench("--workload", workload, "--seed", "3", "--seconds", "0.5",
                    "--trace", str(trace), "--smoke")
    assert out.returncode == 0, out.stderr
    last = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    expected = per_layer() if trace else END_TO_END
    assert list(last["metrics"]) == list(expected)
    if not trace:
        assert all(m["value"] > 0 for m in last["metrics"].values())
        return
    trace_file = next(
        line.split()[2] for line in out.stdout.splitlines() if line.strip().startswith("trace file")
    )
    rendered = subprocess.run(
        [sys.executable, "-m", "repro.cli", "trace", trace_file],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
        env={"PYTHONPATH": str(ROOT / "src"), "PATH": "/usr/bin:/bin"},
    )
    assert rendered.returncode == 0, rendered.stderr


def test_same_seed_gives_the_same_outputs():
    digests = set()
    for _ in range(2):
        out = run_bench("--workload", "k-ecss-cover", "--seed", "5", "--seconds", "0.1",
                        "--trace", "0", "--smoke")
        digests.add(next(line for line in out.stdout.splitlines() if "output digest" in line))
    assert len(digests) == 1


def test_wrappers_patch_every_binding_and_restore():
    import importlib

    # Attribute access would give the re-exported function for repro.core.k_ecss.
    modules = [importlib.import_module(name) for name in
               ("repro.graphs.fastgraph", "repro.mst.distributed", "repro.core.k_ecss")]
    original = vars(modules[0])["hop_diameter"]
    recorder = SpanRecorder(proc="test")
    with LayerWrappers(recorder) as wrappers:
        for module in modules:
            assert vars(module)["hop_diameter"] is not original
        from repro.core import k_ecss
        from repro.graphs.generators import make_family

        assert k_ecss(make_family("torus")(16, 0), 3, seed=1).verify()[0]
        check_expected("k_ecss", wrappers.calls)
        with pytest.raises(RuntimeError, match="never fired"):
            check_expected("two_ecss", wrappers.calls)
    for module in modules:
        assert vars(module)["hop_diameter"] is original
    names = {event["name"] for event in recorder.events}
    assert {"core.k_ecss", "graphs.cuts", "core.fastaug.cover_score"} <= names
    assert all(event["args"]["self_s"] <= event["dur"] + 1e-9 for event in recorder.events)


def test_every_expected_wrapper_is_a_known_layer():
    for solver, names in EXPECTED.items():
        assert set(names) - set(LAYERS) <= {"core.k_ecss.augment"}, solver


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = run_bench("--workload", "k-ecss-cover", "--seed", "1", "--seconds", "1",
                    "--trace", "0", cwd=tmp_path)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
