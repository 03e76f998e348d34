"""Tests for the :mod:`repro.lint` static analyzer.

Rule behaviour is pinned with small inline source fixtures
(:func:`repro.lint.project_from_sources` builds a project without touching
the filesystem); project loading is additionally exercised against a real
on-disk package tree, and a *copy* of the installed package must lint clean
through the CLI.
"""

from __future__ import annotations

import shutil
from pathlib import Path

import pytest

from repro.lint import (
    Finding,
    lint_project,
    load_project,
    project_from_sources,
    run_lint,
    select_rules,
    suppressed_codes,
)

REPO_ROOT = Path(__file__).resolve().parents[1]
PACKAGE_DIR = REPO_ROOT / "src" / "repro"


def lint_sources(sources: dict[str, str], select=None) -> list[Finding]:
    return lint_project(project_from_sources(sources), select=select)


def codes(findings: list[Finding]) -> list[str]:
    return [finding.code for finding in findings]


# --------------------------------------------------------------------- DET001
class TestDet001GlobalRandom:
    def test_flags_global_random_calls(self):
        findings = lint_sources({
            "pkg.mod": (
                "import random\n"
                "def pick(items):\n"
                "    random.shuffle(items)\n"
                "    return random.randint(0, 3)\n"
            ),
        }, select=["DET001"])
        assert codes(findings) == ["DET001", "DET001"]
        assert "random.shuffle" in findings[0].message
        assert findings[0].symbol == "pick"

    def test_flags_from_import_and_numpy_alias(self):
        findings = lint_sources({
            "pkg.mod": (
                "from random import shuffle\n"
                "import numpy as np\n"
                "def f(items):\n"
                "    shuffle(items)\n"
                "    np.random.seed(0)\n"
            ),
        }, select=["DET001"])
        assert codes(findings) == ["DET001", "DET001"]
        assert "numpy.random.seed" in findings[1].message

    def test_function_local_and_type_checking_imports(self):
        # A lazy import resolves call targets like a module-level one; a
        # TYPE_CHECKING import never executes, so it resolves nothing.
        findings = lint_sources({
            "pkg.mod": (
                "from typing import TYPE_CHECKING\n"
                "if TYPE_CHECKING:\n"
                "    import random as typed\n"
                "def f(items):\n"
                "    import random as lazy\n"
                "    lazy.shuffle(items)\n"
                "    typed.shuffle(items)\n"
            ),
        }, select=["DET001"])
        assert codes(findings) == ["DET001"]
        assert findings[0].line == 6

    def test_seeded_generators_are_fine(self):
        findings = lint_sources({
            "pkg.mod": (
                "import random\n"
                "import numpy as np\n"
                "def f(seed):\n"
                "    rng = random.Random(seed)\n"
                "    gen = np.random.default_rng(seed)\n"
                "    rng.shuffle([1, 2])\n"
                "    return gen\n"
            ),
        }, select=["DET001"])
        assert findings == []

    def test_inline_suppression_silences(self):
        findings = lint_sources({
            "pkg.mod": (
                "import random\n"
                "def f():\n"
                "    return random.random()  # repro: disable=DET001 -- demo\n"
            ),
        }, select=["DET001"])
        assert findings == []


# --------------------------------------------------------------------- DET002
class TestDet002SetIteration:
    def test_flags_for_loop_comprehension_and_list(self):
        findings = lint_sources({
            "pkg.mod": (
                "def f(items):\n"
                "    out = []\n"
                "    for x in set(items):\n"
                "        out.append(x)\n"
                "    ys = [y for y in {1, 2, 3}]\n"
                "    return out, ys, list(set(items) - {0})\n"
            ),
        }, select=["DET002"])
        assert codes(findings) == ["DET002", "DET002", "DET002"]

    def test_sorted_and_membership_are_fine(self):
        findings = lint_sources({
            "pkg.mod": (
                "def f(items, probe):\n"
                "    out = [x for x in sorted(set(items))]\n"
                "    hit = probe in set(items)\n"
                "    both = set(items) & {1, 2}\n"
                "    return out, hit, both\n"
            ),
        }, select=["DET002"])
        assert findings == []

    def test_inline_suppression_silences(self):
        findings = lint_sources({
            "pkg.mod": (
                "def f(items):\n"
                "    for x in set(items):  # repro: disable=DET002 -- order unused\n"
                "        print(x)\n"
            ),
        }, select=["DET002"])
        assert findings == []


# --------------------------------------------------------------------- DET003
class TestDet003TrialNondeterminism:
    TRIAL = (
        "import time\n"
        "from repro.engine import register_trial\n"
        "@register_trial('t1')\n"
        "def t1_trial(config, seed):\n"
        "    return {'at': time.time()}\n"
    )

    def test_flags_wall_clock_in_trial(self):
        findings = lint_sources({"pkg.exp": self.TRIAL}, select=["DET003"])
        assert codes(findings) == ["DET003"]
        assert "time.time" in findings[0].message
        assert findings[0].symbol == "t1_trial"

    def test_attribute_qualified_decorator_marks_a_trial(self):
        findings = lint_sources({
            "pkg.exp": (
                "import uuid\n"
                "from repro.analysis import experiments\n"
                "@experiments.register_trial('t2')\n"
                "def t2_trial(config, seed):\n"
                "    return {'id': str(uuid.uuid4())}\n"
            ),
        }, select=["DET003"])
        assert codes(findings) == ["DET003"]
        assert "uuid.uuid4" in findings[0].message

    def test_same_call_outside_a_trial_is_fine(self):
        findings = lint_sources({
            "pkg.exp": (
                "import time\n"
                "def helper():\n"
                "    return time.time()\n"
            ),
        }, select=["DET003"])
        assert findings == []

    def test_inline_suppression_silences(self):
        suppressed = self.TRIAL.replace(
            "time.time()}", "time.time()}  # repro: disable=DET003 -- demo"
        )
        findings = lint_sources({"pkg.exp": suppressed}, select=["DET003"])
        assert findings == []


# --------------------------------------------------------------------- DET004
class TestDet004FloatInExactPath:
    EXACT = "repro.tap.greedy"  # a member of EXACT_MODULES

    def test_flags_float_literal_cast_and_inexact_math(self):
        sources = {
            "repro": "",
            "repro.tap": "",
            self.EXACT: (
                "import math\n"
                "def score(votes, total):\n"
                "    if votes >= total / 8.0:\n"
                "        return float(total)\n"
                "    return math.sqrt(total)\n"
            ),
        }
        findings = lint_sources(sources, select=["DET004"])
        assert codes(findings) == ["DET004", "DET004", "DET004"]
        messages = " ".join(finding.message for finding in findings)
        assert "8.0" in messages and "float()" in messages and "math.sqrt" in messages

    def test_same_code_outside_exact_modules_is_fine(self):
        findings = lint_sources({
            "repro": "",
            "repro.metrics": "def mean(xs):\n    return sum(xs) / 1.0\n",
        }, select=["DET004"])
        assert findings == []

    def test_inline_suppression_silences(self):
        findings = lint_sources({
            "repro": "",
            "repro.tap": "",
            self.EXACT: (
                "P = 1.0 / 8  # repro: disable=DET004 -- exact binary power\n"
            ),
        }, select=["DET004"])
        assert findings == []


# ------------------------------------------------------- project on disk
class TestProjectOnDisk:
    @pytest.fixture()
    def package_root(self, tmp_path: Path) -> Path:
        pkg = tmp_path / "src" / "mypkg"
        (pkg / "sub").mkdir(parents=True)
        (pkg / "__init__.py").write_text("")
        (pkg / "a.py").write_text("import mypkg.b\n")
        (pkg / "b.py").write_text("from mypkg import c\n")
        (pkg / "c.py").write_text("from . import d\n")
        (pkg / "d.py").write_text("")
        (pkg / "sub" / "__init__.py").write_text("")
        (pkg / "sub" / "e.py").write_text("from ..a import something\n")
        return pkg

    def test_modules_and_paths(self, package_root: Path):
        project = load_project(package_root, package="mypkg")
        assert set(project.modules) == {
            "mypkg", "mypkg.a", "mypkg.b", "mypkg.c", "mypkg.d",
            "mypkg.sub", "mypkg.sub.e",
        }
        assert project.modules["mypkg"].is_package
        assert project.modules["mypkg.sub"].is_package
        assert not project.modules["mypkg.a"].is_package
        # Paths are reported relative to the grandparent of the package dir
        # (the repo root in a src layout).
        assert project.modules["mypkg.a"].relpath == "src/mypkg/a.py"
        assert project.modules["mypkg.sub.e"].relpath == "src/mypkg/sub/e.py"

    def test_relative_imports_resolve_against_the_package(self, package_root: Path):
        project = load_project(package_root, package="mypkg")
        (binding,) = project.modules["mypkg.c"].imports
        assert (binding.module, binding.attr) == ("mypkg", "d")
        (binding,) = project.modules["mypkg.sub.e"].imports
        assert (binding.module, binding.attr) == ("mypkg.a", "something")


# --------------------------------------------------------------- suppressions
class TestSuppressions:
    def test_suppressed_codes_parsing(self):
        line = "x = 1.0  # repro: disable=DET004, DET001 -- justified"
        assert suppressed_codes(line) == frozenset({"DET004", "DET001"})
        assert suppressed_codes("x = 1.0  # plain comment") == frozenset()

    def test_unknown_rule_selection_raises(self):
        with pytest.raises(KeyError):
            select_rules(["NOPE"])


# ------------------------------------------------------- the repo lints clean
class TestRepoIsClean:
    def test_package_tree_has_no_findings(self):
        result = run_lint(PACKAGE_DIR)
        assert result.findings == [], "\n".join(
            f"{f.path}:{f.line}: {f.code} {f.message}" for f in result.findings
        )
        assert result.exit_code == 0

    def test_copied_checkout_is_clean(self, tmp_path: Path, capsys):
        from repro.cli import main

        root = tmp_path / "checkout"
        shutil.copytree(PACKAGE_DIR, root / "src" / "repro")
        assert main(["lint", "--root", str(root)]) == 0
        assert "no findings" in capsys.readouterr().out
