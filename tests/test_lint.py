"""Tests for the :mod:`repro.lint` static analyzer.

Rule behaviour is pinned with small inline source fixtures
(:func:`repro.lint.lint_source` lints one module without touching the
filesystem); :func:`repro.lint.lint` is additionally exercised against real
on-disk package trees, the package itself must lint clean, and every inline
suppression in it must still hide a live finding.
"""

from __future__ import annotations

import io
import re
import shutil
import tokenize
from pathlib import Path

import pytest

from repro.lint import _INEXACT_MATH, Finding, lint, lint_source, suppressed_codes

REPO_ROOT = Path(__file__).resolve().parents[1]
PACKAGE_DIR = REPO_ROOT / "src" / "repro"


def lint_sources(sources: dict[str, str], code: str) -> list[Finding]:
    """The *code* findings in in-memory ``{dotted name: source}`` modules; a
    name is a package when another supplied name nests under it."""
    findings: list[Finding] = []
    for name, source in sources.items():
        is_package = any(other.startswith(name + ".") for other in sources)
        relpath = name.replace(".", "/") + ("/__init__.py" if is_package else ".py")
        findings += lint_source(source, name, relpath, is_package)
    return [finding for finding in findings if finding.code == code]


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
        }, code="DET001")
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
        }, code="DET001")
        assert codes(findings) == ["DET001", "DET001"]
        assert "numpy.random.seed" in findings[1].message

    def test_dotted_import_binds_its_top_package(self):
        # ``import numpy.random`` binds ``numpy``: the call resolves to
        # ``numpy.random.seed``, not one level too deep.
        findings = lint_sources({
            "pkg.mod": (
                "import numpy.random\n"
                "def f():\n"
                "    numpy.random.seed(0)\n"
            ),
        }, code="DET001")
        assert codes(findings) == ["DET001"]
        assert "numpy.random.seed" in findings[0].message

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
        }, code="DET001")
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
        }, code="DET001")
        assert findings == []

    def test_inline_suppression_silences(self):
        findings = lint_sources({
            "pkg.mod": (
                "import random\n"
                "def f():\n"
                "    return random.random()  # repro: disable=DET001 -- demo\n"
            ),
        }, code="DET001")
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
        }, code="DET002")
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
        }, code="DET002")
        assert findings == []

    def test_inline_suppression_silences(self):
        findings = lint_sources({
            "pkg.mod": (
                "def f(items):\n"
                "    for x in set(items):  # repro: disable=DET002 -- order unused\n"
                "        print(x)\n"
            ),
        }, code="DET002")
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
        findings = lint_sources({"pkg.exp": self.TRIAL}, code="DET003")
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
        }, code="DET003")
        assert codes(findings) == ["DET003"]
        assert "uuid.uuid4" in findings[0].message

    def test_dotted_import_binds_its_top_package(self):
        findings = lint_sources({
            "pkg.exp": (
                "import os.path\n"
                "from repro.engine import register_trial\n"
                "@register_trial('t3')\n"
                "def t3_trial(config, seed):\n"
                "    return {'pid': os.getpid()}\n"
            ),
        }, code="DET003")
        assert codes(findings) == ["DET003"]
        assert "os.getpid" in findings[0].message

    def test_same_call_outside_a_trial_is_fine(self):
        findings = lint_sources({
            "pkg.exp": (
                "import time\n"
                "def helper():\n"
                "    return time.time()\n"
            ),
        }, code="DET003")
        assert findings == []

    def test_inline_suppression_silences(self):
        suppressed = self.TRIAL.replace(
            "time.time()}", "time.time()}  # repro: disable=DET003 -- demo"
        )
        findings = lint_sources({"pkg.exp": suppressed}, code="DET003")
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
        findings = lint_sources(sources, code="DET004")
        assert codes(findings) == ["DET004", "DET004", "DET004"]
        messages = " ".join(finding.message for finding in findings)
        assert "8.0" in messages and "float()" in messages and "math.sqrt" in messages

    def test_same_code_outside_exact_modules_is_fine(self):
        findings = lint_sources({
            "repro": "",
            "repro.metrics": "def mean(xs):\n    return sum(xs) / 1.0\n",
        }, code="DET004")
        assert findings == []

    def test_inline_suppression_silences(self):
        findings = lint_sources({
            "repro": "",
            "repro.tap": "",
            self.EXACT: (
                "P = 1.0 / 8  # repro: disable=DET004 -- exact binary power\n"
            ),
        }, code="DET004")
        assert findings == []


# ------------------------------------------------------- package on disk
class TestPackageOnDisk:
    @staticmethod
    def write(package_dir: Path, files: dict[str, str]) -> None:
        for relpath, source in files.items():
            (package_dir / relpath).parent.mkdir(parents=True, exist_ok=True)
            (package_dir / relpath).write_text(source)

    def test_modules_are_named_after_the_package_dir(self, tmp_path: Path):
        # DET004 fires only in EXACT_MODULES, so its findings show which
        # files got which dotted names; paths are relative to the
        # grandparent of the package dir (the repo root in a src layout).
        files = {
            relpath: "X = 1.0\n"
            for relpath in (
                "__init__.py", "tap/__init__.py", "tap/greedy.py",
                "tap/other.py", "core/fastaug/__init__.py",
            )
        }
        for package in ("repro", "other"):
            self.write(tmp_path / package / "src" / package, files)
        findings = lint(tmp_path / "repro" / "src" / "repro")
        assert [(f.code, f.path) for f in findings] == [
            ("DET004", "src/repro/core/fastaug/__init__.py"),
            ("DET004", "src/repro/tap/greedy.py"),
        ]
        assert lint(tmp_path / "other" / "src" / "other") == []

    def test_relative_imports_resolve_against_the_package(self, tmp_path: Path):
        # DET003 flags any call that resolves under ``secrets.`` inside a
        # trial, and quotes the resolved name: a package of that name puts
        # every relative import's resolution into the report.
        def trial(statement: str, name: str) -> str:
            return (
                f"{statement}\n"
                "@register_trial('t')\n"
                "def t(config, seed):\n"
                f"    return {name}()\n"
            )

        self.write(tmp_path / "src" / "secrets", {
            "__init__.py": trial("from . import a", "a"),
            "c.py": trial("from . import d", "d"),
            "sub/__init__.py": trial("from .. import b", "b"),
            "sub/e.py": trial("from ..a import something", "something"),
        })
        findings = lint(tmp_path / "src" / "secrets")
        assert [(f.path, f.message.split("'")[1]) for f in findings] == [
            ("src/secrets/__init__.py", "secrets.a"),
            ("src/secrets/c.py", "secrets.d"),
            ("src/secrets/sub/__init__.py", "secrets.b"),
            ("src/secrets/sub/e.py", "secrets.a.something"),
        ]


# --------------------------------------------------------------- suppressions
class TestSuppressions:
    def test_suppressed_codes_parsing(self):
        line = "x = 1.0  # repro: disable=DET004, DET001 -- justified"
        assert suppressed_codes(line) == frozenset({"DET004", "DET001"})
        assert suppressed_codes("x = 1.0  # plain comment") == frozenset()

    def test_every_suppression_in_the_package_hides_a_live_finding(
        self, tmp_path: Path
    ):
        # Strip every inline suppression from a copy of the package: each
        # line that carried one must then yield a finding for every code it
        # named, and nothing else may appear.  Inexact math calls on those
        # lines must be reported by name, which needs `import math`
        # resolution to work on real code.
        copy = tmp_path / "src" / "repro"
        shutil.copytree(
            PACKAGE_DIR, copy, ignore=shutil.ignore_patterns("__pycache__")
        )
        suppressed: set[tuple[str, int, str]] = set()
        inexact: set[tuple[str, int, str]] = set()
        for path in sorted(copy.rglob("*.py")):
            source = path.read_text()
            lines = source.splitlines(keepends=True)
            relpath = path.relative_to(tmp_path).as_posix()
            for token in tokenize.generate_tokens(io.StringIO(source).readline):
                if token.type != tokenize.COMMENT or not re.match(
                    r"#\s*repro:\s*disable=", token.string
                ):
                    continue
                row, col = token.start
                lines[row - 1] = lines[row - 1][:col].rstrip() + "\n"
                suppressed |= {
                    (relpath, row, code) for code in suppressed_codes(token.string)
                }
                inexact |= {
                    (relpath, row, call)
                    for call in re.findall(r"\b(math\.\w+)\(", lines[row - 1])
                    if call in _INEXACT_MATH
                }
            path.write_text("".join(lines))
        assert suppressed, "the package carries no inline suppressions"

        findings = lint(copy)
        assert {(f.path, f.line, f.code) for f in findings} == suppressed
        assert inexact <= {
            (f.path, f.line, f.message.split("'")[1])
            for f in findings
            if f.message.startswith("inexact")
        }


# ------------------------------------------------------- the repo lints clean
class TestRepoIsClean:
    def test_package_tree_has_no_findings(self):
        findings = lint(PACKAGE_DIR)
        assert findings == [], "\n".join(
            f"{f.path}:{f.line}: {f.code} {f.message}" for f in findings
        )

    def test_copied_checkout_is_clean(self, tmp_path: Path, capsys):
        from repro.cli import main

        root = tmp_path / "checkout"
        shutil.copytree(PACKAGE_DIR, root / "src" / "repro")
        assert main(["lint", "--root", str(root)]) == 0
        assert "no findings" in capsys.readouterr().out
