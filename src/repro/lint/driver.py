"""The lint driver: run every registered rule over a project tree.

:func:`lint_project` is the core (parse -> rules -> suppressions) and works
on any :class:`~repro.lint.walker.ProjectContext`, including the in-memory
ones the tests build; :func:`run_lint` is the filesystem entry point the
``kecss lint`` CLI verb sits on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

# Importing the rules module populates the registry.
import repro.lint.rules  # noqa: F401
from repro.lint.registry import select_rules
from repro.lint.report import Finding, apply_suppressions
from repro.lint.walker import ProjectContext, load_project

__all__ = ["LintResult", "lint_project", "run_lint", "default_package_dir"]


@dataclass
class LintResult:
    """Outcome of one lint run."""

    findings: list[Finding] = field(default_factory=list)

    @property
    def exit_code(self) -> int:
        """0 clean, 1 on any finding; 2 is reserved for usage errors."""
        return 1 if self.findings else 0


def lint_project(
    project: ProjectContext, select: Iterable[str] | None = None
) -> list[Finding]:
    """Run the (selected) rules over *project*; inline suppressions applied."""
    findings: list[Finding] = []
    for rule in select_rules(select):
        for _, ctx in sorted(project.modules.items()):
            findings.extend(rule.check(ctx))
    lines_by_path = {
        ctx.relpath: ctx.lines for ctx in project.modules.values()
    }
    findings = apply_suppressions(findings, lines_by_path)
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.code))
    return findings


def default_package_dir() -> Path:
    """The installed ``repro`` package directory (the default lint target)."""
    import repro

    return Path(repro.__file__).resolve().parent


def run_lint(
    package_dir: Path | None = None,
    select: Iterable[str] | None = None,
) -> LintResult:
    """Lint the package tree at *package_dir*."""
    if package_dir is None:
        package_dir = default_package_dir()
    project = load_project(Path(package_dir))
    return LintResult(findings=lint_project(project, select=select))
