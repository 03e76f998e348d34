"""The lint driver: run every registered rule over a project tree.

:func:`lint_project` is the core (parse -> rules -> suppressions) and works
on any :class:`~repro.lint.walker.ProjectContext`, including the in-memory
ones the tests build; :func:`run_lint` adds the filesystem entry point and
baseline handling the ``kecss lint`` CLI verb sits on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping

# Importing the rules module populates the registry.
import repro.lint.rules  # noqa: F401
from repro.lint.registry import select_rules
from repro.lint.report import (
    Finding,
    apply_baseline,
    apply_suppressions,
)
from repro.lint.walker import ProjectContext, load_project

__all__ = ["LintResult", "lint_project", "run_lint", "default_package_dir"]


@dataclass
class LintResult:
    """Outcome of one lint run, split by baseline status."""

    new: list[Finding] = field(default_factory=list)
    baselined: list[Finding] = field(default_factory=list)

    @property
    def findings(self) -> list[Finding]:
        return sorted(
            [*self.new, *self.baselined],
            key=lambda f: (f.path, f.line, f.col, f.code),
        )

    @property
    def exit_code(self) -> int:
        """0 clean (baselined findings do not fail), 1 on new findings; 2 is
        reserved for usage errors."""
        return 1 if self.new else 0


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
    baseline: Mapping[str, dict] | None = None,
) -> LintResult:
    """Lint the package tree at *package_dir* against *baseline*."""
    if package_dir is None:
        package_dir = default_package_dir()
    project = load_project(Path(package_dir))
    findings = lint_project(project, select=select)
    new, grandfathered = apply_baseline(findings, baseline or {})
    return LintResult(new=new, baselined=grandfathered)
