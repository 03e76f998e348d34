"""repro.lint: determinism static analysis (``kecss lint``).

Every guarantee this reproduction makes -- bit-identical kernel/oracle
parity, replayable trials, identical aggregates across execution backends --
is a determinism invariant that the runtime checks (the differential
sweeps against ``tests/oracles.py``, ``kecss bench --against``) only verify
on the seeds actually swept.  This package checks the *sources* of
nondeterminism statically, before execution, AST-only (the analysed tree is
never imported):

* a rule registry (:mod:`repro.lint.registry`), shipped with the
  DET001-DET004 determinism rules (:mod:`repro.lint.rules`);
* inline ``# repro: disable=CODE`` suppressions (:mod:`repro.lint.report`).

See ``docs/lint.md`` for the rule catalogue and workflows.
"""

from repro.lint.driver import LintResult, default_package_dir, lint_project, run_lint
from repro.lint.registry import RULES, Rule, register_rule, select_rules
from repro.lint.report import (
    Finding,
    apply_suppressions,
    render_json,
    render_text,
    suppressed_codes,
)
from repro.lint.rules import EXACT_MODULES
from repro.lint.walker import (
    ImportBinding,
    ModuleContext,
    ProjectContext,
    load_project,
    project_from_sources,
)

__all__ = [
    "LintResult",
    "lint_project",
    "run_lint",
    "default_package_dir",
    "RULES",
    "Rule",
    "register_rule",
    "select_rules",
    "Finding",
    "apply_suppressions",
    "render_json",
    "render_text",
    "suppressed_codes",
    "EXACT_MODULES",
    "ImportBinding",
    "ModuleContext",
    "ProjectContext",
    "load_project",
    "project_from_sources",
]
