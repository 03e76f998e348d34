"""The lint rule registry.

Rules plug in by code: a ``@register_rule("DET001", ...)`` decorator adds
the checker to :data:`RULES` without the driver knowing any rule
concretely, so downstream forks can register project-specific rules and
``kecss lint --select`` can subset them.  A checker is called once per
:class:`~repro.lint.walker.ModuleContext` and sees only that file.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import Callable, Iterable

__all__ = ["Rule", "RULES", "register_rule", "select_rules"]

@dataclass(frozen=True)
class Rule:
    """One registered lint rule."""

    code: str
    title: str
    check: Callable
    rationale: str = field(default="", compare=False)


#: Rule code -> :class:`Rule`.  ``register_rule`` adds entries.
RULES: dict[str, Rule] = {}


def register_rule(code: str, title: str):
    """Register the decorated checker under *code*.

    The checker's docstring becomes the rule's rationale, shown by
    ``kecss lint --list-rules`` and quoted in ``docs/lint.md``.
    """
    def decorate(check):
        RULES[code] = Rule(
            code=code,
            title=title,
            check=check,
            rationale=inspect.getdoc(check) or "",
        )
        return check

    return decorate


def select_rules(select: Iterable[str] | None = None) -> list[Rule]:
    """The rules to run, in code order; *select* subsets by code."""
    if select is None:
        return [RULES[code] for code in sorted(RULES)]
    chosen = []
    for code in select:
        if code not in RULES:
            raise KeyError(
                f"unknown lint rule {code!r}; known rules: {sorted(RULES)}"
            )
        chosen.append(RULES[code])
    return sorted(chosen, key=lambda rule: rule.code)
