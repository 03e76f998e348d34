"""Findings, suppressions and report rendering.

A :class:`Finding` is one rule violation at one source location.  Two
mechanisms silence a finding:

* fixing the code (preferred);
* an inline ``# repro: disable=CODE[,CODE...]`` comment on the offending
  line, ideally followed by a justification (``-- reason``).
"""

from __future__ import annotations

import json
import re
from dataclasses import asdict, dataclass
from typing import Iterable, Mapping

from repro.lint.registry import RULES

__all__ = [
    "Finding",
    "suppressed_codes",
    "apply_suppressions",
    "render_text",
    "render_json",
]

#: ``# repro: disable=DET001,DET004 -- optional justification``
_SUPPRESSION = re.compile(r"#\s*repro:\s*disable=([A-Z0-9_,\s]+)")


@dataclass
class Finding:
    """One rule violation at one source location."""

    code: str
    path: str
    line: int
    col: int
    message: str
    symbol: str = ""


def suppressed_codes(line: str) -> frozenset[str]:
    """The rule codes an inline comment on *line* suppresses."""
    match = _SUPPRESSION.search(line)
    if match is None:
        return frozenset()
    return frozenset(
        code.strip() for code in match.group(1).split(",") if code.strip()
    )


def apply_suppressions(
    findings: Iterable[Finding], lines_by_path: Mapping[str, list[str]]
) -> list[Finding]:
    """Drop findings whose source line carries a matching disable comment."""
    kept: list[Finding] = []
    for finding in findings:
        lines = lines_by_path.get(finding.path, [])
        line = lines[finding.line - 1] if 0 < finding.line <= len(lines) else ""
        if finding.code not in suppressed_codes(line):
            kept.append(finding)
    return kept


def _summary(findings: list[Finding]) -> dict:
    per_rule: dict[str, int] = {}
    for finding in findings:
        per_rule[finding.code] = per_rule.get(finding.code, 0) + 1
    return {"total": len(findings), "rules": dict(sorted(per_rule.items()))}


def _ordered(findings: Iterable[Finding]) -> list[Finding]:
    return sorted(findings, key=lambda f: (f.path, f.line, f.col, f.code))


def render_text(findings: list[Finding]) -> str:
    """The human report: one line per finding plus a summary."""
    lines: list[str] = []
    for finding in _ordered(findings):
        suffix = f" [{finding.symbol}]" if finding.symbol else ""
        lines.append(
            f"{finding.path}:{finding.line}:{finding.col}: "
            f"{finding.code} {finding.message}{suffix}"
        )
    summary = _summary(findings)
    if summary["total"] == 0:
        lines.append("kecss lint: no findings")
    else:
        per_rule = ", ".join(
            f"{code}:{count}" for code, count in summary["rules"].items()
        )
        lines.append(
            f"kecss lint: {summary['total']} finding"
            f"{'' if summary['total'] == 1 else 's'} [{per_rule}]"
        )
    return "\n".join(lines)


def render_json(findings: list[Finding]) -> str:
    """The machine report consumed by the CI gate."""
    payload = {
        "findings": [asdict(finding) for finding in _ordered(findings)],
        "summary": _summary(findings),
        "rules": {
            code: {"title": rule.title}
            for code, rule in sorted(RULES.items())
        },
    }
    return json.dumps(payload, indent=2, sort_keys=True)
