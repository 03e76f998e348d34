"""Findings, suppressions, the committed baseline, and report rendering.

A :class:`Finding` is one rule violation at one source location.  Its
*fingerprint* -- a short content hash of ``(code, path, symbol, message)``,
deliberately excluding the line number -- identifies the finding across
unrelated edits, so baseline entries survive code motion without pinning
line numbers.

Three mechanisms silence a finding, in increasing order of ceremony:

* fixing the code (preferred);
* an inline ``# repro: disable=CODE[,CODE...]`` comment on the offending
  line, ideally followed by a justification (``-- reason``);
* an entry in the committed baseline file (``lint-baseline.json``),
  written by ``kecss lint --write-baseline`` -- for grandfathered findings
  that are real but not yet worth fixing.  Baselined findings are still
  reported (as "baselined") but do not fail the run.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Iterable, Mapping

from repro.lint.registry import RULES

__all__ = [
    "Finding",
    "suppressed_codes",
    "apply_suppressions",
    "load_baseline",
    "write_baseline",
    "apply_baseline",
    "render_text",
    "render_json",
]

#: ``# repro: disable=DET001,DET004 -- optional justification``
_SUPPRESSION = re.compile(r"#\s*repro:\s*disable=([A-Z0-9_,\s]+)")

#: Schema version of the baseline file.
BASELINE_VERSION = 1


@dataclass
class Finding:
    """One rule violation at one source location."""

    code: str
    path: str
    line: int
    col: int
    message: str
    symbol: str = ""
    baselined: bool = field(default=False, compare=False)

    @property
    def fingerprint(self) -> str:
        """Stable identity for baseline matching; excludes the line number."""
        payload = "|".join((self.code, self.path, self.symbol, self.message))
        return hashlib.sha256(payload.encode()).hexdigest()[:16]

    def to_dict(self) -> dict:
        payload = asdict(self)
        payload["fingerprint"] = self.fingerprint
        return payload


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


def load_baseline(path: Path) -> dict[str, dict]:
    """Fingerprint -> baseline entry from the committed baseline file."""
    payload = json.loads(Path(path).read_text())
    if payload.get("version") != BASELINE_VERSION:
        raise ValueError(
            f"baseline {path} has version {payload.get('version')!r}; "
            f"this linter writes version {BASELINE_VERSION}"
        )
    entries = payload.get("findings", [])
    return {entry["fingerprint"]: entry for entry in entries}


def write_baseline(path: Path, findings: Iterable[Finding]) -> int:
    """Persist *findings* as the new baseline; returns the entry count.

    Entries carry an empty ``justification`` field for humans to fill in --
    review of the committed diff is the workflow, not this function.
    """
    entries = [
        {
            "fingerprint": finding.fingerprint,
            "code": finding.code,
            "path": finding.path,
            "symbol": finding.symbol,
            "message": finding.message,
            "justification": "",
        }
        for finding in findings
    ]
    entries.sort(key=lambda entry: (entry["path"], entry["code"], entry["fingerprint"]))
    payload = {"version": BASELINE_VERSION, "findings": entries}
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return len(entries)


def apply_baseline(
    findings: Iterable[Finding], baseline: Mapping[str, dict]
) -> tuple[list[Finding], list[Finding]]:
    """Split findings into ``(new, baselined)``, marking the latter."""
    new: list[Finding] = []
    grandfathered: list[Finding] = []
    for finding in findings:
        if finding.fingerprint in baseline:
            finding.baselined = True
            grandfathered.append(finding)
        else:
            new.append(finding)
    return new, grandfathered


def _summary(new: list[Finding], baselined: list[Finding]) -> dict:
    per_rule: dict[str, int] = {}
    for finding in [*new, *baselined]:
        per_rule[finding.code] = per_rule.get(finding.code, 0) + 1
    return {
        "total": len(new) + len(baselined),
        "new": len(new),
        "baselined": len(baselined),
        "rules": dict(sorted(per_rule.items())),
    }


def render_text(new: list[Finding], baselined: list[Finding]) -> str:
    """The human report: one line per finding plus a summary."""
    lines: list[str] = []
    for finding in sorted(
        [*new, *baselined], key=lambda f: (f.path, f.line, f.col, f.code)
    ):
        suffix = ""
        if finding.symbol:
            suffix = f" [{finding.symbol}]"
        if finding.baselined:
            suffix += " (baselined)"
        lines.append(
            f"{finding.path}:{finding.line}:{finding.col}: "
            f"{finding.code} {finding.message}{suffix}"
        )
    summary = _summary(new, baselined)
    if summary["total"] == 0:
        lines.append("kecss lint: no findings")
    else:
        per_rule = ", ".join(
            f"{code}:{count}" for code, count in summary["rules"].items()
        )
        lines.append(
            f"kecss lint: {summary['total']} finding"
            f"{'' if summary['total'] == 1 else 's'} "
            f"({summary['new']} new, {summary['baselined']} baselined) [{per_rule}]"
        )
    return "\n".join(lines)


def render_json(new: list[Finding], baselined: list[Finding]) -> str:
    """The machine report consumed by the CI gate."""
    payload = {
        "findings": [
            finding.to_dict()
            for finding in sorted(
                [*new, *baselined], key=lambda f: (f.path, f.line, f.col, f.code)
            )
        ],
        "summary": _summary(new, baselined),
        "rules": {
            code: {"title": rule.title}
            for code, rule in sorted(RULES.items())
        },
    }
    return json.dumps(payload, indent=2, sort_keys=True)
