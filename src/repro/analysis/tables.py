"""Paper-style result tables.

Every experiment returns a :class:`Table`; the benchmarks print them and
``kecss bench`` records them in ``BENCH_*.json`` baselines.  Values are kept as Python objects and formatted
lazily so the same table can be rendered as aligned text or Markdown.

The module also hosts the aggregation helpers the experiments use to turn
(possibly cache-replayed) :class:`~repro.analysis.runner.TrialResult` batches
into table rows: :func:`trial_groups`, :func:`metric_values`,
:func:`metric_mean` and :func:`metric_max`.  Grouping refuses to average over
failed trials -- it raises :class:`~repro.analysis.runner.TrialFailure` -- so
a crash inside a worker process cannot silently skew an aggregate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.analysis.runner import TrialResult, trial_groups

__all__ = [
    "Table",
    "trial_groups",
    "metric_values",
    "metric_mean",
    "metric_max",
]


def metric_values(group: Sequence[TrialResult], name: str) -> list:
    """The values of metric *name* across *group*, in trial order."""
    return [result.metrics[name] for result in group]


def metric_mean(group: Sequence[TrialResult], name: str) -> float:
    """Plain ``sum / count`` mean of metric *name* over *group*."""
    values = metric_values(group, name)
    return sum(values) / len(values)


def metric_max(group: Sequence[TrialResult], name: str):
    """Maximum of metric *name* over *group*."""
    return max(metric_values(group, name))


def _format_value(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


@dataclass
class Table:
    """A titled table with named columns.

    Attributes:
        title: Table caption (experiment id and what it validates).
        columns: Column headers.
        rows: Row values (same arity as ``columns``).
        notes: Free-form caption lines printed below the table.
    """

    title: str
    columns: Sequence[str]
    rows: list[tuple] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def add_row(self, *values: object) -> None:
        """Append a row (must match the number of columns)."""
        if len(values) != len(self.columns):
            raise ValueError(
                f"expected {len(self.columns)} values, got {len(values)}"
            )
        self.rows.append(tuple(values))

    def add_note(self, note: str) -> None:
        self.notes.append(note)

    def column(self, name: str) -> list[object]:
        """Return all values of the column called *name*."""
        try:
            index = list(self.columns).index(name)
        except ValueError as exc:
            raise KeyError(f"no column named {name!r}") from exc
        return [row[index] for row in self.rows]

    # -------------------------------------------------------------- rendering
    def to_text(self) -> str:
        """Render as an aligned plain-text table."""
        headers = [str(c) for c in self.columns]
        cells = [[_format_value(v) for v in row] for row in self.rows]
        widths = [len(h) for h in headers]
        for row in cells:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        lines = [self.title, "-" * len(self.title)]
        lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
        lines.append("  ".join("-" * widths[i] for i in range(len(headers))))
        for row in cells:
            lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)

    def to_markdown(self) -> str:
        """Render as a GitHub-flavoured Markdown table."""
        headers = [str(c) for c in self.columns]
        lines = [f"**{self.title}**", ""]
        lines.append("| " + " | ".join(headers) + " |")
        lines.append("|" + "|".join(["---"] * len(headers)) + "|")
        for row in self.rows:
            lines.append("| " + " | ".join(_format_value(v) for v in row) + " |")
        for note in self.notes:
            lines.append("")
            lines.append(f"*{note}*")
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.to_text()

    @staticmethod
    def concatenate(title: str, tables: Iterable["Table"]) -> str:
        """Render several tables one after another under a combined heading."""
        parts = [title, "=" * len(title), ""]
        for table in tables:
            parts.append(table.to_text())
            parts.append("")
        return "\n".join(parts)
