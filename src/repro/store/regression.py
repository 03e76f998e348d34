"""Cross-run aggregate trends and regression checks over a trial store.

Two consumers sit on top of :class:`~repro.store.store.TrialStore`:

* ``kecss history <exp>`` -- :func:`history_table` groups every stored run
  of an experiment by its ``code_version`` tag (in first-ingested order) and
  tabulates per-version aggregates: run/trial counts, pooled duration
  statistics and the mean of every numeric metric column.  This is the
  perf/correctness trajectory across commits that isolated
  ``BENCH_*.json`` snapshots cannot show.  ``kecss history <exp> --metric X
  [--by KEY]`` switches to :func:`history_drilldown`, which follows one
  metric and -- instead of pooling whole runs -- groups the pooled trials
  by a per-trial column: a configuration key (``--by family``), or a bare
  column such as ``seed``.

* ``kecss regress <exp>`` -- :func:`regress` compares the **latest** stored
  run against the most recent run of a *different* code version (falling
  back to the immediately preceding run when every stored run shares the
  latest version).  It checks three layers, strictest first:

  1. the rendered aggregate table (the same cells ``kecss bench --against``
     diffs): numeric cells must agree within ``tolerance`` (relative;
     default 0, i.e. bit-identical), other cells exactly;
  2. per-metric means over the trial columns, within ``tolerance``;
  3. the per-trial duration distribution (mean / p50 / max), reported
     always and *enforced* only when ``duration_tolerance`` is given --
     wall-clock is machine-dependent, so failing on it must be opt-in.

Drift is relative: ``|new - old| / max(|old|, 1e-12) > tolerance``; a NaN on
either side of any compared aggregate always counts as drift (a plain
``> tolerance`` comparison would silently pass it).
"""

from __future__ import annotations

from math import isnan
from statistics import fmean, median
from typing import Mapping, Sequence

from repro.analysis.tables import Table
from repro.store.store import RunInfo, StoreError, TrialStore

__all__ = [
    "duration_stats",
    "metric_means",
    "history_table",
    "history_drilldown",
    "pick_baseline_run",
    "compare_tables_with_tolerance",
    "regress",
]

def _is_number(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def relative_drift(old: object, new: object) -> float:
    """``|new - old| / max(|old|, 1e-12)``.

    Deliberately strict around a zero baseline: any nonzero change from an
    exactly-zero aggregate reads as enormous drift, because a metric that
    was identically 0 across a whole run moving at all is a behaviour
    change, not noise.
    """
    return abs(float(new) - float(old)) / max(abs(float(old)), 1e-12)


def _drifted(old: object, new: object, tolerance: float) -> bool:
    """Whether a numeric pair counts as drift at *tolerance*.

    NaN on either side is always drift: ``NaN > tolerance`` is False, so a
    plain comparison would wave a broken (NaN) aggregate through the gate
    exactly when the result is most wrong.
    """
    if isnan(float(old)) or isnan(float(new)):
        return True
    return relative_drift(old, new) > tolerance


def duration_stats(durations: Sequence[float]) -> dict[str, float]:
    """Distribution summary of per-trial wall-clock durations."""
    if not durations:
        return {"trials": 0, "total": 0.0, "mean": 0.0, "p50": 0.0, "max": 0.0}
    return {
        "trials": len(durations),
        "total": sum(durations),
        "mean": fmean(durations),
        "p50": median(durations),
        "max": max(durations),
    }


def metric_means(columns: Mapping[str, list]) -> dict[str, float]:
    """Mean of every numeric ``metrics.*`` column, skipping missing values.

    A metric recorded by only some trials of a run (e.g. the exact-diffed
    subset of a differential sweep) is averaged over the trials that carry
    it; a metric with no numeric values at all is omitted.
    """
    means: dict[str, float] = {}
    for name, values in columns.items():
        if not name.startswith("metrics."):
            continue
        numeric = [v for v in values if _is_number(v)]
        if numeric:
            means[name[len("metrics."):]] = fmean(numeric)
    return means


def _pooled(store: TrialStore, runs: Sequence[RunInfo]) -> dict[str, list]:
    """Concatenate the shared columns of several runs (union of names)."""
    pooled: dict[str, list] = {}
    for info in runs:
        for name, values in store.columns(info).items():
            pooled.setdefault(name, []).extend(values)
    return pooled


def history_table(store: TrialStore, experiment: str) -> Table:
    """Per-code-version aggregate trends of *experiment* across stored runs."""
    runs = store.runs(experiment)
    if not runs:
        raise StoreError(
            f"no stored runs for experiment {experiment!r} in {store.root}"
        )
    by_version: dict[str, list[RunInfo]] = {}
    for info in runs:  # first-ingested order, preserved by dict insertion
        by_version.setdefault(info.code_version, []).append(info)
    pooled = {
        version: _pooled(store, infos) for version, infos in by_version.items()
    }
    metric_names = sorted(
        {name for columns in pooled.values() for name in metric_means(columns)}
    )
    table = Table(
        title=f"history: {experiment} ({len(runs)} runs, "
              f"{len(by_version)} code versions)",
        columns=["code version", "runs", "trials", "mean s", "max s",
                 *[f"mean {name}" for name in metric_names]],
    )
    for version, infos in by_version.items():
        columns = pooled[version]
        stats = duration_stats(columns.get("duration", []))
        means = metric_means(columns)
        table.add_row(
            version,
            len(infos),
            stats["trials"],
            stats["mean"],
            stats["max"],
            *[means.get(name, "") for name in metric_names],
        )
    table.add_note(
        "one row per code version, oldest first; duration stats and metric "
        "means pool every stored run of that version"
    )
    return table


def history_drilldown(
    store: TrialStore, experiment: str, metric: str, by: str | None = None
) -> Table:
    """Follow one metric across code versions, grouped by a per-trial column.

    Where :func:`history_table` pools whole runs, this splits each code
    version's pooled trials by *by* -- resolved as a stored column name
    first (``"seed"``, ``"cached"``), then as ``config.<by>`` (so ``--by
    family`` works without the prefix) -- and reports per-group count /
    mean / min / max of *metric*.  ``by=None`` degenerates to a per-version
    trend of the single metric.

    Trials that do not record the metric (or record a non-numeric value)
    are excluded from the aggregates but the group row still shows how many
    trials *did* carry it, so sparse metrics cannot masquerade as dense.
    """
    runs = store.runs(experiment)
    if not runs:
        raise StoreError(
            f"no stored runs for experiment {experiment!r} in {store.root}"
        )
    by_version: dict[str, list[RunInfo]] = {}
    for info in runs:  # first-ingested order, preserved by dict insertion
        by_version.setdefault(info.code_version, []).append(info)
    run_columns = {info.run_id: store.columns(info) for info in runs}
    all_names = {name for columns in run_columns.values() for name in columns}

    # Resolve the metric against what is actually stored: a recorded
    # metric first (with or without the ``metrics.`` prefix), then a bare
    # numeric timing column -- so ``--metric duration`` and ``--metric
    # queue_seconds`` drill into where runs spent their time.
    if metric.startswith("metrics.") or f"metrics.{metric}" in all_names:
        metric_column = (
            metric if metric.startswith("metrics.") else f"metrics.{metric}"
        )
    else:
        metric_column = metric
    if metric_column not in all_names:
        known = sorted(
            name[len("metrics."):]
            for name in all_names
            if name.startswith("metrics.")
        )
        timing = sorted(
            name for name in ("duration", "queue_seconds") if name in all_names
        )
        raise StoreError(
            f"metric {metric!r} is not recorded by any stored run of "
            f"{experiment!r}; known metrics: {known}; timing columns: {timing}"
        )
    group_column: str | None = None
    if by is not None:
        for candidate in (by, f"config.{by}"):
            if candidate in all_names:
                group_column = candidate
                break
        if group_column is None:
            groupable = sorted(
                name for name in all_names if not name.startswith("metrics.")
            )
            raise StoreError(
                f"cannot group by {by!r}: no stored column {by!r} or "
                f"'config.{by}'; groupable columns: {groupable}"
            )

    header = ["code version"]
    if by is not None:
        header.append(by)
    header += ["trials", f"mean {metric}", f"min {metric}", f"max {metric}"]
    grouped_title = f" by {by}" if by is not None else ""
    table = Table(
        title=f"history: {experiment} metric {metric}{grouped_title} "
              f"({len(runs)} runs, {len(by_version)} code versions)",
        columns=header,
    )
    for version, infos in by_version.items():
        keys: list = []
        values: list = []
        for info in infos:
            columns = run_columns[info.run_id]
            # Core columns are dense, so "seed" measures the run's row count;
            # sparse columns (the metric in an older run, "error" in a
            # clean run) are None-padded to keep rows aligned.
            rows = len(columns.get("seed", []))
            metric_values = columns.get(metric_column)
            values.extend(
                metric_values
                if isinstance(metric_values, list) and len(metric_values) == rows
                else [None] * rows
            )
            if group_column is None:
                keys.extend([None] * rows)
            else:
                group_keys = columns.get(group_column)
                keys.extend(
                    group_keys
                    if isinstance(group_keys, list) and len(group_keys) == rows
                    else [None] * rows
                )
        groups: dict = {}
        for key, value in zip(keys, values):
            groups.setdefault(key, []).append(value)
        for key in sorted(groups, key=repr):
            numeric = [v for v in groups[key] if _is_number(v)]
            row: list = [version]
            if by is not None:
                row.append("-" if key is None else key)
            if numeric:
                row += [len(numeric), fmean(numeric), min(numeric), max(numeric)]
            else:
                row += [0, "", "", ""]
            table.add_row(*row)
    table.add_note(
        "one row per (code version, group), versions oldest first; trials "
        "counts only the trials that recorded the metric numerically"
    )
    return table


def pick_baseline_run(runs: Sequence[RunInfo]) -> RunInfo | None:
    """The run the latest one regresses against, or ``None``.

    The most recent run whose ``code_version`` differs from the latest
    run's (cross-version regression tracking); when every earlier run
    shares the latest version, the immediately preceding run (which catches
    nondeterminism or environment drift at a fixed version).
    """
    if len(runs) < 2:
        return None
    latest = runs[-1]
    for info in reversed(runs[:-1]):
        if info.code_version != latest.code_version:
            return info
    return runs[-2]


def compare_tables_with_tolerance(
    old: Mapping, new: Mapping, tolerance: float
) -> list[str]:
    """Diff two stored table payloads cell-by-cell.

    Numeric cells may drift up to *tolerance* (relative); everything else
    must match exactly.  With ``tolerance=0`` this is the bit-identical
    check of ``kecss bench --against``, applied to stored runs.
    """
    problems: list[str] = []
    if list(old.get("columns", [])) != list(new.get("columns", [])):
        return [
            f"table columns differ: {old.get('columns')!r} vs "
            f"{new.get('columns')!r}"
        ]
    old_rows = [list(row) for row in old.get("rows", [])]
    new_rows = [list(row) for row in new.get("rows", [])]
    if len(old_rows) != len(new_rows):
        return [f"table row count differs: {len(old_rows)} vs {len(new_rows)}"]
    headers = list(old.get("columns", []))
    for r, (old_row, new_row) in enumerate(zip(old_rows, new_rows)):
        for c, (old_cell, new_cell) in enumerate(zip(old_row, new_row)):
            if _is_number(old_cell) and _is_number(new_cell):
                if _drifted(old_cell, new_cell, tolerance):
                    drift = relative_drift(old_cell, new_cell)
                    problems.append(
                        f"table[{r}][{headers[c]!r}] drifted "
                        f"{drift * 100:.2f}%: {old_cell!r} -> {new_cell!r} "
                        f"(tolerance {tolerance * 100:.2f}%)"
                    )
            elif old_cell != new_cell:
                problems.append(
                    f"table[{r}][{headers[c]!r}] differs: "
                    f"{old_cell!r} -> {new_cell!r}"
                )
    return problems


def regress(
    store: TrialStore,
    experiment: str,
    *,
    tolerance: float = 0.0,
    duration_tolerance: float | None = None,
) -> tuple[int, list[str]]:
    """Compare the latest stored run of *experiment* against its baseline run.

    Returns ``(exit_code, report_lines)``: 0 when nothing drifted (or there
    is nothing to compare), 1 on drift, 2 when the store holds no run of the
    experiment at all.
    """
    runs = store.runs(experiment)
    lines: list[str] = []
    if not runs:
        return 2, [f"no stored runs for experiment {experiment!r} in {store.root}"]
    latest = runs[-1]
    baseline = pick_baseline_run(runs)
    if baseline is None:
        return 0, [
            f"{experiment}: only one stored run ({latest.run_id}, version "
            f"{latest.code_version}); nothing to regress against"
        ]
    lines.append(
        f"{experiment}: comparing {latest.run_id} (version "
        f"{latest.code_version}) against {baseline.run_id} (version "
        f"{baseline.code_version})"
    )
    problems: list[str] = []

    old_table, new_table = baseline.table, latest.table
    if old_table is None or new_table is None:
        lines.append("table check skipped: a run has no stored aggregate table")
    else:
        table_problems = compare_tables_with_tolerance(
            old_table, new_table, tolerance
        )
        problems.extend(table_problems)
        lines.append(
            f"aggregate table: {len(table_problems)} drifting cell(s) "
            f"(tolerance {tolerance * 100:.2f}%)"
        )

    old_columns = store.columns(baseline)
    new_columns = store.columns(latest)
    old_means = metric_means(old_columns)
    new_means = metric_means(new_columns)
    for name in sorted(set(old_means) | set(new_means)):
        if name not in old_means or name not in new_means:
            side = "baseline" if name in old_means else "latest"
            problems.append(f"metric {name!r} is recorded only by the {side} run")
            continue
        drift = relative_drift(old_means[name], new_means[name])
        drifted = _drifted(old_means[name], new_means[name], tolerance)
        marker = "DRIFT" if drifted else "ok"
        lines.append(
            f"metric mean {name}: {old_means[name]:.6g} -> "
            f"{new_means[name]:.6g} ({drift * 100:.2f}% {marker})"
        )
        if drifted:
            problems.append(
                f"metric mean {name!r} drifted {drift * 100:.2f}%: "
                f"{old_means[name]!r} -> {new_means[name]!r} "
                f"(tolerance {tolerance * 100:.2f}%)"
            )

    old_durations = duration_stats(old_columns.get("duration", []))
    new_durations = duration_stats(new_columns.get("duration", []))
    for key in ("mean", "p50", "max"):
        lines.append(
            f"duration {key}: {old_durations[key]:.6f}s -> "
            f"{new_durations[key]:.6f}s"
        )
    if duration_tolerance is not None:
        drift = relative_drift(old_durations["mean"], new_durations["mean"])
        if _drifted(old_durations["mean"], new_durations["mean"], duration_tolerance):
            problems.append(
                f"mean trial duration drifted {drift * 100:.2f}%: "
                f"{old_durations['mean']:.6f}s -> {new_durations['mean']:.6f}s "
                f"(tolerance {duration_tolerance * 100:.2f}%)"
            )

    if problems:
        lines.append(f"REGRESSION: {len(problems)} problem(s)")
        lines.extend(f"  {problem}" for problem in problems)
        return 1, lines
    lines.append("no drift beyond tolerance")
    return 0, lines
