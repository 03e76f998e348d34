"""Trial results, seeding and failure grouping.

The algorithms are randomised, so each configuration is run over several seeds
and the experiments report means (and, where interesting, maxima).  Seeds are
derived deterministically from the configuration so re-running an experiment
reproduces the same numbers.

Trials run through :class:`~repro.analysis.engine.ExperimentEngine`, which
captures failures per trial into :attr:`TrialResult.error` rather than
aborting a whole sweep; grouping failed trials for aggregation raises
:class:`TrialFailure` so they cannot silently disappear into a mean.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

__all__ = [
    "TrialResult",
    "TrialFailure",
    "derive_seed",
    "format_failures",
    "trial_groups",
]


def derive_seed(*parts: object) -> int:
    """Derive a deterministic 32-bit seed from arbitrary configuration parts."""
    digest = hashlib.sha256("|".join(repr(part) for part in parts).encode()).digest()
    return int.from_bytes(digest[:4], "big")


class TrialFailure(RuntimeError):
    """Raised when failed trials reach an aggregation path.

    The message lists every failed (configuration, seed) pair together with
    the captured traceback so the root cause is visible from the test log.
    """


@dataclass
class TrialResult:
    """Metrics recorded for one (configuration, seed) trial.

    Attributes:
        config: The trial configuration.
        seed: The seed the trial ran under.
        metrics: Metric name -> value recorded by the trial function.
        error: ``None`` on success; the formatted traceback when the trial
            raised.
        index: Trial index within its configuration.
        duration: Wall-clock seconds the original computation took.  Cache
            replays restore the persisted compute duration; use ``cached`` to
            distinguish replay time from compute time.
        cached: ``True`` when the result was replayed from the on-disk cache.
        queue_seconds: Wall-clock seconds between the engine submitting the
            batch and this trial starting to compute (dispatch, pickling,
            time spent queued behind other trials).  ``duration`` measures
            compute only, so the two together split a trial's latency into
            queue-wait vs compute.  Cache replays restore the originally
            persisted value.  Pure observability -- never part of the
            result's identity.
    """

    config: Mapping[str, object]
    seed: int
    metrics: dict[str, float] = field(default_factory=dict)
    error: str | None = None
    index: int = 0
    duration: float = 0.0
    cached: bool = False
    queue_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return self.error is None


def format_failures(failures: Sequence[TrialResult], limit: int = 3) -> str:
    """Human-readable summary of failed trials (first *limit* tracebacks)."""
    lines = [f"{len(failures)} trial(s) failed:"]
    for result in failures[:limit]:
        lines.append(f"- config={dict(result.config)!r} seed={result.seed}")
        if result.error:
            lines.append(result.error.rstrip())
    if len(failures) > limit:
        lines.append(f"... and {len(failures) - limit} more")
    return "\n".join(lines)


def trial_groups(
    results: Iterable[TrialResult],
    key: Callable[[TrialResult], object],
    skip_failures: bool = False,
) -> dict[object, list[TrialResult]]:
    """Group trial results by *key*, preserving first-seen order.

    Raises :class:`TrialFailure` when any result carries an error (unless
    ``skip_failures`` is set, which drops failed trials from every group), so
    a crash inside a worker process cannot silently skew an aggregate.
    """
    results = list(results)
    failures = [result for result in results if result.error is not None]
    if failures and not skip_failures:
        raise TrialFailure(format_failures(failures))
    grouped: dict[object, list[TrialResult]] = {}
    for result in results:
        if result.error is not None:
            continue
        grouped.setdefault(key(result), []).append(result)
    return grouped
