"""Round and message accounting.

Two kinds of accounting coexist in this reproduction:

* :class:`RoundReport` -- the result of actually running a node program on the
  :class:`~repro.congest.network.CongestNetwork` simulator (``kind ==
  "simulated"``).
* :class:`RoundLedger` -- a composite account for a full algorithm, mixing
  simulated sub-runs with *modelled* charges taken from the paper's own cost
  statements (Lemma 3.3: O(D + sqrt(n)) per TAP iteration, Lemma 4.4, §5.3)
  evaluated on the measured quantities (diameter, segment diameters, added
  edges) of the instance at hand.

The experiments report both totals and the simulated/modelled split so the
reader can see exactly which rounds were executed and which were charged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Literal

__all__ = ["RoundReport", "LedgerEntry", "RoundLedger"]

Kind = Literal["simulated", "modelled"]


@dataclass(frozen=True)
class RoundReport:
    """Result of one simulated CONGEST run."""

    label: str
    rounds: int
    messages: int
    max_congestion: int

    def as_entry(self) -> "LedgerEntry":
        """Convert the report into a ledger entry (kind ``simulated``)."""
        return LedgerEntry(label=self.label, rounds=self.rounds, kind="simulated",
                           messages=self.messages)


@dataclass(frozen=True)
class LedgerEntry:
    """One contribution to the total round count of an algorithm."""

    label: str
    rounds: int
    kind: Kind
    messages: int = 0
    note: str = ""


@dataclass
class RoundLedger:
    """Accumulates the round cost of a full algorithm run.

    The ledger is additive: the paper's algorithms are sequential compositions
    of phases (build a BFS tree, build an MST, run O(log^2 n) iterations of
    O(D + sqrt n) rounds each, ...), so the total round complexity is the sum
    of the per-phase charges.
    """

    entries: list[LedgerEntry] = field(default_factory=list)

    def add(self, label: str, rounds: int, kind: Kind = "modelled",
            messages: int = 0, note: str = "") -> LedgerEntry:
        """Append a charge of *rounds* rounds and return the entry."""
        if rounds < 0:
            raise ValueError("round charges must be non-negative")
        entry = LedgerEntry(label=label, rounds=rounds, kind=kind, messages=messages, note=note)
        self.entries.append(entry)
        return entry

    def add_report(self, report: RoundReport) -> LedgerEntry:
        """Append a simulated :class:`RoundReport`."""
        entry = report.as_entry()
        self.entries.append(entry)
        return entry

    def extend(self, other: "RoundLedger") -> None:
        """Append every entry of *other* (used when composing Aug_i ledgers)."""
        self.entries.extend(other.entries)

    # ------------------------------------------------------------- summaries
    @property
    def total_rounds(self) -> int:
        """Total rounds across all entries."""
        return sum(entry.rounds for entry in self.entries)

    @property
    def simulated_rounds(self) -> int:
        """Rounds that were actually executed on the simulator."""
        return sum(entry.rounds for entry in self.entries if entry.kind == "simulated")

    @property
    def modelled_rounds(self) -> int:
        """Rounds charged analytically from the paper's cost statements."""
        return sum(entry.rounds for entry in self.entries if entry.kind == "modelled")

    @property
    def total_messages(self) -> int:
        """Total messages across simulated entries."""
        return sum(entry.messages for entry in self.entries)

    def by_label(self) -> dict[str, int]:
        """Return rounds aggregated per entry label."""
        totals: dict[str, int] = {}
        for entry in self.entries:
            totals[entry.label] = totals.get(entry.label, 0) + entry.rounds
        return totals

    def count(self, label: str) -> int:
        """Return how many entries carry *label* (e.g. number of iterations)."""
        return sum(1 for entry in self.entries if entry.label == label)

    def __iter__(self) -> Iterator[LedgerEntry]:
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def summary(self) -> str:
        """Human-readable multi-line summary used by the CLI and examples."""
        lines = [
            f"total rounds     : {self.total_rounds}",
            f"  simulated      : {self.simulated_rounds}",
            f"  modelled       : {self.modelled_rounds}",
            f"total messages   : {self.total_messages}",
            "per-phase rounds :",
        ]
        for label, rounds in sorted(self.by_label().items(), key=lambda kv: -kv[1]):
            lines.append(f"  {label:<28s} {rounds}")
        return "\n".join(lines)

    @staticmethod
    def merge(ledgers: Iterable["RoundLedger"]) -> "RoundLedger":
        """Concatenate several ledgers into a new one."""
        merged = RoundLedger()
        for ledger in ledgers:
            merged.extend(ledger)
        return merged
