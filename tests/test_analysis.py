"""Tests for the experiment harness: tables, seeding and (small) experiments."""

from __future__ import annotations

import pytest

from repro.analysis.experiments import (
    experiment_e3_tap_iterations,
    experiment_e6_decomposition,
    experiment_e7_cycle_space,
    experiment_e8_augmentation_invariants,
)
from repro.analysis.runner import derive_seed
from repro.analysis.tables import Table


class TestTable:
    def test_add_row_checks_arity(self):
        table = Table(title="t", columns=["a", "b"])
        table.add_row(1, 2)
        with pytest.raises(ValueError):
            table.add_row(1)

    def test_column_access(self):
        table = Table(title="t", columns=["a", "b"])
        table.add_row(1, "x")
        table.add_row(2, "y")
        assert table.column("a") == [1, 2]
        with pytest.raises(KeyError):
            table.column("missing")

    def test_text_rendering_contains_headers_rows_and_notes(self):
        table = Table(title="My table", columns=["n", "value"])
        table.add_row(10, 3.14159)
        table.add_note("a caption")
        text = table.to_text()
        assert "My table" in text
        assert "value" in text
        assert "3.142" in text
        assert "note: a caption" in text
        assert str(table) == text

    def test_markdown_rendering(self):
        table = Table(title="md", columns=["x"])
        table.add_row(1)
        table.add_note("hello")
        markdown = table.to_markdown()
        assert "| x |" in markdown
        assert "|---|" in markdown
        assert "*hello*" in markdown

    def test_concatenate(self):
        a = Table(title="first", columns=["x"])
        b = Table(title="second", columns=["y"])
        combined = Table.concatenate("all", [a, b])
        assert "first" in combined and "second" in combined


class TestRunner:
    def test_derive_seed_is_deterministic_and_sensitive(self):
        assert derive_seed("a", 1) == derive_seed("a", 1)
        assert derive_seed("a", 1) != derive_seed("a", 2)


class TestSmallExperiments:
    def test_e3_iteration_counts_are_positive(self):
        table = experiment_e3_tap_iterations(sizes=(12,), trials=1)
        assert len(table.rows) == 1
        assert table.column("max iterations")[0] >= 1

    def test_e6_decomposition_ratios_are_order_one(self):
        table = experiment_e6_decomposition(sizes=(36,), trials=1)
        ratio = table.column("segments/sqrt n")[0]
        assert 0 < ratio < 10

    def test_e7_cycle_space_has_no_missed_pairs(self):
        table = experiment_e7_cycle_space(n=14, bits_values=(2, 8), trials=2)
        assert all(missed == 0 for missed in table.column("missed"))
        false_positive = table.column("mean false positives")
        assert false_positive[-1] <= false_positive[0] + 1e-9

    def test_e8_respects_claim_4_1(self):
        table = experiment_e8_augmentation_invariants(n=10, k=2, trials=1)
        for added, bound in zip(table.column("edges added"), table.column("n-1")):
            assert added <= bound
