"""Tests for repro.experiments helpers (scale, report, table2, fig5 logic)."""

import numpy as np
import pytest

from repro.experiments.report import format_float, format_table
from repro.experiments.scale import DEFAULT, PAPER, SMOKE, current_scale
from repro.experiments.table2 import (
    NullUsbDevice,
    OverheadStats,
    build_configurations,
    format_results,
    run_table2,
)


class TestScale:
    def test_default_selected_without_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        assert current_scale() is DEFAULT

    def test_env_selects_preset(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "smoke")
        assert current_scale() is SMOKE
        monkeypatch.setenv("REPRO_SCALE", "paper")
        assert current_scale() is PAPER

    def test_unknown_preset_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "gigantic")
        with pytest.raises(KeyError):
            current_scale()

    def test_paper_matches_paper_numbers(self):
        assert PAPER.training_runs == 600
        assert PAPER.repetitions == 20
        assert 2 in PAPER.periods_ms and 256 in PAPER.periods_ms

    def test_paper_run_counts_as_documented(self):
        """The run counts scale.py and EXPERIMENTS.md state for the preset."""
        import repro.experiments.scale as scale

        for errors in (PAPER.errors_a_mm, PAPER.errors_b_dac):
            runs = len(errors) * len(PAPER.periods_ms) * PAPER.repetitions
            assert runs + PAPER.fault_free_runs == 1345
        assert "6 x 8 x 20 + 385 = 1 345 runs" in scale.__doc__

    def test_scales_ordered_by_size(self):
        assert SMOKE.training_runs < DEFAULT.training_runs < PAPER.training_runs


class TestReport:
    def test_format_table_alignment(self):
        out = format_table(["a", "bb"], [["x", 1], ["yy", 22]])
        lines = out.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")
        assert "--" in lines[1]

    def test_format_float(self):
        assert format_float(1.23456, 2) == "1.23"


class TestTable2:
    def test_null_device(self):
        device = NullUsbDevice()
        assert device.fd_write(b"abc") == 3
        assert device.fd_read(4) == b"\x00" * 4

    def test_overhead_stats_from_samples(self):
        stats = OverheadStats.from_samples("x", np.array([1e-6, 3e-6]))
        assert stats.min_us == pytest.approx(1.0)
        assert stats.max_us == pytest.approx(3.0)
        assert stats.mean_us == pytest.approx(2.0)

    def test_configurations_present(self):
        configs = build_configurations()
        assert set(configs) == {"baseline", "logging", "injection"}

    def test_run_table2_shape(self):
        rows = run_table2(samples=2000)
        names = [r.name for r in rows]
        assert names == ["baseline", "logging", "injection"]
        base = rows[0]
        # Wrappers add work; allow slack for scheduler noise on busy hosts.
        assert rows[1].mean_us >= 0.9 * base.mean_us
        assert rows[2].mean_us >= 0.9 * base.mean_us

    def test_format_results_includes_overheads(self):
        rows = run_table2(samples=200)
        text = format_results(rows)
        assert "logging overhead" in text
        assert "injection overhead" in text
