"""Tests for repro.core.baseline and repro.attacks.campaign plumbing."""

import pytest

from repro.attacks.campaign import (
    CampaignCell,
    CampaignResult,
    RunOutcome,
    table4_rows,
)
from repro.core.baseline import RavenBaselineDetector
from repro.sim.trace import RunTrace


def outcome(cell, label, model, raven, seed=0):
    return RunOutcome(
        cell=cell,
        seed=seed,
        label=label,
        raven_detected=raven,
        model_detected=model,
        deviation_mm=2.0 if label else 0.1,
        attack_fired=cell is not None,
    )


class TestRavenBaselineDetector:
    def test_dac_trip_counts_as_detection(self):
        trace = RunTrace()
        trace.safety_trip_cycles.append(100)
        assert RavenBaselineDetector().detected(trace)

    def test_watchdog_estop_counts(self):
        trace = RunTrace()
        trace.estop_events.append((0.5, "PLC: watchdog signal lost"))
        assert RavenBaselineDetector().detected(trace)

    def test_ik_failure_counts(self):
        trace = RunTrace()
        trace.estop_events.append((0.5, "IK failure"))
        assert RavenBaselineDetector().detected(trace)

    def test_detector_estop_does_not_count(self):
        trace = RunTrace()
        trace.estop_events.append((0.5, "dynamic-model detector alert"))
        assert not RavenBaselineDetector().detected(trace)

    def test_clean_trace_not_detected(self):
        assert not RavenBaselineDetector().detected(RunTrace())

    def test_first_detection_cycle(self):
        trace = RunTrace()
        trace.safety_trip_cycles.extend([42, 50])
        assert RavenBaselineDetector().first_detection_cycle(trace) == 42
        assert RavenBaselineDetector().first_detection_cycle(RunTrace()) == -1


class TestCampaignCell:
    def test_invalid_scenario_rejected(self):
        with pytest.raises(ValueError):
            CampaignCell(scenario="C", error_value=1.0, period_ms=8)

    def test_invalid_period_rejected(self):
        with pytest.raises(ValueError):
            CampaignCell(scenario="A", error_value=1.0, period_ms=0)


class TestCampaignResult:
    def make_result(self):
        cell_hit = CampaignCell("B", 20000, 64)
        cell_miss = CampaignCell("B", 2000, 8)
        result = CampaignResult(scenario="B")
        result.outcomes = [
            outcome(cell_hit, label=True, model=True, raven=True),
            outcome(cell_hit, label=True, model=True, raven=False),
            outcome(cell_miss, label=False, model=True, raven=False),
            outcome(cell_miss, label=False, model=False, raven=False),
            outcome(None, label=False, model=False, raven=False),
        ]
        return result, cell_hit, cell_miss

    def test_confusion_model(self):
        result, *_ = self.make_result()
        m = result.confusion("model")
        assert (m.tp, m.fn, m.fp, m.tn) == (2, 0, 1, 2)

    def test_confusion_raven(self):
        result, *_ = self.make_result()
        m = result.confusion("raven")
        assert (m.tp, m.fn, m.fp, m.tn) == (1, 1, 0, 3)

    def test_confusion_invalid_detector(self):
        result, *_ = self.make_result()
        with pytest.raises(ValueError):
            result.confusion("snort")

    def test_cell_probabilities_exclude_fault_free(self):
        result, cell_hit, cell_miss = self.make_result()
        table = result.cell_probabilities()
        assert set(table) == {cell_hit, cell_miss}
        assert table[cell_hit]["p_impact"] == 1.0
        assert table[cell_hit]["p_raven"] == 0.5
        assert table[cell_miss]["p_model"] == 0.5

    def test_table4_rows_layout(self):
        result, *_ = self.make_result()
        rows = table4_rows([result])
        assert [(s, t) for s, t, _m in rows] == [
            ("B", "Dynamic Model"),
            ("B", "RAVEN"),
        ]

    def test_fault_free_outcomes_flagged(self):
        result, *_ = self.make_result()
        assert result.outcomes[-1].is_fault_free
        assert not result.outcomes[0].is_fault_free

