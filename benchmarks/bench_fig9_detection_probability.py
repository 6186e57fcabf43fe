"""Figure 9: detection probability vs injected error value and period.

Regenerates the per-cell probability surfaces from the campaign runs:
P(adverse impact), P(detect | dynamic model), P(detect | RAVEN), and their
marginals over the injected error value and the activation period.

Shapes under test (paper, Section IV.C):
- all probabilities grow with the injected error value and the period;
- the dynamic model's detection probability dominates RAVEN's;
- there are injections that cause adverse impact without RAVEN noticing
  (the attacker's window), but almost none that evade the dynamic model;
- small short injections (PID-corrected) cause no impact at all.
"""

import pytest

from repro.experiments.campaigns import get_both_campaigns
from repro.experiments.fig9 import _marginal, format_results, run_fig9, shape_checks


@pytest.fixture(scope="module")
def campaigns(scale):
    return get_both_campaigns(scale)


def test_fig9_artifact(artifact_writer, campaigns, benchmark):
    tables = benchmark(run_fig9, campaigns)
    artifact_writer("fig9_detection_probability", format_results(tables))


def test_fig9_shapes(campaigns, benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    tables = run_fig9(campaigns)
    checks = shape_checks(tables)
    failed = [name for name, ok in checks.items() if not ok]
    assert not failed, f"shape checks failed: {failed}"


def test_attackers_window_exists(campaigns, benchmark):
    """Some injections corrupt the physical state without RAVEN noticing
    — 'the attacker has a chance of causing an adverse impact ... with
    values that will not be detected by the robot'."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    tables = run_fig9(campaigns)
    evading = [
        cell
        for cells in tables.values()
        for cell, stats in cells.items()
        if stats["p_impact"] > 0.5 and stats["p_raven"] < 0.5
    ]
    assert evading, "no impact-without-RAVEN-detection cells found"


def test_model_covers_the_window(campaigns, benchmark):
    """The dynamic model detects (almost) every impactful cell."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    tables = run_fig9(campaigns)
    uncovered = [
        cell
        for cells in tables.values()
        for cell, stats in cells.items()
        if stats["p_impact"] > 0.5 and stats["p_model"] < 0.5
    ]
    total_impactful = sum(
        1
        for cells in tables.values()
        for stats in cells.values()
        if stats["p_impact"] > 0.5
    )
    # Allow a small slow-hijack tail (the paper's detector misses some
    # scenario-A cases too: TPR 89.8%, not 100%).
    assert len(uncovered) <= max(1, int(0.25 * total_impactful)), uncovered


def test_small_short_injections_harmless(campaigns, benchmark):
    """PID corrects short, small torque errors (paper: <64 ms bursts)."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    tables = run_fig9(campaigns)
    cells_b = tables["B"]
    smallest = min(cell.error_value for cell in cells_b)
    shortest = min(cell.period_ms for cell in cells_b)
    for cell, stats in cells_b.items():
        if cell.error_value == smallest and cell.period_ms == shortest:
            assert stats["p_impact"] == 0.0


def test_period_marginal_monotone_impact(campaigns, benchmark):
    """P(impact) should not *decrease* with longer activation (B)."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    tables = run_fig9(campaigns)
    rows = _marginal(tables["B"], "period_ms")
    impacts = [r[1] for r in rows]
    assert impacts[-1] >= impacts[0]
    # And the longest period has strictly more impact than the shortest.
    assert impacts[-1] > 0.0
