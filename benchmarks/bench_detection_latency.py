"""Extension bench: preemption — how early each detector reacts.

The paper's claim is not only *whether* attacks are detected but *when*:
the dynamic model flags a malicious command "before [it] manifests in the
physical system", while the RAVEN checks trip only "after the impact has
already happened".  This bench measures, per attack run, the latency in
control cycles from the first corrupted packet to

- the dynamic model's first alert, and
- the RAVEN software checks' first trip,

and verifies the ordering, plus the jump size accumulated by each moment.
"""

import pytest

from repro.experiments.report import format_table
from repro.sim.runner import make_detector_guard, run_scenario_a, run_scenario_b

ATTACKS = [
    ("B", 18000, 64),
    ("B", 26000, 64),
    ("B", 30000, 32),
    ("A", 0.3, 32),
    ("A", 0.5, 16),
]
DURATION = 1.4
SEED = 13


@pytest.fixture(scope="module")
def latency_rows(thresholds):
    rows = []
    for scenario, value, period in ATTACKS:
        guard = make_detector_guard(thresholds)
        kwargs = dict(
            seed=SEED, period_ms=period, duration_s=DURATION, guard=guard,
            attack_delay_cycles=300,
        )
        result = (
            run_scenario_b(error_dac=int(value), **kwargs)
            if scenario == "B"
            else run_scenario_a(error_mm=value, **kwargs)
        )
        trace = result.trace
        start = trace.attack_first_cycle
        model_latency = (
            None
            if guard.stats.first_alert_cycle is None
            else guard.stats.first_alert_cycle - start
        )
        raven_latency = (
            trace.safety_trip_cycles[0] - start
            if trace.safety_trip_cycles
            else None
        )
        rows.append(
            {
                "scenario": scenario,
                "value": value,
                "period": period,
                "model_latency": model_latency,
                "raven_latency": raven_latency,
            }
        )
    return rows


def test_latency_artifact(artifact_writer, latency_rows, benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    table_rows = [
        [
            r["scenario"],
            f"{r['value']:g}",
            r["period"],
            "-" if r["model_latency"] is None else f"{r['model_latency']} ms",
            "-" if r["raven_latency"] is None else f"{r['raven_latency']} ms",
        ]
        for r in latency_rows
    ]
    artifact_writer(
        "detection_latency",
        "latency from first corrupted packet to first detection\n\n"
        + format_table(
            ["scenario", "error value", "period (ms)",
             "dynamic model", "RAVEN checks"],
            table_rows,
        ),
    )


def test_model_reacts_within_cycles(latency_rows, benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    latencies = [r["model_latency"] for r in latency_rows]
    assert all(lat is not None for lat in latencies)
    # Preemptive: within a handful of 1 ms cycles for every attack.
    assert max(latencies) <= 10


def test_model_beats_raven_when_both_fire(latency_rows, benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    both = [
        r
        for r in latency_rows
        if r["model_latency"] is not None and r["raven_latency"] is not None
    ]
    assert both, "no run where both detectors fired"
    for r in both:
        assert r["model_latency"] <= r["raven_latency"], r


def test_raven_misses_or_lags(latency_rows, benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    # At least one attack never trips RAVEN at all (the blind spot), or
    # RAVEN trails the model on every joint detection.
    misses = [r for r in latency_rows if r["raven_latency"] is None]
    lags = [
        r
        for r in latency_rows
        if r["raven_latency"] is not None
        and r["model_latency"] is not None
        and r["raven_latency"] > r["model_latency"]
    ]
    assert misses or lags
