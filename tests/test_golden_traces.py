"""Golden-trace differential regression suite.

Small canonical simulation traces (fault-free + scenario A/B) and a tiny
campaign are pinned as byte-exact fingerprints under ``tests/golden/``.
The suite asserts three invariants at once:

- **code drift** — today's Euler simulator reproduces the recorded bytes
  (and, because the goldens are committed, Euler matches itself across
  platforms and checkouts);
- **serial vs parallel** — the process-pool engine produces the same
  bytes as the in-process loop;
- **fresh vs resumed** — a campaign interrupted by an injected fault and
  resumed from its shards produces the same bytes as an undisturbed run.

Re-record with ``pytest --update-golden`` and commit the diff — a golden
change *is* a results change and should be reviewed as one.
"""

from __future__ import annotations

import pytest

from repro.attacks.campaign import CampaignRunner, ParallelCampaignRunner
from repro.errors import TaskExecutionError
from repro.experiments.campaigns import get_campaign
from repro.experiments.scale import Scale
from repro.sim.runner import run_fault_free, run_scenario_a, run_scenario_b
from repro.testing import ChaosInjector, FaultPlan, FaultSpec, campaign_fingerprint
from repro.testing.faults import ALWAYS

pytestmark = pytest.mark.golden

TINY = Scale(
    name="tiny-golden",
    training_runs=1,
    training_duration_s=0.7,
    errors_a_mm=(0.1,),
    errors_b_dac=(26000,),
    periods_ms=(16, 64),
    repetitions=1,
    fault_free_runs=1,
    run_duration_s=0.7,
    validation_runs=1,
    validation_duration_s=0.7,
    syscall_samples=10,
    capture_runs=1,
    capture_duration_s=0.7,
)


class TestTraceGoldens:
    """Single-run traces: the simulator's bytes, pinned."""

    def test_fault_free_euler(self, golden):
        trace = run_fault_free(seed=3, duration_s=0.7)
        golden.check("trace_fault_free_euler", trace.fingerprint())

    def test_fault_free_replay_is_bit_identical(self):
        # The determinism the whole suite rests on: same seed, same bytes.
        a = run_fault_free(seed=3, duration_s=0.7).fingerprint()
        b = run_fault_free(seed=3, duration_s=0.7).fingerprint()
        assert a == b

    def test_telemetry_enabled_matches_the_same_golden(
        self, golden, monkeypatch, tmp_path
    ):
        # REPRO_OBS is observation-only by contract: with telemetry on,
        # the run must still reproduce the pinned disabled-mode bytes.
        from repro.obs.runtime import reset_runtime

        monkeypatch.setenv("REPRO_OBS", "1")
        monkeypatch.setenv("REPRO_OBS_DIR", str(tmp_path))
        reset_runtime()
        try:
            trace = run_fault_free(seed=3, duration_s=0.7)
        finally:
            reset_runtime()
        golden.check("trace_fault_free_euler", trace.fingerprint())

    def test_scenario_a(self, golden):
        result = run_scenario_a(
            seed=5, error_mm=0.5, period_ms=16, duration_s=0.7,
            raven_safety_enabled=False,
        )
        golden.check("trace_scenario_a", result.trace.fingerprint())

    def test_scenario_b(self, golden):
        result = run_scenario_b(
            seed=5, error_dac=26000, period_ms=16, duration_s=0.7,
            raven_safety_enabled=False,
        )
        golden.check("trace_scenario_b", result.trace.fingerprint())


@pytest.mark.campaign
class TestCampaignGoldens:
    """Campaign outcomes: serial, parallel, and resumed must all match
    the same recorded fingerprint."""

    GRID = dict(scenario="B", error_values=[26000], periods_ms=[16, 64])

    def test_serial_campaign(self, golden, loose_thresholds):
        result = CampaignRunner(loose_thresholds, duration_s=0.7).run_campaign(
            **self.GRID, repetitions=1, fault_free_runs=1
        )
        golden.check("campaign_b_serial", campaign_fingerprint(result))

    def test_parallel_campaign_matches_serial_golden(
        self, golden, loose_thresholds
    ):
        result = ParallelCampaignRunner(
            loose_thresholds, duration_s=0.7, jobs=2
        ).run_campaign(**self.GRID, repetitions=1, fault_free_runs=1)
        golden.check("campaign_b_serial", campaign_fingerprint(result))

    def test_fresh_and_resumed_campaign_match_golden(self, golden, tmp_path):
        # Fresh, undisturbed run (trains thresholds, caches shards).
        fresh = get_campaign("B", TINY, cache_dir=tmp_path / "fresh", jobs=1)
        fingerprint = campaign_fingerprint(fresh)
        golden.check("campaign_b_cached", fingerprint)

        # Interrupted run: an unrecoverable injected fault kills it after
        # the first cell checkpoints ...
        injector = ChaosInjector(
            FaultPlan([FaultSpec(kind="raise", index=1, times=ALWAYS)])
        )
        interrupted_dir = tmp_path / "resumed"
        with pytest.raises(TaskExecutionError):
            get_campaign(
                "B", TINY, cache_dir=interrupted_dir, jobs=1,
                injector=injector,
            )
        # ... and the resume completes bit-identically to the golden.
        resumed = get_campaign("B", TINY, cache_dir=interrupted_dir, jobs=1)
        assert campaign_fingerprint(resumed) == fingerprint
        golden.check("campaign_b_cached", campaign_fingerprint(resumed))


# ---------------------------------------------------------------------------
# Fleet goldens: SIGKILL a fleet worker mid-campaign, resume from the
# session store, and the per-session fingerprints must equal the
# uninterrupted run's pinned bytes.
# ---------------------------------------------------------------------------

_FLEET_SESSIONS = 3
_FLEET_TICKS = 48
_FLEET_SEED = 11
_FLEET_KILL_TICK = 23


def _fleet_config():
    from repro.fleet import FleetConfig

    return FleetConfig(checkpoint_every=8)


def _fleet_worker(db_path: str) -> None:
    """Child-process half of the crash test: dies mid-campaign, hard.

    Module-level (not a closure) so it survives pickling under any
    multiprocessing start method.
    """
    import os
    import signal

    from repro.experiments.fleet import run_fleet_campaign
    from repro.fleet import SqliteSessionStore

    def kill_self(tick, report):
        if tick == _FLEET_KILL_TICK:
            os.kill(os.getpid(), signal.SIGKILL)

    run_fleet_campaign(
        num_sessions=_FLEET_SESSIONS,
        ticks=_FLEET_TICKS,
        seed=_FLEET_SEED,
        store=SqliteSessionStore(db_path),
        config=_fleet_config(),
        on_tick=kill_self,
    )


@pytest.mark.fleet
class TestFleetGoldens:
    """Fleet supervisor: uninterrupted, killed-and-resumed, both pinned."""

    def _run(self, **kwargs):
        from repro.experiments.fleet import run_fleet_campaign

        return run_fleet_campaign(
            num_sessions=_FLEET_SESSIONS,
            ticks=_FLEET_TICKS,
            seed=_FLEET_SEED,
            config=_fleet_config(),
            **kwargs,
        )

    def test_fleet_campaign_golden(self, golden):
        golden.check("fleet_campaign", self._run().fingerprints)

    def test_fleet_campaign_replay_is_bit_identical(self):
        assert self._run().fingerprints == self._run().fingerprints

    def test_sigkilled_worker_resumes_to_the_same_golden(self, golden, tmp_path):
        import multiprocessing

        from repro.fleet import SqliteSessionStore

        db_path = str(tmp_path / "fleet.sqlite")
        ctx = multiprocessing.get_context("spawn")
        worker = ctx.Process(target=_fleet_worker, args=(db_path,))
        worker.start()
        worker.join(timeout=120)
        assert worker.exitcode == -9, "worker should die by SIGKILL mid-campaign"

        # The replacement worker resumes every session from its newest
        # checkpoint, replays the lost frames, and finishes the campaign.
        resumed = self._run(store=SqliteSessionStore(db_path), resume=True)
        assert resumed.ticks_run < _FLEET_TICKS  # picked up mid-flight
        golden.check("fleet_campaign", resumed.fingerprints)
