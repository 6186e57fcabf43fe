"""Tests for the parallel execution engine and the sharded campaign cache.

Covers the engine's three contracts:

- **determinism** — serial and parallel execution produce bit-identical
  outcome lists, in the same order;
- **atomicity** — cache writes go through temp file + ``os.replace``, so
  interrupts can't leave corrupt JSON behind;
- **resumability** — an interrupted campaign leaves valid per-cell shards
  and the next call runs only what's missing.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.attacks.campaign import CampaignRunner
from repro.errors import TaskExecutionError
from repro.experiments import parallel as engine
from repro.experiments.campaigns import (
    campaign_cache_path,
    get_campaign,
)
from repro.experiments.scale import Scale
from repro.sim.runner import train_thresholds
from repro.testing import ChaosInjector, FaultPlan, FaultSpec
from repro.testing.faults import ALWAYS

TINY = Scale(
    name="tiny-parallel",
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


def _square(x):
    return x * x


class TestEngineBasics:
    def test_resolve_jobs_explicit_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "7")
        assert engine.resolve_jobs(3) == 3

    def test_resolve_jobs_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "5")
        assert engine.resolve_jobs() == 5

    def test_resolve_jobs_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert engine.resolve_jobs() == engine.default_jobs() >= 1

    def test_resolve_jobs_rejects_garbage(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "many")
        with pytest.raises(ValueError):
            engine.resolve_jobs()

    def test_resolve_jobs_floors_at_one(self):
        assert engine.resolve_jobs(0) == 1
        assert engine.resolve_jobs(-4) == 1

    def test_run_tasks_serial_order(self):
        assert engine.run_tasks(_square, [3, 1, 2], jobs=1) == [9, 1, 4]

    def test_run_tasks_parallel_matches_serial(self):
        tasks = list(range(10))
        assert engine.run_tasks(_square, tasks, jobs=2) == engine.run_tasks(
            _square, tasks, jobs=1
        )

    def test_chunked_partitions_in_order(self):
        assert engine.chunked([1, 2, 3, 4, 5], 2) == [[1, 2, 3], [4, 5]]
        assert engine.chunked([1, 2], 8) == [[1], [2]]
        assert engine.chunked([], 4) == []


class TestAtomicWrites:
    def test_write_and_replace(self, tmp_path):
        path = tmp_path / "deep" / "cache.json"
        engine.atomic_write_json(path, {"v": 1})
        engine.atomic_write_json(path, {"v": 2})
        assert json.loads(path.read_text()) == {"v": 2}

    def test_no_temp_files_left_behind(self, tmp_path):
        path = tmp_path / "cache.json"
        engine.atomic_write_json(path, {"v": 1})
        assert [p.name for p in tmp_path.iterdir()] == ["cache.json"]

    def test_failed_write_keeps_old_content(self, tmp_path):
        path = tmp_path / "cache.json"
        engine.atomic_write_json(path, {"v": 1})
        with pytest.raises(TypeError):
            engine.atomic_write_json(path, {"v": object()})
        assert json.loads(path.read_text()) == {"v": 1}
        assert [p.name for p in tmp_path.iterdir()] == ["cache.json"]


class TestVersionedPayloads:
    CONFIG = {"runs": 3, "duration": 1.5}

    def test_roundtrip(self, tmp_path):
        path = tmp_path / "p.json"
        engine.atomic_write_json(
            path, engine.versioned_payload(self.CONFIG, {"data": [1, 2]})
        )
        payload = engine.load_versioned_json(path, self.CONFIG)
        assert payload is not None and payload["data"] == [1, 2]

    def test_missing_file(self, tmp_path):
        assert engine.load_versioned_json(tmp_path / "nope.json", self.CONFIG) is None

    def test_corrupt_file(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text('{"schema": ')  # a torn, non-atomic write
        assert engine.load_versioned_json(path, self.CONFIG) is None

    def test_schema_mismatch(self, tmp_path):
        path = tmp_path / "p.json"
        payload = engine.versioned_payload(self.CONFIG, {"data": 1})
        payload["schema"] = engine.SCHEMA_VERSION + 1
        path.write_text(json.dumps(payload))
        assert engine.load_versioned_json(path, self.CONFIG) is None

    def test_config_mismatch(self, tmp_path):
        path = tmp_path / "p.json"
        engine.atomic_write_json(
            path, engine.versioned_payload(self.CONFIG, {"data": 1})
        )
        assert engine.load_versioned_json(path, {"runs": 4}) is None

    def test_fingerprint_stable_under_key_order(self):
        a = engine.config_fingerprint({"x": 1, "y": [2, 3]})
        b = engine.config_fingerprint({"y": [2, 3], "x": 1})
        assert a == b
        assert a != engine.config_fingerprint({"x": 1, "y": [2, 4]})


@pytest.mark.campaign
class TestSerialParallelEquivalence:
    """``jobs=1`` (the engine's in-process loop) against a worker pool."""

    GRID = dict(scenario="B", error_values=[26000], periods_ms=[16])

    @pytest.mark.parametrize(
        "duration_s, repetitions, fault_free_runs",
        [(0.7, 1, 1), (0.9, 2, 2)],
        ids=["1rep", "2reps"],
    )
    def test_small_grid_bit_identical(
        self, loose_thresholds, duration_s, repetitions, fault_free_runs
    ):
        def run(jobs):
            return CampaignRunner(
                loose_thresholds, duration_s=duration_s, jobs=jobs
            ).run_campaign(
                **self.GRID, repetitions=repetitions, fault_free_runs=fault_free_runs
            )

        serial = run(1)
        assert len(serial.outcomes) == repetitions + fault_free_runs
        assert serial.outcomes == run(2).outcomes

    @pytest.mark.slow
    def test_full_grid_bit_identical(self, loose_thresholds):
        grid = dict(
            scenario="B",
            error_values=[9000, 26000],
            periods_ms=[16, 64],
            repetitions=2,
            fault_free_runs=4,
        )
        serial = CampaignRunner(
            loose_thresholds, duration_s=0.8, jobs=1
        ).run_campaign(**grid)
        parallel = CampaignRunner(
            loose_thresholds, duration_s=0.8, jobs=4
        ).run_campaign(**grid)
        assert serial.outcomes == parallel.outcomes

    def test_threshold_training_bit_identical(self):
        serial = train_thresholds(num_runs=2, duration_s=0.7, jobs=1)
        parallel = train_thresholds(num_runs=2, duration_s=0.7, jobs=2)
        for group in ("motor_velocity", "motor_acceleration", "joint_velocity"):
            assert np.array_equal(getattr(serial, group), getattr(parallel, group))

    def test_threshold_training_honours_its_injector_at_one_job(self):
        injector = ChaosInjector(
            FaultPlan([FaultSpec(kind="raise", index=1, times=ALWAYS)])
        )
        progress = []
        with pytest.raises(TaskExecutionError):
            train_thresholds(
                num_runs=2, duration_s=0.7, jobs=1,
                progress=progress.append, injector=injector,
            )
        assert progress == ["threshold training: 1/2 done (serial)"]


@pytest.mark.campaign
class TestShardedCampaignCache:
    def _get(self, tmp_path, **kwargs):
        return get_campaign("B", TINY, cache_dir=tmp_path, jobs=1, **kwargs)

    def test_shards_written(self, tmp_path):
        result = self._get(tmp_path)
        shard_dir = campaign_cache_path("B", TINY, tmp_path)
        names = sorted(p.name for p in shard_dir.iterdir())
        assert names == [
            "cell_0000.json",
            "cell_0001.json",
            "fault_free.json",
            "meta.json",
        ]
        # 2 cells x 1 repetition + 1 fault-free run.
        assert len(result.outcomes) == 3

    def test_cache_hit_runs_nothing(self, tmp_path, monkeypatch):
        first = self._get(tmp_path)

        def boom(*args, **kwargs):
            raise AssertionError("cache hit must not execute runs")

        monkeypatch.setattr(CampaignRunner, "run_cell_once", boom)
        monkeypatch.setattr(CampaignRunner, "run_fault_free_once", boom)
        monkeypatch.setattr(CampaignRunner, "compute_reference_tip", boom)
        again = self._get(tmp_path)
        assert again.outcomes == first.outcomes

    def test_resume_runs_only_missing_cells(self, tmp_path, monkeypatch):
        first = self._get(tmp_path)
        shard_dir = campaign_cache_path("B", TINY, tmp_path)
        # Simulate an interrupt that lost the second cell's shard.
        (shard_dir / "cell_0001.json").unlink()

        calls = []
        original = CampaignRunner.run_cell_once

        def counting(self, cell, seed):
            calls.append((cell.error_value, cell.period_ms, seed))
            return original(self, cell, seed)

        monkeypatch.setattr(CampaignRunner, "run_cell_once", counting)
        resumed = self._get(tmp_path)
        assert resumed.outcomes == first.outcomes
        assert calls == [(26000, 64, 0)]  # only the lost cell re-ran

    def test_meta_mismatch_invalidates_all_shards(self, tmp_path, monkeypatch):
        self._get(tmp_path)
        shard_dir = campaign_cache_path("B", TINY, tmp_path)
        meta = json.loads((shard_dir / "meta.json").read_text())
        meta["schema"] = -1
        (shard_dir / "meta.json").write_text(json.dumps(meta))

        calls = []
        original = CampaignRunner.run_cell_once

        def counting(self, cell, seed):
            calls.append(cell.period_ms)
            return original(self, cell, seed)

        monkeypatch.setattr(CampaignRunner, "run_cell_once", counting)
        self._get(tmp_path)
        assert sorted(calls) == [16, 64]  # every cell re-ran

    def test_force_rerun_discards_shards(self, tmp_path, monkeypatch):
        first = self._get(tmp_path)

        calls = []
        original = CampaignRunner.run_cell_once

        def counting(self, cell, seed):
            calls.append(cell.period_ms)
            return original(self, cell, seed)

        monkeypatch.setattr(CampaignRunner, "run_cell_once", counting)
        rerun = self._get(tmp_path, force_rerun=True)
        assert sorted(calls) == [16, 64]
        assert rerun.outcomes == first.outcomes

    def test_corrupt_shard_recovers(self, tmp_path):
        first = self._get(tmp_path)
        shard_dir = campaign_cache_path("B", TINY, tmp_path)
        (shard_dir / "cell_0000.json").write_text('{"outcomes": [')
        recovered = self._get(tmp_path)
        assert recovered.outcomes == first.outcomes
