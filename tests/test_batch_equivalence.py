"""Batched estimator lanes: per-lane bookkeeping the fleet pack relies on.

The fleet supervisor packs every session's estimator into one
:class:`BatchedNextStateEstimator` and quarantines a faulted session by
removing its lane mid-run.  These tests pin the bookkeeping that promise
rests on: removing a lane leaves every survivor's estimator bytes
untouched.  A lane's state is read through ``copy_lane_into`` and the
scalar ``snapshot``.

The per-lane equivalence of random sync/coast/estimate sequences is in
``tests/test_batch_properties.py``; the end-to-end check, the fleet pack
against inline guards fed the same frames, is in ``tests/test_fleet.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import BatchedNextStateEstimator, NextStateEstimator, RavenDynamicModel

pytestmark = pytest.mark.batch


def lane_snapshot(batch: BatchedNextStateEstimator, lane: int) -> dict:
    """One lane's state as the scalar estimator's ``snapshot()``."""
    estimator = NextStateEstimator()
    batch.copy_lane_into(lane, estimator)
    return estimator.snapshot()


class TestLaneRemoval:
    """Ejecting a lane must not shift the surviving lanes' state.

    After ``remove_lanes``, every surviving lane's estimator state bytes
    must be exactly what a never-batched-with-the-ejected-lane run
    produces.
    """

    def test_estimator_removal_preserves_survivor_bytes(self):
        def build(errors):
            return BatchedNextStateEstimator(
                [
                    RavenDynamicModel(integrator="euler", parameter_error=e)
                    for e in errors
                ]
            )

        full = build([1.0, 1.03, 1.05])
        mpos = np.array(
            [[0.001, 0.002, 0.003], [0.002, 0.001, 0.004], [0.003, 0.004, 0.001]]
        )
        dac = np.array([[150.0, -30.0, 12.0]] * 3)
        full.sync(mpos)
        full.sync(mpos + 0.0005)
        full.estimate(dac)
        full.coast(np.array([False, False, True]))  # stagger lane 2

        survivors = full.remove_lanes([0])
        assert survivors == [1, 2]

        control = build([1.03, 1.05])
        control.sync(mpos[1:])
        control.sync(mpos[1:] + 0.0005)
        control.estimate(dac[1:])
        control.coast(np.array([False, True]))

        assert full._jpos.tobytes() == control._jpos.tobytes()
        assert full._jvel.tobytes() == control._jvel.tobytes()
        assert list(full.coast_streak) == list(control.coast_streak)
        for lane in range(2):
            assert lane_snapshot(full, lane) == lane_snapshot(control, lane)
        # And the survivors keep producing identical estimates.
        nxt = np.array([[80.0, 40.0, -5.0]] * 2)
        mask = np.array([True, False])  # lane 1 kept coasting
        a = full.estimate(nxt, mask)
        b = control.estimate(nxt, mask)
        assert a.motor_velocity.tobytes() == b.motor_velocity.tobytes()
        assert a.jpos_next.tobytes() == b.jpos_next.tobytes()

    def test_removing_every_lane_is_rejected(self):
        estimator = BatchedNextStateEstimator(
            [RavenDynamicModel(integrator="euler") for _ in range(2)]
        )
        with pytest.raises(ValueError):
            estimator.remove_lanes([0, 1])
