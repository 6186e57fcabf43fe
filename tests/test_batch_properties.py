"""Property-based tests: the batched twins equal the scalar loop.

Every function in :mod:`repro.dynamics.batch`, the batched dynamic
model, estimator and detector promise *exact* float64 equality with
running their scalar counterparts lane by lane — not ``allclose``, bit
equality.  Hypothesis drives heterogeneous per-lane parameters and
states through both paths and compares the raw results.  These tests
are the twins' contract: nothing else keeps the two surfaces in step.

Also pinned: lane order is irrelevant — permuting the lanes of a batch
permutes the outputs and nothing else.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    AnomalyDetector,
    BatchedAnomalyDetector,
    BatchedDynamicModel,
    BatchedNextStateEstimator,
    BatchedStateEstimate,
    FusionRule,
    NextStateEstimator,
    SafetyThresholds,
    StateEstimate,
)
from repro.core.dynamic_model import RavenDynamicModel
from repro.core.thresholds import VARIABLE_GROUPS
from repro.dynamics.batch import (
    BatchedManipulatorDynamics,
    batched_dac_to_current,
    batched_friction_torque,
    stack_friction,
)
from repro.dynamics.friction import FrictionModel
from repro.dynamics.integrators import INTEGRATORS
from repro.dynamics.manipulator import ManipulatorDynamics, ManipulatorParameters
from repro.dynamics.plant import dac_to_current
from repro.errors import DetectorError, IntegrationError
from repro.experiments.batch import (
    CommandStream,
    ReplayLaneConfig,
    replay_detector_batched,
    replay_detector_scalar,
)

pytestmark = pytest.mark.batch

# Joint states within the RAVEN workspace (same ranges the scalar
# property tests use), plus tiny/zero velocities to cross the Coriolis
# still-arm branch.
joint_vectors = st.tuples(
    st.floats(-1.0, 1.0),
    st.floats(0.5, 2.6),
    st.floats(0.07, 0.28),
).map(np.array)

velocities = st.tuples(
    st.floats(-1.0, 1.0), st.floats(-1.0, 1.0), st.floats(-0.1, 0.1)
).map(np.array)

slow_velocities = st.tuples(
    st.floats(-1e-9, 1e-9), st.floats(-1e-9, 1e-9), st.floats(-1e-9, 1e-9)
).map(np.array)

torques = st.tuples(
    st.floats(-5.0, 5.0), st.floats(-5.0, 5.0), st.floats(-5.0, 5.0)
).map(np.array)

#: Per-lane parameter scale: lanes are heterogeneous on purpose.
param_scales = st.floats(0.7, 1.4)


#: Velocities whose norm stays at or below the Coriolis epsilon (1e-12),
#: so the still-arm branch is the one taken.
still_velocities = st.tuples(
    st.floats(-5e-13, 5e-13), st.floats(-5e-13, 5e-13), st.floats(-5e-13, 5e-13)
).map(np.array)


def _rotor_terms():
    """The reflected rotor inertia and damping every model and plant call
    passes as ``extra_inertia`` / ``extra_damping``."""
    model = RavenDynamicModel()
    transmission = model.transmission
    return (
        transmission.reflected_inertia([m.rotor_inertia for m in model.motors]),
        transmission.reflected_damping([m.viscous_damping for m in model.motors]),
    )


ROTOR_INERTIA, ROTOR_DAMPING = _rotor_terms()


def make_lane(scale: float, **flags: bool) -> ManipulatorDynamics:
    params = ManipulatorParameters(
        base_inertias=np.array([0.02, 0.02, 0.005]) * scale,
        link2_mass=0.35 * scale,
        link2_com_radius=0.1,
        instrument_mass=0.15 * scale,
    )
    friction = FrictionModel(
        viscous=np.array([0.08, 0.08, 3.0]) * scale,
        coulomb=np.array([0.05, 0.05, 1.0]) * scale,
    )
    return ManipulatorDynamics(params=params, friction=friction, **flags)


lane_batches = st.lists(param_scales, min_size=1, max_size=6)


class TestManipulatorKernels:
    @given(scales=lane_batches, q=joint_vectors, qdot=velocities, tau=torques)
    @settings(max_examples=25, deadline=None)
    def test_friction_and_acceleration_equal_scalar_loop(self, scales, q, qdot, tau):
        lanes = [make_lane(s) for s in scales]
        batched = BatchedManipulatorDynamics(lanes)
        n = len(lanes)
        # Heterogeneous per-lane states: shift the shared sample per lane.
        qs = np.stack([q + 0.01 * i for i in range(n)])
        qdots = np.stack([qdot * (1.0 + 0.1 * i) for i in range(n)])
        taus = np.stack([tau * (1.0 - 0.05 * i) for i in range(n)])

        f = batched.friction_force(qdots)
        a = batched.acceleration(qs, qdots, taus)
        for i, lane in enumerate(lanes):
            assert np.array_equal(f[i], lane.friction_force(qdots[i]))
            assert np.array_equal(a[i], lane.acceleration(qs[i], qdots[i], taus[i]))

    @given(scales=lane_batches, q=joint_vectors, qdot=slow_velocities, tau=torques)
    @settings(max_examples=15, deadline=None)
    def test_acceleration_still_arm_branch(self, scales, q, qdot, tau):
        """Near-zero velocities cross the Coriolis epsilon branch; the
        batched ``np.where`` selection must still match scalar exactly."""
        lanes = [make_lane(s) for s in scales]
        batched = BatchedManipulatorDynamics(lanes)
        n = len(lanes)
        qs = np.tile(q, (n, 1))
        qdots = np.tile(qdot, (n, 1))
        taus = np.tile(tau, (n, 1))
        a = batched.acceleration(qs, qdots, taus)
        for i, lane in enumerate(lanes):
            assert np.array_equal(a[i], lane.acceleration(qs[i], qdots[i], taus[i]))

    @staticmethod
    def assert_equal_with_rotor_terms(lanes, q, qdot, tau):
        """Scalar ``acceleration`` per lane equals the batched lanes, bytes
        included, on heterogeneous per-lane states, with the arguments the
        model and the plant really pass: the motor rotors' reflected
        inertia and damping."""
        n = len(lanes)
        qs = np.stack([q + 0.01 * i for i in range(n)])
        qdots = np.stack([qdot * (1.0 + 0.1 * i) for i in range(n)])
        taus = np.stack([tau * (1.0 - 0.05 * i) for i in range(n)])
        extra = {"extra_inertia": ROTOR_INERTIA, "extra_damping": ROTOR_DAMPING}
        a = BatchedManipulatorDynamics(lanes).acceleration(qs, qdots, taus, **extra)
        for i, lane in enumerate(lanes):
            scalar = lane.acceleration(qs[i], qdots[i], taus[i], **extra)
            assert a[i].tobytes() == scalar.tobytes()

    @pytest.mark.parametrize(
        "flags",
        [{}, {"include_coriolis": False}, {"include_gravity": False}],
        ids=["all_terms", "no_coriolis", "no_gravity"],
    )
    @given(scales=lane_batches, q=joint_vectors, qdot=velocities, tau=torques)
    @settings(max_examples=20, deadline=None)
    def test_acceleration_with_rotor_terms(self, flags, scales, q, qdot, tau):
        lanes = [make_lane(s, **flags) for s in scales]
        self.assert_equal_with_rotor_terms(lanes, q, qdot, tau)

    @given(
        scales=lane_batches,
        q=joint_vectors,
        qdot=st.one_of(slow_velocities, still_velocities),
        tau=torques,
    )
    @settings(max_examples=25, deadline=None)
    def test_still_arm_branch_with_rotor_terms(self, scales, q, qdot, tau):
        lanes = [make_lane(s) for s in scales]
        self.assert_equal_with_rotor_terms(lanes, q, qdot, tau)

    @given(scales=lane_batches, q=joint_vectors, qdot=velocities, tau=torques)
    @settings(max_examples=15, deadline=None)
    def test_lane_permutation_invariance(self, scales, q, qdot, tau):
        """Permuting lanes permutes outputs — no cross-lane leakage."""
        lanes = [make_lane(s) for s in scales]
        n = len(lanes)
        rng = np.random.default_rng(0)
        perm = rng.permutation(n)
        qs = np.stack([q + 0.01 * i for i in range(n)])
        qdots = np.stack([qdot * (1.0 + 0.1 * i) for i in range(n)])
        taus = np.stack([tau * (1.0 - 0.05 * i) for i in range(n)])

        direct = BatchedManipulatorDynamics(lanes).acceleration(qs, qdots, taus)
        permuted = BatchedManipulatorDynamics(
            [lanes[j] for j in perm]
        ).acceleration(qs[perm], qdots[perm], taus[perm])
        assert np.array_equal(permuted, direct[perm])


class TestFrictionAndMotor:
    @given(scales=lane_batches, qdot=velocities)
    @settings(max_examples=40, deadline=None)
    def test_friction_torque_equals_scalar(self, scales, qdot):
        models = [
            FrictionModel(
                viscous=np.array([0.08, 0.08, 3.0]) * s,
                coulomb=np.array([0.05, 0.05, 1.0]) * s,
            )
            for s in scales
        ]
        viscous, coulomb, smoothing = stack_friction(models)
        qdots = np.stack([qdot * (1.0 + 0.2 * i) for i in range(len(models))])
        batched = batched_friction_torque(qdots, viscous, coulomb, smoothing)
        for i, model in enumerate(models):
            assert np.array_equal(batched[i], model.torque(qdots[i]))

    @given(
        dac=st.tuples(
            st.integers(-32767, 32767),
            st.integers(-32767, 32767),
            st.integers(-32767, 32767),
        ),
        lanes=st.integers(1, 8),
    )
    @settings(max_examples=40, deadline=None)
    def test_dac_to_current_equals_scalar(self, dac, lanes):
        rows = np.stack(
            [np.array(dac, dtype=float) * (1 - 0.01 * i) for i in range(lanes)]
        )
        batched = batched_dac_to_current(rows)
        for i in range(lanes):
            assert np.array_equal(batched[i], dac_to_current(rows[i]))


class TestIntegrators:
    @given(
        y0=st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)).map(np.array),
        h=st.floats(1e-4, 1e-2),
        lanes=st.integers(1, 6),
        name=st.sampled_from(sorted(INTEGRATORS)),
    )
    @settings(max_examples=30, deadline=None)
    def test_each_integrator_equals_scalar_loop(self, y0, h, lanes, name):
        """Each stepper is shape-agnostic: on ``(N, state)`` lanes of an
        elementwise ODE with per-lane coefficients it reproduces stepping
        each lane alone, bit for bit."""
        coeff = np.stack(
            [np.array([-1.0 - 0.3 * i, 0.5 + 0.1 * i]) for i in range(lanes)]
        )
        ys = np.stack([y0 * (1.0 + 0.2 * i) for i in range(lanes)])

        def batch_f(t, y):
            return coeff * y + np.sin(t + y)

        stepper = INTEGRATORS[name]
        stepped = stepper(batch_f, 0.1, ys, h)
        for i in range(lanes):
            def lane_f(t, y, i=i):
                return coeff[i] * y + np.sin(t + y)

            assert np.array_equal(stepped[i], stepper(lane_f, 0.1, ys[i], h))


dac_rows = st.tuples(
    st.integers(-32767, 32767), st.integers(-32767, 32767), st.integers(-32767, 32767)
).map(np.array)

#: Per-lane model error: lanes are heterogeneous on purpose.
parameter_errors = st.lists(st.floats(0.9, 1.1), min_size=1, max_size=5)


class TestDynamicModelStep:
    @pytest.mark.parametrize("name", sorted(INTEGRATORS))
    @given(errors=parameter_errors, q=joint_vectors, qdot=velocities, dac=dac_rows)
    @settings(max_examples=15, deadline=None)
    def test_step_equals_each_lane_scalar_step(self, name, errors, q, qdot, dac):
        """``BatchedDynamicModel.step`` equals each lane's
        ``RavenDynamicModel.step``, bytes included."""
        models = [RavenDynamicModel(integrator=name, parameter_error=e) for e in errors]
        n = len(models)
        jpos = np.stack([q + 0.01 * i for i in range(n)])
        jvel = np.stack([qdot * (1.0 + 0.1 * i) for i in range(n)])
        dacs = np.stack([dac * (1.0 - 0.1 * i) for i in range(n)])
        jpos_next, jvel_next = BatchedDynamicModel(models).step(jpos, jvel, dacs)
        for i, model in enumerate(models):
            scalar_jpos, scalar_jvel = model.step(jpos[i], jvel[i], dacs[i])
            assert jpos_next[i].tobytes() == scalar_jpos.tobytes()
            assert jvel_next[i].tobytes() == scalar_jvel.tobytes()


def _same_float(a: float, b: float) -> bool:
    return a == b or (np.isnan(a) and np.isnan(b))


#: Estimate entries: ordinary rates plus NaN and both infinities.
rates = st.one_of(
    st.floats(-200.0, 200.0), st.sampled_from([np.nan, np.inf, -np.inf])
)
rate_rows = st.lists(rates, min_size=3, max_size=3)
limits = st.lists(st.floats(0.5, 100.0), min_size=3, max_size=3).map(np.array)


class TestDetectorEvaluate:
    @pytest.mark.parametrize("fusion", list(FusionRule), ids=lambda f: f.value)
    @given(
        lanes=st.lists(
            st.tuples(limits, limits, limits), min_size=1, max_size=4
        ).map(lambda rows: [SafetyThresholds(*row) for row in rows]),
        data=st.data(),
    )
    @settings(max_examples=25, deadline=None)
    def test_rows_equal_scalar_evaluate(self, fusion, lanes, data):
        """``BatchedAnomalyDetector.evaluate``'s alert, alarm and margin
        rows, and its per-lane counters, equal the scalar ``evaluate``,
        NaN and infinite rates included."""
        n = len(lanes)
        scalars = [AnomalyDetector(t, fusion) for t in lanes]
        batched = BatchedAnomalyDetector.from_detectors(scalars)
        for _ in range(data.draw(st.integers(1, 4))):
            rows = {
                group: np.array(data.draw(st.lists(rate_rows, min_size=n, max_size=n)))
                for group in VARIABLE_GROUPS
            }
            mask = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
            zeros = np.zeros((n, 3))
            result = batched.evaluate(
                BatchedStateEstimate(
                    **rows, jpos_next=zeros, jvel_next=zeros, elapsed_s=0.0, faults={}
                ),
                mask,
            )
            for i in np.flatnonzero(mask):
                scalar = scalars[i].evaluate(
                    StateEstimate(
                        **{group: row[i] for group, row in rows.items()},
                        jpos_next=zeros[i],
                        jvel_next=zeros[i],
                        elapsed_s=0.0,
                    )
                )
                assert bool(result.alert[i]) is scalar.alert
                for group in VARIABLE_GROUPS:
                    assert bool(result.alarms[group][i]) is scalar.alarms[group]
                    assert _same_float(result.margins[group][i], scalar.margins[group])
        assert list(batched.evaluations) == [d.evaluations for d in scalars]
        assert list(batched.alerts) == [d.alerts for d in scalars]


    def test_debounced_detectors_are_rejected(self):
        """Batched lanes alert per cycle, so a decision window cannot be
        batched away silently."""
        thresholds = SafetyThresholds(np.ones(3), np.ones(3), np.ones(3))
        debounced = AnomalyDetector(thresholds, decision_window=(2, 3))
        with pytest.raises(DetectorError, match="no decision window"):
            BatchedAnomalyDetector.from_detectors([debounced])


class TestReplay:
    def test_batched_replay_raises_where_scalar_does(self):
        """A measurement whose prediction goes non-finite raises the same
        IntegrationError from both replays."""
        thresholds = SafetyThresholds(np.ones(3), np.ones(3), np.ones(3))
        lanes = [ReplayLaneConfig(thresholds, parameter_error=e) for e in (1.0, 1.03)]
        stream = CommandStream(
            dac=np.full((2, 3), 100.0),
            mpos=np.array([[0.01, 0.02, 0.03], [1e150, 1e150, 1e150]]),
            pedal_down=np.array([True, True]),
        )
        errors = []
        with np.errstate(all="ignore"):
            for replay in (replay_detector_scalar, replay_detector_batched):
                with pytest.raises(IntegrationError) as raised:
                    replay(stream, lanes)
                errors.append(str(raised.value))
        assert errors[0] == errors[1]


#: One lane's move in one cycle: a measurement (now and then a finite
#: but huge one, whose prediction overflows), a coast, or nothing; then
#: an estimate under a DAC row, or none.
lane_moves = st.tuples(
    st.sampled_from(["sync", "coast", "idle"]),
    st.one_of(
        st.tuples(st.floats(-0.5, 0.5), st.floats(-0.5, 0.5), st.floats(-0.5, 0.5)),
        st.just((1e150, 1e150, 1e150)),
    ),
    st.booleans(),
    dac_rows,
)


class TestEstimatorSequences:
    @given(errors=parameter_errors, data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_lanes_equal_scalar_estimators(self, errors, data):
        """Random masked sync/coast/estimate sequences leave each lane,
        after ``copy_lane_into``, with the ``snapshot()`` of a scalar
        estimator fed the same sequence.  Estimated rows match bytes for
        bytes; a lane whose prediction is non-finite is reported with the
        scalar estimator's own error, and unmasked lanes never are."""
        n = len(errors)
        scalars = [NextStateEstimator(RavenDynamicModel(parameter_error=e)) for e in errors]
        batched = BatchedNextStateEstimator([RavenDynamicModel(parameter_error=e) for e in errors])
        cycles = data.draw(st.lists(st.lists(lane_moves, min_size=n, max_size=n), max_size=12))
        with np.errstate(all="ignore"):
            for moves in cycles:
                kinds = [kind for kind, _, _, _ in moves]
                sync = np.array([kind == "sync" for kind in kinds])
                coast = np.array([kind == "coast" for kind in kinds])
                mpos = np.array([m for _, m, _, _ in moves], dtype=float)
                dacs = np.array([d for _, _, _, d in moves], dtype=float)
                batched.sync(mpos, sync)
                batched.coast(coast)
                for i, scalar in enumerate(scalars):
                    if sync[i]:
                        scalar.sync(mpos[i])
                    elif coast[i]:
                        scalar.coast()
                wants = np.array([est for _, _, est, _ in moves]) & batched.synced
                estimate = batched.estimate(dacs, wants)
                assert set(estimate.faults) <= set(np.flatnonzero(wants).tolist())
                for i in np.flatnonzero(wants):
                    try:
                        expected = scalars[i].estimate(dacs[i])
                    except IntegrationError as exc:
                        assert str(estimate.faults[i]) == str(exc)
                        continue
                    assert i not in estimate.faults
                    for name in ("motor_velocity", "motor_acceleration", "joint_velocity"):
                        assert getattr(estimate, name)[i].tobytes() == (
                            getattr(expected, name).tobytes()
                        )
        for i, scalar in enumerate(scalars):
            copied = NextStateEstimator()
            batched.copy_lane_into(i, copied)
            assert copied.snapshot() == scalar.snapshot()
