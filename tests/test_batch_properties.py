"""Property-based tests: batched dynamics kernels equal the scalar loop.

Every function in :mod:`repro.dynamics.batch` promises *exact* float64
equality with running its scalar counterpart lane by lane — not
``allclose``, bit equality.  Hypothesis drives heterogeneous per-lane
parameters and states through both paths and compares with
``np.array_equal`` on the raw results.

Also pinned: lane order is irrelevant — permuting the lanes of a batch
permutes the outputs and nothing else.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dynamic_model import RavenDynamicModel
from repro.dynamics.batch import (
    BATCH_INTEGRATORS,
    BatchedManipulatorDynamics,
    batched_dac_to_current,
    batched_friction_torque,
    stack_friction,
)
from repro.dynamics.friction import FrictionModel
from repro.dynamics.integrators import INTEGRATORS
from repro.dynamics.manipulator import ManipulatorDynamics, ManipulatorParameters
from repro.dynamics.plant import dac_to_current

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
    def test_mcg_and_acceleration_equal_scalar_loop(self, scales, q, qdot, tau):
        lanes = [make_lane(s) for s in scales]
        batched = BatchedManipulatorDynamics(lanes)
        n = len(lanes)
        # Heterogeneous per-lane states: shift the shared sample per lane.
        qs = np.stack([q + 0.01 * i for i in range(n)])
        qdots = np.stack([qdot * (1.0 + 0.1 * i) for i in range(n)])
        taus = np.stack([tau * (1.0 - 0.05 * i) for i in range(n)])

        m = batched.mass_matrix(qs)
        c = batched.coriolis_force(qs, qdots)
        g = batched.gravity_force(qs)
        f = batched.friction_force(qdots)
        a = batched.acceleration(qs, qdots, taus)
        for i, lane in enumerate(lanes):
            assert np.array_equal(m[i], lane.mass_matrix(qs[i]))
            assert np.array_equal(c[i], lane.coriolis_force(qs[i], qdots[i]))
            assert np.array_equal(g[i], lane.gravity_force(qs[i]))
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
        """Each batched stepper, on an elementwise ODE with per-lane
        coefficients, reproduces the scalar stepper bit for bit."""
        coeff = np.stack(
            [np.array([-1.0 - 0.3 * i, 0.5 + 0.1 * i]) for i in range(lanes)]
        )
        ys = np.stack([y0 * (1.0 + 0.2 * i) for i in range(lanes)])

        def batch_f(t, y):
            return coeff * y + np.sin(t + y)

        stepped = BATCH_INTEGRATORS[name](batch_f, 0.1, ys, h)
        scalar_step = INTEGRATORS[name]
        for i in range(lanes):
            def lane_f(t, y, i=i):
                return coeff[i] * y + np.sin(t + y)

            assert np.array_equal(stepped[i], scalar_step(lane_f, 0.1, ys[i], h))

    def test_batch_integrator_table_matches_scalar_table(self):
        assert set(BATCH_INTEGRATORS) == set(INTEGRATORS)
