"""Tests for repro.core.dynamic_model and repro.core.estimator."""

import numpy as np
import pytest

from repro import constants
from repro.core.dynamic_model import RavenDynamicModel
from repro.core.estimator import NextStateEstimator
from repro.dynamics.plant import RavenPlant
from repro.kinematics.workspace import Workspace


@pytest.fixture
def model():
    return RavenDynamicModel()


class TestDynamicModel:
    def test_zero_command_at_rest_barely_moves(self, model):
        q0 = Workspace().neutral()
        jpos, jvel = model.step(q0, np.zeros(3), [0, 0, 0])
        # Gravity produces some acceleration but one 1 ms step is tiny.
        assert np.linalg.norm(jpos - q0) < 1e-4

    def test_torque_command_accelerates(self, model):
        q0 = Workspace().neutral()
        _jpos, jvel = model.step(q0, np.zeros(3), [15000, 0, 0])
        assert jvel[0] > 0

    def test_current_clamped_to_amp_limit(self, model):
        q0 = Workspace().neutral()
        _p1, v1 = model.step(q0, np.zeros(3), [32767, 0, 0])
        _p2, v2 = model.step(q0, np.zeros(3), [327670, 0, 0])
        assert v1[0] == pytest.approx(v2[0])

    def test_tracks_plant_one_step(self):
        """A perfect-parameter model predicts the plant's next state well."""
        plant = RavenPlant(initial_jpos=Workspace().neutral())
        plant.release_brakes()
        model = RavenDynamicModel(parameter_error=1.0, integrator="rk4")
        # Drive the plant somewhere with motion first.
        for _ in range(100):
            plant.step([4000, -2000, 1500])
        q, v = plant.jpos, plant.jvel
        dac = [3000, 1000, -500]
        pred_q, pred_v = model.step(q, v, dac)
        real = plant.step(dac)
        assert np.allclose(pred_q, real.jpos, atol=5e-5)
        assert np.allclose(pred_v, real.jvel, atol=5e-2)

    def test_parameter_error_changes_predictions(self):
        q0 = Workspace().neutral()
        nominal = RavenDynamicModel(parameter_error=1.0)
        off = RavenDynamicModel(parameter_error=1.2)
        _q1, v1 = nominal.step(q0, np.zeros(3), [10000, 0, 0])
        _q2, v2 = off.step(q0, np.zeros(3), [10000, 0, 0])
        assert not np.allclose(v1, v2)

    @pytest.mark.parametrize("integrator", ["euler", "rk4"])
    def test_drifted_model_predicts_like_a_fresh_drifted_model(self, integrator):
        """The float copies of the configuration follow
        ``apply_parameter_drift()``: the next prediction is, bit for bit,
        that of a fresh model built with the drifted dynamics."""
        q = Workspace().neutral()
        v = np.array([0.2, -0.1, 0.01])
        dac = [9000, -4000, 2500]
        model = RavenDynamicModel(integrator=integrator, parameter_error=1.03)
        model.predict(q, v, dac)
        model.apply_parameter_drift(1.2, friction_scale=0.7)
        fresh = RavenDynamicModel(
            integrator=integrator,
            manipulator_params=model.dynamics.params,
            friction=model.dynamics.friction,
        )
        got, want = model.predict(q, v, dac), fresh.predict(q, v, dac)
        for name in ("jpos", "jvel", "mpos", "mvel"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
        before = RavenDynamicModel(integrator=integrator, parameter_error=1.03)
        assert before.predict(q, v, dac).jvel.tobytes() != got.jvel.tobytes()

    def test_predict_counts_timing(self, model):
        q0 = Workspace().neutral()
        model.predict(q0, np.zeros(3), [0, 0, 0])
        model.predict(q0, np.zeros(3), [0, 0, 0])
        assert model.predict_calls == 2
        assert model.mean_predict_seconds > 0
        model.reset_timing()
        assert model.predict_calls == 0
        assert model.mean_predict_seconds == 0.0

    def test_euler_and_rk4_agree_roughly(self):
        q0 = Workspace().neutral()
        v0 = np.array([0.1, -0.05, 0.01])
        dac = [5000, 5000, 2000]
        eq, ev = RavenDynamicModel(integrator="euler").step(q0, v0, dac)
        rq, rv = RavenDynamicModel(integrator="rk4").step(q0, v0, dac)
        assert np.allclose(eq, rq, atol=1e-4)
        assert np.allclose(ev, rv, atol=5e-2)


class TestNextStateEstimator:
    def test_requires_sync_before_estimate(self):
        estimator = NextStateEstimator()
        with pytest.raises(RuntimeError):
            estimator.estimate([0, 0, 0])

    def test_sync_sets_position(self):
        estimator = NextStateEstimator()
        q = Workspace().neutral()
        mpos = estimator.model.transmission.motor_positions(q)
        estimator.sync(mpos)
        assert estimator.synced
        assert np.allclose(estimator.jpos, q, atol=1e-12)

    def test_velocity_from_finite_differences(self):
        estimator = NextStateEstimator(velocity_filter_alpha=1.0)
        q = Workspace().neutral()
        trans = estimator.model.transmission
        estimator.sync(trans.motor_positions(q))
        q2 = q + np.array([1e-4, 0, 0])
        estimator.sync(trans.motor_positions(q2))
        assert estimator.jvel[0] == pytest.approx(
            1e-4 / constants.CONTROL_PERIOD_S, rel=0.6
        )

    def test_estimate_reports_instant_rates(self):
        estimator = NextStateEstimator()
        q = Workspace().neutral()
        estimator.sync(estimator.model.transmission.motor_positions(q))
        est = estimator.estimate([20000, 0, 0])
        # A big torque command predicts a motor-acceleration spike.
        assert abs(est.motor_acceleration[0]) > 100.0
        assert est.elapsed_s > 0

    def test_instant_rates_consistent_with_prediction(self):
        estimator = NextStateEstimator()
        q = Workspace().neutral()
        trans = estimator.model.transmission
        estimator.sync(trans.motor_positions(q))
        est = estimator.estimate([5000, -3000, 1000])
        assert np.allclose(est.joint_velocity, est.jvel_next, atol=1e-12)
        assert np.allclose(
            est.motor_velocity, trans.motor_velocities(est.jvel_next), atol=1e-12
        )

    def test_reset_clears(self):
        estimator = NextStateEstimator()
        q = Workspace().neutral()
        estimator.sync(estimator.model.transmission.motor_positions(q))
        estimator.reset()
        assert not estimator.synced
        assert np.allclose(estimator.jvel, 0.0)

    def test_invalid_alpha_rejected(self):
        with pytest.raises(ValueError):
            NextStateEstimator(velocity_filter_alpha=0.0)

    def test_prediction_feeds_next_velocity_estimate(self):
        """The predictor-corrector velocity leads pure measurement."""
        estimator = NextStateEstimator()
        q = Workspace().neutral()
        trans = estimator.model.transmission
        estimator.sync(trans.motor_positions(q))
        estimator.estimate([20000, 0, 0])  # predicts acceleration
        estimator.sync(trans.motor_positions(q))  # measurement says "still"
        # The blended velocity remembers the predicted speed-up.
        assert estimator.jvel[0] > 0
