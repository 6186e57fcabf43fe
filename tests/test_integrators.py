"""Tests for repro.dynamics.integrators."""

import math

import numpy as np
import pytest

from repro.core.dynamic_model import RavenDynamicModel
from repro.dynamics.integrators import (
    EVALUATIONS_PER_STEP,
    INTEGRATORS,
    euler_step,
    get_integrator,
    heun_step,
    integrate_fixed,
    midpoint_step,
    rk4_step,
)
from repro.dynamics.plant import RavenPlant
from repro.errors import IntegrationError
from repro.kinematics.workspace import Workspace


def exponential_decay(_t, y):
    return -y


class TestSteppers:
    @pytest.mark.parametrize("name", sorted(INTEGRATORS))
    def test_decay_stays_bounded(self, name):
        stepper = INTEGRATORS[name]
        y = np.array([1.0])
        for _ in range(100):
            y = stepper(exponential_decay, 0.0, y, 0.01)
        assert 0.0 < y[0] < 1.0

    def test_euler_first_order_error(self):
        # Error for y' = -y over [0, 1] halves with the step size.
        def solve(h):
            y = integrate_fixed(exponential_decay, 0, np.array([1.0]), h,
                                int(1 / h), "euler")
            return abs(y[0] - math.exp(-1))

        assert solve(0.01) / solve(0.005) == pytest.approx(2.0, rel=0.1)

    def test_rk4_fourth_order_error(self):
        def solve(h):
            y = integrate_fixed(exponential_decay, 0, np.array([1.0]), h,
                                int(1 / h), "rk4")
            return abs(y[0] - math.exp(-1))

        assert solve(0.02) / solve(0.01) == pytest.approx(16.0, rel=0.3)

    def test_rk4_more_accurate_than_euler(self):
        h, steps = 0.05, 20
        exact = math.exp(-1)
        e_err = abs(integrate_fixed(exponential_decay, 0, np.array([1.0]), h, steps, "euler")[0] - exact)
        r_err = abs(integrate_fixed(exponential_decay, 0, np.array([1.0]), h, steps, "rk4")[0] - exact)
        assert r_err < e_err / 100

    @pytest.mark.parametrize("stepper", [euler_step, midpoint_step, heun_step, rk4_step])
    def test_harmonic_oscillator_energy(self, stepper):
        # x'' = -x: all methods should track one period roughly.
        def f(_t, y):
            return np.array([y[1], -y[0]])

        y = np.array([1.0, 0.0])
        h = 2 * math.pi / 2000
        for _ in range(2000):
            y = stepper(f, 0.0, y, h)
        assert np.allclose(y, [1.0, 0.0], atol=0.02)

    def test_nan_state_raises(self):
        """Steppers return what their arithmetic gives; the callers check
        every state they keep."""
        def bad(_t, y):
            return y * np.nan

        assert np.isnan(euler_step(bad, 0.0, np.array([1.0]), 0.1)).all()
        with pytest.raises(IntegrationError, match="euler produced a non-finite state"):
            integrate_fixed(bad, 0.0, np.array([1.0]), 0.1, 1, "euler")

    def test_model_and_plant_check_each_state(self):
        huge = np.full(3, 1e150)
        with np.errstate(all="ignore"):
            with pytest.raises(IntegrationError, match="euler produced a non-finite state"):
                RavenDynamicModel().step(huge, np.zeros(3), [100, 100, 100])
            plant = RavenPlant(initial_jpos=Workspace().neutral())
            plant.release_brakes()
            plant.set_state(huge, huge)
            with pytest.raises(IntegrationError, match="rk4 produced a non-finite state"):
                plant.step([100, 100, 100])


class TestRegistry:
    def test_get_integrator_known(self):
        assert get_integrator("euler") is euler_step
        assert get_integrator("rk4") is rk4_step

    def test_get_integrator_unknown(self):
        with pytest.raises(KeyError, match="unknown integrator"):
            get_integrator("rk45")

    def test_evaluation_counts(self):
        calls = {"n": 0}

        def f(_t, y):
            calls["n"] += 1
            return -y

        for name, expected in EVALUATIONS_PER_STEP.items():
            calls["n"] = 0
            INTEGRATORS[name](f, 0.0, np.array([1.0]), 0.01)
            assert calls["n"] == expected, name

    def test_integrate_fixed_negative_steps(self):
        with pytest.raises(ValueError):
            integrate_fixed(exponential_decay, 0, np.array([1.0]), 0.1, -1)

    def test_integrate_fixed_zero_steps_identity(self):
        y0 = np.array([3.0])
        assert integrate_fixed(exponential_decay, 0, y0, 0.1, 0)[0] == 3.0
