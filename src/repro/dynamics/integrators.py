"""Fixed-step explicit integrators for the robot's ODEs.

The paper solves the dynamic model with the C++ ``odeint`` package using the
4th-order Runge-Kutta and explicit Euler methods at a 1 ms step, and reports
(Figure 8) that Euler gives the best execution-time/accuracy trade-off.  We
implement the same methods (plus midpoint and Heun for the integrator
ablation) from scratch.

A *stepper* has signature ``step(f, t, y, h) -> y_next`` where ``f(t, y)``
returns ``dy/dt`` as a numpy array.  Steppers are shape-agnostic: the same
expressions step one state vector or an ``(N, state)`` batch of lanes, so
the batched dynamic model uses them as they are.  They do not check their
result; each caller checks the states it keeps (:func:`check_finite`), the
batched model lane by lane.
"""

from __future__ import annotations

from typing import Callable, Dict

import numpy as np

from repro.errors import IntegrationError

Derivative = Callable[[float, np.ndarray], np.ndarray]


def nonfinite_error(y: np.ndarray, method: str) -> IntegrationError:
    """The error for a state ``y`` that stepper ``method`` left non-finite."""
    return IntegrationError(f"{method} produced a non-finite state: {y!r}")


def check_finite(y: np.ndarray, method: str) -> np.ndarray:
    """``y`` as it is, or :class:`IntegrationError` if any entry is non-finite."""
    if not np.isfinite(y).all():
        raise nonfinite_error(y, method)
    return y


def euler_step(f: Derivative, t: float, y: np.ndarray, h: float) -> np.ndarray:
    """One explicit (forward) Euler step: ``y + h * f(t, y)``."""
    return y + h * f(t, y)


def midpoint_step(f: Derivative, t: float, y: np.ndarray, h: float) -> np.ndarray:
    """One explicit midpoint (RK2) step."""
    k1 = f(t, y)
    k2 = f(t + 0.5 * h, y + 0.5 * h * k1)
    return y + h * k2


def heun_step(f: Derivative, t: float, y: np.ndarray, h: float) -> np.ndarray:
    """One Heun (trapezoidal predictor-corrector, RK2) step."""
    k1 = f(t, y)
    k2 = f(t + h, y + h * k1)
    return y + 0.5 * h * (k1 + k2)


def rk4_step(f: Derivative, t: float, y: np.ndarray, h: float) -> np.ndarray:
    """One classical 4th-order Runge-Kutta step."""
    k1 = f(t, y)
    k2 = f(t + 0.5 * h, y + 0.5 * h * k1)
    k3 = f(t + 0.5 * h, y + 0.5 * h * k2)
    k4 = f(t + h, y + h * k3)
    # The 1/6 weight is the classical RK4 Butcher tableau, not a tunable
    # safety threshold.
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)  # repro: allow[RPR003]


#: Registry of available steppers by name.
INTEGRATORS: Dict[str, Callable[..., np.ndarray]] = {
    "euler": euler_step,
    "midpoint": midpoint_step,
    "heun": heun_step,
    "rk4": rk4_step,
}

#: Number of derivative evaluations each stepper performs per step; used by
#: the integrator ablation to report cost alongside wall-clock time.
EVALUATIONS_PER_STEP: Dict[str, int] = {
    "euler": 1,
    "midpoint": 2,
    "heun": 2,
    "rk4": 4,
}


def get_integrator(name: str) -> Callable[..., np.ndarray]:
    """Look up a stepper by name (``euler``, ``midpoint``, ``heun``, ``rk4``).

    Raises
    ------
    KeyError
        If ``name`` is not a known integrator.
    """
    try:
        return INTEGRATORS[name]
    except KeyError:
        raise KeyError(
            f"unknown integrator {name!r}; available: {sorted(INTEGRATORS)}"
        ) from None


def integrate_fixed(
    f: Derivative,
    t0: float,
    y0: np.ndarray,
    h: float,
    steps: int,
    method: str = "euler",
) -> np.ndarray:
    """Integrate ``steps`` fixed steps and return the final state.

    Convenience helper used by tests and the integrator ablation; the plant
    drives steppers directly for per-step control.  Every state is checked
    (:func:`check_finite`).
    """
    if steps < 0:
        raise ValueError("steps must be non-negative")
    stepper = get_integrator(method)
    t, y = t0, np.asarray(y0, dtype=float)
    for _ in range(steps):
        y = check_finite(stepper(f, t, y, h), method)
        t += h
    return y
