"""Next-state estimation from intercepted DAC commands.

The estimator is the glue between the measurement stream (encoder counts,
available wherever the detector is inserted) and the dynamic model.  Each
control cycle it:

1. updates its joint-state estimate from the measured motor positions
   (positions come from the encoders; velocities from a low-pass-filtered
   finite difference of those measurements);
2. runs the dynamic model one step ahead under the intercepted DAC
   command;
3. reports the *instant* rates the paper thresholds on — the differences
   between estimated next values and current values per control period:
   motor velocity, motor acceleration and joint velocity.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from repro import constants
from repro.core.dynamic_model import BatchedDynamicModel, RavenDynamicModel
from repro.errors import IntegrationError


def hex_vector(values: Optional[np.ndarray]) -> Optional[List[str]]:
    """Bit-exact, JSON-safe encoding of a float vector (``None`` passes).

    ``float.hex()`` round-trips every finite float64 exactly, so snapshot
    payloads built from these survive JSON serialization without the
    last-bit drift that ``str(float)`` could reintroduce on exotic
    platforms.  The session-checkpoint layer (:mod:`repro.fleet`) builds
    on this for its bit-identical-resume guarantee.
    """
    if values is None:
        return None
    return [v.hex() for v in np.asarray(values, dtype=float).tolist()]


def unhex_vector(values: Optional[Sequence[str]]) -> Optional[np.ndarray]:
    """Exact inverse of :func:`hex_vector`."""
    if values is None:
        return None
    return np.array([float.fromhex(v) for v in values], dtype=float)


class StateEstimate:
    """Instant rates estimated for one intercepted command."""

    __slots__ = (
        "motor_velocity",
        "motor_acceleration",
        "joint_velocity",
        "jpos_next",
        "jvel_next",
        "elapsed_s",
    )

    def __init__(
        self,
        motor_velocity: np.ndarray,
        motor_acceleration: np.ndarray,
        joint_velocity: np.ndarray,
        jpos_next: np.ndarray,
        jvel_next: np.ndarray,
        elapsed_s: float,
    ) -> None:
        self.motor_velocity = motor_velocity
        self.motor_acceleration = motor_acceleration
        self.joint_velocity = joint_velocity
        self.jpos_next = jpos_next
        self.jvel_next = jvel_next
        self.elapsed_s = elapsed_s


class NextStateEstimator:
    """Maintains the model state and produces per-command estimates."""

    def __init__(
        self,
        model: Optional[RavenDynamicModel] = None,
        dt: float = constants.CONTROL_PERIOD_S,
        velocity_filter_alpha: float = 0.5,
    ) -> None:
        """Create the estimator.

        Parameters
        ----------
        model:
            The dynamic model; a nominal-parameter model when omitted.
        dt:
            Control period.
        velocity_filter_alpha:
            Exponential smoothing factor of the measured-velocity filter
            (1.0 = raw finite differences; smaller = smoother).
        """
        self.model = model or RavenDynamicModel()
        self.dt = dt
        if not (0.0 < velocity_filter_alpha <= 1.0):
            raise ValueError("velocity_filter_alpha must be in (0, 1]")
        self.alpha = velocity_filter_alpha
        # G and its precomputed inverse, multiplied by directly: the same
        # BLAS calls as Transmission.motor_velocities/joint_positions.
        self._g = self.model.transmission.joint_to_motor
        self._g_inv = self.model.transmission._g_inv
        self._jpos: Optional[np.ndarray] = None
        self._jvel = np.zeros(3)
        self._predicted_jpos: Optional[np.ndarray] = None
        self._predicted_jvel: Optional[np.ndarray] = None
        #: How many consecutive cycles the state was propagated from the
        #: model prediction alone (no trusted measurement).
        self.coast_streak = 0

    @property
    def synced(self) -> bool:
        """Whether at least one measurement has been ingested."""
        return self._jpos is not None

    @property
    def jpos(self) -> Optional[np.ndarray]:
        """Current joint-position estimate (None before first sync)."""
        return None if self._jpos is None else self._jpos.copy()

    @property
    def jvel(self) -> np.ndarray:
        """Current joint-velocity estimate."""
        return self._jvel.copy()

    def reset(self) -> None:
        """Forget all state (e.g. across E-STOP)."""
        self._jpos = None
        self._jvel = np.zeros(3)
        self._predicted_jpos = None
        self._predicted_jvel = None
        self.coast_streak = 0

    def sync(self, mpos_measured: Sequence[float]) -> None:
        """Ingest one encoder measurement (motor shaft positions, rad).

        The velocity estimate is a predictor-corrector (complementary
        filter): the dynamic model's velocity prediction from the previous
        cycle's command is corrected by the finite-differenced
        measurements.  Running the model in parallel this way makes the
        velocity estimate respond to commanded torques roughly one cycle
        *ahead* of what encoder differences alone would show — that lead
        is what lets the detector act before the physical jump completes.
        """
        jpos = self._g_inv @ np.asarray(mpos_measured, dtype=float)
        if self._jpos is None:
            self._jvel = np.zeros(3)
        else:
            # Elementwise on floats, in the order of the array expressions
            # raw = (jpos - old) / dt; measured = a * raw + (1 - a) * jvel;
            # jvel = 0.5 * predicted + 0.5 * measured.
            dt, alpha = self.dt, self.alpha
            keep = 1.0 - alpha
            measured = [
                alpha * ((new - old) / dt) + keep * vel
                for new, old, vel in zip(
                    jpos.tolist(), self._jpos.tolist(), self._jvel.tolist()
                )
            ]
            if self._predicted_jvel is not None:
                measured = [
                    0.5 * predicted + 0.5 * value
                    for predicted, value in zip(self._predicted_jvel.tolist(), measured)
                ]
            self._jvel = np.array(measured)
        self._jpos = jpos
        self._predicted_jpos = None
        self._predicted_jvel = None
        self.coast_streak = 0

    def coast(self) -> None:
        """Advance one cycle with **no trusted measurement** (degraded mode).

        The state rolls forward on the dynamic model's own prediction from
        the previous cycle's command — the measurement-free analogue of
        :meth:`sync`.  Before the first prediction (or before the first
        measurement) this is a zero-order hold.  Coasting accumulates model
        error without bound, so callers must cap consecutive coasts (see
        :class:`repro.core.pipeline.GuardSupervisor`).
        """
        if self._jpos is None:
            return  # never synced: nothing to propagate
        if self._predicted_jpos is not None:
            self._jpos = self._predicted_jpos
            self._jvel = self._predicted_jvel
        self._predicted_jpos = None
        self._predicted_jvel = None
        self.coast_streak += 1

    # -- durable state (session checkpoints, see repro.fleet) ----------------------

    def snapshot(self) -> Dict[str, Any]:
        """JSON-safe snapshot of the mutable estimator state.

        Covers exactly what :meth:`restore` needs to resume
        bit-identically: the joint state, any stored one-step prediction,
        and the coast streak.  Model *parameters* are configuration, not
        state — a restored estimator must be constructed from the same
        configuration.  Floats are hex-encoded (:func:`hex_vector`) so
        the bytes survive JSON round-trips exactly.
        """
        return {
            "jpos": hex_vector(self._jpos),
            "jvel": hex_vector(self._jvel),
            "predicted_jpos": hex_vector(self._predicted_jpos),
            "predicted_jvel": hex_vector(self._predicted_jvel),
            "coast_streak": self.coast_streak,
        }

    def restore(self, state: Dict[str, Any]) -> None:
        """Load a :meth:`snapshot` payload (exact inverse)."""
        self._jpos = unhex_vector(state["jpos"])
        jvel = unhex_vector(state["jvel"])
        self._jvel = np.zeros(3) if jvel is None else jvel
        self._predicted_jpos = unhex_vector(state["predicted_jpos"])
        self._predicted_jvel = unhex_vector(state["predicted_jvel"])
        self.coast_streak = int(state["coast_streak"])

    def estimate(self, dac_values: Sequence[float]) -> StateEstimate:
        """Estimate the instant rates produced by executing ``dac_values``.

        Raises
        ------
        RuntimeError
            If called before any measurement has been ingested.
        """
        if self._jpos is None:
            raise RuntimeError("estimator not synced: call sync() first")
        prediction = self.model.predict(self._jpos, self._jvel, dac_values)
        self._predicted_jpos = prediction.jpos
        self._predicted_jvel = prediction.jvel
        mvel_now = self._g @ self._jvel
        # "Estimated instant" rates: the velocities the model predicts for
        # the next step, and the per-step velocity change (acceleration).
        # Using the predicted *next* velocities — not the position deltas —
        # makes a torque spike visible on the very first corrupted packet.
        return StateEstimate(
            motor_velocity=prediction.mvel,
            motor_acceleration=(prediction.mvel - mvel_now) / self.dt,
            joint_velocity=prediction.jvel,
            jpos_next=prediction.jpos,
            jvel_next=prediction.jvel,
            elapsed_s=prediction.elapsed_s,
        )


class BatchedStateEstimate:
    """Per-lane instant rates for one batched cycle (``(N, 3)`` arrays).

    Only rows whose lane was selected in the ``estimate`` mask are
    meaningful.  ``faults`` maps each selected lane whose prediction is
    non-finite to the :class:`IntegrationError` its scalar estimator
    raises; such a lane's rows are not an estimate.
    """

    __slots__ = (
        "motor_velocity",
        "motor_acceleration",
        "joint_velocity",
        "jpos_next",
        "jvel_next",
        "elapsed_s",
        "faults",
    )

    def __init__(
        self,
        motor_velocity: np.ndarray,
        motor_acceleration: np.ndarray,
        joint_velocity: np.ndarray,
        jpos_next: np.ndarray,
        jvel_next: np.ndarray,
        elapsed_s: float,
        faults: Dict[int, IntegrationError],
    ) -> None:
        self.motor_velocity = motor_velocity
        self.motor_acceleration = motor_acceleration
        self.joint_velocity = joint_velocity
        self.jpos_next = jpos_next
        self.jvel_next = jvel_next
        self.elapsed_s = elapsed_s
        self.faults = faults


class BatchedNextStateEstimator:
    """N estimator lanes advanced by masked batch operations.

    Mirrors :class:`NextStateEstimator` per lane, bit for bit: sync and
    coast updates are computed for every lane and applied through
    ``np.where`` selection, so a lane's state bytes after any sequence of
    masked operations equal a scalar estimator fed the same sequence.
    Lanes that were never synced hold zeros internally; their garbage
    intermediate values are computed and discarded, exactly like the dead
    branches of the scalar code path.
    """

    def __init__(
        self,
        models: Sequence[RavenDynamicModel],
        dt: float = constants.CONTROL_PERIOD_S,
        velocity_filter_alpha: float = 0.5,
    ) -> None:
        if not (0.0 < velocity_filter_alpha <= 1.0):
            raise ValueError("velocity_filter_alpha must be in (0, 1]")
        self.model = BatchedDynamicModel(models)
        self.num_lanes = self.model.num_lanes
        self.dt = dt
        self.alpha = velocity_filter_alpha
        n = self.num_lanes
        self._g = self.model.transmission.joint_to_motor
        # The transmission's own precomputed inverse — same bytes the
        # scalar estimator multiplies by in joint_positions().
        self._g_inv = self.model.transmission._g_inv
        self._jpos = np.zeros((n, 3))
        self._jvel = np.zeros((n, 3))
        self._synced = np.zeros(n, dtype=bool)
        self._predicted_jpos = np.zeros((n, 3))
        self._predicted_jvel = np.zeros((n, 3))
        self._has_prediction = np.zeros(n, dtype=bool)
        self.coast_streak = np.zeros(n, dtype=int)

    @classmethod
    def from_estimators(
        cls, estimators: Sequence[NextStateEstimator]
    ) -> "BatchedNextStateEstimator":
        """Build from per-lane scalar estimators (must be pristine)."""
        from repro.dynamics.batch import require_homogeneous

        require_homogeneous([e.dt for e in estimators], "estimator dt")
        require_homogeneous([e.alpha for e in estimators], "velocity_filter_alpha")
        for est in estimators:
            if est.synced:
                raise ValueError("lane estimators must not have ingested state yet")
        return cls(
            [e.model for e in estimators],
            dt=estimators[0].dt,
            velocity_filter_alpha=estimators[0].alpha,
        )

    @property
    def synced(self) -> np.ndarray:
        """Per-lane synced flags (copy)."""
        return self._synced.copy()

    # -- per-lane durable state (session checkpoints, see repro.fleet) -------------

    def copy_lane_into(self, lane: int, estimator: NextStateEstimator) -> None:
        """Copy one lane's state into a scalar estimator.

        The scalar estimator then holds what it would hold had it been
        fed the lane's sync/coast/estimate sequence itself: an unsynced
        lane gives ``jpos=None``, and a lane without a stored prediction
        gives ``None`` predictions.  It gets copies of the rows, so later
        batched steps leave it as it is.
        """
        estimator._jpos = self._jpos[lane].copy() if self._synced[lane] else None
        estimator._jvel = self._jvel[lane].copy()
        if self._has_prediction[lane]:
            estimator._predicted_jpos = self._predicted_jpos[lane].copy()
            estimator._predicted_jvel = self._predicted_jvel[lane].copy()
        else:
            estimator._predicted_jpos = None
            estimator._predicted_jvel = None
        estimator.coast_streak = int(self.coast_streak[lane])

    def load_lane_from(self, lane: int, estimator: NextStateEstimator) -> None:
        """Load a scalar estimator's state into one lane (inverse of
        :meth:`copy_lane_into`).

        This is how a session enters a pack, fresh or resumed from its
        checkpoint: the pack is built pristine from the sessions' models,
        then each lane is loaded from its scalar estimator.  The rows are
        copied into the lane's own storage, so the two share nothing.
        """
        jpos = estimator._jpos
        self._synced[lane] = jpos is not None
        self._jpos[lane] = 0.0 if jpos is None else jpos
        self._jvel[lane] = estimator._jvel
        predicted = estimator._predicted_jpos
        self._has_prediction[lane] = predicted is not None
        if predicted is None:
            self._predicted_jpos[lane] = 0.0
            self._predicted_jvel[lane] = 0.0
        else:
            self._predicted_jpos[lane] = predicted
            self._predicted_jvel[lane] = estimator._predicted_jvel
        self.coast_streak[lane] = estimator.coast_streak

    def remove_lanes(self, lanes: Sequence[int]) -> List[int]:
        """Eject ``lanes``; surviving rows keep their exact state bytes.

        Returns the *old* indices of the surviving lanes, in order — the
        caller's old-to-new index map (survivor ``old`` becomes new lane
        ``survivors.index(old)``).  Quarantining a session out of a fleet
        pack must not disturb anyone else's estimator state; the batch
        layer's row-wise operations make the surviving rows byte-identical
        whether the ejected lane was ever present.

        Raises
        ------
        ValueError
            When asked to remove every lane — drop the whole pack instead.
        """
        keep = np.ones(self.num_lanes, dtype=bool)
        keep[list(lanes)] = False
        if not keep.any():
            raise ValueError("cannot remove every lane; drop the pack instead")
        survivors = [i for i in range(self.num_lanes) if keep[i]]
        self.model = BatchedDynamicModel([self.model.models[i] for i in survivors])
        self.num_lanes = len(survivors)
        self._jpos = self._jpos[keep].copy()
        self._jvel = self._jvel[keep].copy()
        self._synced = self._synced[keep].copy()
        self._predicted_jpos = self._predicted_jpos[keep].copy()
        self._predicted_jvel = self._predicted_jvel[keep].copy()
        self._has_prediction = self._has_prediction[keep].copy()
        self.coast_streak = self.coast_streak[keep].copy()
        return survivors

    def _full_mask(self, mask: Optional[np.ndarray]) -> np.ndarray:
        if mask is None:
            return np.ones(self.num_lanes, dtype=bool)
        return np.asarray(mask, dtype=bool)

    def sync(self, mpos_measured: np.ndarray, mask: Optional[np.ndarray] = None) -> None:
        """Ingest measurements for the masked lanes (rows of ``(N, 3)``).

        Unmasked rows of ``mpos_measured`` are ignored (they may hold
        stale values, but must be finite).
        """
        from repro.dynamics.batch import batched_matvec

        mask = self._full_mask(mask)
        mpos = np.asarray(mpos_measured, dtype=float)
        jpos = batched_matvec(self._g_inv, mpos)
        raw_vel = (jpos - self._jpos) / self.dt
        measured = self.alpha * raw_vel + (1.0 - self.alpha) * self._jvel
        corrected = np.where(
            self._has_prediction[:, None],
            0.5 * self._predicted_jvel + 0.5 * measured,
            measured,
        )
        # First sync of a lane resets its velocity, matching the scalar
        # `if self._jpos is None` branch.
        new_jvel = np.where(self._synced[:, None], corrected, 0.0)
        lane_rows = mask[:, None]
        self._jvel = np.where(lane_rows, new_jvel, self._jvel)
        self._jpos = np.where(lane_rows, jpos, self._jpos)
        self._has_prediction &= ~mask
        self.coast_streak[mask] = 0
        self._synced |= mask

    def coast(self, mask: Optional[np.ndarray] = None) -> None:
        """Advance the masked lanes one cycle without a measurement."""
        mask = self._full_mask(mask)
        # Never-synced lanes are a no-op, matching the scalar early return.
        affected = mask & self._synced
        roll = affected & self._has_prediction
        roll_rows = roll[:, None]
        self._jpos = np.where(roll_rows, self._predicted_jpos, self._jpos)
        self._jvel = np.where(roll_rows, self._predicted_jvel, self._jvel)
        self._has_prediction &= ~affected
        self.coast_streak[affected] += 1

    def estimate(
        self, dac_values: np.ndarray, mask: Optional[np.ndarray] = None
    ) -> BatchedStateEstimate:
        """Estimate instant rates for the masked lanes under their DACs.

        The model runs over every lane (unsynced lanes propagate their
        zero placeholder state, whose results are discarded); predictions
        are stored only for masked lanes so coasting lanes keep theirs.
        A masked lane whose prediction is non-finite stores none and is
        reported in ``faults``, as its scalar estimator raises before
        storing; unmasked lanes are never reported.
        """
        from repro.dynamics.batch import batched_matvec

        mask = self._full_mask(mask)
        if np.any(mask & ~self._synced):
            raise RuntimeError("estimator lane not synced: sync() it first")
        prediction = self.model.predict(self._jpos, self._jvel, dac_values)
        faults = {
            lane: error for lane, error in prediction.faults.items() if mask[lane]
        }
        if faults:
            mask = mask.copy()
            mask[list(faults)] = False
        lane_rows = mask[:, None]
        self._predicted_jpos = np.where(lane_rows, prediction.jpos, self._predicted_jpos)
        self._predicted_jvel = np.where(lane_rows, prediction.jvel, self._predicted_jvel)
        self._has_prediction |= mask
        mvel_now = batched_matvec(self._g, self._jvel)
        return BatchedStateEstimate(
            motor_velocity=prediction.mvel,
            motor_acceleration=(prediction.mvel - mvel_now) / self.dt,
            joint_velocity=prediction.jvel,
            jpos_next=prediction.jpos,
            jvel_next=prediction.jvel,
            elapsed_s=prediction.elapsed_s,
            faults=faults,
        )
