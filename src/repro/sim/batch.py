"""Batched execution of N independent surgical rigs in one process.

:class:`BatchedSurgicalRig` constructs N ordinary :class:`SurgicalRig`
instances (one per :class:`LaneSpec`), then rewires them so every control
cycle advances all lanes together:

- the N scalar plants are replaced by one :class:`repro.dynamics.batch
  .BatchedPlant` plus per-lane views, so the physics integrates as one
  ``(N, ...)`` operation;
- each lane's :class:`DetectorGuard` gets a *batch sink*: the guard's
  per-packet bookkeeping, supervisor screening and mitigation decisions
  stay scalar and per lane, but the numeric core (estimator sync/coast,
  one-step model prediction) runs once, batched, through
  :class:`repro.core.estimator.BatchedNextStateEstimator`;
- DAC latching onto the motor controllers is deferred within the cycle
  (the controller's USB write is its last effectful statement, so the
  deferral is invisible to the software stack) and flushed after the
  batched guard decisions, preserving the exact per-lane latch sequence —
  including zeroed latches for blocked packets and physical-layer
  ``dac_fault`` hooks firing exactly once per latch.

The result is **bit-identical per lane** to running each rig alone:
``RunTrace.fingerprint()`` of lane *i* equals the scalar run's, including
alarm cycles, blocked packets, PLC E-STOPs and degraded-mode transitions.
``tests/test_batch_equivalence.py`` enforces this with a differential
harness (:mod:`repro.testing.differential`).

Lanes may differ in seed, trajectory, pedal schedule, attack preloads,
physical-fault plans, thresholds, mitigation strategy and model parameter
error.  They must share the control period, run duration, plant
integrator/substeps and (across guarded lanes) the model integrator —
asserted at construction.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro import constants
from repro.control.state_machine import RobotState
from repro.core.estimator import BatchedNextStateEstimator
from repro.core.pipeline import DetectorGuard, GuardSupervisor
from repro.dynamics.batch import BatchedPlant, require_homogeneous
from repro.errors import SimulationError
from repro.hw.usb_board import UsbBoard
from repro.hw.usb_packet import CommandPacket
from repro.obs.runtime import get_runtime
from repro.sim.rig import RigConfig, SurgicalRig
from repro.sim.trace import RunTrace
from repro.sysmodel.linker import SharedLibrary, SystemEnvironment
from repro.teleop.network import UdpChannel


@dataclass
class LaneSpec:
    """Everything needed to construct one lane's :class:`SurgicalRig`.

    Mirrors the ``SurgicalRig`` constructor.  Guard, preload libraries and
    channel objects are stateful, so a spec must not be shared between a
    scalar and a batched run — build fresh objects per run (see
    :mod:`repro.testing.differential`).
    """

    config: RigConfig
    guard: Optional[Union[DetectorGuard, GuardSupervisor]] = None
    preload_libraries: Sequence[SharedLibrary] = ()
    trajectory: Optional[object] = None
    environment: Optional[SystemEnvironment] = None
    channel: Optional[UdpChannel] = None

    def build(self) -> SurgicalRig:
        """Construct the lane's rig."""
        return SurgicalRig(
            self.config,
            trajectory=self.trajectory,
            preload_libraries=self.preload_libraries,
            guard=self.guard,
            environment=self.environment,
            channel=self.channel,
        )


class _DeferredLatchBoard:
    """Defers a USB board's DAC latches until the batch sink has decided.

    ``UsbBoard.fd_write`` calls ``board._latch(values)`` as its final act;
    this shim captures those calls in order and replays them through the
    original ``_latch`` (which applies any ``dac_fault`` hook and latches
    onto the motor controller) at flush time.  The batched guard
    coordinator can retroactively zero a pending entry when its deferred
    evaluation decides the packet is blocked — producing the same latch
    sequence, fault-hook call count and counters as the scalar path.
    """

    def __init__(self, board: UsbBoard) -> None:
        self.board = board
        self.pending: List[Sequence[float]] = []
        self._real_latch = board._latch
        board._latch = self.pending.append

    def next_index(self) -> int:
        return len(self.pending)

    def block(self, index: int) -> None:
        """Replace a pending latch with the blocked-command zero latch."""
        self.pending[index] = [0, 0, 0]
        self.board.packets_blocked += 1

    def flush(self) -> None:
        # Mutate in place: ``board._latch`` is bound to this exact list's
        # ``append``, so rebinding ``self.pending`` would orphan it.
        pending = self.pending[:]
        self.pending.clear()
        for values in pending:
            self._real_latch(values)

    def detach(self) -> None:
        self.flush()
        self.board._latch = self._real_latch


@dataclass
class _Capture:
    """One deferred guard evaluation (one packet on one lane)."""

    lane: int  # guarded-lane index (into the batched estimator)
    guard: DetectorGuard
    packet: CommandPacket
    mpos: Optional[np.ndarray]
    latch_board: _DeferredLatchBoard
    latch_index: int


class _BatchGuardCoordinator:
    """The batch sink shared by all guarded lanes of one batched rig.

    Collects each lane's per-packet capture during the cycle's controller
    phase, then — in :meth:`finalize` — runs the estimator work batched
    and replays each lane's decision chain in its original order:

    1. batched ``sync`` for lanes with a trusted measurement, batched
       ``coast`` for lanes in degraded mode;
    2. one batched one-step model prediction for the lanes that evaluate
       this cycle (Pedal Down and synced);
    3. per lane, the scalar ``detector.evaluate`` (thresholds, fusion and
       decision windows stay per-lane state) and the guard's mitigation
       chain via ``DetectorGuard._finish_evaluation``;
    4. blocked packets retroactively zero their deferred DAC latch.
    """

    def __init__(
        self,
        guards: Sequence[DetectorGuard],
        latch_boards: Dict[int, _DeferredLatchBoard],
    ) -> None:
        require_homogeneous(
            [g.estimator.model.integrator_name for g in guards], "model integrator"
        )
        self.guards = list(guards)
        self.estimator = BatchedNextStateEstimator.from_estimators(
            [g.estimator for g in guards]
        )
        self._lane_of = {id(g): i for i, g in enumerate(guards)}
        self._latch_boards = latch_boards
        self._captures: List[List[_Capture]] = [[] for _ in guards]
        for guard in guards:
            guard._batch_sink = self

    def capture(
        self, guard: DetectorGuard, packet: CommandPacket, mpos: Optional[np.ndarray]
    ) -> bool:
        """Record one packet for deferred batched evaluation.

        Called from ``DetectorGuard.process`` (after its per-packet
        bookkeeping) in place of the inline sync/estimate/evaluate chain.
        Returns the provisional allow; the deferred latch is adjusted in
        :meth:`finalize` if the evaluation decides to block.
        """
        lane = self._lane_of[id(guard)]
        board = self._latch_boards[lane]
        self._captures[lane].append(
            _Capture(
                lane=lane,
                guard=guard,
                packet=packet,
                mpos=mpos,
                latch_board=board,
                latch_index=board.next_index(),
            )
        )
        return True

    def finalize(self) -> None:
        """Run all deferred evaluations for this cycle, batched.

        Processes one capture per lane per round (lanes normally see
        exactly one packet per control cycle; extras queue FIFO), so a
        lane's packets are always evaluated in arrival order against the
        correct estimator state.
        """
        num = len(self.guards)
        while any(self._captures):
            self.estimator.model.refresh_parameters()
            round_caps: List[Optional[_Capture]] = [
                caps.pop(0) if caps else None for caps in self._captures
            ]
            sync_mask = np.zeros(num, dtype=bool)
            coast_mask = np.zeros(num, dtype=bool)
            mpos_rows = np.zeros((num, 3))
            for cap in round_caps:
                if cap is None:
                    continue
                if cap.mpos is not None:
                    sync_mask[cap.lane] = True
                    mpos_rows[cap.lane] = cap.mpos
                else:
                    coast_mask[cap.lane] = True
            if sync_mask.any():
                self.estimator.sync(mpos_rows, sync_mask)
            if coast_mask.any():
                self.estimator.coast(coast_mask)

            synced = self.estimator.synced
            eval_mask = np.zeros(num, dtype=bool)
            dac_rows = np.zeros((num, 3))
            for cap in round_caps:
                if cap is None:
                    continue
                if cap.packet.state is RobotState.PEDAL_DOWN and synced[cap.lane]:
                    eval_mask[cap.lane] = True
                    dac_rows[cap.lane] = np.asarray(
                        cap.packet.dac_values[:3], dtype=float
                    )
            if eval_mask.any():
                batch_estimate = self.estimator.estimate(dac_rows, eval_mask)
            for cap in round_caps:
                if cap is None or not eval_mask[cap.lane]:
                    continue
                estimate = batch_estimate.lane(cap.lane)
                result = cap.guard.detector.evaluate(estimate)
                allowed = cap.guard._finish_evaluation(cap.packet, estimate, result)
                if not allowed:
                    cap.latch_board.block(cap.latch_index)

    def detach(self) -> None:
        for guard in self.guards:
            guard._batch_sink = None


class BatchedSurgicalRig:
    """N surgical rigs advanced in lockstep by one batched step."""

    def __init__(self, specs: Sequence[LaneSpec]) -> None:
        if not specs:
            raise SimulationError("at least one lane spec is required")
        require_homogeneous([s.config.duration_s for s in specs], "duration_s")
        self.specs = list(specs)
        self.num_lanes = len(specs)
        self.rigs: List[SurgicalRig] = [spec.build() for spec in specs]

        for rig in self.rigs:
            guard = rig.guard
            if guard is not None and not isinstance(
                guard, (DetectorGuard, GuardSupervisor)
            ):
                raise SimulationError(
                    "batched execution supports DetectorGuard/GuardSupervisor "
                    f"lanes only, got {type(guard).__name__}"
                )

        # One batched plant over all lanes; each rig keeps a scalar-shaped
        # view so its PLC, motor controller and encoders are untouched.
        self.plant = BatchedPlant([rig.plant for rig in self.rigs])
        for i, rig in enumerate(self.rigs):
            view = self.plant.lane(i)
            rig.plant = view
            rig.motor_controller.plant = view
            rig.plc.plant = view

        # Deferred DAC latching + the batched guard coordinator over the
        # guarded lanes (inner guards for supervisor-wrapped lanes).
        self._guarded: List[Tuple[int, DetectorGuard]] = []
        for i, rig in enumerate(self.rigs):
            guard = rig.guard
            if guard is None:
                continue
            inner = guard.guard if isinstance(guard, GuardSupervisor) else guard
            self._guarded.append((i, inner))
        self._latch_boards: Dict[int, _DeferredLatchBoard] = {}
        self.coordinator: Optional[_BatchGuardCoordinator] = None
        if self._guarded:
            boards = {
                gi: _DeferredLatchBoard(self.rigs[i].usb_board)
                for gi, (i, _) in enumerate(self._guarded)
            }
            self._latch_boards = boards
            self.coordinator = _BatchGuardCoordinator(
                [inner for _, inner in self._guarded], boards
            )

    def run(self) -> List[RunTrace]:
        """Execute all lanes and return their traces, in lane order.

        Mirrors :meth:`SurgicalRig.run` per lane, phase by phase; the
        only reordering is the deferred guard evaluation within a cycle,
        which the control software cannot observe (see module docstring).
        """
        obs = get_runtime()
        configs = [rig.config for rig in self.rigs]
        traces: List[RunTrace] = []
        listeners = []
        started = [False] * self.num_lanes

        for i, rig in enumerate(self.rigs):
            trace = RunTrace()
            trace.seed = configs[i].seed
            trace.label = configs[i].trajectory_name
            traces.append(trace)
            rig._now = 0.0

            def on_transition(
                old: RobotState,
                new: RobotState,
                rig: SurgicalRig = rig,
                trace: RunTrace = trace,
                lane: int = i,
            ) -> None:
                if new is RobotState.E_STOP and started[lane]:
                    reason = rig.controller.state_machine.last_estop_reason or ""
                    trace.estop_events.append((rig._now, reason))
                    obs.log_event(
                        "estop", t=rig._now, seed=rig.config.seed, reason=reason
                    )

            rig.controller.state_machine.add_listener(on_transition)
            listeners.append(on_transition)

        steps = int(round(configs[0].duration_s / constants.CONTROL_PERIOD_S))
        run_span = (
            obs.tracer.span(
                "rig.batch_run",
                cat="sim",
                lanes=self.num_lanes,
                steps=steps,
            )
            if obs.enabled
            else nullcontext()
        )
        with run_span:
            for k in range(steps):
                now = k * constants.CONTROL_PERIOD_S

                # Phase 1: per-lane frontend (console, network, control
                # software).  Guarded lanes capture their packet with the
                # coordinator instead of evaluating inline.
                outs = []
                for i, rig in enumerate(self.rigs):
                    rig._now = now
                    if not started[i] and now >= configs[i].start_button_s:
                        rig.controller.press_start(now)
                        started[i] = True
                    rig.socket.set_time(now)
                    if rig.phys_injector is not None:
                        rig.phys_injector.set_time(now)
                    rig.console.tick(now)
                    out = rig.controller.tick(now)
                    if not out.safety.safe:
                        traces[i].safety_trip_cycles.append(k)
                    outs.append(out)

                # Phase 2: batched guard evaluation + deferred latch flush.
                if self.coordinator is not None:
                    self.coordinator.finalize()
                for board in self._latch_boards.values():
                    board.flush()

                # Phase 3: per-lane housekeeping (watchdogs, PLC, E-STOP
                # propagation) — same order as the scalar loop.
                for i, rig in enumerate(self.rigs):
                    if rig.guard is not None:
                        rig.guard.tick_cycle(k)
                    rig.plc.tick()
                    if (
                        rig.plc.estop_latched
                        and rig.controller.state_machine.state
                        is not RobotState.E_STOP
                    ):
                        rig.controller.state_machine.emergency_stop(
                            now, reason=f"PLC: {rig.plc.estop_reason}"
                        )

                # Phase 4: one batched plant step for all lanes.
                dac_rows = np.zeros((self.num_lanes, 3))
                for i, rig in enumerate(self.rigs):
                    mc = rig.motor_controller
                    if mc._powered:
                        dac_rows[i] = mc._latched_dac
                self.plant.step(dac_rows)

                # Phase 5: per-lane trace recording + flight recorder.
                for i, rig in enumerate(self.rigs):
                    snapshot = self.plant.lane_state(i)
                    out = outs[i]
                    traces[i].record(
                        time=now,
                        state=out.state,
                        tip_pos=rig.arm.forward(snapshot.jpos),
                        pos_d=out.pos_d,
                        jpos=snapshot.jpos,
                        jvel=snapshot.jvel,
                        mpos=snapshot.mpos,
                        dac=out.dac,
                    )
                    if rig.flight is not None:
                        rig._flight_cycle(k, now, out, snapshot)
        # As in SurgicalRig.run: unregistered, the listeners no longer keep
        # each lane's rig and trace in a reference cycle.
        for rig, listener in zip(self.rigs, listeners):
            rig.controller.state_machine.remove_listener(listener)

        for i, rig in enumerate(self.rigs):
            if rig.guard is not None:
                traces[i].detector_alert_cycles = [
                    e.cycle for e in rig.guard.stats.alert_events
                ]
                if rig.guard.stats.alerts > len(traces[i].detector_alert_cycles):
                    traces[i].detector_alert_cycles.extend(
                        [-1]
                        * (
                            rig.guard.stats.alerts
                            - len(traces[i].detector_alert_cycles)
                        )
                    )
        return traces
