"""Configuration of the domain-invariant lint rules.

The defaults encode *this repository's* architecture: which modules are
sanctioned to touch DAC sinks, which packages must stay deterministic for
the golden-trace suite, where safety constants are allowed to live.  The
test fixtures (and any downstream fork) swap in their own scopes by
constructing an :class:`AnalysisConfig` instead of patching rules.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple


def module_matches(module: str, scopes: Tuple[str, ...]) -> bool:
    """Whether ``module`` is one of ``scopes`` or inside one of them.

    A scope entry names either a module (``repro.core.detector``) or a
    package prefix (``repro.dynamics`` covers ``repro.dynamics.plant``).
    """
    for scope in scopes:
        if module == scope or module.startswith(scope + "."):
            return True
    return False


@dataclass(frozen=True)
class AnalysisConfig:
    """Scopes and allowlists consumed by the rule families."""

    # -- RPR001: guard bypass / TOCTOU ------------------------------------------
    #: Method names whose call latches DAC values into the actuation path.
    dac_sink_attrs: Tuple[str, ...] = ("latch", "_latch")
    #: Modules allowed to call a DAC sink directly (the guarded write path
    #: itself plus the sanctioned fault-injection seam).
    dac_sink_allowed_modules: Tuple[str, ...] = (
        "repro.hw.usb_board",
        "repro.hw.motor_controller",
        "repro.core.pipeline",
        "repro.testing.physfaults",
    )
    #: Attribute names that install guard/fault hooks on the USB board.
    guard_hook_attrs: Tuple[str, ...] = ("guard", "dac_fault")
    #: Modules allowed to (re)install those hooks on *another* object
    #: (``self.<attr> = ...`` definition sites are always allowed).
    guard_hook_allowed_modules: Tuple[str, ...] = (
        "repro.hw.usb_board",
        "repro.core.pipeline",
        "repro.testing.physfaults",
    )
    #: Attribute/variable names whose call is the guard *check*; mutating
    #: a checked value after one of these calls is the TOCTOU window.
    guard_call_names: Tuple[str, ...] = ("guard",)

    # -- RPR002: determinism ----------------------------------------------------
    #: Packages whose behaviour the golden-trace suite pins bit-for-bit.
    deterministic_packages: Tuple[str, ...] = (
        "repro.core",
        "repro.dynamics",
        "repro.sim",
        "repro.hw",
        "repro.experiments",
        "repro.obs",
        "repro.fleet",
        "repro.service",
    )
    #: The only modules allowed to read ``os.environ`` raw.
    env_shim_modules: Tuple[str, ...] = ("repro.envcfg",)
    #: The only modules allowed to call the monotonic clock directly;
    #: everything else takes duration probes through their Stopwatch /
    #: monotonic_s API so timing instrumentation stays in one seam.
    timing_probe_modules: Tuple[str, ...] = ("repro.obs.timing",)

    # -- RPR002 + RPR004: process-pool entry points -----------------------------
    #: Callable names that move work onto worker processes; their first
    #: (or ``worker=``) argument must be picklable by construction.
    pool_entry_points: Tuple[str, ...] = ("iter_tasks", "run_tasks", "submit")

    # -- RPR003: magic safety numbers -------------------------------------------
    #: Modules/packages where numeric safety literals must be named.
    constants_scope: Tuple[str, ...] = (
        "repro.control.safety",
        "repro.core.detector",
        "repro.dynamics",
    )
    #: Structurally innocuous integers (identities, tiny arities/indices).
    allowed_int_literals: Tuple[int, ...] = (-2, -1, 0, 1, 2, 3, 4)
    #: Structurally innocuous floats (identities and halves).
    allowed_float_literals: Tuple[float, ...] = (-1.0, 0.0, 0.5, 1.0, 1.5, 2.0)

    # -- RPR005: safety-path dominance (whole-program) --------------------------
    #: Qualified names (``module.Class.method`` / ``module.func``) where
    #: packet/telemetry data enters the system.  Every call-graph path
    #: from one of these to a DAC sink must pass a detector gate.
    ingest_entry_points: Tuple[str, ...] = (
        "repro.fleet.supervisor.FleetSupervisor.ingest",
        "repro.fleet.supervisor.FleetSupervisor.tick",
        "repro.hw.usb_board.UsbBoard.fd_write",
    )
    #: Qualified names of functions that *are* the detector gate.  A
    #: function whose body calls through a ``guard_call_names`` attribute
    #: also counts as a gate site without being listed here.
    safety_gate_functions: Tuple[str, ...] = (
        "repro.core.pipeline.DetectorGuard.__call__",
        "repro.core.pipeline.DetectorGuard.process",
        "repro.core.pipeline.GuardSupervisor.__call__",
        "repro.core.pipeline.GuardSupervisor.process",
    )

    # -- RPR006: state-lifecycle completeness -----------------------------------
    #: Modules/packages whose classes must keep ``reset``/``snapshot``/
    #: ``restore`` coverage of every mutable ``__init__`` attribute.
    lifecycle_scope: Tuple[str, ...] = ("repro.core", "repro.fleet")
    #: Method-name families recognized as the lifecycle surface.
    lifecycle_reset_methods: Tuple[str, ...] = ("reset", "reset_counters")
    lifecycle_snapshot_methods: Tuple[str, ...] = (
        "snapshot",
        "snapshot_payload",
        "lane_state",
    )
    lifecycle_restore_methods: Tuple[str, ...] = (
        "restore",
        "restore_payload",
        "load_lane_state",
    )
    #: Attribute-name globs that are wiring, not state (telemetry handles,
    #: board attachments, deferred batch sinks) — never required.
    lifecycle_wiring_attrs: Tuple[str, ...] = ("_obs_*", "_board", "_batch_sink")

    # -- RPR007: scalar/batched API parity ---------------------------------------
    #: Modules/packages scanned for ``Batched*`` classes.
    parity_scope: Tuple[str, ...] = (
        "repro.core",
        "repro.dynamics",
        "repro.sim",
        "repro.experiments",
    )
    #: ``Batched*`` classes whose scalar counterpart is not simply the
    #: name with the prefix stripped.
    parity_pairs: Tuple[Tuple[str, str], ...] = (
        ("BatchedDynamicModel", "RavenDynamicModel"),
    )
    #: ``(scalar_method, batched_alternative)``: the scalar method is
    #: mirrored when *any* of its alternatives exists on the batched
    #: class.
    parity_aliases: Tuple[Tuple[str, str], ...] = (
        ("snapshot", "lane_state"),
        ("restore", "load_lane_state"),
        ("window", "lane_window"),
        ("jpos", "lane_jpos"),
        ("jvel", "lane_jvel"),
    )
    #: Scalar methods that are per-lane configuration/calibration/timing
    #: seams, deliberately not mirrored by the batched kernels.
    parity_exempt_methods: Tuple[str, ...] = (
        "calibrate",
        "thresholds",
        "apply_parameter_drift",
        "mean_predict_seconds",
        "reset_timing",
        "gravity_compensation",
    )

    # -- RPR008: exception-flow quarantine discipline ----------------------------
    #: Modules/packages where lane-scoped exception handling must reach a
    #: quarantine/retry boundary.
    quarantine_scope: Tuple[str, ...] = (
        "repro.fleet",
        "repro.experiments.parallel",
        "repro.service",
    )
    #: Call-chain segments that count as routing a fault to quarantine.
    quarantine_sink_names: Tuple[str, ...] = (
        "quarantine",
        "_quarantine",
        "_escalate_stale",
        "quarantine_file",
        "faults",
    )
    #: Exception classes whose silent swallowing is forbidden (checked
    #: together with their statically known superclasses).
    integrity_error_names: Tuple[str, ...] = ("SnapshotIntegrityError",)
    #: Modules sanctioned to catch-and-continue integrity errors (the
    #: newest-verifiable-checkpoint fallback walk).
    integrity_fallback_modules: Tuple[str, ...] = ("repro.fleet.store",)

    # -- engine -------------------------------------------------------------------
    #: Rule ids to run (others are registered but skipped).
    enabled_rules: Tuple[str, ...] = field(
        default=(
            "RPR001",
            "RPR002",
            "RPR003",
            "RPR004",
            "RPR005",
            "RPR006",
            "RPR007",
            "RPR008",
        )
    )


#: The repository's own configuration.
DEFAULT_CONFIG = AnalysisConfig()
