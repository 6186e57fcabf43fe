"""Forking a paused rig at the attack's arming point.

A campaign simulates each seed's pre-attack prefix once and forks every
cell's replicas from it (:class:`repro.sim.runner.AttackRun`).  These
tests pin the contract that makes that sound: a forked replica records
exactly what a straight run records, the source is unaffected by its
forks, and a fork shares no mutable state with its source beyond the
telemetry runtime and the recorded trace entries.

The runs are short: Pedal Down is pressed at 0.1 s and the attack waits
50 engaged cycles, so the trigger arms at cycle 301 of 450.
"""

from __future__ import annotations

import gc
import pickle
from enum import Enum
from types import BuiltinFunctionType, CodeType, FunctionType, ModuleType

import numpy as np
import pytest

from repro.attacks.campaign import CampaignRunner, PrefixStore
from repro.attacks.injection import AttackRecord
from repro.core.mitigation import MitigationStrategy
from repro.obs.runtime import get_runtime
from repro.sim.rig import _TRACE_SERIES
from repro.sim.runner import (
    AttackRun,
    attack_payload,
    make_detector_guard,
    run_scenario_a,
    run_scenario_b,
)
from repro.testing.physfaults import PhysFaultPlan, PhysFaultSpec

SEED = 3
TIMING = dict(duration_s=0.45, attack_delay_cycles=50, pedal_press_s=0.1)
ERRORS = {"A": 2.0, "B": 26000}
STRAIGHT = {"A": run_scenario_a, "B": run_scenario_b}


def _guard(thresholds, monitored):
    if not monitored:
        return None
    return make_detector_guard(thresholds, strategy=MitigationStrategy.MONITOR)


def _summary(result):
    guard = None if result.guard is None else result.guard.stats.summary()
    return result.trace.fingerprint(), guard, result.record.fired


def _straight(scenario, period, thresholds, monitored, **timing):
    error = ERRORS[scenario]
    return STRAIGHT[scenario](
        SEED,
        error,
        period,
        guard=_guard(thresholds, monitored),
        raven_safety_enabled=monitored,
        **timing,
    )


def _prefix(scenario, thresholds, monitored, **timing):
    attack = AttackRun.build(
        scenario,
        SEED,
        guard=_guard(thresholds, monitored),
        raven_safety_enabled=monitored,
        **timing,
    )
    attack.run_to_arming()
    return attack


def _finish(attack, scenario, period):
    error = ERRORS[scenario]
    attack.arm(attack_payload(scenario, SEED, error), period)
    return attack.finish(AttackRecord(scenario, error, period))


@pytest.mark.parametrize("monitored", [False, True], ids=["ground_truth", "monitored"])
@pytest.mark.parametrize("scenario", ["A", "B"])
def test_forks_equal_straight_runs_and_leave_the_source_intact(
    scenario, monitored, loose_thresholds
):
    prefix = _prefix(scenario, loose_thresholds, monitored, **TIMING)
    assert prefix.injection.trigger.armed
    assert not prefix.rig.finished
    straight = {}
    for period in (1, 256):
        straight[period] = _summary(
            _straight(scenario, period, loose_thresholds, monitored, **TIMING)
        )
        forked = _summary(_finish(prefix.fork(), scenario, period))
        assert forked == straight[period]
        assert forked[2], "the attack must fire inside the run"
    # The source, after handing out forks, still runs to the straight run.
    assert _summary(_finish(prefix, scenario, 1)) == straight[1]


def test_run_that_ends_before_arming(loose_thresholds):
    timing = dict(TIMING, duration_s=0.3)
    prefix = _prefix("B", loose_thresholds, True, **timing)
    assert prefix.rig.finished and not prefix.injection.trigger.armed
    straight = _summary(_straight("B", 16, loose_thresholds, True, **timing))
    assert _summary(_finish(prefix.fork(), "B", 16)) == straight
    assert not straight[2]


def test_fork_under_an_encoder_fault_plan(tmp_path, monkeypatch, loose_thresholds):
    # Faults in force on both sides of the arming point: the stuck
    # encoder's held counts and the glitch generator must fork too.
    plan = PhysFaultPlan(
        specs=[
            PhysFaultSpec(kind="encoder_glitch", intensity=0.05, start_s=0.06),
            PhysFaultSpec(kind="encoder_stuck", axis=1, start_s=0.28, stop_s=0.35),
        ],
        seed=7,
    )
    monkeypatch.setenv("REPRO_PHYS_FAULT_PLAN", str(plan.save(tmp_path / "plan.json")))
    prefix = _prefix("B", loose_thresholds, True, **TIMING)
    assert prefix.rig.phys_injector is not None
    assert prefix.rig.phys_injector.encoder_faults_fired > 0
    straight = _summary(_straight("B", 16, loose_thresholds, True, **TIMING))
    assert _summary(_finish(prefix.fork(), "B", 16)) == straight


# -- the campaign's prefix store ----------------------------------------------------


@pytest.mark.parametrize("jobs", [1, 2], ids=["serial", "pool"])
def test_a_campaign_call_builds_each_prefix_once(jobs, loose_thresholds, monkeypatch):
    """In-process, every cell forks one prefix per replica kind; with a
    pool, the workers build their own and this process builds none."""
    built = []
    original = CampaignRunner._prefix

    def counting(self, scenario, seed, monitored):
        built.append((scenario, seed, monitored))
        return original(self, scenario, seed, monitored)

    monkeypatch.setattr(CampaignRunner, "_prefix", counting)
    runner = CampaignRunner(
        loose_thresholds, duration_s=0.5, attack_delay_cycles=50, jobs=jobs
    )
    result = runner.run_campaign("B", [26000], [1, 16], repetitions=1, fault_free_runs=1)
    assert all(o.attack_fired for o in result.outcomes if not o.is_fault_free)
    expected = [("B", 0, False), ("B", 0, True)] if jobs == 1 else []
    assert sorted(built) == expected
    assert runner._prefixes is None


def test_a_pickled_store_keeps_nothing():
    store = PrefixStore()
    store._prefixes[("B", 0, False)] = object()
    copy = pickle.loads(pickle.dumps(store))
    assert not copy.keep and copy._prefixes == {}
    built = object()
    assert copy.fork(lambda *key: built, "B", 0, False) is built
    assert copy._prefixes == {}


# -- what a fork shares --------------------------------------------------------------

#: Types whose instances a fork and its source may share: immutable values
#: and code (a function that closes over nothing acts on its arguments only).
_IMMUTABLE = (
    int, float, complex, str, bytes, bool, type(None), tuple, frozenset, range,
    slice, Enum, np.generic, np.dtype, BuiltinFunctionType, CodeType,
)


def _reachable(root):
    """Every object reachable from ``root``, by id, not descending into
    classes or modules.  A function is followed into its closure cells
    only: its globals and code belong to its module."""
    seen = {}
    stack = [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, ModuleType)):
            continue
        seen[id(obj)] = obj
        if isinstance(obj, FunctionType):
            stack.extend(cell.cell_contents for cell in obj.__closure__ or ())
        else:
            stack.extend(gc.get_referents(obj))
    return seen


def _shared_mutable(fork, source, independent, trace):
    """Mutable objects a fork shares with its source but not with an
    independently built run, minus the two things a fork may share: the
    telemetry runtime and the entries of the source's ``trace``."""
    allowed = set(_reachable(get_runtime()))
    for name in _TRACE_SERIES:
        for entry in getattr(trace, name):
            allowed.update(_reachable(entry))
    theirs = _reachable(source)
    common = set(_reachable(fork)) & set(theirs)
    common -= set(_reachable(independent)) | allowed
    return [
        theirs[i]
        for i in common
        if not isinstance(theirs[i], _IMMUTABLE)
        and not (isinstance(theirs[i], FunctionType) and not theirs[i].__closure__)
    ]


@pytest.mark.parametrize("scenario", ["A", "B"])
def test_fork_shares_only_the_runtime_and_trace_entries(scenario, loose_thresholds):
    source = _prefix(scenario, loose_thresholds, True, **TIMING)
    independent = _prefix(scenario, loose_thresholds, True, **dict(TIMING, duration_s=0.12))
    fork = source.fork()
    assert fork.rig.trace is not source.rig.trace
    assert fork.rig.trace.tip_pos is not source.rig.trace.tip_pos
    assert fork.rig.trace.tip_pos[-1] is source.rig.trace.tip_pos[-1]
    shared = _shared_mutable(fork, source, independent, source.rig.trace)
    assert shared == [], [type(obj).__name__ for obj in shared]


def test_walk_finds_a_closure_hook(loose_thresholds):
    # The walk's own check, on a bare rig: a closure bound to the source
    # is caught.
    rig = _prefix("B", loose_thresholds, False, **TIMING).rig
    board = rig.usb_board
    rig.encoders.count_fault = lambda counts: board.encoder_counts() and counts
    independent = _prefix("B", loose_thresholds, False, **dict(TIMING, duration_s=0.12))
    shared = _shared_mutable(rig.fork(), rig, independent.rig, rig.trace)
    assert any(obj is board for obj in shared)
