"""Span recording: self time over overlapping children, wrapper lifetime."""

from __future__ import annotations

import contextvars

import pytest

from perfbench import trace


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_union_length_counts_overlaps_once():
    assert trace.union_length([]) == 0.0
    assert trace.union_length([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)]) == 4.0
    assert trace.union_length([(0.0, 10.0), (2.0, 3.0)]) == 10.0


def test_self_time_subtracts_the_union_of_concurrent_children(monkeypatch):
    clock = FakeClock()
    monkeypatch.setattr(trace, "perf_counter", clock)
    rec = trace.Recorder()
    parent = rec.open("service.run_tick")
    # Two children open in their own contexts, as two asyncio tasks do.
    first_ctx, second_ctx = contextvars.copy_context(), contextvars.copy_context()
    clock.now = 1.0
    first = first_ctx.run(rec.open, "service.client_pipeline")
    clock.now = 2.0
    second = second_ctx.run(rec.open, "service.client_pipeline")
    clock.now = 4.0
    first_ctx.run(rec.close, first)
    clock.now = 5.0
    second_ctx.run(rec.close, second)
    clock.now = 6.0
    rec.close(parent)

    assert first.parent is parent and second.parent is parent
    # 6 s minus the union [1, 5] of its children — not minus their sum.
    assert rec.stats["service.run_tick"] == [1, 2.0]
    assert rec.stats["service.client_pipeline"] == [2, 6.0]
    assert rec.root_time() == 6.0


def test_requests_are_inherited_and_filtered():
    rec = trace.Recorder(min_request=5)
    rec.request = 4
    early = rec.open("fleet.tick")
    rec.close(early)
    outer = rec.open("fleet.tick", request=7)
    inner = rec.open("fleet.checkpoint")
    rec.close(inner)
    rec.close(outer)
    assert inner.request == 7
    assert rec.stats["fleet.tick"][0] == 1
    assert [span[0] for span in rec.kept] == ["fleet.checkpoint", "fleet.tick"]


def test_measuring_wraps_only_traced_runs():
    targets = len(trace.SPANS) + 1  # every span plus the retry counter
    assert trace.installed() == 0
    with trace.measuring(None):
        assert trace.installed() == 0
    rec = trace.Recorder()
    with trace.measuring(rec):
        assert trace.installed() == targets
    assert trace.installed() == 0
    assert rec.wall > 0.0


def test_an_untraced_workload_installs_no_wrappers(monkeypatch):
    from perfbench import workloads

    def refuse(rec):
        raise AssertionError("an untraced run installed wrappers")

    monkeypatch.setattr(trace, "install", refuse)
    outcome = workloads.fleet_tick(0, 0.2, workloads.SMOKE, 1, None)
    assert outcome.checks["resumed_fingerprints_vs_live"] == "ok"
    assert trace.installed() == 0


def test_wrappers_restore_the_original_bindings():
    from repro.fleet.store import SessionSnapshot
    from repro.service import frontend, protocol

    before = (
        frontend.frame_to_wire,
        protocol.encode_message,
        SessionSnapshot.__dict__["create"],
    )
    with trace.measuring(trace.Recorder()):
        assert frontend.frame_to_wire is not before[0]
        assert isinstance(SessionSnapshot.__dict__["create"], classmethod)
    after = (
        frontend.frame_to_wire,
        protocol.encode_message,
        SessionSnapshot.__dict__["create"],
    )
    assert after == before


def test_install_twice_is_refused():
    rec = trace.Recorder()
    with trace.measuring(rec):
        with pytest.raises(RuntimeError):
            trace.install(rec)
