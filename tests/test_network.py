"""Tests for repro.teleop.network and repro.teleop.pedal."""

import pytest

from repro.teleop.network import (
    ExfiltrationSink,
    LoopbackExfiltration,
    UdpChannel,
    UdpSocket,
)
from repro.teleop.pedal import PedalSchedule


class TestUdpChannel:
    def test_zero_latency_immediate_delivery(self):
        ch = UdpChannel()
        ch.send(b"hello", now=1.0)
        assert ch.receive(1.0) == b"hello"

    def test_latency_delays_delivery(self):
        ch = UdpChannel(latency_s=0.01)
        ch.send(b"x", now=0.0)
        assert ch.receive(0.005) is None
        assert ch.receive(0.011) == b"x"

    def test_fifo_order(self):
        ch = UdpChannel()
        ch.send(b"a", 0.0)
        ch.send(b"b", 0.0)
        assert ch.receive(0.0) == b"a"
        assert ch.receive(0.0) == b"b"

    def test_loss_drops_packets(self, rng):
        ch = UdpChannel(loss_probability=0.5, rng=rng)
        for i in range(200):
            ch.send(bytes([i % 256]), 0.0)
        assert 0 < ch.dropped < 200
        assert ch.pending() == ch.sent - ch.dropped

    def test_jitter_requires_rng(self):
        with pytest.raises(ValueError):
            UdpChannel(jitter_s=0.01)

    def test_invalid_loss_rejected(self, rng):
        with pytest.raises(ValueError):
            UdpChannel(loss_probability=1.5, rng=rng)

    def test_negative_latency_rejected(self):
        with pytest.raises(ValueError):
            UdpChannel(latency_s=-1.0)


class TestUdpSocket:
    def test_recvfrom_none_when_empty(self):
        sock = UdpSocket(UdpChannel(), port=1234)
        assert sock.fd_recvfrom(100) is None

    def test_recvfrom_honours_channel_time(self):
        ch = UdpChannel(latency_s=0.05)
        sock = UdpSocket(ch, port=1234)
        ch.send(b"data", now=0.0)
        sock.set_time(0.01)
        assert sock.fd_recvfrom(100) is None
        sock.set_time(0.06)
        assert sock.fd_recvfrom(100) == b"data"

    def test_truncates_to_max_bytes(self):
        ch = UdpChannel()
        sock = UdpSocket(ch, port=1)
        ch.send(b"abcdef", 0.0)
        assert sock.fd_recvfrom(3) == b"abc"

    def test_fd_read_empty_bytes_when_no_data(self):
        sock = UdpSocket(UdpChannel(), port=1)
        assert sock.fd_read(10) == b""

    def test_fd_write_loops_back(self):
        ch = UdpChannel()
        sock = UdpSocket(ch, port=1)
        sock.fd_write(b"loop")
        assert ch.receive(0.0) == b"loop"


class TestExfiltration:
    def test_sink_records(self):
        sink = ExfiltrationSink()
        sink.fd_write(b"secret")
        assert len(sink) == 1
        assert sink.datagrams[0] == b"secret"

    def test_sink_read_empty(self):
        assert ExfiltrationSink().fd_read(10) == b""

    def test_loopback_roundtrip(self):
        loop = LoopbackExfiltration()
        try:
            loop.fd_write(b"packet-1")
            loop.fd_write(b"packet-2")
            received = loop.drain()
            assert received == [b"packet-1", b"packet-2"]
            assert loop.sent == 2
        finally:
            loop.close()


class TestPedalSchedule:
    def test_default_released(self):
        assert not PedalSchedule().state(10.0)

    def test_pressed_during(self):
        pedal = PedalSchedule.pressed_during(1.0, 2.0)
        assert not pedal.state(0.5)
        assert pedal.state(1.0)
        assert pedal.state(1.9)
        assert not pedal.state(2.0)

    def test_always_down(self):
        pedal = PedalSchedule.always_down(from_time=0.3)
        assert not pedal.state(0.2)
        assert pedal.state(5.0)

    def test_invalid_window_rejected(self):
        with pytest.raises(ValueError):
            PedalSchedule.pressed_during(2.0, 1.0)

    def test_edges_between(self):
        pedal = PedalSchedule([(1.0, True), (2.0, False), (3.0, True)])
        edges = pedal.edges_between(0.5, 2.5)
        assert edges == [(1.0, True), (2.0, False)]

    def test_events_sorted(self):
        pedal = PedalSchedule([(2.0, False), (1.0, True)])
        assert pedal.events[0][0] == 1.0
