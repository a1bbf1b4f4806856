"""Unit tests for the trace collection machinery (§3.1)."""

import gc
import weakref

import pytest

from repro.apps.ping import ModifiedPing
from repro.core.collection import (
    CircularTraceBuffer,
    CollectionDaemon,
    PacketTracer,
    trace_collection_run,
)
from repro.core.traceformat import (
    DIR_IN,
    DIR_OUT,
    DeviceStatusRecord,
    LostRecordsRecord,
    PacketRecord,
)
from repro.hosts import LAPTOP_ADDR, SERVER_ADDR
from repro.scenarios import ChatterboxScenario
from repro.validation.harness import collect_trace


def _rec(i=0):
    return PacketRecord(timestamp=float(i), direction=DIR_OUT, proto=1,
                        size=64, seq=i)


# ----------------------------------------------------------------------
# Circular buffer
# ----------------------------------------------------------------------
def test_buffer_appends_and_drains_in_order():
    buf = CircularTraceBuffer(capacity=10)
    for i in range(3):
        buf.append(_rec(i))
    assert [r.seq for r in buf.drain()] == [0, 1, 2]
    assert len(buf) == 0


def test_buffer_overrun_evicts_oldest():
    buf = CircularTraceBuffer(capacity=2)
    for i in range(5):
        buf.append(_rec(i))
    drained = buf.drain()
    # Leading lost_records entry, then the surviving two records.
    assert isinstance(drained[0], LostRecordsRecord)
    assert drained[0].count == 3
    assert [r.seq for r in drained[1:]] == [3, 4]


def test_buffer_tracks_losses_by_type():
    buf = CircularTraceBuffer(capacity=1)
    buf.append(_rec())
    buf.append(DeviceStatusRecord(0.0, 1.0, 1.0, 1.0))  # evicts the packet
    buf.append(_rec())  # evicts the status
    lost = {r.record_type: r.count for r in buf.drain()
            if isinstance(r, LostRecordsRecord)}
    assert lost == {"packet": 1, "device_status": 1}


def test_buffer_drain_with_limit():
    buf = CircularTraceBuffer(capacity=10)
    for i in range(5):
        buf.append(_rec(i))
    first = buf.drain(max_records=2)
    assert [r.seq for r in first] == [0, 1]
    assert len(buf) == 3


def test_buffer_rejects_bad_capacity():
    with pytest.raises(ValueError):
        CircularTraceBuffer(capacity=0)


def test_buffer_counters():
    buf = CircularTraceBuffer(capacity=2)
    for i in range(4):
        buf.append(_rec(i))
    assert buf.total_appended == 4
    assert buf.total_lost == 2


# ----------------------------------------------------------------------
# Tracer + pseudo-device
# ----------------------------------------------------------------------
def test_tracing_disabled_until_device_opened(live_world):
    w = live_world
    tracer = PacketTracer(w.laptop, w.radio)
    w.laptop.icmp.send_echo(LAPTOP_ADDR, SERVER_ADDR, 1, 0, 64)
    w.run(until=1.0)
    assert tracer.packets_traced == 0


def test_open_enables_close_disables(live_world):
    w = live_world
    tracer = PacketTracer(w.laptop, w.radio)
    dev = tracer.pseudo_device
    dev.open()
    w.laptop.icmp.send_echo(LAPTOP_ADDR, SERVER_ADDR, 1, 0, 64)
    w.run(until=1.0)
    traced_while_open = tracer.packets_traced
    dev.close()
    w.laptop.icmp.send_echo(LAPTOP_ADDR, SERVER_ADDR, 1, 1, 64)
    w.run(until=2.0)
    assert traced_while_open == 2  # echo out + reply in
    assert tracer.packets_traced == traced_while_open


def test_read_requires_open(live_world):
    tracer = PacketTracer(live_world.laptop, live_world.radio)
    with pytest.raises(RuntimeError):
        tracer.pseudo_device.read()


def test_packet_records_capture_both_directions(live_world):
    w = live_world
    tracer = PacketTracer(w.laptop, w.radio)
    tracer.pseudo_device.open()
    w.laptop.icmp.send_echo(LAPTOP_ADDR, SERVER_ADDR, 1, 4, 64)
    w.run(until=1.0)
    records = tracer.pseudo_device.read()
    directions = [r.direction for r in records]
    assert directions == [DIR_OUT, DIR_IN]
    assert all(r.seq == 4 for r in records)


def test_echoreply_record_has_single_clock_rtt(live_world):
    w = live_world
    tracer = PacketTracer(w.laptop, w.radio)
    tracer.pseudo_device.open()
    ping = ModifiedPing(w.laptop, SERVER_ADDR)
    w.laptop.spawn(ping.run(2.0))
    w.run(until=4.0)
    replies = [r for r in tracer.pseudo_device.read()
               if isinstance(r, PacketRecord) and r.icmp_type == 0]
    assert replies
    assert all(0.0 < r.rtt < 1.0 for r in replies)


def test_status_sampling_produces_periodic_records(live_world):
    w = live_world
    tracer = PacketTracer(w.laptop, w.radio, status_period=1.0)
    tracer.pseudo_device.open()
    tracer.start_status_sampling()
    w.run(until=5.5)
    statuses = [r for r in tracer.pseudo_device.read()
                if isinstance(r, DeviceStatusRecord)]
    assert 4 <= len(statuses) <= 7
    assert all(s.signal_level > 0 for s in statuses)


def test_timestamps_use_host_clock_not_sim_clock(live_world):
    w = live_world  # laptop clock drifts by default
    tracer = PacketTracer(w.laptop, w.radio)
    tracer.pseudo_device.open()

    def late_ping():
        from repro.sim import Timeout
        yield Timeout(50.0)
        w.laptop.icmp.send_echo(LAPTOP_ADDR, SERVER_ADDR, 1, 0, 64)

    w.laptop.spawn(late_ping())
    w.run(until=52.0)
    (record, *_) = tracer.pseudo_device.read()
    assert record.timestamp != pytest.approx(50.0, abs=1e-9)
    assert record.timestamp == pytest.approx(50.0, abs=0.1)


def test_non_ip_packets_ignored(live_world):
    w = live_world
    tracer = PacketTracer(w.laptop, w.radio)
    tracer.pseudo_device.open()
    from repro.net import Packet
    w.radio.send(Packet(payload_bytes=10))  # no IP header
    w.run(until=1.0)
    assert tracer.packets_ignored >= 1
    assert tracer.packets_traced == 0


# ----------------------------------------------------------------------
# Daemon
# ----------------------------------------------------------------------
def test_daemon_accumulates_records(live_world):
    w = live_world
    daemon = trace_collection_run(w.laptop, w.radio)
    ping = ModifiedPing(w.laptop, SERVER_ADDR)
    w.laptop.spawn(ping.run(5.0))
    w.run(until=8.0)
    packets = [r for r in daemon.records if isinstance(r, PacketRecord)]
    statuses = [r for r in daemon.records if isinstance(r, DeviceStatusRecord)]
    assert len(packets) >= 20
    assert len(statuses) >= 4


def test_daemon_stop_drains_remaining(live_world):
    w = live_world
    tracer = PacketTracer(w.laptop, w.radio)
    daemon = CollectionDaemon(w.laptop, tracer.pseudo_device.name,
                              drain_period=10.0)  # slow drain on purpose
    proc = w.laptop.spawn(daemon.loop())
    w.run(until=0.5)
    w.laptop.icmp.send_echo(LAPTOP_ADDR, SERVER_ADDR, 1, 0, 64)
    w.run(until=1.0)
    daemon.stop()
    w.run(until=12.0)
    assert not proc.alive
    assert any(isinstance(r, PacketRecord) for r in daemon.records)


def test_small_buffer_overrun_is_reported(live_world):
    w = live_world
    tracer = PacketTracer(w.laptop, w.radio, buffer_capacity=4)
    tracer.pseudo_device.open()
    for i in range(20):
        w.laptop.icmp.send_echo(LAPTOP_ADDR, SERVER_ADDR, 1, i, 32)
    w.run(until=2.0)
    records = tracer.pseudo_device.read()
    lost = [r for r in records if isinstance(r, LostRecordsRecord)]
    assert lost and lost[0].count > 0


def test_collected_records_are_freed_with_the_returned_list():
    """``collect_trace`` hands over the daemon's records list: the
    finished world is a reference cycle that lives until a full garbage
    collection, and the records must not wait for it."""
    gc.disable()
    try:
        records = collect_trace(ChatterboxScenario(), 3, 0, duration=10.0)
        assert len(records) == 1415
        refs = [weakref.ref(r) for r in records]
        del records
        assert [ref for ref in refs if ref() is not None] == []
    finally:
        gc.enable()
