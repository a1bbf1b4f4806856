"""Unit tests for point-to-point links, Ethernet, and the bridge."""

import pytest

from repro.net import (
    Bridge,
    DropTailQueue,
    EthernetDevice,
    EthernetSegment,
    IPHeader,
    LinkDevice,
    LoopbackDevice,
    Packet,
    PointToPointLink,
    PROTO_ICMP,
)
from repro.sim import Simulator


def _ip_packet(src, dst, nbytes=1000):
    return Packet(ip=IPHeader(src, dst, PROTO_ICMP), payload_bytes=nbytes)


# ----------------------------------------------------------------------
# Point-to-point link
# ----------------------------------------------------------------------
def _p2p(sim, bandwidth=8e6, prop=1e-3):
    a = LinkDevice(sim, "a0", "10.0.0.1")
    b = LinkDevice(sim, "b0", "10.0.0.2")
    link = PointToPointLink(sim, a, b, bandwidth_bps=bandwidth, prop_delay=prop)
    return a, b, link


def test_p2p_delivery_time_is_serialization_plus_propagation():
    sim = Simulator()
    a, b, link = _p2p(sim, bandwidth=8e6, prop=1e-3)
    arrivals = []
    b.upstream = lambda pkt: arrivals.append(sim.now)
    p = _ip_packet("10.0.0.1", "10.0.0.2", nbytes=1000 - 34)
    a.send(p)  # 1000 wire bytes at 8 Mb/s = 1 ms
    sim.run()
    assert arrivals == [pytest.approx(0.002)]


def test_p2p_back_to_back_serialize():
    sim = Simulator()
    a, b, _ = _p2p(sim, bandwidth=8e6, prop=0.0)
    arrivals = []
    b.upstream = lambda pkt: arrivals.append(sim.now)
    for _i in range(3):
        a.send(_ip_packet("10.0.0.1", "10.0.0.2", nbytes=1000 - 34))
    sim.run()
    assert arrivals == [pytest.approx(0.001 * (i + 1)) for i in range(3)]


def test_p2p_full_duplex_directions_do_not_interfere():
    sim = Simulator()
    a, b, _ = _p2p(sim, bandwidth=8e6, prop=0.0)
    times = {}
    a.upstream = lambda pkt: times.setdefault("at_a", sim.now)
    b.upstream = lambda pkt: times.setdefault("at_b", sim.now)
    a.send(_ip_packet("10.0.0.1", "10.0.0.2", nbytes=1000 - 34))
    b.send(_ip_packet("10.0.0.2", "10.0.0.1", nbytes=1000 - 34))
    sim.run()
    assert times["at_a"] == pytest.approx(0.001)
    assert times["at_b"] == pytest.approx(0.001)


def test_p2p_counters():
    sim = Simulator()
    a, b, _ = _p2p(sim)
    b.upstream = lambda pkt: None
    a.send(_ip_packet("10.0.0.1", "10.0.0.2"))
    sim.run()
    assert a.tx_packets == 1
    assert b.rx_packets == 1


def test_down_device_drops():
    sim = Simulator()
    a, b, _ = _p2p(sim)
    a.up = False
    a.send(_ip_packet("10.0.0.1", "10.0.0.2"))
    sim.run()
    assert a.tx_drops == 1
    assert b.rx_packets == 0


def test_device_hooks_see_both_directions():
    sim = Simulator()
    a, b, _ = _p2p(sim)
    seen = []
    hook = lambda dev, pkt, direction, ts: seen.append((dev.name, direction))
    a.output_hooks.append(hook)
    b.input_hooks.append(hook)
    b.upstream = lambda pkt: None
    a.send(_ip_packet("10.0.0.1", "10.0.0.2"))
    sim.run()
    assert ("a0", "out") in seen and ("b0", "in") in seen


# ----------------------------------------------------------------------
# Loopback
# ----------------------------------------------------------------------
@pytest.mark.parametrize("device_cls", [EthernetDevice, LinkDevice])
def test_device_keeps_the_empty_queue_it_is_given(device_cls):
    queue = DropTailQueue(max_packets=3, name="given")
    device = device_cls(Simulator(), "d0", "10.0.0.1", queue=queue)
    assert device.queue is queue
    assert device_cls(Simulator(), "d1", "10.0.0.2").queue.max_packets == 100


def test_loopback_delivers_to_self():
    sim = Simulator()
    lo = LoopbackDevice(sim)
    got = []
    lo.upstream = got.append
    p = _ip_packet("127.0.0.1", "127.0.0.1")
    lo.send(p)
    sim.run()
    assert got == [p]


# ----------------------------------------------------------------------
# Ethernet segment
# ----------------------------------------------------------------------
def _ether(sim, n=2, bandwidth=10e6):
    seg = EthernetSegment(sim, bandwidth_bps=bandwidth, prop_delay=0.0)
    devs = []
    for i in range(n):
        d = EthernetDevice(sim, f"en{i}", f"10.0.0.{i + 1}")
        seg.attach(d)
        devs.append(d)
    return seg, devs


def test_ethernet_unicast_reaches_only_addressee():
    sim = Simulator()
    seg, (d1, d2, d3) = _ether(sim, n=3)
    got = {d.name: [] for d in (d1, d2, d3)}
    for d in (d1, d2, d3):
        d.upstream = (lambda name: lambda pkt: got[name].append(pkt))(d.name)
    d1.send(_ip_packet("10.0.0.1", "10.0.0.2"))
    sim.run()
    assert len(got["en1"]) == 1
    assert got["en2"] == []


def test_ethernet_floods_unknown_destination():
    sim = Simulator()
    seg, (d1, d2, d3) = _ether(sim, n=3)
    counts = {d.name: 0 for d in (d1, d2, d3)}

    def counter(name):
        def inner(pkt):
            counts[name] += 1
        return inner

    for d in (d1, d2, d3):
        d.upstream = counter(d.name)
    d1.send(_ip_packet("10.0.0.1", "10.99.99.99"))
    sim.run()
    assert counts == {"en0": 0, "en1": 1, "en2": 1}


def test_ethernet_is_half_duplex():
    sim = Simulator()
    seg, (d1, d2) = _ether(sim, bandwidth=8e6)
    arrivals = []
    d1.upstream = lambda pkt: arrivals.append(("to1", sim.now))
    d2.upstream = lambda pkt: arrivals.append(("to2", sim.now))
    # Both stations transmit 1000-byte frames at t=0: the second must
    # wait for the first to clear the shared wire.
    d1.send(_ip_packet("10.0.0.1", "10.0.0.2", nbytes=1000 - 34))
    d2.send(_ip_packet("10.0.0.2", "10.0.0.1", nbytes=1000 - 34))
    sim.run()
    times = sorted(t for _, t in arrivals)
    assert times[0] == pytest.approx(0.001)
    assert times[1] >= 0.002  # second frame serialized after the first


def test_ethernet_per_byte_cost():
    sim = Simulator()
    seg, _ = _ether(sim, bandwidth=10e6)
    assert seg.per_byte_cost() == pytest.approx(8.0 / 10e6)


def test_ethernet_accounting():
    sim = Simulator()
    seg, (d1, d2) = _ether(sim)
    d2.upstream = lambda pkt: None
    d1.send(_ip_packet("10.0.0.1", "10.0.0.2"))
    sim.run()
    assert seg.frames_carried == 1
    assert seg.bytes_carried > 0


def test_ethernet_double_attach_rejected():
    sim = Simulator()
    seg, (d1, _) = _ether(sim)
    with pytest.raises(ValueError):
        seg.attach(d1)


# ----------------------------------------------------------------------
# Bridge
# ----------------------------------------------------------------------
def test_bridge_learns_and_forwards():
    sim = Simulator()
    a = LoopbackDevice(sim, "porta", "0.0.0.0")
    b = LoopbackDevice(sim, "portb", "0.0.0.0")
    sent = {"a": [], "b": []}
    a.send = lambda pkt: sent["a"].append(pkt)   # capture egress
    b.send = lambda pkt: sent["b"].append(pkt)
    bridge = Bridge(a, b)
    # Frame from host X arrives on port A: learned + forwarded to B.
    a.upstream(_ip_packet("10.0.0.1", "10.0.0.2"))
    assert len(sent["b"]) == 1
    assert bridge.learned_addresses() == {"10.0.0.1": "porta"}
    # Reply arrives on port B: forwarded to A and learned.
    b.upstream(_ip_packet("10.0.0.2", "10.0.0.1"))
    assert len(sent["a"]) == 1
    # A frame for a host already known on the ingress side is NOT
    # forwarded back out.
    b.upstream(_ip_packet("10.0.0.9", "10.0.0.2"))
    assert len(sent["a"]) == 1
