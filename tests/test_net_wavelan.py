"""Unit tests for the WaveLAN radio model."""

import hashlib

import pytest

from repro.net import (
    ChannelConditions,
    ChannelProfile,
    DropTailQueue,
    EthernetDevice,
    EthernetSegment,
    IPHeader,
    Packet,
    PiecewiseProfile,
    PROTO_ICMP,
    PROTO_UDP,
    WaveLANDevice,
    WirelessMedium,
)
from repro.net import wavelan
from repro.net.packet import POOL
from repro.sim import RngStreams, Simulator


def _cond(signal=20.0, lu=0.0, ld=0.0, bw=1.0, access=0.0):
    return ChannelConditions(signal_level=signal, loss_prob_up=lu,
                             loss_prob_down=ld, bandwidth_factor=bw,
                             access_latency_mean=access)


class _Const(ChannelProfile):
    def __init__(self, cond):
        self._cond = cond

    def conditions(self, t):
        return self._cond


def _pair(sim, profile=None, bursty=False):
    medium = WirelessMedium(sim, RngStreams(1), bursty_loss=bursty)
    mobile = WaveLANDevice(sim, "wl0", "10.0.0.2", profile=profile)
    base = WaveLANDevice(sim, "ap0", "10.0.0.254", is_base=True)
    medium.attach(mobile)
    medium.attach(base)
    return medium, mobile, base


def _packet(src, dst, nbytes=1000):
    return Packet(ip=IPHeader(src, dst, PROTO_ICMP), payload_bytes=nbytes)


# ----------------------------------------------------------------------
# Conditions and profiles
# ----------------------------------------------------------------------
def test_conditions_clamped():
    c = ChannelConditions(signal_level=-3, loss_prob_up=1.7,
                          loss_prob_down=-0.2, bandwidth_factor=5.0,
                          access_latency_mean=-1.0).clamped()
    assert c.signal_level == 0.0
    assert c.loss_prob_up == 1.0
    assert c.loss_prob_down == 0.0
    assert c.bandwidth_factor == 1.0
    assert c.access_latency_mean == 0.0


def test_conditions_loss_by_direction():
    c = _cond(lu=0.3, ld=0.1)
    assert c.loss_prob("up") == 0.3
    assert c.loss_prob("down") == 0.1


def test_default_profile_is_perfect():
    c = ChannelProfile().conditions(123.0)
    assert c.loss_prob_up == 0.0
    assert c.bandwidth_factor == 1.0


def test_default_channel_is_one_shared_object():
    # Stations on the default profile (SynRGen cross traffic) or on
    # none read it once per frame; no frame allocates conditions.
    assert ChannelProfile().conditions(0.0) is wavelan._PERFECT_CHANNEL
    assert ChannelProfile().conditions(99.0) is wavelan._PERFECT_CHANNEL


def test_piecewise_interpolates_linearly():
    prof = PiecewiseProfile([
        (0.0, _cond(signal=10.0, bw=0.5)),
        (10.0, _cond(signal=20.0, bw=1.0)),
    ])
    mid = prof.conditions(5.0)
    assert mid.signal_level == pytest.approx(15.0)
    assert mid.bandwidth_factor == pytest.approx(0.75)


def test_piecewise_clamps_outside_range():
    prof = PiecewiseProfile([(0.0, _cond(signal=10)), (10.0, _cond(signal=20))])
    assert prof.conditions(-5.0).signal_level == 10
    assert prof.conditions(50.0).signal_level == 20


def test_piecewise_requires_points():
    with pytest.raises(ValueError):
        PiecewiseProfile([])


# ----------------------------------------------------------------------
# Medium behaviour
# ----------------------------------------------------------------------
def test_frame_delivered_to_addressee():
    sim = Simulator()
    medium, mobile, base = _pair(sim)
    got = []
    base.upstream = got.append
    mobile.send(_packet("10.0.0.2", "10.0.0.254"))
    sim.run()
    assert len(got) == 1


def test_unknown_destination_floods():
    sim = Simulator()
    medium, mobile, base = _pair(sim)
    got = []
    base.upstream = got.append
    mobile.send(_packet("10.0.0.2", "10.0.0.1"))  # server beyond the AP
    sim.run()
    assert len(got) == 1  # the base hears it (and would bridge it on)


def test_bandwidth_factor_stretches_transmission():
    times = {}
    for bw in (1.0, 0.5):
        sim = Simulator()
        medium, mobile, base = _pair(sim, profile=_Const(_cond(bw=bw)))
        mobile.driver_gap = 0.0
        base.upstream = lambda pkt: times.setdefault(bw, sim.now)
        mobile.send(_packet("10.0.0.2", "10.0.0.254"))
        sim.run()
    assert times[0.5] > times[1.0] * 1.5


def test_total_loss_drops_everything():
    sim = Simulator()
    medium, mobile, base = _pair(sim, profile=_Const(_cond(lu=1.0)))
    got = []
    base.upstream = got.append
    for _ in range(20):
        mobile.send(_packet("10.0.0.2", "10.0.0.254", nbytes=10))
    sim.run()
    assert got == []
    assert medium.frames_lost == 20


def test_loss_is_directional():
    sim = Simulator()
    medium, mobile, base = _pair(sim, profile=_Const(_cond(lu=1.0, ld=0.0)))
    up, down = [], []
    base.upstream = up.append
    mobile.upstream = down.append
    mobile.send(_packet("10.0.0.2", "10.0.0.254", nbytes=10))
    base.send(_packet("10.0.0.254", "10.0.0.2", nbytes=10))
    sim.run()
    assert up == []          # uplink lost
    assert len(down) == 1    # downlink survives


def test_base_transmission_uses_mobile_receiver_profile():
    sim = Simulator()
    medium, mobile, base = _pair(sim, profile=_Const(_cond(ld=1.0)))
    got = []
    mobile.upstream = got.append
    base.send(_packet("10.0.0.254", "10.0.0.2", nbytes=10))
    sim.run()
    assert got == []  # the mobile's downlink loss applied


def test_medium_is_half_duplex():
    sim = Simulator()
    medium, mobile, base = _pair(sim)
    mobile.driver_gap = 0.0
    base.driver_gap = 0.0
    arrivals = []
    base.upstream = lambda pkt: arrivals.append(sim.now)
    mobile.upstream = lambda pkt: arrivals.append(sim.now)
    mobile.send(_packet("10.0.0.2", "10.0.0.254", nbytes=1400))
    base.send(_packet("10.0.0.254", "10.0.0.2", nbytes=1400))
    sim.run()
    assert len(arrivals) == 2
    # ~5.9 ms serialization each at 2 Mb/s: no overlap allowed.
    assert abs(arrivals[1] - arrivals[0]) > 0.004


def test_driver_gap_separates_back_to_back_frames():
    sim = Simulator()
    medium, mobile, base = _pair(sim)
    arrivals = []
    base.upstream = lambda pkt: arrivals.append(sim.now)
    mobile.send(_packet("10.0.0.2", "10.0.0.254", nbytes=100))
    mobile.send(_packet("10.0.0.2", "10.0.0.254", nbytes=100))
    sim.run()
    gap = arrivals[1] - arrivals[0]
    assert gap >= mobile.driver_gap


def test_base_station_has_smaller_driver_gap():
    sim = Simulator()
    _, mobile, base = _pair(sim)
    assert base.driver_gap < mobile.driver_gap


def test_access_latency_delays_frames():
    slow_t, fast_t = {}, {}
    for label, access, store in (("fast", 0.0, fast_t), ("slow", 0.05, slow_t)):
        sim = Simulator()
        medium, mobile, base = _pair(sim, profile=_Const(_cond(access=access)))
        base.upstream = lambda pkt, s=store: s.setdefault("t", sim.now)
        mobile.send(_packet("10.0.0.2", "10.0.0.254"))
        sim.run()
    assert slow_t["t"] > fast_t["t"]


def test_gilbert_elliott_average_loss_tracks_nominal():
    sim = Simulator()
    medium, mobile, base = _pair(sim, profile=_Const(_cond(lu=0.05)),
                                 bursty=True)
    mobile.driver_gap = 0.0
    base.upstream = lambda pkt: None
    lost = 0
    sent = 4000
    for _ in range(sent):
        mobile.send(_packet("10.0.0.2", "10.0.0.254", nbytes=10))
    sim.run()
    rate = medium.frames_lost / sent
    assert 0.008 < rate < 0.15  # clustered, but averages near nominal


def test_deep_outage_bypasses_fading_model():
    sim = Simulator()
    medium, mobile, base = _pair(sim, profile=_Const(_cond(lu=0.5)),
                                 bursty=True)
    assert medium._effective_loss(0.5) == 0.5


def test_device_status_reports_signal_fields():
    sim = Simulator()
    medium, mobile, base = _pair(sim, profile=_Const(_cond(signal=17.0)))
    status = mobile.device_status()
    assert {"signal_level", "signal_quality", "silence_level"} <= set(status)
    assert 12.0 < status["signal_level"] < 22.0


def test_double_attach_rejected():
    sim = Simulator()
    medium, mobile, _ = _pair(sim)
    with pytest.raises(ValueError):
        medium.attach(mobile)


def test_radio_keeps_the_empty_queue_it_is_given():
    # An empty queue is falsy (it has a length); it is still the one
    # the radio sends from.
    queue = DropTailQueue(max_packets=7, name="given")
    radio = WaveLANDevice(Simulator(), "wl0", "10.0.0.2", queue=queue)
    assert radio.queue is queue


def test_radio_default_queue_holds_100_frames():
    assert WaveLANDevice(Simulator(), "x", "1").queue.max_packets == 100


# ----------------------------------------------------------------------
# A tapped radio overhears frames bound beyond the cell
# ----------------------------------------------------------------------
def _tapped_cell(sim):
    """A tapped laptop, a base station and a cross-traffic station."""
    medium, mobile, base = _pair(sim)
    cross = WaveLANDevice(sim, "cwl0", "10.0.0.11")
    medium.attach(cross)
    seen = []
    mobile.input_hooks.append(
        lambda dev, pkt, direction, ts: seen.append(
            (ts, pkt.ip.src, pkt.ip.dst, pkt.payload, dict(pkt.meta))))
    return medium, mobile, base, cross, seen


def test_tap_overhears_frames_bound_beyond_the_cell_once():
    sim = Simulator()
    medium, mobile, base, cross, seen = _tapped_cell(sim)
    stack, bridged = [], []
    mobile.upstream = stack.append
    base.upstream = lambda pkt: bridged.append((sim.now, pkt))
    sizes = [100 + 50 * i for i in range(8)]
    for nbytes in sizes:
        cross.send(_packet("10.0.0.11", "10.0.0.1", nbytes))
    sim.run()
    # Every frame, once, at the instant it came off the air (when the
    # base station received it too), counted as received.
    assert len(bridged) == len(sizes)
    assert [entry[0] for entry in seen] == [t for t, _ in bridged]
    assert [entry[1:3] for entry in seen] == [("10.0.0.11", "10.0.0.1")] * 8
    assert mobile.rx_packets == len(sizes)
    assert mobile.rx_bytes == sum(pkt.size for _, pkt in bridged)
    # The laptop's stack never sees them; the base bridges each one.
    assert stack == []
    assert sorted(pkt.payload_bytes for _, pkt in bridged) == sizes
    assert base.rx_packets == len(sizes)


def test_tap_sees_a_frame_for_its_own_station_once_through_the_stack():
    sim = Simulator()
    medium, mobile, base, cross, seen = _tapped_cell(sim)
    stack = []
    mobile.upstream = stack.append
    base.send(_packet("10.0.0.254", "10.0.0.2", 300))
    sim.run()
    assert len(stack) == 1 and len(seen) == 1
    assert mobile.rx_packets == 1


def test_tap_view_survives_a_base_that_recycles_the_frame():
    sim = Simulator()
    medium, mobile, base, cross, seen = _tapped_cell(sim)
    base.upstream = POOL.release
    frame = POOL.acquire_udp(5000, 6000, payload="chunk", payload_bytes=512)
    frame.ip = IPHeader("10.0.0.11", "10.0.0.1", PROTO_UDP)
    frame.meta["sent_at"] = 0.25
    cross.send(frame)
    sim.run()
    # The base released the frame to the pool the moment it arrived;
    # the tap had already seen it whole.
    assert frame.payload is None and frame.meta == {}
    assert [entry[3:] for entry in seen] == [("chunk", {"sent_at": 0.25})]
    assert mobile.rx_packets == 1 and base.rx_packets == 1


# ----------------------------------------------------------------------
# Grant bookkeeping
# ----------------------------------------------------------------------
def _ledger(sim, devices, media):
    """Every counter the grant step books, plus the engine's totals."""
    stats = sim.stats()
    return {
        "devices": {d.name: (d.queue.enqueued, d.queue.dequeued,
                             d.queue.dropped, d.queue._bytes,
                             d.tx_packets, d.tx_bytes, d.tx_drops,
                             d.rx_packets, d.rx_bytes)
                    for d in devices},
        "frames_carried": [m.frames_carried for m in media],
        "events": (stats.events_fired, stats.events_scheduled),
    }


# Per device: queue enqueued, dequeued, dropped, bytes queued; device
# tx packets, tx bytes, tx drops, rx packets, rx bytes.
GRANT_PINS = {
    "mid": {
        "devices": {
            "wl0": (9, 4, 21, 2280, 4, 1158, 21, 0, 0),
            "ap0": (30, 3, 0, 6318, 3, 477, 0, 3, 2769),
            "cwl0": (9, 4, 21, 3966, 4, 3670, 21, 1, 154),
            "en1": (15, 15, 15, 0, 15, 20160, 15, 26, 15548),
            "en2": (30, 27, 0, 3654, 27, 16686, 0, 15, 20160),
            "en3": (0, 0, 0, 0, 0, 0, 0, 7, 4046),
            "en4": (30, 30, 0, 0, 30, 16455, 0, 29, 20880),
            "en5": (30, 29, 0, 705, 29, 20880, 0, 29, 15892),
        },
        "frames_carried": [11, 42, 59],
        "events": (436, 439),
    },
    "end": {
        "devices": {
            "wl0": (9, 9, 21, 0, 9, 3438, 21, 15, 3535),
            "ap0": (30, 30, 0, 0, 30, 6795, 0, 11, 7669),
            "cwl0": (9, 9, 21, 0, 9, 7636, 21, 10, 2215),
            "en1": (15, 15, 15, 0, 15, 20160, 15, 30, 20340),
            "en2": (30, 30, 0, 0, 30, 20340, 0, 15, 20160),
            "en3": (0, 0, 0, 0, 0, 0, 0, 8, 5264),
            "en4": (30, 30, 0, 0, 30, 16455, 0, 30, 21585),
            "en5": (30, 30, 0, 0, 30, 21585, 0, 30, 16455),
        },
        "frames_carried": [48, 45, 60],
        "events": (505, 505),
    },
}


def test_grant_bookkeeping_is_pinned():
    """A contended cell (three stations, lossy channels, full queues,
    driver-gap deferrals) and two Ethernet segments (one whose frames
    ride one event, one with separate delivery and release) carrying
    traffic both ways: every queue, device, medium and engine counter,
    mid-run and at the end, and every arrival's time at full
    precision, are fixed.  A change that only makes granting cheaper
    must leave all of them as they are."""
    sim = Simulator()
    medium = WirelessMedium(sim, RngStreams(5), bursty_loss=True)
    mobile = WaveLANDevice(sim, "wl0", "10.0.0.2", profile=_Const(
        _cond(lu=0.08, ld=0.04, bw=0.7, access=0.4e-3)))
    mobile.queue = DropTailQueue(max_packets=8, name="wl0.txq")
    cross = WaveLANDevice(sim, "cwl0", "10.0.0.11",
                          profile=_Const(_cond(lu=0.05, bw=0.9)))
    cross.queue = DropTailQueue(max_packets=None, max_bytes=6000,
                                name="cwl0.txq")
    base = WaveLANDevice(sim, "ap0", "10.0.0.254", is_base=True)
    for device in (mobile, base, cross):
        medium.attach(device)
    far = EthernetSegment(sim)                          # prop > gap
    near = EthernetSegment(sim, prop_delay=0.0, name="ether1")
    e1, e2, e3, e4, e5 = (EthernetDevice(sim, f"en{i}", f"10.0.1.{i}")
                          for i in range(1, 6))
    e1.queue = DropTailQueue(max_packets=6, name="en1.txq")
    for device in (e1, e2, e3):
        far.attach(device)
    near.attach(e4)
    near.attach(e5)
    devices = (mobile, base, cross, e1, e2, e3, e4, e5)
    arrivals = []
    for device in devices:
        device.upstream = lambda p, name=device.name: arrivals.append(
            (repr(sim.now), name, p.ip.src, p.ip.dst, p.payload_bytes))
    for i in range(30):
        t = 0.002 * (i // 6)
        sim.call_at(t, mobile.send,
                    _packet("10.0.0.2", "10.0.0.1", 200 + 37 * i))
        sim.call_at(t + 0.0007, cross.send,
                    _packet("10.0.0.11", "10.0.0.254", 900 - 11 * i))
        sim.call_at(t + 0.0011, base.send,
                    _packet("10.0.0.254",
                            "10.0.0.2" if i % 3 else "10.0.0.11",
                            120 + 5 * i))
        sim.call_at(0.0004 * i, e1.send,
                    _packet("10.0.1.1", "10.0.1.2", 1400 - 9 * i))
        sim.call_at(0.0009 * i, e2.send,
                    _packet("10.0.1.2",
                            "10.0.1.1" if i % 4 else "10.0.9.9",
                            64 + 40 * i))
        sim.call_at(0.0004 * i, e4.send,
                    _packet("10.0.1.4", "10.0.1.5", 500 + i))
        sim.call_at(0.0006 * i, e5.send,
                    _packet("10.0.1.5", "10.0.1.4", 700 - i))
    media = (medium, far, near)
    sim.run(until=0.03)
    assert _ledger(sim, devices, media) == GRANT_PINS["mid"]
    sim.run()
    assert _ledger(sim, devices, media) == GRANT_PINS["end"]
    assert medium.frames_lost == 12
    assert len(arrivals) == 149
    assert hashlib.sha256(repr(arrivals).encode()).hexdigest() == (
        "58e0b97b81bc10f530b9d2bb572862072e7f92e30f613cf4e2cade15ad6c4a8a")
