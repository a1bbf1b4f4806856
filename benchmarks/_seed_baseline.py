"""Seed-revision implementations of the paths this PR optimized.

``bench_parallel_harness.py`` measures the performance work against the
code as it stood *before* the optimization PR: the tuple-wrapped event
heap with no compaction, ``copy.copy``-based packet cloning, the
separate propagation/release events on both media, full radio flooding,
and reassembly timers that were never cancelled.  The classes and
functions here are verbatim copies of that revision (modulo renames),
and :func:`seed_mode` swaps them in so the baseline runs in the same
process, same interpreter state, same machine conditions as the
optimized code it is compared against.

Nothing in the package imports this module; it exists only for
benchmarking.
"""

from __future__ import annotations

import contextlib
import copy
import heapq
import itertools
import math
from typing import Any, Callable, List, Optional, Tuple

from repro.sim.engine import SimulationError


class SeedEvent:
    """The seed's Event: no live/dead bookkeeping, cancel is a flag."""

    __slots__ = ("time", "seq", "fn", "args", "cancelled", "fired")

    def __init__(self, time: float, seq: int, fn: Callable[..., Any],
                 args: Tuple[Any, ...]):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False
        self.fired = False

    def cancel(self) -> None:
        self.cancelled = True

    @property
    def pending(self) -> bool:
        return not (self.cancelled or self.fired)


class SeedSimulator:
    """The seed's Simulator: wrapper-tuple heap, O(n) pending_count."""

    def __init__(self) -> None:
        self._now = 0.0
        self._queue: List[Tuple[float, int, SeedEvent]] = []
        self._seq = itertools.count()
        self._running = False
        self._events_processed = 0

    @property
    def now(self) -> float:
        return self._now

    @property
    def events_processed(self) -> int:
        return self._events_processed

    def schedule(self, delay: float, fn: Callable[..., Any],
                 *args: Any) -> SeedEvent:
        if delay < 0:
            raise SimulationError(
                f"cannot schedule into the past (delay={delay})")
        return self.schedule_at(self._now + delay, fn, *args)

    def schedule_at(self, when: float, fn: Callable[..., Any],
                    *args: Any) -> SeedEvent:
        if when < self._now:
            raise SimulationError(
                f"cannot schedule into the past (when={when}, now={self._now})")
        event = SeedEvent(when, next(self._seq), fn, args)
        heapq.heappush(self._queue, (when, event.seq, event))
        return event

    # The seed engine has no fire-and-forget or bulk fast paths; shared
    # substrate code that uses the current engine's call_later/call_at/
    # call_batch API maps onto plain schedule/schedule_at here
    # (identical behaviour, the seed's ordinary per-event cost).
    call_later = schedule
    call_at = schedule_at

    def call_batch(self, entries) -> int:
        count = 0
        for when, fn, args in entries:
            self.schedule_at(when, fn, *args)
            count += 1
        return count

    def step(self) -> bool:
        while self._queue:
            when, _, event = heapq.heappop(self._queue)
            if event.cancelled:
                continue
            self._now = when
            event.fired = True
            self._events_processed += 1
            event.fn(*event.args)
            return True
        return False

    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> None:
        if self._running:
            raise SimulationError("simulator is not reentrant")
        self._running = True
        fired = 0
        try:
            while self._queue:
                when, _, event = self._queue[0]
                if event.cancelled:
                    heapq.heappop(self._queue)
                    continue
                if until is not None and when > until:
                    break
                if max_events is not None and fired >= max_events:
                    break
                heapq.heappop(self._queue)
                self._now = when
                event.fired = True
                self._events_processed += 1
                fired += 1
                event.fn(*event.args)
        finally:
            self._running = False
        if until is not None and self._now < until:
            self._now = until

    def pending_count(self) -> int:
        return sum(1 for _, _, e in self._queue if not e.cancelled)


# ----------------------------------------------------------------------
# Seed packet methods
# ----------------------------------------------------------------------
def _seed_size(self) -> int:
    total = self.link_bytes + self.payload_bytes
    for header in (self.ip, self.icmp, self.udp, self.tcp):
        if header is not None:
            total += header.wire_bytes
    # Not a memo (every read recomputes, as in the seed): the current
    # device queues read the stored size of a frame they dequeue.
    self._size = total
    return total


def _seed_clone(self):
    from repro.net.packet import Packet

    return Packet(
        ip=copy.copy(self.ip),
        icmp=copy.copy(self.icmp),
        udp=copy.copy(self.udp),
        tcp=copy.copy(self.tcp),
        payload=self.payload,
        payload_bytes=self.payload_bytes,
        link_bytes=self.link_bytes,
        meta=dict(self.meta),
        # The stored size rides along: the current devices read it off
        # every frame a medium hands them, clones included.
        _size=self._size,
    )


# ----------------------------------------------------------------------
# Seed channel profile: linear scan over control points per query
# ----------------------------------------------------------------------
def _seed_piecewise_conditions(self, t: float):
    from repro.net.wavelan import ChannelConditions

    pts = self.points
    if t <= pts[0][0]:
        return pts[0][1].clamped()
    if t >= pts[-1][0]:
        return pts[-1][1].clamped()
    for (t0, c0), (t1, c1) in zip(pts, pts[1:]):
        if t0 <= t <= t1:
            frac = 0.0 if t1 == t0 else (t - t0) / (t1 - t0)

            def lerp(a: float, b: float) -> float:
                return a + (b - a) * frac

            return ChannelConditions(
                signal_level=lerp(c0.signal_level, c1.signal_level),
                loss_prob_up=lerp(c0.loss_prob_up, c1.loss_prob_up),
                loss_prob_down=lerp(c0.loss_prob_down, c1.loss_prob_down),
                bandwidth_factor=lerp(c0.bandwidth_factor,
                                      c1.bandwidth_factor),
                access_latency_mean=lerp(c0.access_latency_mean,
                                         c1.access_latency_mean),
            ).clamped()
    raise AssertionError("unreachable")


# ----------------------------------------------------------------------
# Seed WaveLAN medium: separate propagation event, full flood, O(n) scan
# ----------------------------------------------------------------------
def _seed_wavelan_try_grant(self) -> None:
    if self._busy or not self._waiters:
        return
    device = self._waiters.popleft()
    packet = device._grant()
    if packet is None:
        self._try_grant()
        return
    self._busy = True
    cond = self._conditions_for(device, packet)
    backoff = self.rng.randrange(0, self.MAX_BACKOFF_SLOTS + 1) * self.SLOT_TIME
    access = 0.0
    if cond.access_latency_mean > 0.0:
        access = self.rng.expovariate(1.0 / cond.access_latency_mean)
    tx_time = (packet.size * 8.0 / (self.rate_bps * cond.bandwidth_factor)
               + self.PER_FRAME_OVERHEAD)
    self.frames_carried += 1
    self.sim.schedule(backoff + access + tx_time,
                      self._transmit_done, device, packet, cond)


def _seed_wavelan_transmit_done(self, sender, packet, cond) -> None:
    from repro.net.wavelan import DOWNLINK, UPLINK

    direction = UPLINK if not sender.is_base else DOWNLINK
    if self.rng.random() < self._effective_loss(cond.loss_prob(direction)):
        self.frames_lost += 1
    else:
        self.sim.schedule(self.prop_delay, self._deliver, sender, packet)
    self._busy = False
    sender._after_transmit()
    self._try_grant()


def _seed_wavelan_grant(self):
    """The device half of the seed's grant handshake: the medium asks,
    the radio applies its driver gap and hands over its head frame."""
    self._pending = False
    now = self.sim._now
    if now < self._gap_until:
        self.sim.call_later(self._gap_until - now, self._kick_transmit)
        return None
    packet = self.queue.poll()
    if packet is not None:
        self._record_tx(packet)
    return packet


def _seed_wavelan_after_transmit(self) -> None:
    self._gap_until = self.sim._now + self.driver_gap
    if self.queue._items:
        self._kick_transmit()


def _seed_wavelan_conditions_for(self, sender, packet):
    from repro.net.wavelan import ChannelProfile

    if sender.profile is not None:
        return sender.profile.conditions(self.sim.now).clamped()
    receiver = self._receiver_for(sender, packet)
    if receiver is not None and receiver.profile is not None:
        return receiver.profile.conditions(self.sim.now).clamped()
    return ChannelProfile().conditions(self.sim.now)


def _seed_wavelan_receiver_for(self, sender, packet):
    dst = packet.ip.dst if packet.ip is not None else None
    for device in self.devices:
        if device is not sender and device.address == dst:
            return device
    return None


def _seed_wavelan_deliver(self, sender, packet) -> None:
    receiver = self._receiver_for(sender, packet)
    if receiver is not None:
        receiver.handle_receive(packet)
        return
    others = [d for d in self.devices if d is not sender]
    for i, device in enumerate(others):
        device.handle_receive(packet if i == 0 else packet.clone())


# ----------------------------------------------------------------------
# Seed Ethernet segment: deliver / release / after-transmit as three
# separate events per frame
# ----------------------------------------------------------------------
def _seed_ether_transmit_done(self, sender, packet) -> None:
    self.sim.schedule(self.prop_delay, self._deliver, sender, packet)
    self.sim.schedule(self.INTERFRAME_GAP, self._release)
    self.sim.schedule(0.0, sender._after_transmit)


def _seed_ether_after_transmit(self) -> None:
    if self.queue._items:
        self._kick_transmit()


def _seed_ether_deliver(self, sender, packet) -> None:
    dst = packet.ip.dst if packet.ip is not None else None
    targets = [d for d in self.devices if d is not sender and d.address == dst]
    if not targets:
        targets = [d for d in self.devices if d is not sender]
    for i, device in enumerate(targets):
        device.handle_receive(packet if i == 0 else packet.clone())


# ----------------------------------------------------------------------
# Seed reassembler: expiry timers are left on the heap forever
# ----------------------------------------------------------------------
def _seed_reassembler_accept(self, packet):
    from repro.protocols.ip import REASSEMBLY_TIMEOUT

    ident, index, count = packet.meta["fragment"]
    key = (packet.ip.src, ident)
    entry = self._partial.get(key)
    if entry is None:
        entry = {"need": count, "have": set(),
                 "original": packet.meta["original"]}
        self._partial[key] = entry
        self.sim.schedule(REASSEMBLY_TIMEOUT, self._expire, key)
    entry["have"].add(index)
    if len(entry["have"]) == entry["need"]:
        del self._partial[key]
        self.reassembled += 1
        return entry["original"]
    return None


# ----------------------------------------------------------------------
# Seed distillation window: a linear scan over every estimate, reply and
# echo for each window
# ----------------------------------------------------------------------
def _seed_distill_window(self, estimates, echo_out, replies, t0, duration):
    from repro.core.replay import QualityTuple

    if not estimates:
        raise ValueError("no usable packet groups; cannot distill")
    echoes = sorted((p.timestamp - t0, p.seq) for p in echo_out)
    reply_times = sorted(p.timestamp - t0 for p in replies)
    answered = {p.seq for p in replies}
    tuples = []
    prev = None
    steps = max(1, int(math.ceil(duration / self.step)))
    for k in range(steps):
        lo = k * self.step
        hi = lo + self.step
        center = (lo + hi) / 2.0
        w_lo = center - self.window_width / 2.0
        w_hi = center + self.window_width / 2.0
        in_window = [e for e in estimates if w_lo <= e.time < w_hi]
        if in_window:
            n = len(in_window)
            F = sum(e.F for e in in_window) / n
            Vb = sum(e.Vb for e in in_window) / n
            Vr = sum(e.Vr for e in in_window) / n
        elif prev is not None:
            F, Vb, Vr = prev.F, prev.Vb, prev.Vr
        else:
            first = estimates[0]
            F, Vb, Vr = first.F, first.Vb, first.Vr
        L = self._loss_for_window(w_lo, w_hi, echoes, answered,
                                  reply_times,
                                  prev.L if prev is not None else 0.0)
        tup = QualityTuple(d=self.step, F=max(0.0, F), Vb=max(0.0, Vb),
                           Vr=max(0.0, Vr), L=L)
        tuples.append(tup)
        prev = tup
    return tuples


def _seed_loss_for_window(self, w_lo, w_hi, echoes, answered, reply_times,
                          fallback):
    span_lo = w_lo
    span_hi = w_hi
    before = [t for t in reply_times if t < w_lo]
    after = [t for t in reply_times if t > w_hi]
    if before:
        span_lo = before[-1]
    if after:
        span_hi = after[0]
    sent = [seq for t, seq in echoes if span_lo <= t <= span_hi]
    a = len(sent)
    if a == 0:
        return fallback
    b = sum(1 for seq in sent if seq in answered)
    ratio = min(1.0, b / a)
    return max(0.0, 1.0 - math.sqrt(ratio))


# ----------------------------------------------------------------------
@contextlib.contextmanager
def seed_mode():
    """Run the enclosed block with the seed-revision hot paths installed.

    Patches the simulator class used by world construction plus the
    packet/medium/reassembler methods this PR rewrote, and restores
    everything on exit.  Serial use only: worker processes never see
    these patches, so parallel legs must not run inside ``seed_mode``.
    """
    import repro.hosts.worlds as worlds
    from repro.core.distill import Distiller
    from repro.net.ethernet import EthernetDevice, EthernetSegment
    from repro.net.packet import POOL, Packet
    from repro.net.wavelan import PiecewiseProfile, WaveLANDevice, WirelessMedium
    from repro.protocols.ip import Reassembler

    patches = [
        (worlds, "Simulator", SeedSimulator),
        (PiecewiseProfile, "conditions", _seed_piecewise_conditions),
        (Packet, "size", property(_seed_size)),
        (Packet, "clone", _seed_clone),
        (WirelessMedium, "_try_grant", _seed_wavelan_try_grant),
        (WirelessMedium, "_transmit_done", _seed_wavelan_transmit_done),
        (WirelessMedium, "_conditions_for", _seed_wavelan_conditions_for),
        (WirelessMedium, "_receiver_for", _seed_wavelan_receiver_for),
        (WirelessMedium, "_deliver", _seed_wavelan_deliver),
        # The current media grant in one step; the seed's medium methods
        # above call the devices' half of the old handshake.
        (WaveLANDevice, "_grant", _seed_wavelan_grant),
        (WaveLANDevice, "_after_transmit", _seed_wavelan_after_transmit),
        (EthernetDevice, "_after_transmit", _seed_ether_after_transmit),
        (EthernetSegment, "_transmit_done", _seed_ether_transmit_done),
        (EthernetSegment, "_deliver", _seed_ether_deliver),
        (Reassembler, "accept", _seed_reassembler_accept),
        # The seed's scalar distillation loop; the bisect window is
        # byte-compatible, so this only changes speed, never output.
        (Distiller, "_window", _seed_distill_window),
        (Distiller, "_loss_for_window", _seed_loss_for_window),
    ]
    # Originals by (owner, name); a name the current code no longer
    # defines is deleted again on exit.
    missing = object()
    saved = [(owner, name, owner.__dict__.get(name, missing))
             for owner, name, _ in patches]
    saved_pool = POOL.enabled
    # The seed had no packet pool; disabling it changes speed only.
    POOL.enabled = False
    POOL.clear()
    for owner, name, value in patches:
        setattr(owner, name, value)
    try:
        yield
    finally:
        for owner, name, value in saved:
            if value is missing:
                delattr(owner, name)
            else:
                setattr(owner, name, value)
        POOL.enabled = saved_pool
        POOL.clear()
