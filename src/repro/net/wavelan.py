"""WaveLAN radio model.

The AT&T WaveLAN device used in the paper is a 900 MHz, nominally
2 Mb/s shared-medium packet radio (§3.1.1).  We model:

* a **shared half-duplex medium** with FIFO arbitration and a random
  contention backoff, so concurrent stations (Chatterbox's SynRGen
  laptops) stretch each other's latency and shrink usable bandwidth;
* **time-varying channel conditions** supplied by a scenario profile —
  signal level (WaveLAN units), loss probability, bandwidth factor and
  a mean media-access latency, each allowed to differ by direction so
  the live network can be *asymmetric* (the effect the paper's FTP
  results expose, §5.3);
* **device status reporting** — signal level, signal quality and
  silence level — sampled by the collection phase alongside packets.

The substitution for real radio hardware is documented in DESIGN.md:
the methodology consumes only end-to-end observations, so any channel
whose delay/loss vary plausibly with time exercises the full pipeline
while giving us ground truth for validation.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional

from ..sim import RngStreams, Simulator
from .device import NetworkDevice
from .packet import POOL, Packet
from .queue import DropTailQueue

WAVELAN_RATE_BPS = 2e6
NOISE_FLOOR = 5.0  # signal levels below this are treated as noise by the driver

UPLINK = "up"      # mobile -> base station
DOWNLINK = "down"  # base station -> mobile


@dataclass(slots=True)
class ChannelConditions:
    """Instantaneous channel state as seen by the mobile host."""

    signal_level: float
    loss_prob_up: float
    loss_prob_down: float
    bandwidth_factor: float      # fraction of the nominal 2 Mb/s usable
    access_latency_mean: float   # mean extra media-access delay (s)

    def loss_prob(self, direction: str) -> float:
        return self.loss_prob_up if direction == UPLINK else self.loss_prob_down

    def clamped(self) -> "ChannelConditions":
        """Return a copy with every field forced into its legal range."""
        return ChannelConditions(
            signal_level=max(0.0, self.signal_level),
            loss_prob_up=min(1.0, max(0.0, self.loss_prob_up)),
            loss_prob_down=min(1.0, max(0.0, self.loss_prob_down)),
            bandwidth_factor=min(1.0, max(0.01, self.bandwidth_factor)),
            access_latency_mean=max(0.0, self.access_latency_mean),
        )


class ChannelProfile:
    """Base class: channel conditions as a function of simulated time.

    Scenario modules subclass or compose this; the default is a perfect
    channel (used for base stations and wired-quality stations).
    ``conditions`` must return values already in their legal range
    (see :meth:`ChannelConditions.clamped`): the medium reads them as
    they are, once per frame.
    """

    def conditions(self, t: float) -> ChannelConditions:
        # signal, loss up, loss down, bandwidth factor, access latency
        return ChannelConditions(30.0, 0.0, 0.0, 1.0, 0.0)


class PiecewiseProfile(ChannelProfile):
    """A profile interpolated from (time, conditions) control points.

    ``conditions`` runs once per media grant, so the interval lookup is
    a bisect over the precomputed time axis rather than a linear scan,
    and interpolation + clamping happen in one allocation.
    """

    def __init__(self, points: List[tuple]):
        if not points:
            raise ValueError("profile needs at least one control point")
        self.points = sorted(points, key=lambda p: p[0])
        self._times = [p[0] for p in self.points]

    def conditions(self, t: float) -> ChannelConditions:
        pts = self.points
        if t <= pts[0][0]:
            return pts[0][1].clamped()
        if t >= pts[-1][0]:
            return pts[-1][1].clamped()
        # First interval with t0 <= t <= t1: bisect_left yields the
        # smallest index j with times[j] >= t, so (j-1, j) brackets t.
        j = bisect_left(self._times, t)
        t0, c0 = pts[j - 1]
        t1, c1 = pts[j]
        frac = 0.0 if t1 == t0 else (t - t0) / (t1 - t0)
        sl = c0.signal_level + (c1.signal_level - c0.signal_level) * frac
        lu = c0.loss_prob_up + (c1.loss_prob_up - c0.loss_prob_up) * frac
        ld = (c0.loss_prob_down
              + (c1.loss_prob_down - c0.loss_prob_down) * frac)
        bw = (c0.bandwidth_factor
              + (c1.bandwidth_factor - c0.bandwidth_factor) * frac)
        al = (c0.access_latency_mean
              + (c1.access_latency_mean - c0.access_latency_mean) * frac)
        # Clamp inline: the same comparisons, and so the same values, as
        # the max/min of ChannelConditions.clamped, at a fraction of the
        # cost of the builtin calls.
        return ChannelConditions(
            sl if sl > 0.0 else 0.0,
            (lu if lu < 1.0 else 1.0) if lu > 0.0 else 0.0,
            (ld if ld < 1.0 else 1.0) if ld > 0.0 else 0.0,
            (bw if bw < 1.0 else 1.0) if bw > 0.01 else 0.01,
            al if al > 0.0 else 0.0,
        )


class WaveLANDevice(NetworkDevice):
    """A WaveLAN radio attached to a :class:`WirelessMedium`.

    ``profile`` is set on mobile stations; base stations leave it None
    and inherit the mobile peer's channel for any exchange with it.
    ``is_base`` marks the infrastructure side so transmission direction
    (uplink/downlink) can be classified.
    """

    # Host-side per-packet driver cost between consecutive transmissions.
    # The 75 MHz 486 laptop needs visibly longer than the WavePoint's
    # dedicated bridging hardware, which is one source of the live
    # send/receive asymmetry the paper observes (§5.3).
    LAPTOP_DRIVER_GAP = 0.6e-3
    BASE_DRIVER_GAP = 0.3e-3

    def __init__(self, sim: Simulator, name: str, address: str,
                 profile: Optional[ChannelProfile] = None,
                 is_base: bool = False,
                 queue: Optional[DropTailQueue] = None,
                 driver_gap: Optional[float] = None):
        super().__init__(sim, name, address,
                         queue or DropTailQueue(max_packets=50, name=f"{name}.txq"))
        self.medium: Optional["WirelessMedium"] = None
        self.profile = profile
        self.is_base = is_base
        if driver_gap is None:
            driver_gap = self.BASE_DRIVER_GAP if is_base else self.LAPTOP_DRIVER_GAP
        self.driver_gap = driver_gap
        self._pending = False
        self._gap_until = 0.0

    # -- medium interaction (same contract as EthernetDevice) ----------
    def _kick_transmit(self) -> None:
        if self._pending or self.medium is None or not self.queue._items:
            return
        self._pending = True
        self.medium.request_transmit(self)

    def _grant(self) -> Optional[Packet]:
        self._pending = False
        now = self.sim._now
        if now < self._gap_until:
            # The host driver is still busy post-processing the last
            # frame; come back for the medium once the gap elapses.
            self.sim.call_later(self._gap_until - now, self._kick_transmit)
            return None
        packet = self.queue.poll()
        if packet is not None:
            self._record_tx(packet)
        return packet

    def _after_transmit(self) -> None:
        self._gap_until = self.sim._now + self.driver_gap
        if self.queue._items:
            # Re-enter the arbitration queue immediately rather than
            # waiting out the driver gap: under contention the medium
            # is busy far longer than the gap, so by the time the grant
            # comes around the gap has usually elapsed and no wakeup
            # event is ever needed.  ``_grant`` still defers (and
            # schedules the one necessary wakeup) if the medium comes
            # free while the driver is mid-gap.
            self._kick_transmit()

    # -- status reporting ----------------------------------------------
    def device_status(self) -> dict:
        status = super().device_status()
        profile = self.profile or ChannelProfile()
        cond = profile.conditions(self.sim.now)
        noise = 0.0
        if self.medium is not None:
            noise = self.medium.rng.gauss(0.0, 0.8)
        level = max(0.0, cond.signal_level + noise)
        status.update({
            "signal_level": level,
            # WaveLAN "signal quality" loosely tracks SNR; map from loss.
            "signal_quality": max(0.0, 15.0 * (1.0 - cond.loss_prob_up)),
            "silence_level": max(0.0, NOISE_FLOOR - 1.0 + abs(noise)),
        })
        return status


class WirelessMedium:
    """The shared 2 Mb/s channel.

    Arbitration is FIFO with a random slotted backoff before each
    transmission; degraded ``bandwidth_factor`` stretches serialization
    time (modelling retries/rate fallback), which both delays the frame
    and occupies the medium longer — so back-to-back packets queue at
    exactly the bottleneck cost the distiller solves for (§3.2.2).
    """

    SLOT_TIME = 50e-6
    MAX_BACKOFF_SLOTS = 4
    PER_FRAME_OVERHEAD = 0.25e-3  # preamble, MAC framing, driver cost

    # Gilbert-Elliott fading: losses cluster into short bad periods
    # separated by long clean stretches, as on a real radio channel.
    # The factors are chosen so the long-term average loss tracks the
    # scenario profile's nominal rate.
    GE_GOOD_DWELL = 12.0     # mean seconds in the good state
    GE_BAD_DWELL = 0.6       # mean seconds in a fade
    GE_GOOD_FACTOR = 0.45    # loss multiplier while good
    GE_BAD_FACTOR = 8.0     # loss multiplier while fading
    GE_BAD_CAP = 0.7         # ceiling on fade loss probability

    def __init__(self, sim: Simulator, rngs: RngStreams,
                 rate_bps: float = WAVELAN_RATE_BPS, prop_delay: float = 5e-6,
                 name: str = "wlan0", bursty_loss: bool = True):
        self.sim = sim
        self.rng = rngs.stream(f"medium:{name}")
        self.rate_bps = rate_bps
        self.prop_delay = prop_delay
        self.name = name
        self.bursty_loss = bursty_loss
        self.devices: List[WaveLANDevice] = []
        self._by_address: Dict[str, WaveLANDevice] = {}
        self.tracer = None  # repro.obs scope; None = uninstrumented
        self._busy = False
        self._waiters: Deque[WaveLANDevice] = deque()
        self.frames_carried = 0
        self.frames_lost = 0
        self._ge_bad = False
        self._ge_until = 0.0

    # -- fading state ----------------------------------------------------
    def _effective_loss(self, nominal: float) -> float:
        """Loss probability of one frame whose profile says ``nominal``,
        under Gilbert-Elliott fading (advanced to now)."""
        if nominal <= 0.0:
            return 0.0
        if nominal >= 0.2:
            # A deep outage (the Wean elevator) dominates fading.
            return nominal
        if not self.bursty_loss:
            return min(1.0, nominal)
        now = self.sim._now
        while now >= self._ge_until:
            self._ge_bad = not self._ge_bad
            dwell = self.GE_BAD_DWELL if self._ge_bad else self.GE_GOOD_DWELL
            self._ge_until += self.rng.expovariate(1.0 / dwell)
        if self._ge_bad:
            return min(self.GE_BAD_CAP, nominal * self.GE_BAD_FACTOR)
        return min(1.0, nominal * self.GE_GOOD_FACTOR)

    def attach(self, device: WaveLANDevice) -> None:
        if device.medium is not None:
            raise ValueError(f"{device.name} already attached")
        device.medium = self
        self.devices.append(device)
        self._by_address.setdefault(device.address, device)

    # ------------------------------------------------------------------
    def request_transmit(self, device: WaveLANDevice) -> None:
        self._waiters.append(device)
        if not self._busy:
            self._try_grant()

    def _try_grant(self) -> None:
        if self._busy:
            return
        waiters = self._waiters
        while True:
            if not waiters:
                return
            sender = waiters.popleft()
            packet = sender._grant()
            if packet is not None:
                break
        self._busy = True
        # The station addressed on this cell, if any: it supplies the
        # channel when the sender (a base station) has no profile, and
        # it is the one receiver of the frame.
        ip = packet.ip
        receiver = self._by_address.get(ip.dst) if ip is not None else None
        if receiver is sender:
            receiver = None
        # Channel conditions governing this transmission: the mobile
        # endpoint's profile wins, so frames to or from a mobile station
        # see that station's channel; base-to-base (or two wired-quality
        # stations) see a perfect channel.
        profile = sender.profile
        if profile is None and receiver is not None:
            profile = receiver.profile
        if profile is None:
            profile = ChannelProfile()
        cond = profile.conditions(self.sim._now)
        rng = self.rng
        # ``_randbelow(n)`` is exactly what ``randrange(0, n)`` returns,
        # from the same draws, without its argument checks.
        backoff = rng._randbelow(self.MAX_BACKOFF_SLOTS + 1) * self.SLOT_TIME
        access = 0.0
        if cond.access_latency_mean > 0.0:
            access = rng.expovariate(1.0 / cond.access_latency_mean)
        tx_time = (packet._size * 8.0 / (self.rate_bps * cond.bandwidth_factor)
                   + self.PER_FRAME_OVERHEAD)
        self.frames_carried += 1
        # Propagation rides the same event as serialization: the frame
        # arrives (or is lost) one event after the grant, and the
        # medium frees at arrival time.
        nominal = cond.loss_prob_down if sender.is_base else cond.loss_prob_up
        self.sim.call_later(backoff + access + tx_time + self.prop_delay,
                            self._transmit_done, sender, packet, receiver,
                            nominal)

    def _transmit_done(self, sender: WaveLANDevice, packet: Packet,
                       receiver: Optional[WaveLANDevice],
                       nominal_loss: float) -> None:
        # The loss draw comes before any fading-state draw.
        draw = self.rng.random()
        lost = draw < self._effective_loss(nominal_loss)
        if lost:
            self.frames_lost += 1
            if self.tracer is not None:
                self.tracer.drop("radio", packet, "channel_loss",
                                 sender=sender.name,
                                 direction=DOWNLINK if sender.is_base
                                 else UPLINK)
            POOL.release(packet)
        self._busy = False
        # The sender's driver gap must be on the books before the next
        # grant is attempted, or a queued frame would sneak past it;
        # delivery stays after the grant attempt, matching the order the
        # separate propagation event used to impose.
        sender._after_transmit()
        self._try_grant()
        if lost:
            return
        if receiver is not None:
            receiver.handle_receive(packet)
            return
        # No station owns the address: the frame leaves the cell through
        # a base station.  The radio is physically broadcast, but a
        # station's receive filter discards frames addressed elsewhere
        # with no observable effect, so delivery short-circuits to the
        # devices that actually look at the frame: base stations (which
        # bridge it onward) and any device carrying an input tap (the
        # collection daemon's hook makes the traced laptop
        # promiscuous).  Loss was already decided per transmission, so
        # skipping deaf stations draws no RNG and changes no result.
        # Clone *ahead of* each delivery: a receiver's stack may consume
        # the frame it was handed (terminal inputs recycle pool slots),
        # so the copy for the next receiver has to be taken while this
        # one is still pristine.
        receivers = [d for d in self.devices
                     if d is not sender and (d.is_base or d.input_hooks)]
        for device in receivers[:-1]:
            spare = packet.clone()
            device.handle_receive(packet)
            packet = spare
        if receivers:
            receivers[-1].handle_receive(packet)
