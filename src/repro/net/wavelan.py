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


# The perfect channel: signal, loss up, loss down, bandwidth factor,
# access latency.  One shared object, read once per frame by every
# station on the default profile (the SynRGen cross-traffic radios)
# or on none; nothing writes to it.
_PERFECT_CHANNEL = ChannelConditions(30.0, 0.0, 0.0, 1.0, 0.0)


class ChannelProfile:
    """Base class: channel conditions as a function of simulated time.

    Scenario modules subclass or compose this; the default is a perfect
    channel (used for base stations and wired-quality stations), and
    returns the same object every time.  ``conditions`` must return
    values already in their legal range (see
    :meth:`ChannelConditions.clamped`): the medium reads them as they
    are, once per frame, and never modifies them.
    """

    def conditions(self, t: float) -> ChannelConditions:
        return _PERFECT_CHANNEL


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
        super().__init__(sim, name, address, queue)
        self.medium: Optional["WirelessMedium"] = None
        self.profile = profile
        self.is_base = is_base
        if driver_gap is None:
            driver_gap = self.BASE_DRIVER_GAP if is_base else self.LAPTOP_DRIVER_GAP
        self.driver_gap = driver_gap
        # True while this radio waits in the medium's arbitration queue.
        self._pending = False
        # End of the driver's post-processing of the last frame sent.
        self._gap_until = 0.0

    # -- medium interaction (same contract as EthernetDevice) ----------
    def _kick_transmit(self) -> None:
        """Join the medium's arbitration queue if there is a frame to send."""
        medium = self.medium
        if self._pending or medium is None or not self.queue._items:
            return
        self._pending = True
        medium._waiters.append(self)
        if not medium._busy:
            medium._try_grant()

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
    BACKOFF_BITS = (MAX_BACKOFF_SLOTS + 1).bit_length()
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
    def _try_grant(self) -> None:
        """Give the idle medium to the first waiting radio ready to send.

        One step per frame: a radio still inside its driver gap (the
        host driver is post-processing its last frame) gives up its
        place and comes back once the gap elapses, with one wakeup
        event; the first radio past its gap has its head frame taken
        off its queue, booked and put on the air.
        """
        waiters = self._waiters
        sim = self.sim
        now = sim._now
        while waiters:
            sender = waiters.popleft()
            sender._pending = False
            gap_until = sender._gap_until
            if now < gap_until:
                sim.call_later(gap_until - now, sender._kick_transmit)
                continue
            packet = sender.queue.poll()
            if packet is not None:
                break
        else:
            return
        size = packet._size  # memoized when the radio queued it
        sender.tx_packets += 1
        sender.tx_bytes += size
        if sender.tracer is not None:
            sender.tracer.event("dev", "tx", packet, device=sender.name)
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
        cond = (_PERFECT_CHANNEL if profile is None
                else profile.conditions(now))
        rng = self.rng
        # The draws of ``randrange(MAX_BACKOFF_SLOTS + 1)``: CPython
        # draws ``getrandbits`` of the bound's bit length until a value
        # falls below the bound.
        getrandbits = rng.getrandbits
        slots = getrandbits(self.BACKOFF_BITS)
        while slots > self.MAX_BACKOFF_SLOTS:
            slots = getrandbits(self.BACKOFF_BITS)
        backoff = slots * self.SLOT_TIME
        access = 0.0
        if cond.access_latency_mean > 0.0:
            access = rng.expovariate(1.0 / cond.access_latency_mean)
        tx_time = (size * 8.0 / (self.rate_bps * cond.bandwidth_factor)
                   + self.PER_FRAME_OVERHEAD)
        self.frames_carried += 1
        # Propagation rides the same event as serialization: the frame
        # arrives (or is lost) one event after the grant, and the
        # medium frees at arrival time.
        nominal = cond.loss_prob_down if sender.is_base else cond.loss_prob_up
        sim.call_later(backoff + access + tx_time + self.prop_delay,
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
        # The sender's driver gap goes on the books, and the sender back
        # in line if it has more to send, before the next grant, or a
        # queued frame would sneak past the gap.  It re-queues at once
        # rather than after the gap: under contention the medium is
        # busy far longer than the gap, so by the time its turn comes
        # the gap has usually elapsed and no wakeup event is needed.
        # Delivery stays after the grant, matching the order the
        # separate propagation event used to impose.
        sender._gap_until = self.sim._now + sender.driver_gap
        waiters = self._waiters
        if sender.queue._items and not sender._pending:
            sender._pending = True
            waiters.append(sender)
        if waiters:
            self._try_grant()
        if lost:
            return
        if receiver is not None:
            receiver.handle_receive(packet)
            return
        # No station owns the address: the frame leaves the cell through
        # a base station.  The radio is physically broadcast, but a
        # station's receive filter discards frames addressed elsewhere
        # with no observable effect, so only two kinds of radio look at
        # this one.  A station carrying an input tap (the collection
        # daemon's hooks on the traced laptop) overhears it: the frame
        # is counted, traced and shown to the hooks, and never reaches
        # that station's stack.  Every tap runs before any base station
        # gets the frame, since a receiving stack may recycle it.  The
        # base stations then receive it and bridge it onward; each but
        # the last gets a clone taken ahead of its delivery, while the
        # frame is still pristine.  Loss was already decided per
        # transmission, so skipping deaf stations draws no RNG and
        # changes no result.
        bases = []
        for device in self.devices:
            if device is sender:
                continue
            if device.is_base:
                bases.append(device)
            elif device.input_hooks:
                device.overhear(packet)
        for device in bases[:-1]:
            spare = packet.clone()
            device.handle_receive(packet)
            packet = spare
        if bases:
            bases[-1].handle_receive(packet)
