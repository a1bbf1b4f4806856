"""Shared-medium Ethernet segment.

Classic 10 Mb/s Ethernet is half duplex: every frame occupies the whole
segment while it is on the wire, so inbound and outbound traffic at a
host genuinely interfere.  The paper's delay-compensation step (§3.3)
measures exactly this — the long-term bottleneck per-byte cost of the
modulating LAN — so the segment models a single shared transmission
horizon rather than independent per-direction pipes.

CSMA/CD is simplified to FIFO arbitration with a short inter-frame gap;
collisions are not modelled (the isolated two-host segments used for
modulation would see almost none).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional

from ..sim import Simulator
from .device import NetworkDevice
from .packet import Packet
from .queue import DropTailQueue


class EthernetDevice(NetworkDevice):
    """A NIC attached to an :class:`EthernetSegment`."""

    def __init__(self, sim: Simulator, name: str, address: str,
                 queue: Optional[DropTailQueue] = None):
        super().__init__(sim, name, address, queue)
        self.segment: Optional["EthernetSegment"] = None
        # True while this NIC waits in the segment's arbitration queue.
        self._pending = False

    def _kick_transmit(self) -> None:
        """Join the segment's arbitration queue if there is a frame to send."""
        segment = self.segment
        if self._pending or segment is None or not self.queue._items:
            return
        self._pending = True
        segment._waiters.append(self)
        if not segment._busy:
            segment._try_grant()


class EthernetSegment:
    """A shared bus connecting any number of :class:`EthernetDevice`.

    Frames are delivered to the device whose address matches the IP
    destination when one is attached; otherwise the frame floods to
    every other device on the segment (the way a bridge port hears
    traffic bound beyond it).
    """

    INTERFRAME_GAP = 9.6e-6  # 96 bit times at 10 Mb/s

    def __init__(self, sim: Simulator, bandwidth_bps: float = 10e6,
                 prop_delay: float = 25e-6, name: str = "ether0"):
        self.sim = sim
        self.bandwidth_bps = bandwidth_bps
        self.prop_delay = prop_delay
        self.name = name
        self.devices: List[EthernetDevice] = []
        # Delivery targets, kept by attach: the devices owning each
        # address, and the flood set of each sender (everyone else).
        self._by_address: Dict[str, List[EthernetDevice]] = {}
        self._others: Dict[EthernetDevice, List[EthernetDevice]] = {}
        self._busy = False
        self._waiters: Deque[EthernetDevice] = deque()
        self.frames_carried = 0
        self.bytes_carried = 0

    # ------------------------------------------------------------------
    def attach(self, device: EthernetDevice) -> None:
        if device.segment is not None:
            raise ValueError(f"{device.name} already attached")
        device.segment = self
        for other in self.devices:
            self._others[other].append(device)
        self._others[device] = list(self.devices)
        self.devices.append(device)
        self._by_address.setdefault(device.address, []).append(device)

    def per_byte_cost(self) -> float:
        """Ideal per-byte serialization cost of the segment (s/byte)."""
        return 8.0 / self.bandwidth_bps

    # ------------------------------------------------------------------
    def _try_grant(self) -> None:
        """Give the idle segment to the first waiting device: one step
        per frame takes its head frame off its queue, books it and puts
        it on the wire."""
        waiters = self._waiters
        while waiters:
            device = waiters.popleft()
            device._pending = False
            packet = device.queue.poll()
            if packet is not None:
                break
        else:
            return
        size = packet._size  # memoized when the device queued it
        device.tx_packets += 1
        device.tx_bytes += size
        if device.tracer is not None:
            device.tracer.event("dev", "tx", packet, device=device.name)
        self._busy = True
        tx_time = size * 8.0 / self.bandwidth_bps
        self.frames_carried += 1
        self.bytes_carried += size
        # When propagation outlasts the inter-frame gap (every real
        # segment here), the entire frame lifetime — serialization,
        # propagation, release — rides a single event; otherwise the
        # classic sequence keeps delivery at exactly ``prop_delay``.
        if self.prop_delay >= self.INTERFRAME_GAP:
            self.sim.call_later(tx_time + self.prop_delay,
                                self._deliver_release, device, packet)
        else:
            self.sim.call_later(tx_time, self._transmit_done, device, packet)

    def _transmit_done(self, sender: EthernetDevice, packet: Packet) -> None:
        # The sender gets back in line while the segment is still busy,
        # so its next frame contends in the next arbitration round.
        if sender.queue._items and not sender._pending:
            sender._pending = True
            self._waiters.append(sender)
        self.sim.call_later(self.prop_delay, self._deliver, sender, packet)
        self.sim.call_later(self.INTERFRAME_GAP, self._release)

    def _deliver_release(self, sender: EthernetDevice, packet: Packet) -> None:
        # The sender re-queues before the medium is released so its
        # next frame contends in the same arbitration round.
        waiters = self._waiters
        if sender.queue._items and not sender._pending:
            sender._pending = True
            waiters.append(sender)
        self._busy = False
        if waiters:
            self._try_grant()
        self._deliver(sender, packet)

    def _release(self) -> None:
        self._busy = False
        if self._waiters:
            self._try_grant()

    def _deliver(self, sender: EthernetDevice, packet: Packet) -> None:
        """Hand ``packet`` to the devices owning its IP destination, or
        flood it to every other device when none does."""
        ip = packet.ip
        targets = self._by_address.get(ip.dst if ip is not None else None)
        if targets is not None and sender in targets:
            targets = [d for d in targets if d is not sender]
        if not targets:
            targets = self._others[sender]
        if len(targets) == 1:
            # Unicast, the usual case: nothing to fan out.
            targets[0].handle_receive(packet)
            return
        # Clone before delivering (not after): the receiving stack may
        # recycle the frame it was handed, so later copies must be taken
        # from a pristine packet.
        for device in targets[:-1]:
            spare = packet.clone()
            device.handle_receive(packet)
            packet = spare
        if targets:
            targets[-1].handle_receive(packet)
