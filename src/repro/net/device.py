"""Network interface devices.

A :class:`NetworkDevice` is the boundary between a host's protocol stack
and a transmission medium.  Two properties matter for the paper:

* **Tracing hooks.**  The collection phase (§3.1.2) "places hooks in the
  input and output routines of traced devices".  Devices expose
  ``input_hooks`` and ``output_hooks`` lists; the in-kernel packet
  tracer registers callables there and sees every frame with its
  timestamp.
* **Status reporting.**  Wireless devices report signal level, signal
  quality and silence level (§3.1.1) through :meth:`device_status`.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from ..sim import Simulator
from .packet import Packet
from .queue import DropTailQueue

# Hook signature: hook(device, packet, direction, timestamp)
Hook = Callable[["NetworkDevice", Packet, str, float], None]

DIR_IN = "in"
DIR_OUT = "out"


class NetworkDevice:
    """Base class for NICs and radios."""

    def __init__(self, sim: Simulator, name: str, address: str,
                 queue: Optional[DropTailQueue] = None):
        self.sim = sim
        self.name = name
        self.address = address
        if queue is None:
            queue = DropTailQueue(max_packets=100, name=f"{name}.txq")
        self.queue = queue
        self.up = True
        self.upstream: Optional[Callable[[Packet], None]] = None
        self.input_hooks: List[Hook] = []
        self.output_hooks: List[Hook] = []
        # Lifecycle-tracer scope (repro.obs); None keeps the device on
        # the uninstrumented fast path.
        self.tracer = None
        self.tx_packets = 0
        self.tx_bytes = 0
        self.rx_packets = 0
        self.rx_bytes = 0
        self.tx_drops = 0

    # ------------------------------------------------------------------
    # Downward path (stack -> medium)
    # ------------------------------------------------------------------
    def send(self, packet: Packet) -> None:
        """Accept a frame from the protocol stack for transmission."""
        tracer = self.tracer
        if not self.up:
            self.tx_drops += 1
            if tracer is not None:
                tracer.drop("dev", packet, "device_down", device=self.name)
            return
        if self.output_hooks:
            now = self.sim._now
            for hook in self.output_hooks:
                hook(self, packet, DIR_OUT, now)
        if not self.queue.offer(packet):
            self.tx_drops += 1
            if tracer is not None:
                tracer.drop("dev", packet, "queue_full", device=self.name)
            return
        if tracer is not None:
            tracer.event("dev", "enqueue", packet, device=self.name)
        self._kick_transmit()

    def _kick_transmit(self) -> None:
        """Start the transmit machinery if idle.  Subclasses implement."""
        raise NotImplementedError

    def _record_tx(self, packet: Packet) -> None:
        """Count a frame just taken from the queue (size memoized)."""
        self.tx_packets += 1
        self.tx_bytes += packet._size
        if self.tracer is not None:
            self.tracer.event("dev", "tx", packet, device=self.name)

    # ------------------------------------------------------------------
    # Upward path (medium -> stack)
    # ------------------------------------------------------------------
    def handle_receive(self, packet: Packet) -> None:
        """Called by the medium when a frame arrives at this device."""
        tracer = self.tracer
        if not self.up:
            if tracer is not None:
                tracer.drop("dev", packet, "device_down", device=self.name)
            return
        self.rx_packets += 1
        self.rx_bytes += packet._size  # memoized when the sender queued it
        if tracer is not None:
            tracer.event("dev", "rx", packet, device=self.name)
        if self.input_hooks:
            now = self.sim._now
            for hook in self.input_hooks:
                hook(self, packet, DIR_IN, now)
        upstream = self.upstream
        if upstream is not None:
            upstream(packet)

    def overhear(self, packet: Packet) -> None:
        """Receive a frame addressed to another station, for the taps only.

        A broadcast medium calls this on a station whose input hooks
        must see every frame on the air (the collection daemon's tap,
        §3.1.2).  The frame is counted and traced as received and shown
        to the hooks, exactly as :meth:`handle_receive` would, but the
        stack never gets it: its receive filter would only drop it.
        """
        tracer = self.tracer
        if not self.up:
            if tracer is not None:
                tracer.drop("dev", packet, "device_down", device=self.name)
            return
        self.rx_packets += 1
        self.rx_bytes += packet._size
        if tracer is not None:
            tracer.event("dev", "rx", packet, device=self.name)
        now = self.sim._now
        for hook in self.input_hooks:
            hook(self, packet, DIR_IN, now)

    # ------------------------------------------------------------------
    def device_status(self) -> Dict[str, Any]:
        """Device characteristics snapshot (subclasses extend)."""
        return {
            "device": self.name,
            "tx_packets": self.tx_packets,
            "rx_packets": self.rx_packets,
            "tx_bytes": self.tx_bytes,
            "rx_bytes": self.rx_bytes,
        }

    def __repr__(self) -> str:  # pragma: no cover
        return f"<{type(self).__name__} {self.name} addr={self.address}>"


class LoopbackDevice(NetworkDevice):
    """Delivers every transmitted frame back to its own stack.

    Useful in tests and as the attachment point for a modulation layer
    exercised without any physical medium at all.
    """

    def __init__(self, sim: Simulator, name: str = "lo0", address: str = "127.0.0.1"):
        super().__init__(sim, name, address)
        self.delay = 0.0

    def _kick_transmit(self) -> None:
        packet = self.queue.poll()
        while packet is not None:
            self._record_tx(packet)
            self.sim.call_later(self.delay, self.handle_receive, packet)
            packet = self.queue.poll()
