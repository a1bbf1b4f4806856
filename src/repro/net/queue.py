"""Drop-tail packet queues with accounting."""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional

from .packet import Packet


class DropTailQueue:
    """A bounded FIFO that drops arrivals when full.

    Limits may be expressed in packets, bytes, or both; a packet is
    accepted only if it fits under every configured limit.  Devices
    test emptiness on the per-frame path by reading ``_items``, the
    deque itself, rather than through :attr:`empty`.
    """

    def __init__(self, max_packets: Optional[int] = 100,
                 max_bytes: Optional[int] = None, name: str = ""):
        if max_packets is None and max_bytes is None:
            raise ValueError("queue must have at least one limit")
        self.max_packets = max_packets
        self.max_bytes = max_bytes
        self.name = name
        self._items: Deque[Packet] = deque()
        self._bytes = 0
        self.enqueued = 0
        self.dequeued = 0
        self.dropped = 0
        self.dropped_bytes = 0

    def offer(self, packet: Packet) -> bool:
        """Enqueue ``packet`` if room remains; returns False on drop.

        Reading ``packet.size`` here memoizes it, so the transmit path
        downstream of :meth:`poll` reads the memo (``_size``) directly.
        """
        items = self._items
        if self.max_packets is not None and len(items) >= self.max_packets:
            self._drop(packet)
            return False
        size = packet._size  # usually memoized already (IP checks the MTU)
        if size is None:
            size = packet.size
        if self.max_bytes is not None and self._bytes + size > self.max_bytes:
            self._drop(packet)
            return False
        items.append(packet)
        self._bytes += size
        self.enqueued += 1
        return True

    def poll(self) -> Optional[Packet]:
        """Dequeue the head packet, or None if empty."""
        if not self._items:
            return None
        packet = self._items.popleft()
        self._bytes -= packet._size
        self.dequeued += 1
        return packet

    def peek(self) -> Optional[Packet]:
        return self._items[0] if self._items else None

    def _drop(self, packet: Packet) -> None:
        self.dropped += 1
        self.dropped_bytes += packet.size

    def stats(self) -> dict:
        """Accounting snapshot (Host.stats / metrics collectors)."""
        return {
            "enqueued": self.enqueued,
            "dequeued": self.dequeued,
            "dropped": self.dropped,
            "dropped_bytes": self.dropped_bytes,
            "depth": len(self._items),
            "depth_bytes": self._bytes,
        }

    def __len__(self) -> int:
        return len(self._items)

    @property
    def byte_length(self) -> int:
        return self._bytes

    @property
    def empty(self) -> bool:
        return not self._items
