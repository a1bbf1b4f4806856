"""Packets and protocol headers.

A :class:`Packet` is a lightweight in-memory representation of a frame:
header objects for each layer that is present plus an opaque payload
with an explicit byte size.  Nothing is actually serialized on the hot
path — sizes are tracked arithmetically — but every header knows its
wire size so end-to-end byte counts match what a real stack would put
on the wire.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

ETHERNET_HEADER_BYTES = 14
IP_HEADER_BYTES = 20
ICMP_HEADER_BYTES = 8
UDP_HEADER_BYTES = 8
TCP_HEADER_BYTES = 20

ETHERNET_MTU = 1500

# IP protocol numbers (the real ones, for familiarity).
PROTO_ICMP = 1
PROTO_TCP = 6
PROTO_UDP = 17

_packet_ids = itertools.count(1)


# Packets and headers are the most-read objects in the simulator, so
# they are slotted: no per-instance ``__dict__`` to allocate or search.
# Headers copy through their constructor (``copy``), which is how
# broadcast fan-out clones a frame per receiver.


@dataclass(slots=True)
class IPHeader:
    """Minimal IPv4 header: addressing, protocol demux, TTL."""

    src: str
    dst: str
    proto: int
    ttl: int = 64
    ident: int = 0

    @property
    def wire_bytes(self) -> int:
        return IP_HEADER_BYTES

    def copy(self) -> "IPHeader":
        """An independent copy of this header."""
        return IPHeader(self.src, self.dst, self.proto, self.ttl, self.ident)


@dataclass(slots=True)
class ICMPHeader:
    """ICMP echo / echo-reply header.

    ``icmp_type`` is 8 for ECHO and 0 for ECHOREPLY.  ``ident`` carries
    the pid of the generating process and ``seq`` the sequence number,
    exactly the fields the paper's collection phase records (§3.1.1).
    """

    icmp_type: int
    ident: int = 0
    seq: int = 0

    ECHO = 8
    ECHOREPLY = 0

    @property
    def wire_bytes(self) -> int:
        return ICMP_HEADER_BYTES

    def copy(self) -> "ICMPHeader":
        """An independent copy of this header."""
        return ICMPHeader(self.icmp_type, self.ident, self.seq)


@dataclass(slots=True)
class UDPHeader:
    src_port: int
    dst_port: int

    @property
    def wire_bytes(self) -> int:
        return UDP_HEADER_BYTES

    def copy(self) -> "UDPHeader":
        """An independent copy of this header."""
        return UDPHeader(self.src_port, self.dst_port)


@dataclass(slots=True)
class TCPHeader:
    """TCP header with the fields our Reno implementation uses."""

    src_port: int
    dst_port: int
    seq: int = 0
    ack: int = 0
    flags: int = 0
    window: int = 65535

    FIN = 0x01
    SYN = 0x02
    RST = 0x04
    PSH = 0x08
    ACK = 0x10

    @property
    def wire_bytes(self) -> int:
        return TCP_HEADER_BYTES

    def copy(self) -> "TCPHeader":
        """An independent copy of this header."""
        return TCPHeader(self.src_port, self.dst_port, self.seq, self.ack,
                         self.flags, self.window)

    def has(self, flag: int) -> bool:
        return bool(self.flags & flag)

    def flag_names(self) -> str:
        names = []
        for bit, name in ((self.SYN, "SYN"), (self.FIN, "FIN"), (self.RST, "RST"),
                          (self.PSH, "PSH"), (self.ACK, "ACK")):
            if self.flags & bit:
                names.append(name)
        return "|".join(names) or "-"


@dataclass(slots=True)
class Packet:
    """A frame in flight.

    ``payload`` is opaque application data (any object); ``payload_bytes``
    is its wire size.  ``meta`` carries out-of-band bookkeeping (payload
    timestamps for ping, trace annotations) that a real implementation
    would encode inside the payload bytes.
    """

    ip: Optional[IPHeader] = None
    icmp: Optional[ICMPHeader] = None
    udp: Optional[UDPHeader] = None
    tcp: Optional[TCPHeader] = None
    payload: Any = None
    payload_bytes: int = 0
    link_bytes: int = ETHERNET_HEADER_BYTES
    meta: Dict[str, Any] = field(default_factory=dict)
    packet_id: int = field(default_factory=lambda: next(_packet_ids))
    # Memoized wire size.  Headers are attached before a packet first
    # touches a device (the one post-construction assignment,
    # IPLayer.send, resets this), so the size is stable for the whole
    # journey through queues, media, and tracing hooks.
    _size: Optional[int] = field(default=None, repr=False, compare=False)
    # Pool bookkeeping, never constructor arguments: a packet is
    # unpooled until a PacketPool acquire marks it.
    _from_pool: Optional[str] = field(default=None, init=False, repr=False,
                                      compare=False)  # free-list key
    _pooled: bool = field(default=False, init=False, repr=False,
                          compare=False)  # True while on a free list
    _gen: int = field(default=0, init=False, repr=False,
                      compare=False)  # bumped on every slot reuse

    @property
    def generation(self) -> int:
        """Slot generation: bumped each time a pooled packet is reused.

        Code that stashes a packet reference across a release can
        compare generations to detect that the slot now carries a
        different frame.  Packets that never met the pool stay at 0.
        """
        return self._gen

    @property
    def size(self) -> int:
        """Total wire size in bytes, link header included."""
        size = self._size
        if size is None:
            # Header sizes are fixed per layer; summing constants keeps
            # the first computation cheap, and the memo makes the many
            # queue/medium/tracer reads per frame O(1).
            size = self.link_bytes + self.payload_bytes
            if self.ip is not None:
                size += IP_HEADER_BYTES
            if self.icmp is not None:
                size += ICMP_HEADER_BYTES
            if self.udp is not None:
                size += UDP_HEADER_BYTES
            if self.tcp is not None:
                size += TCP_HEADER_BYTES
            self._size = size
        return size

    @property
    def ip_size(self) -> int:
        """Size of the IP datagram (no link header)."""
        size = self._size
        if size is None:
            size = self.size
        return size - self.link_bytes

    def clone(self) -> "Packet":
        """A shallow, unpooled copy with a fresh packet id (used by
        broadcast fan-out)."""
        ip, icmp, udp, tcp = self.ip, self.icmp, self.udp, self.tcp
        dup = Packet.__new__(Packet)
        dup.ip = None if ip is None else ip.copy()
        dup.icmp = None if icmp is None else icmp.copy()
        dup.udp = None if udp is None else udp.copy()
        dup.tcp = None if tcp is None else tcp.copy()
        dup.payload = self.payload
        dup.payload_bytes = self.payload_bytes
        dup.link_bytes = self.link_bytes
        dup.meta = dict(self.meta)
        dup.packet_id = next(_packet_ids)
        dup._size = self._size
        dup._from_pool = None
        dup._pooled = False
        dup._gen = 0
        return dup

    def release(self) -> None:
        """Return this packet to the global pool (no-op if not pool-owned)."""
        POOL.release(self)

    def describe(self) -> str:
        """One-line human-readable summary (used in trace dumps)."""
        if self.ip is None:
            return f"pkt#{self.packet_id} raw {self.size}B"
        parts = [f"pkt#{self.packet_id} {self.ip.src}->{self.ip.dst}"]
        if self.icmp is not None:
            kind = "ECHO" if self.icmp.icmp_type == ICMPHeader.ECHO else "ECHOREPLY"
            parts.append(f"icmp {kind} id={self.icmp.ident} seq={self.icmp.seq}")
        elif self.udp is not None:
            parts.append(f"udp {self.udp.src_port}->{self.udp.dst_port}")
        elif self.tcp is not None:
            parts.append(
                f"tcp {self.tcp.src_port}->{self.tcp.dst_port}"
                f" seq={self.tcp.seq} ack={self.tcp.ack} [{self.tcp.flag_names()}]"
            )
        parts.append(f"{self.size}B")
        return " ".join(parts)


class PacketPool:
    """Slot-recycling allocator for hot-path packets.

    TCP segments, UDP datagrams, and IP fragments are created and
    destroyed hundreds of thousands of times per trial; the constant
    churn of ``Packet`` + header dataclass construction (two object
    allocations plus a fresh ``meta`` dict per frame) dominates the
    allocator profile.  The pool keeps freed packets on per-shape free
    lists — a slot that died as a TCP segment still carries its
    ``TCPHeader`` object, so reacquiring it overwrites header fields in
    place instead of allocating.

    Safety rules:

    * Only packets minted by an ``acquire_*`` call are pool-owned;
      :meth:`release` on anything else (test fixtures, ICMP echoes,
      ``clone()`` copies) is a no-op.
    * Release is idempotent — the ``_pooled`` flag guarantees a slot
      enters a free list at most once per lifetime.
    * Every reuse bumps the slot's generation counter and assigns a
      fresh ``packet_id``, so a stale reference held across a release
      is detectable and never aliases a later frame's identity.
    * Headers are never shared between packets (``clone()`` copies
      them), so overwriting a recycled slot's header can only touch the
      slot itself.

    Release sites are the points where a frame's journey ends: the TCP
    and UDP input routines, the IP not-for-me drop, fragment
    absorption into the reassembler, and channel loss on the radio.
    """

    MAX_FREE = 4096  # per shape; beyond this, released slots go to the GC

    __slots__ = ("enabled", "_free", "fresh", "reused", "released")

    def __init__(self) -> None:
        self.enabled = True
        self._free: Dict[str, list] = {"tcp": [], "udp": [], "frag": []}
        self.fresh = 0      # acquires served by real allocation
        self.reused = 0     # acquires served from a free list
        self.released = 0   # slots returned to a free list

    # ------------------------------------------------------------------
    def acquire_tcp(self, src_port: int, dst_port: int, seq: int, ack: int,
                    flags: int, window: int, payload_bytes: int) -> Packet:
        """A TCP segment packet (header attached, no IP header yet)."""
        free = self._free["tcp"]
        if free and self.enabled:
            p = free.pop()
            p._pooled = False
            p._gen += 1
            p.packet_id = next(_packet_ids)
            h = p.tcp
            h.src_port = src_port
            h.dst_port = dst_port
            h.seq = seq
            h.ack = ack
            h.flags = flags
            h.window = window
            p.payload = None
            p.payload_bytes = payload_bytes
            p.link_bytes = ETHERNET_HEADER_BYTES
            p._size = None
            self.reused += 1
            return p
        self.fresh += 1
        p = Packet(tcp=TCPHeader(src_port=src_port, dst_port=dst_port,
                                 seq=seq, ack=ack, flags=flags,
                                 window=window),
                   payload_bytes=payload_bytes)
        if self.enabled:
            p._from_pool = "tcp"
        return p

    def acquire_udp(self, src_port: int, dst_port: int, payload: Any,
                    payload_bytes: int) -> Packet:
        """A UDP datagram packet (header attached, no IP header yet)."""
        free = self._free["udp"]
        if free and self.enabled:
            p = free.pop()
            p._pooled = False
            p._gen += 1
            p.packet_id = next(_packet_ids)
            h = p.udp
            h.src_port = src_port
            h.dst_port = dst_port
            p.payload = payload
            p.payload_bytes = payload_bytes
            p.link_bytes = ETHERNET_HEADER_BYTES
            p._size = None
            self.reused += 1
            return p
        self.fresh += 1
        p = Packet(udp=UDPHeader(src_port=src_port, dst_port=dst_port),
                   payload=payload, payload_bytes=payload_bytes)
        if self.enabled:
            p._from_pool = "udp"
        return p

    def acquire_fragment(self, src: str, dst: str, proto: int, ttl: int,
                         ident: int, chunk: int, fragment: tuple,
                         original: Packet) -> Packet:
        """An IP fragment carrying its reassembly metadata."""
        free = self._free["frag"]
        if free and self.enabled:
            p = free.pop()
            p._pooled = False
            p._gen += 1
            p.packet_id = next(_packet_ids)
            h = p.ip
            h.src = src
            h.dst = dst
            h.proto = proto
            h.ttl = ttl
            h.ident = ident
            p.payload_bytes = chunk
            p.link_bytes = ETHERNET_HEADER_BYTES
            p._size = None
            m = p.meta
            m["fragment"] = fragment
            m["original"] = original
            self.reused += 1
            return p
        self.fresh += 1
        p = Packet(ip=IPHeader(src=src, dst=dst, proto=proto, ttl=ttl,
                               ident=ident),
                   payload_bytes=chunk,
                   meta={"fragment": fragment, "original": original})
        if self.enabled:
            p._from_pool = "frag"
        return p

    # ------------------------------------------------------------------
    def release(self, packet: Packet) -> None:
        """Recycle a pool-owned packet whose journey has ended.

        Safe to call on any packet: foreign packets and already-released
        slots are ignored.  Payload and metadata references are dropped
        immediately so the free list never pins application data.
        """
        key = packet._from_pool
        if key is None or packet._pooled or not self.enabled:
            return
        packet._pooled = True
        packet.payload = None
        packet.meta.clear()
        self.released += 1
        free = self._free[key]
        if len(free) < self.MAX_FREE:
            free.append(packet)

    # ------------------------------------------------------------------
    def clear(self) -> None:
        """Drop all free slots (tests and memory-profiling legs)."""
        for free in self._free.values():
            free.clear()

    def stats(self) -> Dict[str, int]:
        """Allocation-avoidance counters plus current free-list depths."""
        out = {"fresh": self.fresh, "reused": self.reused,
               "released": self.released}
        for key, free in self._free.items():
            out[f"free_{key}"] = len(free)
        return out


#: Process-wide packet pool.  Hosts on every simulated network share it;
#: determinism is unaffected because packet ids are assigned at acquire
#: time in the same order regardless of whether the slot is recycled.
POOL = PacketPool()
