"""Trace collection: in-kernel tracer, circular buffer, drain daemon.

Implements §3.1.2 faithfully:

* hooks in the traced device's input and output routines copy relevant
  packet information into an **in-kernel circular buffer**;
* the kernel **periodically samples device characteristics** into the
  same buffer;
* the buffer is fixed-size and may be **overrun**; the number and type
  of lost records is tracked and emitted as ``lost_records`` records;
* the kernel exports a **pseudo-device** (open enables tracing, close
  disables it, read drains records);
* a **user-level daemon** periodically extracts records and appends
  them to the trace file.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Dict, Generator, List, Optional

from ..hosts.host import Host
from ..hosts.kernel import PseudoDevice
from ..net.device import DIR_IN, NetworkDevice
from ..net.packet import ICMPHeader, Packet, PROTO_ICMP, PROTO_TCP, PROTO_UDP
from ..sim import Timeout
from .traceformat import (
    DIR_IN as REC_IN,
    DIR_OUT as REC_OUT,
    DeviceStatusRecord,
    LostRecordsRecord,
    PacketRecord,
    TraceRecord,
)

TRACED_PROTOCOLS = (PROTO_ICMP, PROTO_UDP, PROTO_TCP)


class CircularTraceBuffer:
    """Fixed-capacity record buffer with per-type overrun accounting."""

    def __init__(self, capacity: int = 4096):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._records: Deque[TraceRecord] = deque()
        self.lost_by_type: Dict[str, int] = {}
        self.total_appended = 0
        self.total_lost = 0

    def append(self, record: TraceRecord) -> None:
        if len(self._records) >= self.capacity:
            evicted = self._records.popleft()
            name = evicted.RECORD_TYPE
            self.lost_by_type[name] = self.lost_by_type.get(name, 0) + 1
            self.total_lost += 1
        self._records.append(record)
        self.total_appended += 1

    def drain(self, max_records: int = 0) -> List[TraceRecord]:
        """Remove and return up to ``max_records`` (0 = all).

        If records were lost since the last drain, ``lost_records``
        entries are prepended so the loss is visible in the trace.
        """
        out: List[TraceRecord] = []
        if self.lost_by_type:
            for name, count in sorted(self.lost_by_type.items()):
                out.append(LostRecordsRecord(timestamp=-1.0, record_type=name,
                                             count=count))
            self.lost_by_type = {}
        limit = max_records if max_records > 0 else len(self._records)
        while self._records and limit > 0:
            out.append(self._records.popleft())
            limit -= 1
        return out

    def __len__(self) -> int:
        return len(self._records)


class TracePseudoDevice(PseudoDevice):
    """/dev/trace: open enables tracing, close disables, read drains."""

    def __init__(self, tracer: "PacketTracer", name: str = "trace0"):
        super().__init__(name)
        self.tracer = tracer

    def open(self) -> None:
        super().open()
        self.tracer.enabled = True

    def close(self) -> None:
        super().close()
        self.tracer.enabled = False

    def read(self, max_records: int = 0) -> List[TraceRecord]:
        if not self.is_open:
            raise RuntimeError(f"{self.name}: not open")
        return self.tracer.buffer.drain(max_records)


class PacketTracer:
    """The in-kernel tracing machinery for one device."""

    def __init__(self, host: Host, device: NetworkDevice,
                 buffer_capacity: int = 4096,
                 status_period: float = 1.0):
        self.host = host
        self.device = device
        self.buffer = CircularTraceBuffer(buffer_capacity)
        self.status_period = status_period
        self.enabled = False
        self.packets_traced = 0
        self.packets_ignored = 0
        device.output_hooks.append(self._packet_hook)
        device.input_hooks.append(self._packet_hook)
        self.pseudo_device = TracePseudoDevice(self)
        host.kernel.register_device(self.pseudo_device)
        self._status_timer_running = False

    # ------------------------------------------------------------------
    def start_status_sampling(self) -> None:
        """Begin periodic device-status records (idempotent)."""
        if not self._status_timer_running:
            self._status_timer_running = True
            self._sample_status()

    def _sample_status(self) -> None:
        if self.enabled:
            status = self.device.device_status()
            self.buffer.append(DeviceStatusRecord(
                timestamp=self.host.kernel.timestamp(),
                signal_level=float(status.get("signal_level", 0.0)),
                signal_quality=float(status.get("signal_quality", 0.0)),
                silence_level=float(status.get("silence_level", 0.0)),
            ))
        self.host.kernel.callout(self.status_period, self._sample_status)

    # ------------------------------------------------------------------
    def _packet_hook(self, device: NetworkDevice, packet: Packet,
                     direction: str, timestamp: float) -> None:
        if not self.enabled:
            return
        if packet.ip is None or packet.ip.proto not in TRACED_PROTOCOLS:
            self.packets_ignored += 1
            return
        record = self._record_for(packet, direction)
        self.buffer.append(record)
        self.packets_traced += 1

    def _record_for(self, packet: Packet, direction: str) -> PacketRecord:
        now_host = self.host.kernel.timestamp()
        record = PacketRecord(
            timestamp=now_host,
            direction=REC_IN if direction == DIR_IN else REC_OUT,
            proto=packet.ip.proto,
            size=packet.ip_size,
            src=packet.ip.src,
            dst=packet.ip.dst,
        )
        if packet.icmp is not None:
            record.icmp_type = packet.icmp.icmp_type
            record.ident = packet.icmp.ident
            record.seq = packet.icmp.seq
            if packet.icmp.icmp_type == ICMPHeader.ECHOREPLY:
                sent_at = packet.meta.get("echo_sent_at_host")
                if sent_at is not None:
                    # RTT from the payload timestamp — both stamps come
                    # from this host's clock, so no synchronization is
                    # needed (§3.1.1).
                    record.rtt = now_host - sent_at
        elif packet.udp is not None:
            record.src_port = packet.udp.src_port
            record.dst_port = packet.udp.dst_port
        elif packet.tcp is not None:
            record.src_port = packet.tcp.src_port
            record.dst_port = packet.tcp.dst_port
            record.seq = packet.tcp.seq
            record.flags = packet.tcp.flags
        return record


class CollectionDaemon:
    """User-level daemon that drains the pseudo-device to a list/file.

    ``keep``, when given, is a predicate over drained records: the
    daemon appends only the records it accepts (a consumer that reads
    a few record kinds need not hold the rest).  Draining itself, and
    so the kernel buffer's overrun accounting, does not change.
    """

    def __init__(self, host: Host, device_name: str = "trace0",
                 drain_period: float = 0.5, batch: int = 512,
                 keep: Optional[Callable[[TraceRecord], bool]] = None):
        self.host = host
        self.device_name = device_name
        self.drain_period = drain_period
        self.batch = batch
        self.keep = keep
        self.records: List[TraceRecord] = []
        self.drains = 0
        self._running = False

    def _append(self, batch: List[TraceRecord]) -> None:
        if self.keep is None:
            self.records.extend(batch)
        else:
            self.records.extend(filter(self.keep, batch))

    def loop(self) -> Generator[Any, Any, None]:
        """Daemon process body; run with ``host.spawn(daemon.loop())``."""
        device = self.host.kernel.device(self.device_name)
        device.open()
        self._running = True
        try:
            while self._running:
                yield Timeout(self.drain_period)
                # No local for the batch: the suspended frame would
                # keep the last one alive with the world.
                self._append(device.read(self.batch))
                self.drains += 1
        finally:
            # Final drain so records queued at shutdown are not lost.
            self._append(device.read(0))
            device.close()

    def stop(self) -> None:
        self._running = False


def trace_collection_run(host: Host, device: NetworkDevice,
                         buffer_capacity: int = 4096,
                         status_period: float = 1.0,
                         drain_period: float = 0.5,
                         keep: Optional[Callable[[TraceRecord], bool]] = None
                         ) -> CollectionDaemon:
    """Wire up tracer + daemon on ``host`` and start the daemon process.

    Returns the daemon; its ``records`` list accumulates the trace —
    every record, or with ``keep`` only those it accepts (see
    :class:`CollectionDaemon`).
    """
    tracer = PacketTracer(host, device, buffer_capacity=buffer_capacity,
                          status_period=status_period)
    tracer.start_status_sampling()
    daemon = CollectionDaemon(host, tracer.pseudo_device.name,
                              drain_period=drain_period, keep=keep)
    host.spawn(daemon.loop(), name="trace-daemon")
    return daemon
