"""A Reno-style TCP.

The FTP and Web benchmarks are TCP-limited, so the validation shapes in
Figures 6 and 7 depend on a real congestion-control loop: slow start,
congestion avoidance, fast retransmit/recovery, and the coarse
retransmission timers of a 1997 BSD stack (minimum RTO of one second —
losses that escape fast retransmit stall the connection visibly, which
is exactly what live WaveLAN FTP shows in the lossy scenarios).

Simulation shortcuts, documented here deliberately:

* Application data is *counted*, not carried: a segment knows how many
  payload bytes it represents.  Message boundaries for request/response
  protocols ride in per-connection marker lists consumed strictly
  in-order by stream offset (see :class:`MessageChannel`), so framing
  costs are still paid on the wire.
* Sequence numbers are absolute 64-bit offsets (no wraparound); the SYN
  occupies offset 0, data starts at 1, the FIN occupies one offset past
  the last data byte.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Optional, Tuple

from ..net.packet import POOL, Packet, PROTO_TCP, TCPHeader
from ..sim import Signal, Simulator, Timeout

MSS = 1460
DEFAULT_RCV_BUF = 16384
INITIAL_RTO = 1.5
MIN_RTO = 1.0
MAX_RTO = 64.0
DELAYED_ACK = 0.2
DUPACK_THRESHOLD = 3
MAX_SYN_RETRIES = 6
MAX_DATA_RETRIES = 20
FIN_WAIT_2_TIMEOUT = 60.0  # orphaned half-close reaper, as in BSD

# Header flag bits, bound once for the per-segment paths.
_FIN = TCPHeader.FIN
_SYN = TCPHeader.SYN
_RST = TCPHeader.RST
_PSH = TCPHeader.PSH
_ACK = TCPHeader.ACK

# Connection states (the subset our apps traverse).
CLOSED = "CLOSED"
SYN_SENT = "SYN_SENT"
SYN_RCVD = "SYN_RCVD"
ESTABLISHED = "ESTABLISHED"
FIN_WAIT_1 = "FIN_WAIT_1"
FIN_WAIT_2 = "FIN_WAIT_2"
CLOSE_WAIT = "CLOSE_WAIT"
LAST_ACK = "LAST_ACK"
CLOSING = "CLOSING"


class TCPError(Exception):
    """Connection failed (reset, too many retransmissions, ...)."""


class TCPConnection:
    """One endpoint of a TCP connection."""

    def __init__(self, proto: "TCPProtocol", laddr: str, lport: int,
                 raddr: str, rport: int, passive: bool):
        self.proto = proto
        self.sim = proto.sim
        self.laddr = laddr
        self.lport = lport
        self.raddr = raddr
        self.rport = rport
        self.state = CLOSED
        self.passive = passive

        # --- send side -------------------------------------------------
        self.snd_una = 0          # oldest unacked offset
        self.snd_nxt = 0          # next offset to send
        self.snd_max = 0          # highest offset ever sent
        self.app_enqueued = 0     # app bytes accepted for sending
        self.fin_pending = False
        self.fin_offset: Optional[int] = None
        self.peer_window = DEFAULT_RCV_BUF
        self.cwnd = float(MSS)
        self.ssthresh = 65535.0
        self.dupacks = 0
        self.in_fast_recovery = False
        self.recovery_point = 0
        self.srtt: Optional[float] = None
        self.rttvar = 0.0
        self.rto = INITIAL_RTO
        self.backoff = 1
        self.retries = 0
        self._rtt_sample: Optional[Tuple[int, float]] = None  # (end_offset, sent_at)
        self._rtx_timer = None
        self.send_markers: List[Tuple[int, int, Any]] = []  # (start, end, message)

        # --- receive side ----------------------------------------------
        self.rcv_nxt = 0          # next expected offset (0 = expecting SYN)
        self.app_read = 0         # app bytes consumed
        self.rcv_buf = proto.rcv_buf
        self._ooo: Dict[int, int] = {}  # start offset -> end offset
        self.fin_received = False
        self._delack_timer = None
        self._segments_unacked = 0
        self.recv_markers: Dict[int, Any] = {}  # app end offset -> message

        # --- wakeups -----------------------------------------------------
        self.readable_signal = Signal(self.sim, "tcp.readable")
        self.acked_signal = Signal(self.sim, "tcp.acked")
        self.state_signal = Signal(self.sim, "tcp.state")
        self.error: Optional[TCPError] = None

        # --- stats -------------------------------------------------------
        self.segments_sent = 0
        self.segments_received = 0
        self.retransmits = 0
        self.timeouts = 0
        self.fast_retransmits = 0

    # ==================================================================
    # Public (application) interface — coroutine style
    # ==================================================================
    def send(self, nbytes: int, message: Any = None) -> None:
        """Enqueue ``nbytes`` of application data (optionally tagged)."""
        self._check_error()
        if self.state not in (ESTABLISHED, CLOSE_WAIT):
            raise TCPError(f"send in state {self.state}")
        if nbytes < 0:
            raise ValueError("cannot send negative bytes")
        start = self.app_enqueued
        self.app_enqueued += nbytes
        if message is not None:
            self.send_markers.append((start, self.app_enqueued, message))
        self._try_send()

    def recv_exact(self, nbytes: int) -> Generator[Any, Any, int]:
        """Consume exactly ``nbytes``, incrementally as data arrives.

        Consuming as bytes arrive (rather than waiting for the full
        count) keeps the advertised window open for transfers larger
        than the receive buffer.  Returns the count consumed, which is
        less than ``nbytes`` only if the peer closed first.
        """
        remaining = nbytes
        while remaining > 0:
            readable = self.readable_bytes()
            if readable == 0:
                self._check_error()
                if self._eof_reached():
                    break
                yield self.readable_signal
                continue
            take = min(readable, remaining)
            self._consume(take)
            remaining -= take
        return nbytes - remaining

    def recv_some(self) -> Generator[Any, Any, int]:
        """Wait for any readable data; 0 means the peer closed."""
        while self.readable_bytes() == 0:
            self._check_error()
            if self._eof_reached():
                return 0
            yield self.readable_signal
        got = self.readable_bytes()
        self._consume(got)
        return got

    def send_wait(self, nbytes: int, message: Any = None,
                  sndbuf: int = 16384) -> Generator[Any, Any, None]:
        """Blocking send: waits for socket-buffer space first.

        Real senders block when the socket buffer fills; without this,
        a disk-paced application would decouple entirely from network
        backpressure.
        """
        while (1 + self.app_enqueued) - self.snd_una + nbytes > sndbuf \
                and self.snd_una < 1 + self.app_enqueued:
            self._check_error()
            yield self.acked_signal
        self.send(nbytes, message=message)

    def drain(self) -> Generator[Any, Any, None]:
        """Wait until every enqueued byte has been acknowledged."""
        while self.snd_una < 1 + self.app_enqueued:
            self._check_error()
            yield self.acked_signal

    def close(self) -> None:
        """Begin an orderly close once outstanding data drains."""
        if self.state in (ESTABLISHED, CLOSE_WAIT) and not self.fin_pending:
            self.fin_pending = True
            self._try_send()

    def close_and_wait(self) -> Generator[Any, Any, None]:
        """Close and wait for the teardown to finish.

        A connection that dies while closing (peer reset, exhausted
        retransmissions) is treated as closed — the caller wanted it
        gone either way.
        """
        self.close()
        while self.state != CLOSED:
            if self.error is not None:
                return
            yield self.state_signal

    def wait_established(self) -> Generator[Any, Any, "TCPConnection"]:
        while self.state not in (ESTABLISHED, CLOSE_WAIT):
            self._check_error()
            if self.state == CLOSED:
                raise self.error or TCPError("connection failed")
            yield self.state_signal
        return self

    def readable_bytes(self) -> int:
        """Application bytes received in order and not yet consumed."""
        return max(0, self._rcv_data_edge() - 1 - self.app_read)

    # ==================================================================
    # Internals — send machinery
    # ==================================================================
    def _start_active_open(self) -> None:
        self.state = SYN_SENT
        self._send_segment(0, 0, _SYN)
        self.snd_nxt = 1
        self.snd_max = 1
        self._arm_rtx()

    def _start_passive_open(self, syn_packet: Packet) -> None:
        self.state = SYN_RCVD
        self.rcv_nxt = 1
        self.peer_window = syn_packet.tcp.window
        self._send_segment(0, 0, _SYN | _ACK)
        self.snd_nxt = 1
        self.snd_max = 1
        self._arm_rtx()

    def _send_limit(self) -> int:
        """Highest offset the windows currently permit."""
        window = min(self.cwnd, float(self.peer_window))
        return self.snd_una + max(int(window), MSS if self.in_fast_recovery else 0)

    def _data_edge(self) -> int:
        """One past the last sendable data offset (before any FIN)."""
        return 1 + self.app_enqueued

    def _try_send(self) -> None:
        if self.state not in (ESTABLISHED, CLOSE_WAIT, FIN_WAIT_1, CLOSING, LAST_ACK):
            return
        limit = self._send_limit()
        # Nothing below reaches the application, so the data edge is
        # fixed for the whole burst.
        edge = self._data_edge()
        sent_any = False
        while self.snd_nxt < edge and self.snd_nxt < limit:
            seq = self.snd_nxt
            length = min(MSS, edge - seq, limit - seq)
            self._send_segment(seq, length,
                               _ACK | _PSH if seq + length >= edge else _ACK)
            self.snd_nxt += length
            if self.snd_nxt > self.snd_max:
                self.snd_max = self.snd_nxt
            sent_any = True
        if (self.fin_pending and self.fin_offset is None
                and self.snd_nxt == edge):
            self.fin_offset = self.snd_nxt
            self._send_segment(self.snd_nxt, 0, _FIN | _ACK)
            self.snd_nxt += 1
            if self.snd_nxt > self.snd_max:
                self.snd_max = self.snd_nxt
            sent_any = True
            if self.state == ESTABLISHED:
                self._set_state(FIN_WAIT_1)
            elif self.state == CLOSE_WAIT:
                self._set_state(LAST_ACK)
        if sent_any:
            self._arm_rtx()

    def _send_segment(self, seq: int, length: int, flags: int,
                      is_rtx: bool = False) -> None:
        """Emit one segment carrying ``flags`` (``TCPHeader`` bits)."""
        # The advertised window (``_adv_window``), inline: this runs for
        # every segment.
        backlog = ((self.rcv_nxt - 1 if self.fin_received else self.rcv_nxt)
                   - 1 - self.app_read)
        window = self.rcv_buf - backlog if backlog > 0 else self.rcv_buf
        packet = POOL.acquire_tcp(self.lport, self.rport, seq,
                                  self.rcv_nxt if flags & _ACK else 0, flags,
                                  window if window > 0 else 0, length)
        if length > 0 and self.send_markers:
            # Attach the markers of every message this segment overlaps;
            # app byte i (0-based) lives at stream offset 1+i.  Carrying
            # the boundary from the *first* byte onward lets the
            # receiver consume large messages incrementally.
            app_lo = seq - 1
            app_hi = app_lo + length
            carried = [(end, obj) for start, end, obj in self.send_markers
                       if app_lo < end and app_hi > start]
            if carried:
                packet.payload = carried
        self.segments_sent += 1
        if is_rtx:
            self.retransmits += 1
        # RTT sampling (Karn's rule: never sample retransmitted data).
        elif length > 0 and self._rtt_sample is None:
            self._rtt_sample = (seq + length, self.sim._now)
        # Every segment carries the current ACK: no delayed ACK pending.
        delack = self._delack_timer
        if delack is not None:
            delack.cancel()
            self._delack_timer = None
        self._segments_unacked = 0
        tracer = self.proto.tracer
        if tracer is not None:
            tracer.event("tcp", "tx", packet, seq=seq, length=length,
                         flags=flags, rtx=is_rtx)
        self.proto.ip.send(self.laddr, self.raddr, PROTO_TCP, packet)

    # --- retransmission timer -----------------------------------------
    def _arm_rtx(self) -> None:
        if self._rtx_timer is not None and self._rtx_timer.pending:
            return
        self._rtx_timer = self.proto.callout(self.rto * self.backoff, self._rtx_fire)

    def _rearm_rtx(self) -> None:
        self._cancel_rtx()
        if self.snd_una < self.snd_nxt:
            self._rtx_timer = self.proto.callout(self.rto * self.backoff,
                                                 self._rtx_fire)

    def _cancel_rtx(self) -> None:
        if self._rtx_timer is not None:
            self._rtx_timer.cancel()
            self._rtx_timer = None

    def _rtx_fire(self) -> None:
        self._rtx_timer = None
        if self.snd_una >= self.snd_nxt and not self._handshake_in_flight():
            return
        self.timeouts += 1
        self.retries += 1
        max_retries = MAX_SYN_RETRIES if self.state in (SYN_SENT, SYN_RCVD) \
            else MAX_DATA_RETRIES
        if self.retries > max_retries:
            self._fail(TCPError("too many retransmissions"))
            return
        # Classic timeout response: collapse to one segment, back off.
        flight = max(self.snd_nxt - self.snd_una, MSS)
        self.ssthresh = max(flight / 2.0, 2.0 * MSS)
        self.cwnd = float(MSS)
        self.in_fast_recovery = False
        self.dupacks = 0
        self.backoff = min(self.backoff * 2, int(MAX_RTO / max(self.rto, 1e-9)) or 1)
        self._rtt_sample = None
        length = self._retransmit_oldest()
        if length:
            # Go-back-N after a timeout: data above the retransmitted
            # segment is resent as the window reopens.
            self.snd_nxt = self.snd_una + length
        self._arm_rtx()

    def _handshake_in_flight(self) -> bool:
        return self.state in (SYN_SENT, SYN_RCVD) and self.snd_una == 0

    def _retransmit_oldest(self) -> int:
        """Resend the oldest unacked segment; returns its length.

        Used by both the timeout path and partial-ACK recovery; only
        the timeout path may additionally pull ``snd_nxt`` back.
        """
        if self.state in (SYN_SENT, SYN_RCVD) and self.snd_una == 0:
            self._send_segment(0, 0, _SYN | _ACK if self.state == SYN_RCVD
                               else _SYN, is_rtx=True)
            return 0
        if self.fin_offset is not None and self.snd_una == self.fin_offset:
            self._send_segment(self.fin_offset, 0, _FIN | _ACK, is_rtx=True)
            return 0
        length = min(MSS, self._data_edge() - self.snd_una)
        if length > 0:
            self._send_segment(self.snd_una, length,
                               _ACK | _PSH
                               if self.snd_una + length >= self._data_edge()
                               else _ACK, is_rtx=True)
        return length

    # ==================================================================
    # Internals — receive machinery
    # ==================================================================
    def segment_arrives(self, packet: Packet) -> None:
        self.segments_received += 1
        tcp = packet.tcp
        flags = tcp.flags
        if flags & _RST:
            self._fail(TCPError("connection reset"))
            return
        if self.state == SYN_SENT:
            self._segment_in_syn_sent(packet)
            return
        # Process the ACK before any duplicate-SYN handling: a SYN+ACK
        # retransmission answered while we are SYN_RCVD still completes
        # our side of the handshake.
        if flags & _ACK:
            # RFC 5681 duplicate-ACK criteria: a pure ACK (no data, no
            # SYN/FIN) that neither advances snd_una nor changes the
            # advertised window.  Window updates must not feed fast
            # retransmit.
            is_pure = packet.payload_bytes == 0 and not flags & (_SYN | _FIN)
            self._process_ack(tcp.ack, tcp.window, countable_dup=is_pure)
        if flags & _SYN:
            # Duplicate SYN from the peer (our reply was lost): if we are
            # still SYN_RCVD resend the SYN+ACK, otherwise a plain ACK
            # tells the peer where we stand.
            if self.state == SYN_RCVD:
                self._send_segment(0, 0, _SYN | _ACK, is_rtx=True)
            elif self.state != CLOSED:
                self._send_ack_now()
            return
        if packet.payload_bytes > 0 or flags & _FIN:
            self._process_data(packet)

    def _segment_in_syn_sent(self, packet: Packet) -> None:
        tcp = packet.tcp
        if tcp.flags & (_SYN | _ACK) == _SYN | _ACK and tcp.ack >= 1:
            self.rcv_nxt = 1
            self.snd_una = 1
            self.peer_window = tcp.window
            self.retries = 0
            self.backoff = 1
            self._cancel_rtx()
            self._set_state(ESTABLISHED)
            self._send_ack_now()
        # Anything else in SYN_SENT is ignored (no simultaneous open).

    def _process_ack(self, ack: int, window: int,
                     countable_dup: bool = True) -> None:
        window_changed = window != self.peer_window
        self.peer_window = window
        if ack > self.snd_max:
            return  # acks data we never sent; ignore
        if ack > self.snd_una:
            self._new_ack(ack)
        elif (ack == self.snd_una and self.snd_nxt > self.snd_una
              and countable_dup and not window_changed):
            self._duplicate_ack()

    def _new_ack(self, ack: int) -> None:
        acked = ack - self.snd_una
        self.snd_una = ack
        # An ACK above a pulled-back snd_nxt acknowledges data sent before
        # a timeout collapsed the window; fast-forward past it.
        if ack > self.snd_nxt:
            self.snd_nxt = ack
        self.retries = 0
        self.backoff = 1
        if self.send_markers and self.send_markers[0][1] <= ack - 1:
            self.send_markers = [m for m in self.send_markers
                                 if m[1] > ack - 1]
        # RTT sample?
        if self._rtt_sample is not None and ack >= self._rtt_sample[0]:
            self._update_rtt(self.sim._now - self._rtt_sample[1])
            self._rtt_sample = None
        # Handshake completion on the passive side.
        if self.state == SYN_RCVD and ack >= 1:
            self._set_state(ESTABLISHED)
            if self._listener is not None:
                self._listener._connection_ready(self)
        # Congestion control.
        if self.in_fast_recovery:
            if ack >= self.recovery_point:
                self.in_fast_recovery = False
                self.cwnd = self.ssthresh
                self.dupacks = 0
            else:
                # Partial ack (NewReno-lite): retransmit next hole.
                self._retransmit_oldest()
                self.cwnd = max(self.cwnd - acked + MSS, float(MSS))
        else:
            self.dupacks = 0
            if self.cwnd < self.ssthresh:
                self.cwnd += MSS  # slow start
            else:
                self.cwnd += MSS * MSS / self.cwnd  # congestion avoidance
        # FIN acked?
        if self.fin_offset is not None and ack > self.fin_offset:
            if self.state == FIN_WAIT_1:
                self._set_state(FIN_WAIT_2)
            elif self.state == CLOSING:
                self._teardown()
            elif self.state == LAST_ACK:
                self._teardown()
        self._rearm_rtx()
        self.acked_signal.fire()
        self._try_send()

    def _duplicate_ack(self) -> None:
        self.dupacks += 1
        if self.in_fast_recovery:
            self.cwnd += MSS  # window inflation
            self._try_send()
        elif self.dupacks == DUPACK_THRESHOLD:
            flight = self.snd_nxt - self.snd_una
            self.ssthresh = max(flight / 2.0, 2.0 * MSS)
            self.cwnd = self.ssthresh + DUPACK_THRESHOLD * MSS
            self.in_fast_recovery = True
            self.recovery_point = self.snd_nxt
            self.fast_retransmits += 1
            self._fast_retransmit()

    def _fast_retransmit(self) -> None:
        length = min(MSS, self._data_edge() - self.snd_una)
        if length > 0:
            self._send_segment(self.snd_una, length,
                               _ACK | _PSH
                               if self.snd_una + length >= self._data_edge()
                               else _ACK, is_rtx=True)
        elif self.fin_offset is not None and self.snd_una == self.fin_offset:
            self._send_segment(self.fin_offset, 0, _FIN | _ACK, is_rtx=True)
        self._rearm_rtx()

    def _update_rtt(self, sample: float) -> None:
        if self.srtt is None:
            self.srtt = sample
            self.rttvar = sample / 2.0
        else:
            delta = sample - self.srtt
            self.srtt += 0.125 * delta
            self.rttvar += 0.25 * (abs(delta) - self.rttvar)
        self.rto = min(MAX_RTO, max(MIN_RTO, self.srtt + 4.0 * self.rttvar))

    # --- inbound data ---------------------------------------------------
    def _process_data(self, packet: Packet) -> None:
        tcp = packet.tcp
        seg_start = tcp.seq
        seg_end = seg_start + packet.payload_bytes
        fin_here = tcp.flags & _FIN
        if isinstance(packet.payload, list):
            for end, obj in packet.payload:
                if end > self.app_read:  # ignore re-delivery of consumed messages
                    self.recv_markers.setdefault(end, obj)
        advanced = False
        if seg_end > self.rcv_nxt or (fin_here and not self.fin_received):
            if seg_start <= self.rcv_nxt:
                self.rcv_nxt = max(self.rcv_nxt, seg_end)
                self._drain_ooo()
                if fin_here and not self.fin_received and seg_end <= self.rcv_nxt:
                    self.fin_received = True
                    self.rcv_nxt += 1
                    self._fin_arrived()
                advanced = True
            else:
                self._ooo[seg_start] = max(self._ooo.get(seg_start, 0), seg_end)
                if fin_here:
                    self._ooo_fin = seg_end  # noted; handled when hole fills
        elif fin_here and self.fin_received:
            pass  # duplicate FIN
        if advanced:
            self.readable_signal.fire()
            self._segments_unacked += 1
            if tcp.flags & _PSH or self._segments_unacked >= 2:
                self._send_ack_now()
            else:
                self._schedule_delack()
        else:
            # Out-of-order or duplicate: immediate ACK (generates dupacks).
            self._send_ack_now()

    def _drain_ooo(self) -> None:
        changed = bool(self._ooo)
        while changed:
            changed = False
            for start in sorted(self._ooo):
                end = self._ooo[start]
                if start <= self.rcv_nxt:
                    del self._ooo[start]
                    if end > self.rcv_nxt:
                        self.rcv_nxt = end
                    changed = True
                    break
        if self._ooo_fin is not None \
                and self._ooo_fin <= self.rcv_nxt and not self.fin_received:
            self.fin_received = True
            self.rcv_nxt += 1
            self._ooo_fin = None
            self._fin_arrived()

    def _fin_arrived(self) -> None:
        if self.state == ESTABLISHED:
            self._set_state(CLOSE_WAIT)
        elif self.state == FIN_WAIT_2:
            self._teardown()
        elif self.state == FIN_WAIT_1:
            self._set_state(CLOSING)
        self.readable_signal.fire()
        self._send_ack_now()

    def _rcv_data_edge(self) -> int:
        """rcv_nxt excluding the FIN's sequence slot."""
        return self.rcv_nxt - 1 if self.fin_received else self.rcv_nxt

    def _eof_reached(self) -> bool:
        if self.error is not None:
            return True
        return self.fin_received and self.readable_bytes() == 0

    def _consume(self, nbytes: int) -> None:
        before = self._adv_window()
        self.app_read += nbytes
        # Window update if we had closed the advertised window down.
        if before < MSS and self._adv_window() >= MSS:
            self._send_ack_now()

    def _adv_window(self) -> int:
        backlog = max(0, self._rcv_data_edge() - 1 - self.app_read)
        return max(0, self.rcv_buf - backlog)

    # --- acking ---------------------------------------------------------
    def _send_ack_now(self) -> None:
        self._send_segment(self.snd_nxt, 0, _ACK)

    def _schedule_delack(self) -> None:
        if self._delack_timer is None or not self._delack_timer.pending:
            self._delack_timer = self.proto.callout(DELAYED_ACK, self._delack_fire)

    def _delack_fire(self) -> None:
        self._delack_timer = None
        if self._segments_unacked > 0:
            self._send_ack_now()

    def _cancel_delack(self) -> None:
        if self._delack_timer is not None:
            self._delack_timer.cancel()
            self._delack_timer = None

    # --- teardown ---------------------------------------------------------
    def _set_state(self, state: str) -> None:
        self.state = state
        self.state_signal.fire(state)
        if state == FIN_WAIT_2:
            self.proto.callout(FIN_WAIT_2_TIMEOUT, self._fin_wait_2_reaper)

    def _fin_wait_2_reaper(self) -> None:
        # The peer's FIN never arrived (it may have died); reap the
        # orphaned half-open connection as BSD's fin_wait_2 timer does.
        if self.state == FIN_WAIT_2:
            self._teardown()

    def _teardown(self) -> None:
        self._cancel_rtx()
        self._cancel_delack()
        self._set_state(CLOSED)
        self.proto._forget(self)
        self.readable_signal.fire()
        self.acked_signal.fire()

    def _fail(self, error: TCPError) -> None:
        self.error = error
        # Best-effort reset so the peer does not wait on a ghost.
        header = TCPHeader(src_port=self.lport, dst_port=self.rport,
                           seq=self.snd_nxt, flags=_RST)
        self.proto.ip.send(self.laddr, self.raddr, PROTO_TCP,
                           Packet(tcp=header))
        self._teardown()

    def _check_error(self) -> None:
        if self.error is not None:
            raise self.error

    # Listener backpointer, set on passive connections.
    _listener: Optional["TCPListener"] = None
    _ooo_fin: Optional[int] = None

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<TCP {self.laddr}:{self.lport}->{self.raddr}:{self.rport}"
                f" {self.state} una={self.snd_una} nxt={self.snd_nxt}"
                f" rcv={self.rcv_nxt}>")


class TCPListener:
    """A passive socket: accepts inbound connections on a port."""

    def __init__(self, proto: "TCPProtocol", address: str, port: int):
        self.proto = proto
        self.address = address
        self.port = port
        self._ready: List[TCPConnection] = []
        self._signal = Signal(proto.sim, f"listen:{port}")
        self.closed = False

    def accept(self) -> Generator[Any, Any, TCPConnection]:
        while not self._ready:
            yield self._signal
        return self._ready.pop(0)

    def _connection_ready(self, conn: TCPConnection) -> None:
        self._ready.append(conn)
        self._signal.fire()

    def close(self) -> None:
        self.closed = True
        self.proto._listeners.pop(self.port, None)


class TCPProtocol:
    """Per-host TCP: demux, port allocation, timer service."""

    EPHEMERAL_BASE = 49152

    def __init__(self, sim: Simulator, ip_layer, kernel=None,
                 rcv_buf: int = DEFAULT_RCV_BUF):
        self.sim = sim
        self.ip = ip_layer
        self.kernel = kernel
        self.rcv_buf = rcv_buf
        self._listeners: Dict[int, TCPListener] = {}
        self._conns: Dict[Tuple[int, str, int], TCPConnection] = {}
        self._next_ephemeral = self.EPHEMERAL_BASE
        self.dropped_no_conn = 0
        self.tracer = None  # repro.obs scope; None = uninstrumented
        # ``callout(delay, fn, *args)`` schedules a connection timer
        # through the host kernel when there is one: kernel callouts
        # are quantized to the clock-tick resolution, reproducing the
        # coarse timers of the paper's NetBSD hosts.
        self.callout = kernel.callout if kernel is not None else sim.schedule
        ip_layer.register_protocol(PROTO_TCP, self.input)

    # ------------------------------------------------------------------
    def listen(self, address: str, port: int) -> TCPListener:
        if port in self._listeners:
            raise ValueError(f"port {port} already listening")
        listener = TCPListener(self, address, port)
        self._listeners[port] = listener
        return listener

    def connect(self, laddr: str, raddr: str, rport: int,
                lport: int = 0) -> Generator[Any, Any, TCPConnection]:
        """Coroutine: active open; returns an ESTABLISHED connection."""
        if lport == 0:
            lport = self._alloc_port()
        key = (lport, raddr, rport)
        if key in self._conns:
            raise ValueError(f"connection {key} already exists")
        conn = TCPConnection(self, laddr, lport, raddr, rport, passive=False)
        self._conns[key] = conn
        conn._start_active_open()
        result = yield from conn.wait_established()
        return result

    def _alloc_port(self) -> int:
        port = self._next_ephemeral
        self._next_ephemeral += 1
        return port

    def _forget(self, conn: TCPConnection) -> None:
        self._conns.pop((conn.lport, conn.raddr, conn.rport), None)

    # ------------------------------------------------------------------
    def input(self, packet: Packet) -> None:
        # The segment's journey ends in this host: whatever _demux
        # extracts (data ranges, markers, ACK state) is copied out, so
        # the packet slot can be recycled as soon as it returns.
        self._demux(packet)
        POOL.release(packet)

    def _demux(self, packet: Packet) -> None:
        if packet.tcp is None or packet.ip is None:
            return
        key = (packet.tcp.dst_port, packet.ip.src, packet.tcp.src_port)
        conn = self._conns.get(key)
        if conn is not None:
            if self.tracer is not None:
                self.tracer.event("tcp", "rx", packet, seq=packet.tcp.seq,
                                  flags=packet.tcp.flags)
            conn.segment_arrives(packet)
            return
        if packet.tcp.flags & (_SYN | _ACK) == _SYN:
            listener = self._listeners.get(packet.tcp.dst_port)
            if listener is not None and not listener.closed:
                conn = TCPConnection(self, listener.address, listener.port,
                                     packet.ip.src, packet.tcp.src_port,
                                     passive=True)
                conn._listener = listener
                self._conns[key] = conn
                if self.tracer is not None:
                    self.tracer.event("tcp", "rx", packet,
                                      seq=packet.tcp.seq,
                                      flags=packet.tcp.flags)
                conn._start_passive_open(packet)
                return
        self.dropped_no_conn += 1
        if self.tracer is not None:
            self.tracer.drop("tcp", packet, "no_conn",
                             port=packet.tcp.dst_port)
        # No one owns this segment: answer with RST (unless it IS one)
        # so half-open peers tear down instead of waiting forever.
        if not packet.tcp.flags & _RST:
            header = TCPHeader(src_port=packet.tcp.dst_port,
                               dst_port=packet.tcp.src_port,
                               seq=packet.tcp.ack, flags=_RST)
            self.ip.send(packet.ip.dst, packet.ip.src, PROTO_TCP,
                         Packet(tcp=header))


class MessageChannel:
    """Request/response framing over a TCP connection.

    The sender tags its byte ranges with message objects
    (``send_message(nbytes, message)``); markers ride inside the TCP
    segments that carry each message's final byte, so a marker can
    never be observed before its bytes have actually crossed the
    network.  ``recv_message`` consumes whole messages strictly in
    stream order.
    """

    def __init__(self, conn: TCPConnection):
        self.conn = conn

    def send_message(self, nbytes: int, message: Any) -> None:
        if nbytes <= 0:
            raise ValueError("a framed message needs at least one byte")
        self.conn.send(nbytes, message)

    def recv_message(self) -> Generator[Any, Any, Optional[Tuple[Any, int]]]:
        """Wait for the next framed message; None on EOF/error."""
        conn = self.conn
        while True:
            end = self._next_marker_end()
            if end is not None:
                break
            if conn.error is not None or conn._eof_reached():
                return None
            yield conn.readable_signal
        message = conn.recv_markers.pop(end)
        need = end - conn.app_read
        got = yield from conn.recv_exact(need)
        if got < need:
            return None
        return message, need

    def _next_marker_end(self) -> Optional[int]:
        conn = self.conn
        candidates = [end for end in conn.recv_markers if end > conn.app_read]
        return min(candidates) if candidates else None
