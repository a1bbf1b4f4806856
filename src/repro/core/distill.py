"""Trace distillation: collected trace → replay trace (§3.2.2).

The distiller consumes the packet records produced by trace collection
and emits a :class:`~repro.core.replay.ReplayTrace`.  It follows the
paper's algorithm exactly:

1. **Group** the ping workload's packets: each second the workload is
   one small ECHO of size ``s1`` followed, after its reply, by two
   back-to-back large ECHOs of size ``s2`` (sequence numbers ``3g``,
   ``3g+1``, ``3g+2`` within group ``g``).

2. **Solve** for the model parameters from the three round-trip times
   (Eqs. 5–8)::

       t1 = 2 (F + s1 V)
       t2 = 2 (F + s2 V)          =>  V  = (t2 - t1) / (2 (s2 - s1))
                                      F  = t1/2 - s1 V
       t3 = t2 + s2 Vb            =>  Vb = (t3 - t2) / s2
                                      Vr = V - Vb

3. **Correct** groups that solve to negative parameters — the packets
   saw different network conditions.  Reuse the previous estimate's
   ``Vb``/``Vr``, attribute the entire deviation of ``t1`` from its
   expected value to ``F`` (media-access delay), and never let a
   corrected estimate seed further corrections (no cascading).

4. **Slide a window** (default 5 s wide, stepping 1 s) over the
   estimates, averaging within the window to produce one delay tuple
   per step.

5. **Estimate loss** per window from sequence numbers: between the last
   reply before the window and the first after it, ``a`` ECHOs were
   sent and ``b`` ECHOREPLYs arrived, so with per-packet survival
   probability ``P``, ``b = P²a`` and ``L = 1 − sqrt(b/a)`` (Eq. 10).

All timing uses round trips timed by a single host clock; the derived
one-way parameters therefore embed the paper's **symmetry assumption**,
which the validation deliberately stresses (§5.3).
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .replay import QualityTuple, ReplayTrace
from .traceformat import (
    DIR_IN,
    DIR_OUT,
    DeviceStatusRecord,
    PacketRecord,
    TraceRecord,
)

ICMP_ECHO = 8
ICMP_ECHOREPLY = 0


@dataclass
class ParameterEstimate:
    """One instantaneous (F, Vb, Vr) estimate from a packet group."""

    time: float        # trace-relative time of the estimate
    F: float
    Vb: float
    Vr: float
    corrected: bool    # produced by the negative-parameter correction

    @property
    def V(self) -> float:
        return self.Vb + self.Vr


@dataclass
class DistillationResult:
    """Replay trace plus the diagnostics the scenario figures plot."""

    replay: ReplayTrace
    estimates: List[ParameterEstimate]
    groups_total: int
    groups_used: int
    groups_corrected: int
    groups_skipped: int
    echoes_sent: int
    replies_received: int
    status_records: List[DeviceStatusRecord] = field(default_factory=list)

    @property
    def overall_loss_estimate(self) -> float:
        if self.echoes_sent == 0:
            return 0.0
        ratio = min(1.0, self.replies_received / self.echoes_sent)
        return 1.0 - math.sqrt(ratio)


class Distiller:
    """Transforms a collected trace into a replay trace."""

    def __init__(self, window_width: float = 5.0, step: float = 1.0,
                 ident: Optional[int] = None):
        if window_width <= 0 or step <= 0:
            raise ValueError("window width and step must be positive")
        self.window_width = window_width
        self.step = step
        self.ident = ident

    def cache_token(self) -> Dict[str, Union[str, float, int, None]]:
        """Deterministic identity for pipeline fingerprints."""
        return {"distiller": type(self).__qualname__,
                "window_width": self.window_width, "step": self.step,
                "ident": self.ident}

    # ------------------------------------------------------------------
    def distill(self, records: Sequence[Union[TraceRecord, dict]],
                name: str = "") -> DistillationResult:
        """Produce a replay trace (plus diagnostics) from trace records."""
        packets, statuses = self._split(records)
        if not packets:
            raise ValueError("trace contains no ping packets to distill")
        t0 = min(p.timestamp for p in packets)

        echo_out = [p for p in packets
                    if p.direction == DIR_OUT and p.icmp_type == ICMP_ECHO]
        replies = [p for p in packets
                   if p.direction == DIR_IN and p.icmp_type == ICMP_ECHOREPLY]
        sizes = sorted({p.size for p in echo_out})
        if len(sizes) < 2:
            raise ValueError(
                "ping workload needs two packet sizes; "
                f"saw {sizes} — was the modified ping used?")
        s1, s2 = sizes[0], sizes[-1]

        estimates = self._estimate_groups(replies, s1, s2, t0)
        duration = max(p.timestamp for p in packets) - t0
        tuples = self._window(estimates, echo_out, replies, t0, duration)
        replay = ReplayTrace(tuples, name=name)
        return DistillationResult(
            replay=replay,
            estimates=estimates,
            groups_total=self._groups_total,
            groups_used=self._groups_used,
            groups_corrected=self._groups_corrected,
            groups_skipped=self._groups_skipped,
            echoes_sent=len(echo_out),
            replies_received=len(replies),
            status_records=statuses,
        )

    # ------------------------------------------------------------------
    def _split(self, records: Sequence[Union[TraceRecord, dict]]
               ) -> Tuple[List[PacketRecord], List[DeviceStatusRecord]]:
        packets: List[PacketRecord] = []
        statuses: List[DeviceStatusRecord] = []
        for rec in records:
            if isinstance(rec, PacketRecord) and rec.icmp_type >= 0:
                if self.ident is not None and rec.ident != self.ident:
                    continue
                packets.append(rec)
            elif isinstance(rec, DeviceStatusRecord):
                statuses.append(rec)
        return packets, statuses

    # ------------------------------------------------------------------
    def _estimate_groups(self, replies: List[PacketRecord], s1: int, s2: int,
                         t0: float) -> List[ParameterEstimate]:
        rtt_by_seq: Dict[int, PacketRecord] = {}
        for rec in replies:
            if rec.rtt >= 0:
                rtt_by_seq.setdefault(rec.seq, rec)

        groups = sorted({seq // 3 for seq in rtt_by_seq})
        estimates: List[ParameterEstimate] = []
        last_good: Optional[ParameterEstimate] = None
        self._groups_total = len(groups)
        self._groups_used = 0
        self._groups_corrected = 0
        self._groups_skipped = 0

        for g in groups:
            recs = [rtt_by_seq.get(3 * g + i) for i in range(3)]
            if any(r is None for r in recs):
                self._groups_skipped += 1
                continue
            t1, t2, t3 = (r.rtt for r in recs)
            when = recs[0].timestamp - t0
            est = self._solve(t1, t2, t3, s1, s2, when, last_good)
            if est is None:
                self._groups_skipped += 1
                continue
            estimates.append(est)
            self._groups_used += 1
            if est.corrected:
                self._groups_corrected += 1
            else:
                # Only genuine solutions seed future corrections — the
                # corrective factor must not cascade (§3.2.2).
                last_good = est
        return estimates

    def _solve(self, t1: float, t2: float, t3: float, s1: int, s2: int,
               when: float, last_good: Optional[ParameterEstimate]
               ) -> Optional[ParameterEstimate]:
        V = (t2 - t1) / (2.0 * (s2 - s1))
        F = t1 / 2.0 - s1 * V
        Vb = (t3 - t2) / s2
        Vr = V - Vb
        # Tolerate floating-point dust around zero: a genuinely zero
        # residual cost must not be misread as an inconsistent group.
        tol = 1e-9 * max(abs(V), abs(Vb), 1e-12)
        if F >= -tol and Vb > 0.0 and Vr >= -tol:
            return ParameterEstimate(time=when, F=max(0.0, F), Vb=Vb,
                                     Vr=max(0.0, Vr), corrected=False)
        # The packets saw different conditions: fall back to the previous
        # genuine estimate, pushing the deviation into latency.
        if last_good is None:
            return None
        expected_t1 = 2.0 * (last_good.F + s1 * last_good.V)
        F_corr = max(0.0, last_good.F + (t1 - expected_t1) / 2.0)
        return ParameterEstimate(time=when, F=F_corr, Vb=last_good.Vb,
                                 Vr=last_good.Vr, corrected=True)

    # ------------------------------------------------------------------
    def _window(self, estimates: List[ParameterEstimate],
                echo_out: List[PacketRecord], replies: List[PacketRecord],
                t0: float, duration: float) -> List[QualityTuple]:
        """Sliding-window averaging (step 4) plus per-window loss (step 5).

        Each window's estimates, and the replies and echoes bounding its
        loss span, are found by ``bisect`` over time-sorted lists; the
        answered echoes in a span are counted with an integer prefix
        sum.  A window's estimates are averaged in their original list
        order, so the tuples do not depend on whether the estimates
        arrive sorted by time.

        The loss span runs from the last reply before the window to the
        first reply after it, so losses adjacent to the window edges
        are attributed somewhere rather than nowhere.  Expected replies
        are matched to sent ECHOs *by sequence number* — a reply that
        lands just past the span edge still answers its echo, so only
        genuinely missing replies count as losses.
        """
        if not estimates:
            raise ValueError("no usable packet groups; cannot distill")
        order = sorted(range(len(estimates)), key=lambda i: estimates[i].time)
        est_times = [estimates[i].time for i in order]
        echoes = sorted((p.timestamp - t0, p.seq) for p in echo_out)
        echo_times = [t for t, _ in echoes]
        answered = {p.seq for p in replies}
        answered_cum = list(accumulate((seq in answered for _, seq in echoes),
                                       initial=0))
        reply_times = sorted(p.timestamp - t0 for p in replies)
        n_replies = len(reply_times)
        half_width = self.window_width / 2.0

        tuples: List[QualityTuple] = []
        prev: Optional[QualityTuple] = None
        steps = max(1, int(math.ceil(duration / self.step)))
        for k in range(steps):
            lo = k * self.step
            hi = lo + self.step
            center = (lo + hi) / 2.0
            w_lo = center - half_width
            w_hi = center + half_width
            i_lo = bisect_left(est_times, w_lo)
            i_hi = bisect_left(est_times, w_hi)
            if i_hi > i_lo:
                seg = [estimates[i] for i in sorted(order[i_lo:i_hi])]
                n = i_hi - i_lo
                F = sum(e.F for e in seg) / n
                Vb = sum(e.Vb for e in seg) / n
                Vr = sum(e.Vr for e in seg) / n
            elif prev is not None:
                F, Vb, Vr = prev.F, prev.Vb, prev.Vr
            else:
                first = estimates[0]
                F, Vb, Vr = first.F, first.Vb, first.Vr
            r = bisect_left(reply_times, w_lo)
            span_lo = reply_times[r - 1] if r > 0 else w_lo
            r = bisect_right(reply_times, w_hi)
            span_hi = reply_times[r] if r < n_replies else w_hi
            e_lo = bisect_left(echo_times, span_lo)
            e_hi = bisect_right(echo_times, span_hi)
            a = e_hi - e_lo
            if a == 0:
                L = prev.L if prev is not None else 0.0
            else:
                b = answered_cum[e_hi] - answered_cum[e_lo]
                ratio = min(1.0, b / a)
                L = max(0.0, 1.0 - math.sqrt(ratio))
            tup = QualityTuple(d=self.step, F=max(0.0, F), Vb=max(0.0, Vb),
                               Vr=max(0.0, Vr), L=L)
            tuples.append(tup)
            prev = tup
        return tuples

    # populated per distill() call
    _groups_total: int = 0
    _groups_used: int = 0
    _groups_corrected: int = 0
    _groups_skipped: int = 0
