"""Discrete-event simulation engine.

The engine is the foundation every other subsystem is built on: the
network devices, protocol stacks, host kernels, and the modulation layer
all schedule work through a single :class:`Simulator`.

Design notes
------------
* Simulated time is a ``float`` number of seconds.  Events scheduled for
  the same instant fire in scheduling order (a monotone sequence number
  breaks ties), which keeps every run fully deterministic.
* The schedule is **one binary heap** (:mod:`heapq`).  The trials of
  the paper's protocol keep about 20 events pending at most, so a push
  or pop is a handful of C-level tuple comparisons, less than the
  per-event Python bookkeeping a bucketed time wheel spends to avoid
  them (see ``docs/PERFORMANCE.md``).
* Queue entries are plain tuples: ``(time, seq, Event)`` for
  cancellable events, ``(time, seq, fn, args)`` for the fire-and-forget
  :meth:`Simulator.call_later` path, which skips the :class:`Event`
  handle allocation entirely.  Tuples compare element-wise at C speed
  and the sequence number is unique, so the heap orders entries by the
  total ``(time, seq)`` key without ever invoking a Python-level
  ``__lt__`` (the third element is never compared, which is also why
  the two entry shapes can mix freely).
* One dispatch loop serves :meth:`Simulator.run` (with or without a
  horizon or an event budget) and :meth:`Simulator.step`.  It pops the
  head, fires it, and repeats; an entry popped beyond the horizon is
  pushed back, once per call.
* Cancellation is O(1) and idempotent: the ``cancelled``/``fired``
  flags on the immortal :class:`Event` handle guarantee the live
  counter moves exactly once, and handles are never pooled or reused,
  so a stale handle can never affect a later event (the recycled
  *packet* slots in :mod:`repro.net.packet` are the ones that need
  generation counters; queue entries are plain tuples left to the
  allocator's free lists).  Dead entries are dropped when they reach
  the head, or by a lazy compaction pass once they dominate the heap
  (TCP retransmit timers are the classic producer of dead bloat),
  keeping compaction amortized O(1) per cancellation.
* Perf counters (fired/cancelled/compactions, occupancy high-water
  mark, near/far split, wall time) are kept as plain attributes and
  snapshot via :meth:`Simulator.stats`; see :mod:`repro.sim.perf`.
* The engine knows nothing about clock-tick quantization; hosts that
  model a coarse kernel clock (the paper's 10 ms resolution) quantize
  their own callouts in :mod:`repro.hosts.kernel`.
"""

from __future__ import annotations

import heapq
from time import perf_counter
from typing import Any, Callable, List, Optional

from .perf import PerfCounters

# Compaction threshold: rebuild the heap once more than this many dead
# entries accumulate *and* they outnumber the live ones.  The floor
# keeps tiny simulations from compacting a dozen-entry heap; the ratio
# bounds wasted heap depth to one doubling, making compaction amortized
# O(1) per cancellation.
COMPACT_MIN_DEAD = 64

# Geometry of the occupancy counters (see repro.sim.perf):
# ``bucket_sweeps`` counts the distinct ``WHEEL_TICK`` ticks in which an
# event fired, and ``wheel_pending``/``heap_pending`` split the live
# events at ``WHEEL_SLOTS`` ticks (4.096 s) from now.
WHEEL_TICK = 1e-3
WHEEL_SLOTS = 4096
_NEAR_HORIZON = WHEEL_SLOTS * WHEEL_TICK

_INF = float("inf")

_heappush = heapq.heappush
_heappop = heapq.heappop


class SimulationError(Exception):
    """Raised for misuse of the simulation engine."""


class Event:
    """A scheduled callback, returned by :meth:`Simulator.schedule`.

    Holds enough state to be cancelled and inspected.  User code should
    treat instances as opaque handles.  Handles are never recycled, so
    holding one forever is safe: cancelling after the event fired stays
    a no-op for the rest of time.
    """

    __slots__ = ("time", "seq", "fn", "args", "cancelled", "fired", "_sim")

    def __init__(self, time: float = 0.0, seq: int = 0,
                 fn: Optional[Callable[..., Any]] = None,
                 args: tuple = (), sim: "Optional[Simulator]" = None):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False
        self.fired = False
        self._sim = sim

    def cancel(self) -> None:
        """Prevent the event from firing.  Safe to call more than once.

        Cancelling an event that already fired (or was already
        cancelled) is a no-op, so the simulator's live-event counter is
        adjusted exactly once per effective cancellation.
        """
        if self.cancelled or self.fired:
            return
        self.cancelled = True
        # Dropping the callback both marks the queue entry dead for the
        # dispatcher and releases whatever the args pinned.
        self.fn = None
        self.args = ()
        sim = self._sim
        if sim is None:
            return
        sim._live -= 1
        sim._cancelled_count += 1
        dead = sim._dead = sim._dead + 1
        if dead > COMPACT_MIN_DEAD and dead * 2 > len(sim._heap):
            sim._compact()

    @property
    def pending(self) -> bool:
        """True if the event has neither fired nor been cancelled."""
        return not (self.cancelled or self.fired)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        state = "cancelled" if self.cancelled else ("fired" if self.fired else "pending")
        return f"<Event t={self.time:.6f} seq={self.seq} {state}>"


_new_event = Event.__new__


class Simulator:
    """A deterministic discrete-event simulator.

    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.schedule(1.5, fired.append, "a")
    >>> _ = sim.schedule(0.5, fired.append, "b")
    >>> sim.run()
    >>> fired
    ['b', 'a']
    >>> sim.now
    1.5
    """

    def __init__(self) -> None:
        self._now = 0.0
        self._seqno = 0
        self._running = False
        self._events_processed = 0
        self._heap: List[tuple] = []  # (time, seq, ...) min-heap
        # Live/dead bookkeeping: _live counts not-yet-cancelled,
        # not-yet-fired events; _dead counts cancelled entries still
        # occupying the heap.
        self._live = 0
        self._dead = 0
        # Perf counters (see repro.sim.perf for semantics).  The
        # scheduled-event total is the sequence number itself: it is
        # bumped exactly once per schedule/call_later, so the schedule
        # hot path keeps one counter instead of two.
        self._cancelled_count = 0
        self._compactions = 0
        self._events_compacted = 0
        self._runs = 0
        self._wall_time = 0.0
        self._pending_hwm = 0
        self._bucket_sweeps = 0
        # Start of the tick after the last one an event fired in, in
        # ticks: an event at or past it opens a new bucket sweep.
        self._tick_end = 0.0

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of events that have fired so far (cancelled ones excluded)."""
        return self._events_processed

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` to run ``delay`` seconds from now."""
        # Hot path: validated and placed inline, no helper detours.
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        when = self._now + delay
        seq = self._seqno = self._seqno + 1
        event = _new_event(Event)
        event.time = when
        event.seq = seq
        event.fn = fn
        event.args = args
        event.cancelled = False
        event.fired = False
        event._sim = self
        _heappush(self._heap, (when, seq, event))
        live = self._live = self._live + 1
        if live > self._pending_hwm:
            self._pending_hwm = live
        return event

    def schedule_at(self, when: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` to run at absolute time ``when``."""
        if when < self._now:
            raise SimulationError(
                f"cannot schedule into the past (when={when}, now={self._now})"
            )
        seq = self._seqno = self._seqno + 1
        event = _new_event(Event)
        event.time = when
        event.seq = seq
        event.fn = fn
        event.args = args
        event.cancelled = False
        event.fired = False
        event._sim = self
        _heappush(self._heap, (when, seq, event))
        live = self._live = self._live + 1
        if live > self._pending_hwm:
            self._pending_hwm = live
        return event

    def call_later(self, delay: float, fn: Callable[..., Any], *args: Any) -> None:
        """Fire-and-forget :meth:`schedule`: no :class:`Event` handle.

        For hot paths that never cancel (media delivery, process
        wakeups) this skips the handle allocation entirely; the queue
        entry is a bare ``(time, seq, fn, args)`` tuple.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        seq = self._seqno = self._seqno + 1
        _heappush(self._heap, (self._now + delay, seq, fn, args))
        live = self._live = self._live + 1
        if live > self._pending_hwm:
            self._pending_hwm = live

    def call_at(self, when: float, fn: Callable[..., Any], *args: Any) -> None:
        """Fire-and-forget :meth:`schedule_at`: no :class:`Event` handle."""
        if when < self._now:
            raise SimulationError(
                f"cannot schedule into the past (when={when}, now={self._now})"
            )
        seq = self._seqno = self._seqno + 1
        _heappush(self._heap, (when, seq, fn, args))
        live = self._live = self._live + 1
        if live > self._pending_hwm:
            self._pending_hwm = live

    def call_batch(self, entries) -> int:
        """Bulk :meth:`call_at`: schedule many fire-and-forget callbacks.

        ``entries`` yields ``(when, fn, args)`` triples with *absolute*
        timestamps; the per-call bookkeeping (sequence counter, live
        accounting) is hoisted out of the per-entry loop.  Nothing in
        the package calls it: it stays for its tests and the engine
        microbenchmark's ``dense`` leg.  ``entries`` must not schedule
        or cancel other work while being iterated.  Returns the number
        scheduled.
        """
        now = self._now
        seqno = self._seqno
        heap = self._heap
        count = 0
        try:
            for when, fn, args in entries:
                if when < now:
                    raise SimulationError(
                        f"cannot schedule into the past (when={when}, now={now})"
                    )
                seqno += 1
                _heappush(heap, (when, seqno, fn, args))
                count += 1
        finally:
            # A mid-batch error (bad entry) must leave the accepted
            # prefix consistently accounted.
            self._seqno = seqno
            live = self._live = self._live + count
            if live > self._pending_hwm:
                self._pending_hwm = live
        return count

    # ------------------------------------------------------------------
    # Structure maintenance
    # ------------------------------------------------------------------
    def _compact(self) -> None:
        """Rebuild the heap without dead (cancelled) entries.

        In-place (slice assignment) so the dispatch loop's local heap
        reference stays valid when a callback's ``cancel`` triggers
        compaction mid-run.
        """
        heap = self._heap
        before = len(heap)
        heap[:] = [e for e in heap
                   if len(e) == 4 or e[2].fn is not None]
        heapq.heapify(heap)
        self._events_compacted += before - len(heap)
        self._dead = 0
        self._compactions += 1

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _dispatch(self, until: float, budget: int) -> int:
        """The dispatch loop behind :meth:`run` and :meth:`step`.

        Fires events in exact ``(time, seq)`` order until the heap is
        empty, the next event lies beyond ``until``, or ``budget``
        events have fired (``budget < 0`` means unbounded).  Returns
        the number of events fired.
        """
        heap = self._heap
        inv_tick = 1.0 / WHEEL_TICK
        fired = 0
        sweeps = 0
        tick_end = self._tick_end
        try:
            while heap and fired != budget:
                entry = _heappop(heap)
                when = entry[0]
                if when > until:
                    _heappush(heap, entry)
                    break
                if len(entry) == 4:
                    fn = entry[2]
                    args = entry[3]
                else:
                    event = entry[2]
                    fn = event.fn
                    if fn is None:
                        self._dead -= 1  # cancelled while queued
                        continue
                    event.fired = True
                    args = event.args
                self._now = when
                self._live -= 1
                fired += 1
                tick = when * inv_tick
                if tick >= tick_end:
                    sweeps += 1
                    tick_end = tick // 1.0 + 1.0
                fn(*args)
        finally:
            self._events_processed += fired
            self._bucket_sweeps += sweeps
            self._tick_end = tick_end
        return fired

    def step(self) -> bool:
        """Fire the next pending event.  Returns False if none remain."""
        return self._dispatch(_INF, 1) > 0

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Run until the queue drains, ``until`` is reached, or ``max_events`` fire.

        When ``until`` is given the clock is advanced to exactly ``until``
        even if the queue drains earlier, so back-to-back ``run`` calls
        observe a monotone clock.

        ``max_events`` counts *fired* events only: cancelled entries
        encountered during dispatch never count toward the budget.
        """
        if self._running:
            raise SimulationError("simulator is not reentrant")
        self._running = True
        started = perf_counter()
        try:
            self._dispatch(_INF if until is None else until,
                           -1 if max_events is None else max_events)
        finally:
            self._running = False
            self._runs += 1
            self._wall_time += perf_counter() - started
        if until is not None and self._now < until:
            self._now = until

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def pending_count(self) -> int:
        """Number of not-yet-cancelled events still queued (O(1))."""
        return self._live

    def stats(self) -> PerfCounters:
        """An immutable snapshot of the engine's performance counters."""
        horizon = self._now + _NEAR_HORIZON
        near = sum(1 for e in self._heap
                   if e[0] < horizon and (len(e) == 4 or e[2].fn is not None))
        return PerfCounters(
            events_scheduled=self._seqno,
            events_fired=self._events_processed,
            events_cancelled=self._cancelled_count,
            compactions=self._compactions,
            events_compacted=self._events_compacted,
            pending=self._live,
            dead=self._dead,
            runs=self._runs,
            wall_time=self._wall_time,
            pending_hwm=self._pending_hwm,
            wheel_pending=near,
            heap_pending=self._live - near,
            bucket_sweeps=self._bucket_sweeps,
        )
