"""Performance counters for the simulation engine.

The engine keeps its counters as plain integer attributes so the event
hot path never pays for attribute indirection through a stats object;
:meth:`repro.sim.engine.Simulator.stats` assembles an immutable
:class:`PerfCounters` snapshot on demand.

Counter semantics
-----------------
``events_scheduled``
    Total events ever pushed (``schedule``, ``schedule_at``,
    ``call_later``, ``call_at`` and every ``call_batch`` entry).
``events_fired``
    Events whose callback actually ran (same number as
    ``Simulator.events_processed``).
``events_cancelled``
    Events cancelled *before* firing.  Cancelling twice, or cancelling
    an event that already fired, does not count.
``compactions`` / ``events_compacted``
    How many times the heap was rebuilt to drop dead (cancelled)
    entries, and how many dead entries those rebuilds removed in total.
    Every cancellation counts toward the rebuild rule
    (``COMPACT_MIN_DEAD`` dead entries, and more dead than live).  Dead
    entries that reach the top of the heap are popped for free and are
    *not* counted here.
``runs`` / ``wall_time``
    Number of completed :meth:`Simulator.run` calls and the total
    wall-clock seconds spent inside them (callbacks included).
``pending`` / ``dead``
    Live queue state at snapshot time: events still waiting to fire and
    cancelled entries not yet removed from the heap.
``pending_hwm``
    Queue-occupancy high-water mark: the largest number of live events
    that were ever pending simultaneously.
``wheel_pending`` / ``heap_pending``
    The live events due less than ``WHEEL_SLOTS * WHEEL_TICK``
    (4.096 s) after ``now``, and the rest; their sum equals
    ``pending``.  The engine keeps one heap, and
    :meth:`Simulator.stats` counts the split by scanning it, off the
    hot path.
``bucket_sweeps``
    Number of distinct ``WHEEL_TICK`` (1 ms) ticks in which at least one
    event fired; the mean batch size is ``events_fired /
    bucket_sweeps``.  The dispatcher keeps the end of the last tick it
    counted and counts again only when an event fires at or past it.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Dict


@dataclass(frozen=True)
class PerfCounters:
    """An immutable snapshot of one simulator's performance counters."""

    events_scheduled: int = 0
    events_fired: int = 0
    events_cancelled: int = 0
    compactions: int = 0
    events_compacted: int = 0
    pending: int = 0
    dead: int = 0
    runs: int = 0
    wall_time: float = 0.0
    pending_hwm: int = 0
    wheel_pending: int = 0
    heap_pending: int = 0
    bucket_sweeps: int = 0

    @property
    def events_per_sec(self) -> float:
        """Fired events per wall-clock second inside ``run()``."""
        if self.wall_time <= 0.0:
            return 0.0
        return self.events_fired / self.wall_time

    def as_dict(self) -> Dict[str, Any]:
        """A JSON-friendly dict (includes the derived ``events_per_sec``)."""
        out = asdict(self)
        out["events_per_sec"] = self.events_per_sec
        return out

    def __str__(self) -> str:  # pragma: no cover - debug helper
        return (f"PerfCounters(fired={self.events_fired}, "
                f"cancelled={self.events_cancelled}, "
                f"compactions={self.compactions}, "
                f"wall={self.wall_time:.3f}s, "
                f"rate={self.events_per_sec:,.0f}/s)")
