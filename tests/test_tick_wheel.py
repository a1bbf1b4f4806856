"""Event-queue edge cases of the one-heap engine.

:mod:`repro.sim.engine` keeps every pending event in one binary heap
ordered by ``(time, seq)``.  These tests cover what the generic engine
tests don't reach: events due at the same instant fire in scheduling
order, also when one of them cancels or schedules another at that
instant; every entry point rejects a time in the past; an event
scheduled beyond the near horizon (``WHEEL_SLOTS`` × ``WHEEL_TICK``,
4.096 s) keeps its FIFO place against one scheduled later for the same
time; ``call_batch``; and the occupancy statistics the observability
layer surfaces (high-water mark and the near/far split, still named
``wheel_pending``/``heap_pending``).
"""

import pytest

from repro.sim import SimulationError, Simulator
from repro.sim.engine import WHEEL_SLOTS, WHEEL_TICK


@pytest.fixture
def sim():
    return Simulator()


FAR = WHEEL_SLOTS * WHEEL_TICK * 3  # comfortably past the near horizon


# ----------------------------------------------------------------------
# Events due at the same instant
# ----------------------------------------------------------------------
def test_same_tick_events_fire_fifo(sim):
    fired = []
    for i in range(8):
        sim.schedule(0.001, fired.append, i)
    sim.run()
    assert fired == list(range(8))


def test_cancel_during_batch_fire(sim):
    """An event cancelled by an earlier event due at the same instant
    must not fire, although it was already due when the instant began."""
    fired = []
    box = {}
    sim.schedule(0.001, lambda: box["victim"].cancel())
    box["victim"] = sim.schedule(0.001, fired.append, "victim")
    sim.schedule(0.001, fired.append, "survivor")
    sim.run()
    assert fired == ["survivor"]
    assert sim.stats().events_cancelled == 1


def test_cancel_already_fired_same_tick_is_noop(sim):
    """Cancelling an event that already fired earlier at the same
    instant is a harmless no-op."""
    fired = []
    first = sim.schedule(0.001, fired.append, "first")
    sim.schedule(0.001, lambda: first.cancel())
    sim.run()
    assert fired == ["first"]
    assert sim.stats().events_cancelled == 0  # post-fire cancel not counted


def test_reschedule_into_currently_firing_tick(sim):
    """An event scheduled *while* an instant is firing, for that same
    instant, fires after every event already due then (FIFO
    preserved)."""
    fired = []

    def spawner():
        fired.append("spawner")
        sim.schedule_at(sim.now, fired.append, "late-join")

    sim.schedule(0.001, spawner)
    sim.schedule(0.001, fired.append, "second")
    sim.run()
    assert fired == ["spawner", "second", "late-join"]


def test_reschedule_cascade_same_tick_terminates_in_order(sim):
    fired = []

    def chain(depth):
        fired.append(depth)
        if depth < 5:
            sim.schedule_at(sim.now, chain, depth + 1)

    sim.schedule(0.001, chain, 0)
    sim.run()
    assert fired == [0, 1, 2, 3, 4, 5]


# ----------------------------------------------------------------------
# Schedule-in-past rejection, on every entry point
# ----------------------------------------------------------------------
def test_schedule_negative_delay_rejected(sim):
    sim.schedule(1.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule(-0.5, lambda: None)


def test_schedule_at_past_rejected(sim):
    sim.schedule(1.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(0.5, lambda: None)


def test_call_later_negative_delay_rejected(sim):
    with pytest.raises(SimulationError):
        sim.call_later(-1e-9, lambda: None)


def test_call_at_past_rejected(sim):
    sim.schedule(1.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.call_at(0.5, lambda: None)


def test_call_batch_past_entry_rejected(sim):
    sim.schedule(1.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.call_batch([(2.0, lambda: None, ()), (0.5, lambda: None, ())])


def test_call_batch_partial_failure_keeps_valid_prefix(sim):
    """Entries before the invalid one stay scheduled (counters stay
    consistent with what actually went in)."""
    fired = []
    with pytest.raises(SimulationError):
        sim.call_batch([(2.0, fired.append, (1,)), (-1.0, fired.append, (2,))])
    sim.run()
    assert fired == [1]


# ----------------------------------------------------------------------
# FIFO tie-break across the near horizon
# ----------------------------------------------------------------------
def test_fifo_across_wheel_heap_boundary(sim):
    """Event A is scheduled beyond the near horizon; after time
    advances, event B is scheduled for the same timestamp, now within
    it.  A was scheduled first, so A fires first."""
    fired = []
    sim.schedule_at(FAR, fired.append, "heap-first")   # far
    sim.schedule_at(FAR - 1.0, lambda: None)           # something to run to
    sim.run(until=FAR - 0.5)
    sim.schedule_at(FAR, fired.append, "wheel-second")  # near now
    sim.run()
    assert fired == ["heap-first", "wheel-second"]


def test_far_future_events_migrate_from_heap_to_wheel(sim):
    fired = []
    for i in range(4):
        sim.schedule_at(FAR + i * WHEEL_TICK, fired.append, i)
    stats = sim.stats()
    assert stats.heap_pending == 4 and stats.wheel_pending == 0
    sim.run()
    assert fired == [0, 1, 2, 3]
    assert sim.stats().heap_pending == 0


def test_cancel_heap_event_never_fires(sim):
    fired = []
    ev = sim.schedule_at(FAR, fired.append, "x")
    ev.cancel()
    sim.schedule_at(FAR + 1.0, fired.append, "end")
    sim.run()
    assert fired == ["end"]


# ----------------------------------------------------------------------
# call_batch
# ----------------------------------------------------------------------
def test_call_batch_fires_in_time_then_fifo_order(sim):
    fired = []
    count = sim.call_batch([
        (0.002, fired.append, ("b1",)),
        (0.001, fired.append, ("a1",)),
        (0.002, fired.append, ("b2",)),
        (FAR, fired.append, ("far",)),
        (0.001, fired.append, ("a2",)),
    ])
    assert count == 5
    sim.run()
    assert fired == ["a1", "a2", "b1", "b2", "far"]


def test_call_batch_interleaves_with_singly_scheduled(sim):
    fired = []
    sim.schedule_at(0.001, fired.append, "single-first")
    sim.call_batch([(0.001, fired.append, ("batched",))])
    sim.schedule_at(0.001, fired.append, "single-last")
    sim.run()
    assert fired == ["single-first", "batched", "single-last"]


def test_call_batch_updates_counters_and_hwm(sim):
    sim.call_batch([(0.001 * (i + 1), lambda: None, ()) for i in range(10)])
    stats = sim.stats()
    assert stats.events_scheduled == 10
    assert stats.pending == 10
    assert stats.pending_hwm == 10
    sim.run()
    assert sim.stats().events_fired == 10


# ----------------------------------------------------------------------
# Occupancy statistics (queue high-water mark, near/far split)
# ----------------------------------------------------------------------
def test_pending_hwm_tracks_peak_not_current(sim):
    for i in range(20):
        sim.schedule(0.001 * (i + 1), lambda: None)
    sim.run()
    stats = sim.stats()
    assert stats.pending == 0
    assert stats.pending_hwm == 20


def test_wheel_heap_split_reported(sim):
    sim.schedule(0.010, lambda: None)      # near
    sim.schedule(0.010, lambda: None)      # near, same instant
    sim.schedule_at(FAR, lambda: None)     # far
    stats = sim.stats()
    assert stats.wheel_pending == 2
    assert stats.heap_pending == 1
    assert stats.pending == 3


def test_stats_flow_through_obs_metrics_registry(sim):
    """The observability registry's engine collector surfaces the new
    occupancy fields without any extra wiring."""
    from repro.obs.registry import MetricsRegistry

    registry = MetricsRegistry()
    registry.add_collector(
        lambda: {f"engine.{k}": v for k, v in sim.stats().as_dict().items()})
    sim.schedule(0.001, lambda: None)
    sim.schedule_at(FAR, lambda: None)
    collected = registry.snapshot()["collected"]
    assert collected["engine.pending_hwm"] == 2
    assert collected["engine.wheel_pending"] == 1
    assert collected["engine.heap_pending"] == 1
    assert "engine.bucket_sweeps" in collected
