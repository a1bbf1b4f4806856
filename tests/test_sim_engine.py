"""Unit tests for the discrete-event engine."""

import itertools
import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import SimulationError, Simulator
from repro.sim.engine import WHEEL_SLOTS, WHEEL_TICK


def test_clock_starts_at_zero(sim):
    assert sim.now == 0.0


def test_schedule_fires_in_time_order(sim):
    fired = []
    sim.schedule(2.0, fired.append, "late")
    sim.schedule(1.0, fired.append, "early")
    sim.run()
    assert fired == ["early", "late"]


def test_clock_advances_to_event_time(sim):
    times = []
    sim.schedule(1.5, lambda: times.append(sim.now))
    sim.run()
    assert times == [1.5]
    assert sim.now == 1.5


def test_ties_fire_in_scheduling_order(sim):
    fired = []
    for i in range(10):
        sim.schedule(1.0, fired.append, i)
    sim.run()
    assert fired == list(range(10))


def test_schedule_at_absolute_time(sim):
    fired = []
    sim.schedule_at(3.0, fired.append, "x")
    sim.run()
    assert fired == ["x"]
    assert sim.now == 3.0


def test_negative_delay_rejected(sim):
    with pytest.raises(SimulationError):
        sim.schedule(-0.1, lambda: None)


def test_schedule_at_past_rejected(sim):
    sim.schedule(5.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(4.0, lambda: None)


def test_cancel_prevents_firing(sim):
    fired = []
    event = sim.schedule(1.0, fired.append, "x")
    event.cancel()
    sim.run()
    assert fired == []
    assert not event.pending


def test_cancel_is_idempotent(sim):
    event = sim.schedule(1.0, lambda: None)
    event.cancel()
    event.cancel()
    sim.run()


def test_event_pending_lifecycle(sim):
    event = sim.schedule(1.0, lambda: None)
    assert event.pending
    sim.run()
    assert event.fired
    assert not event.pending


def test_run_until_stops_before_later_events(sim):
    fired = []
    sim.schedule(1.0, fired.append, "a")
    sim.schedule(5.0, fired.append, "b")
    sim.run(until=2.0)
    assert fired == ["a"]
    assert sim.now == 2.0  # clock advances to the horizon


def test_run_until_then_resume(sim):
    fired = []
    sim.schedule(1.0, fired.append, "a")
    sim.schedule(5.0, fired.append, "b")
    sim.run(until=2.0)
    sim.run()
    assert fired == ["a", "b"]


def test_run_until_exact_event_time_fires_event(sim):
    fired = []
    sim.schedule(2.0, fired.append, "x")
    sim.run(until=2.0)
    assert fired == ["x"]


def test_max_events_limits_execution(sim):
    fired = []
    for i in range(5):
        sim.schedule(float(i + 1), fired.append, i)
    sim.run(max_events=2)
    assert fired == [0, 1]


def test_events_scheduled_during_run_fire(sim):
    fired = []

    def chain(n):
        fired.append(n)
        if n < 3:
            sim.schedule(1.0, chain, n + 1)

    sim.schedule(1.0, chain, 0)
    sim.run()
    assert fired == [0, 1, 2, 3]
    assert sim.now == 4.0


def test_step_fires_one_event(sim):
    fired = []
    sim.schedule(1.0, fired.append, "a")
    sim.schedule(2.0, fired.append, "b")
    assert sim.step()
    assert fired == ["a"]


def test_step_on_empty_queue_returns_false(sim):
    assert not sim.step()


def test_step_skips_cancelled(sim):
    fired = []
    event = sim.schedule(1.0, fired.append, "a")
    sim.schedule(2.0, fired.append, "b")
    event.cancel()
    assert sim.step()
    assert fired == ["b"]


def test_pending_count_excludes_cancelled(sim):
    e1 = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    assert sim.pending_count() == 2
    e1.cancel()
    assert sim.pending_count() == 1


def test_events_processed_counter(sim):
    for i in range(4):
        sim.schedule(float(i), lambda: None)
    sim.run()
    assert sim.events_processed == 4


def test_not_reentrant(sim):
    def reenter():
        with pytest.raises(SimulationError):
            sim.run()

    sim.schedule(1.0, reenter)
    sim.run()


def test_zero_delay_fires_at_current_time(sim):
    fired = []
    sim.schedule(1.0, lambda: sim.schedule(0.0, fired.append, sim.now))
    sim.run()
    assert fired == [1.0]


@given(st.lists(st.floats(min_value=0.0, max_value=1e6,
                          allow_nan=False), min_size=1, max_size=50))
def test_events_always_fire_in_nondecreasing_time_order(delays):
    sim = Simulator()
    fired = []
    for d in delays:
        sim.schedule(d, lambda: fired.append(sim.now))
    sim.run()
    assert fired == sorted(fired)
    assert len(fired) == len(delays)


@given(st.integers(min_value=1, max_value=30), st.integers(min_value=0, max_value=29))
def test_cancelling_any_event_removes_exactly_that_one(n, victim):
    victim = victim % n
    sim = Simulator()
    fired = []
    events = [sim.schedule(float(i + 1), fired.append, i) for i in range(n)]
    events[victim].cancel()
    sim.run()
    assert fired == [i for i in range(n) if i != victim]


# ----------------------------------------------------------------------
# Hot-path behaviour: compaction, counters, cancelled-event accounting
# ----------------------------------------------------------------------
def test_max_events_never_counts_cancelled(sim):
    """A budget of N fires exactly N live events even when cancelled
    entries are interleaved ahead of them on the heap."""
    fired = []
    cancelled = []
    for i in range(20):
        e = sim.schedule(float(i + 1), fired.append, i)
        if i % 2 == 0:
            cancelled.append(e)
    for e in cancelled:
        e.cancel()
    sim.run(max_events=5)
    assert fired == [1, 3, 5, 7, 9]  # five *live* events, none skipped


def test_max_events_budget_resumes_cleanly(sim):
    fired = []
    events = [sim.schedule(float(i + 1), fired.append, i) for i in range(10)]
    events[0].cancel()
    events[1].cancel()
    sim.run(max_events=3)
    assert fired == [2, 3, 4]
    sim.run()
    assert fired == list(range(2, 10))


def test_cancel_is_idempotent_and_counted_once(sim):
    e = sim.schedule(1.0, lambda: None)
    e.cancel()
    e.cancel()
    e.cancel()
    assert sim.stats().events_cancelled == 1
    assert sim.pending_count() == 0


def test_cancel_after_firing_is_a_noop(sim):
    fired = []
    e = sim.schedule(1.0, fired.append, "x")
    sim.run()
    e.cancel()
    assert fired == ["x"]
    assert sim.stats().events_cancelled == 0


def test_heap_compaction_under_retransmit_churn(sim):
    """The TCP retransmit pattern — schedule a far-future timer every
    step, cancel it the next step — must trigger heap compaction and
    keep ordering and the fired-event count exactly as if no dead
    entries had ever existed."""
    n = 10_000
    fired_times = []
    state = {"remaining": n, "timer": None}

    def rto():  # timers are always cancelled before they fire
        raise AssertionError("cancelled retransmit timer fired")

    def tick():
        if state["timer"] is not None:
            state["timer"].cancel()
        fired_times.append(sim.now)
        state["remaining"] -= 1
        if state["remaining"] > 0:
            state["timer"] = sim.schedule(30.0, rto)
            sim.schedule(0.001, tick)
        else:
            state["timer"] = None

    state["timer"] = sim.schedule(30.0, rto)
    sim.schedule(0.001, tick)
    sim.run(until=25.0)  # all ticks fire by t=10; no timer survives to 30

    stats = sim.stats()
    assert fired_times == sorted(fired_times)
    assert sim.events_processed == n  # only the ticks; never a dead timer
    assert stats.events_fired == n
    assert stats.events_cancelled == n
    assert stats.compactions > 0
    assert stats.events_compacted > 0
    # Compaction keeps the heap near its live size: with every timer
    # dead, the dead backlog stays bounded rather than growing to n.
    assert stats.dead < n // 2
    assert sim.pending_count() == 0


def test_compaction_preserves_interleaved_ordering(sim):
    """Cancel-heavy churn with live events on both sides of the dead
    entries: everything still fires in (time, schedule-order)."""
    fired = []
    keep = []
    for i in range(2_000):
        keep.append(sim.schedule(float(i) + 0.5, fired.append, i))
        doomed = sim.schedule(float(i) + 0.25, fired.append, -1)
        doomed.cancel()
    sim.run()
    assert fired == list(range(2_000))
    assert sim.stats().events_fired == 2_000


def test_stats_counters_track_schedule_fire_cancel(sim):
    e1 = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    e1.cancel()
    sim.run()
    stats = sim.stats()
    assert stats.events_scheduled == 2
    assert stats.events_fired == 1
    assert stats.events_cancelled == 1
    assert stats.runs == 1
    assert stats.wall_time >= 0.0
    assert stats.pending == 0
    d = stats.as_dict()
    assert d["events_fired"] == 1
    assert "events_per_sec" in d


def test_pending_count_is_constant_time_bookkeeping(sim):
    """pending_count is maintained incrementally: it stays exact
    through schedule / cancel / fire without scanning the heap."""
    events = [sim.schedule(float(i + 1), lambda: None) for i in range(100)]
    assert sim.pending_count() == 100
    for e in events[:40]:
        e.cancel()
    assert sim.pending_count() == 60
    sim.run(max_events=10)
    assert sim.pending_count() == 50
    sim.run()
    assert sim.pending_count() == 0


# ----------------------------------------------------------------------
# PerfCounters snapshot edge cases
# ----------------------------------------------------------------------
def test_stats_accumulate_across_multiple_runs(sim):
    """runs / wall_time / events_fired keep accumulating over run() calls."""
    sim.schedule(1.0, lambda: None)
    sim.run()
    first = sim.stats()
    assert first.runs == 1
    sim.schedule(2.0, lambda: None)
    sim.schedule(3.0, lambda: None)
    sim.run()
    second = sim.stats()
    assert second.runs == 2
    assert second.events_fired == first.events_fired + 2
    assert second.events_scheduled == first.events_scheduled + 2
    assert second.wall_time >= first.wall_time


def test_stats_snapshot_is_immutable_and_detached(sim):
    """A snapshot neither tracks later engine activity nor allows writes."""
    import dataclasses

    sim.schedule(1.0, lambda: None)
    sim.run()
    snap = sim.stats()
    fired_then = snap.events_fired
    sim.schedule(2.0, lambda: None)
    sim.run()
    assert snap.events_fired == fired_then  # detached from the engine
    with pytest.raises(dataclasses.FrozenInstanceError):
        snap.events_fired = 999


def test_stats_as_dict_round_trips_into_perfcounters(sim):
    from repro.sim.perf import PerfCounters

    for i in range(5):
        sim.schedule(float(i), lambda: None)
    sim.schedule(9.0, lambda: None).cancel()
    sim.run()
    snap = sim.stats()
    d = snap.as_dict()
    assert d["events_per_sec"] == snap.events_per_sec
    rebuilt = PerfCounters(**{k: v for k, v in d.items()
                              if k != "events_per_sec"})
    assert rebuilt == snap


def test_stats_events_per_sec_zero_without_wall_time():
    from repro.sim.perf import PerfCounters

    assert PerfCounters().events_per_sec == 0.0
    assert PerfCounters(events_fired=10, wall_time=2.0).events_per_sec == 5.0


# ----------------------------------------------------------------------
# Occupancy counters: bucket sweeps and the near/far split
# ----------------------------------------------------------------------
def test_bucket_sweeps_count_distinct_ticks_with_a_firing(sim):
    """``bucket_sweeps`` is the number of distinct WHEEL_TICK ticks in
    which an event fired: same-tick events, work scheduled at ``now``,
    cancelled events and a horizon that splits a tick add none."""
    assert WHEEL_TICK == 1e-3
    for when in (0.0001, 0.0002, 0.0011, 0.0019, 0.0031, 5.0):
        sim.schedule_at(when, lambda: None)
    sim.call_at(0.0031, lambda: sim.call_later(0.0, lambda: None))
    sim.schedule_at(0.0025, lambda: None).cancel()    # tick 2: never fires
    sim.run(until=0.0015)                # ticks 0 and 1, stops inside 1
    assert sim.stats().bucket_sweeps == 2
    sim.run()                            # 0.0019 is still tick 1
    stats = sim.stats()
    assert stats.events_fired == 8
    assert stats.bucket_sweeps == 4      # ticks 0, 1, 3 and 5000
    assert stats.events_fired / stats.bucket_sweeps == 2.0


def test_near_far_split_is_measured_from_now(sim):
    """``wheel_pending`` counts the live events due less than
    WHEEL_SLOTS ticks (4.096 s) after ``now``, ``heap_pending`` the
    rest; cancelled events count in neither."""
    horizon = WHEEL_SLOTS * WHEEL_TICK
    for when in (1.0, 4.0, horizon, 4.2, 10.0):
        sim.schedule_at(when, lambda: None)
    sim.schedule_at(2.0, lambda: None).cancel()
    sim.schedule_at(20.0, lambda: None).cancel()
    stats = sim.stats()
    assert (stats.pending, stats.dead) == (5, 2)
    assert (stats.wheel_pending, stats.heap_pending) == (2, 3)
    sim.run(until=3.0)                   # fires 1.0; horizon now 7.096 s
    stats = sim.stats()
    assert (stats.pending, stats.dead) == (4, 1)
    assert (stats.wheel_pending, stats.heap_pending) == (3, 1)
    sim.run()
    stats = sim.stats()
    assert (stats.pending, stats.wheel_pending,
            stats.heap_pending) == (0, 0, 0)


# ----------------------------------------------------------------------
# Differential ordering: the engine against a sorted-list oracle
# ----------------------------------------------------------------------
class _OracleHandle:
    def __init__(self, oracle, key):
        self._oracle = oracle
        self._key = key
        self.done = False

    def cancel(self):
        if not self.done:
            self.done = True
            del self._oracle.pending[self._key]


class _Oracle:
    """The engine's ordering contract in its plainest form: fire the
    smallest ``(time, seq)`` among the pending entries, one at a time."""

    def __init__(self):
        self.now = 0.0
        self.pending = {}
        self._seq = itertools.count(1)

    def _add(self, when, fn, args, handle):
        key = (when, next(self._seq))
        h = _OracleHandle(self, key) if handle else None
        self.pending[key] = (fn, args, h)
        return h

    def schedule(self, delay, fn, *args):
        return self._add(self.now + delay, fn, args, True)

    def schedule_at(self, when, fn, *args):
        return self._add(when, fn, args, True)

    def call_later(self, delay, fn, *args):
        self._add(self.now + delay, fn, args, False)

    def call_at(self, when, fn, *args):
        self._add(when, fn, args, False)

    def call_batch(self, entries):
        entries = list(entries)
        for when, fn, args in entries:
            self._add(when, fn, args, False)
        return len(entries)

    def pending_count(self):
        return len(self.pending)

    def _dispatch(self, until, budget):
        fired = 0
        while self.pending and fired != budget:
            key = min(self.pending)
            if key[0] > until:
                break
            fn, args, handle = self.pending.pop(key)
            if handle is not None:
                handle.done = True
            self.now = key[0]
            fired += 1
            fn(*args)
        return fired

    def run(self, until=None, max_events=None):
        self._dispatch(math.inf if until is None else until,
                       -1 if max_events is None else max_events)
        if until is not None and self.now < until:
            self.now = until

    def step(self):
        return self._dispatch(math.inf, 1) > 0


_APIS = ("schedule", "schedule_at", "call_later", "call_at")
# Zero, sub-millisecond, 1-100 ms, and beyond the 4.096 s near/far
# split; the sampled values make exact ties across entry points likely.
_delays = st.one_of(
    st.sampled_from([0.0, 0.0005, 0.001, 0.0015, 0.05, 4.1, 4.096]),
    st.floats(0.0, 1e-3, exclude_max=True),
    st.floats(1e-3, 0.1),
    st.floats(4.1, 30.0),
)
_actions = st.lists(st.one_of(
    st.tuples(st.just("again"), st.sampled_from(_APIS), _delays),
    st.tuples(st.just("now"), st.sampled_from(_APIS)),
    st.tuples(st.just("cancel"), st.integers(0, 40)),
), max_size=2)
_ops = st.one_of(
    st.tuples(st.just("sched"), st.sampled_from(_APIS), _delays, _actions),
    st.tuples(st.just("batch"), st.lists(_delays, min_size=1, max_size=5),
              _actions),
    st.tuples(st.just("cancel"), st.integers(0, 40)),
    st.tuples(st.just("until"), _delays),
    st.tuples(st.just("max"), st.integers(0, 5)),
    st.tuples(st.just("step")),
    st.tuples(st.just("run")),
)


def _execute(sim, program):
    """Run ``program`` on ``sim``; returns what an observer sees: every
    firing with its clock, then ``now`` and ``pending_count()`` after
    each call."""
    log = []
    handles = []
    labels = itertools.count()

    def add(api, delay, actions):
        fn = make_cb(next(labels), actions)
        if api in ("schedule", "call_later"):
            handle = getattr(sim, api)(delay, fn)
        else:
            handle = getattr(sim, api)(sim.now + delay, fn)
        if handle is not None:
            handles.append(handle)

    def make_cb(label, actions):
        def cb():
            log.append(("fire", label, sim.now))
            for action in actions:
                if action[0] == "again":
                    add(action[1], action[2], ())
                elif action[0] == "now":
                    add(action[1], 0.0, ())
                elif handles:
                    handles[action[1] % len(handles)].cancel()
        return cb

    for op in program:
        kind = op[0]
        if kind == "sched":
            add(op[1], op[2], op[3])
        elif kind == "batch":
            log.append(("batch", sim.call_batch(
                [(sim.now + d, make_cb(next(labels), op[2]), ())
                 for d in op[1]])))
        elif kind == "cancel":
            if handles:
                handles[op[1] % len(handles)].cancel()
        elif kind == "until":
            sim.run(until=sim.now + op[1])
        elif kind == "max":
            sim.run(max_events=op[1])
        elif kind == "step":
            log.append(("step", sim.step()))
        else:
            sim.run()
        log.append(("after", kind, sim.now, sim.pending_count()))
    sim.run()
    log.append(("end", sim.now, sim.pending_count()))
    return log


@settings(max_examples=300, deadline=None)
@given(st.lists(_ops, min_size=1, max_size=40))
def test_engine_matches_sorted_oracle(program):
    """Any mix of the five scheduling calls, cancellations (pending,
    fired, repeated, from inside callbacks) and the four ways to run
    fires exactly the sorted ``(time, seq)`` order, with the same
    ``now`` and ``pending_count()`` after every call."""
    sim = Simulator()
    assert _execute(sim, program) == _execute(_Oracle(), program)
    stats = sim.stats()
    assert stats.pending == 0
    assert (stats.events_fired + stats.events_cancelled
            == stats.events_scheduled)
