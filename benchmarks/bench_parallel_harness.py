#!/usr/bin/env python
"""End-to-end benchmark for the parallel harness + engine hot path.

Produces ``BENCH_engine.json`` at the repo root with two families of
measurements:

1. **Engine microbenchmarks** — single-threaded events/sec of the
   current :class:`repro.sim.engine.Simulator` against the seed
   revision's simulator (a faithful copy lives in
   :mod:`_seed_baseline`), on two workloads:

   * ``chain`` — a pure event chain, one event schedules the next.
     Measures raw schedule/dispatch overhead (the ``__lt__``-ordered
     Event vs. the seed's wrapper tuples).
   * ``retransmit`` — the TCP pattern: every step schedules a data
     event *and* a far-future retransmit timer, then cancels the
     previous timer.  The seed's heap accumulates every dead timer
     until the end of time; the current engine's lazy compaction keeps
     the heap near its live size.
   * ``dense`` — bursts of 128 events sharing a timestamp, all
     bulk-scheduled up front (``call_batch``) and then drained, so the
     whole run is pending at once.  No trial produces this pattern
     (the paper's trials keep about 20 events pending at most); it is
     the workload the headline ``single_thread_speedup`` is measured
     on (schedule and drain phases reported separately).

   The chain/retransmit geomean is reported as ``geomean_speedup``.

2. **Allocation leg** — the same small FTP trial run twice under
   ``tracemalloc``, packet pool off then on.  ``pool_fresh`` counts
   real ``Packet``+header constructions; pooling must cut it by an
   order of magnitude while the metric tables stay identical.

3. **Validation-sweep wall clock** — the paper's Figure-7 FTP protocol
   over all four scenarios (``run_validation`` with ``baseline=True``),
   timed three ways, interleaved, best-of-N:

   * ``seed_serial`` — the seed revision's hot paths (via
     :func:`_seed_baseline.seed_mode`), serial;
   * ``serial`` — current code, ``workers=1``;
   * ``parallel`` — current code, ``workers=N`` (default 4).

   The serial and parallel sweeps must render byte-identical tables;
   the script asserts this on every repeat.

Usage::

    PYTHONPATH=src python benchmarks/bench_parallel_harness.py          # full
    PYTHONPATH=src python benchmarks/bench_parallel_harness.py --quick  # CI smoke

The full run takes a few minutes; ``--quick`` runs a reduced sweep
(smaller transfer, fewer trials, one repeat) in well under a minute and
still exercises every code path.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
import tracemalloc
from collections import deque
from typing import Callable, Dict, List, Optional

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from _seed_baseline import SeedSimulator, seed_mode  # noqa: E402

from repro.scenarios import ALL_SCENARIOS  # noqa: E402
from repro.sim.engine import Simulator  # noqa: E402
from repro.validation.harness import FtpRunner  # noqa: E402
from repro.validation.parallel import run_validation  # noqa: E402

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_OUT = os.path.join(REPO_ROOT, "BENCH_engine.json")


# ======================================================================
# Engine microbenchmarks
# ======================================================================
def _run_chain(sim, n: int) -> None:
    """One event chain: each callback schedules its successor."""
    remaining = [n]

    def tick() -> None:
        remaining[0] -= 1
        if remaining[0] > 0:
            sim.schedule(0.001, tick)

    sim.schedule(0.001, tick)
    sim.run()


def _run_retransmit(sim, n: int) -> None:
    """TCP-style churn: schedule a data event plus a 30 s retransmit
    timer each step, cancelling the previous timer (it never fires)."""
    state = {"remaining": n, "timer": None}

    def _rto() -> None:  # pragma: no cover - timers are always cancelled
        raise AssertionError("retransmit timer fired")

    def tick() -> None:
        if state["timer"] is not None:
            state["timer"].cancel()
        state["remaining"] -= 1
        if state["remaining"] > 0:
            state["timer"] = sim.schedule(30.0, _rto)
            sim.schedule(0.001, tick)
        else:
            state["timer"] = None

    state["timer"] = sim.schedule(30.0, _rto)
    sim.schedule(0.001, tick)
    sim.run(until=float(n))  # stop before any surviving timer would fire


_WORKLOADS: Dict[str, Callable[[object, int], None]] = {
    "chain": _run_chain,
    "retransmit": _run_retransmit,
}

DENSE_BURST = 128  # events per occupied tick in the dense workload


def bench_engine(n_events: int, repeats: int) -> Dict[str, object]:
    """Time each workload on the seed and current engines, best-of-N.

    ``single_thread_speedup`` is the total (schedule + drain) speedup
    on the ``dense`` workload, a burst pattern no trial produces.  The
    chain/retransmit microbenchmarks are dominated by Python callback
    dispatch, which no scheduler can remove; their geometric mean is
    reported alongside as ``geomean_speedup`` so the full picture stays
    on the record.  The CI gate reads each workload's events/s against
    the committed ``BENCH_engine.json``.
    """
    out: Dict[str, object] = {"n_events": n_events, "workloads": {}}
    speedups: List[float] = []
    stats_sample = None
    for name, workload in _WORKLOADS.items():
        seed_best = cur_best = math.inf
        for _ in range(repeats):
            sim = SeedSimulator()
            t0 = time.perf_counter()
            workload(sim, n_events)
            seed_best = min(seed_best, time.perf_counter() - t0)

            sim = Simulator()
            t0 = time.perf_counter()
            workload(sim, n_events)
            cur_best = min(cur_best, time.perf_counter() - t0)
            if name == "retransmit":
                stats_sample = sim.stats().as_dict()
        speedup = seed_best / cur_best
        speedups.append(speedup)
        out["workloads"][name] = {
            "seed_seconds": round(seed_best, 4),
            "current_seconds": round(cur_best, 4),
            "seed_events_per_sec": round(n_events / seed_best),
            "current_events_per_sec": round(n_events / cur_best),
            "speedup": round(speedup, 3),
        }
        print(f"  engine/{name:<11} seed {seed_best:7.3f}s   "
              f"current {cur_best:7.3f}s   {speedup:5.2f}x")
    out["geomean_speedup"] = round(
        math.exp(sum(math.log(s) for s in speedups) / len(speedups)), 3)

    dense = bench_dense(n_events, repeats)
    out["workloads"]["dense"] = dense
    out["single_thread_speedup"] = dense["speedup"]
    out["single_thread_speedup_metric"] = (
        "total (schedule+drain) speedup on the dense batch-fire workload; "
        "chain/retransmit geomean is geomean_speedup")
    out["stats_sample"] = stats_sample
    return out


def bench_dense(n_events: int, repeats: int,
                burst: int = DENSE_BURST) -> Dict[str, object]:
    """Bulk-schedule bursts of same-timestamp events up front, then
    drain.  Phases are timed separately: the schedule phase exercises
    ``call_batch``, the drain phase the dispatch loop with every event
    pending at the start."""
    step = 0.001
    sink = deque(maxlen=0)          # C-level callback, discards its arg
    arg = (None,)
    entries = [((i // burst + 1) * step, sink.append, arg)
               for i in range(n_events)]
    phases: Dict[str, Dict[str, float]] = {}
    for label, factory in (("seed", SeedSimulator), ("current", Simulator)):
        best = {"schedule": math.inf, "drain": math.inf, "total": math.inf}
        for _ in range(repeats):
            sim = factory()
            t0 = time.perf_counter()
            sim.call_batch(entries)
            t1 = time.perf_counter()
            sim.run()
            t2 = time.perf_counter()
            if t2 - t0 < best["total"]:
                best = {"schedule": t1 - t0, "drain": t2 - t1,
                        "total": t2 - t0}
        phases[label] = best
    seed, cur = phases["seed"], phases["current"]
    result = {
        "burst": burst,
        "seed_seconds": round(seed["total"], 4),
        "current_seconds": round(cur["total"], 4),
        "seed_events_per_sec": round(n_events / seed["total"]),
        "current_events_per_sec": round(n_events / cur["total"]),
        "schedule_speedup": round(seed["schedule"] / cur["schedule"], 3),
        "drain_speedup": round(seed["drain"] / cur["drain"], 3),
        "speedup": round(seed["total"] / cur["total"], 3),
    }
    print(f"  engine/dense       seed {seed['total']:7.3f}s   "
          f"current {cur['total']:7.3f}s   {result['speedup']:5.2f}x   "
          f"(schedule {result['schedule_speedup']:.2f}x, "
          f"drain {result['drain_speedup']:.2f}x)")
    return result


# ======================================================================
# Allocation leg: tracemalloc + pool counters, pool off vs. on
# ======================================================================
def bench_alloc(ftp_bytes: int) -> Dict[str, object]:
    """Run one live FTP trial with the packet pool disabled, then
    enabled, under ``tracemalloc``.  ``pool_fresh`` is the number of
    real packet constructions the trial performed — the pooled run must
    do far fewer — and the benchmark metrics must be identical."""
    from repro.net.packet import POOL
    from repro.validation.harness import run_live_trial

    runner = FtpRunner(nbytes=ftp_bytes).variants()[0]  # the send leg
    scenario = ALL_SCENARIOS[0]()
    legs: Dict[str, Dict[str, object]] = {}
    saved_enabled = POOL.enabled
    try:
        for label, enabled in (("pool_off", False), ("pool_on", True)):
            POOL.enabled = enabled
            POOL.clear()
            fresh0, reused0 = POOL.fresh, POOL.reused
            tracemalloc.start()
            sink = run_live_trial(scenario, runner, seed=0, trial=0)
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            legs[label] = {
                "pool_fresh": POOL.fresh - fresh0,
                "pool_reused": POOL.reused - reused0,
                "tracemalloc_peak_kib": round(peak / 1024.0, 1),
                "metrics": {k: v for k, v in sink.items()
                            if not k.startswith("__")},
            }
            print(f"  alloc/{label:<9} fresh {legs[label]['pool_fresh']:>8,}"
                  f"   reused {legs[label]['pool_reused']:>8,}"
                  f"   peak {legs[label]['tracemalloc_peak_kib']:>9,.1f} KiB")
    finally:
        POOL.enabled = saved_enabled
        POOL.clear()
    off, on = legs["pool_off"], legs["pool_on"]
    fresh_off, fresh_on = off["pool_fresh"], on["pool_fresh"]
    return {
        "ftp_bytes": ftp_bytes,
        "scenario": ALL_SCENARIOS[0].name,
        **{k: leg for k, leg in legs.items()},
        "allocation_ratio": round(fresh_on / fresh_off, 4) if fresh_off else None,
        "metrics_identical": off["metrics"] == on["metrics"],
    }


# ======================================================================
# Validation-sweep wall clock
# ======================================================================
def _time_sweep(runner: FtpRunner, trials: int, workers: int):
    t0 = time.perf_counter()
    sweep = run_validation(ALL_SCENARIOS, runner, seed=0, trials=trials,
                           baseline=True, workers=workers)
    return time.perf_counter() - t0, sweep


def bench_sweep(ftp_bytes: int, trials: int, workers: int,
                repeats: int) -> Dict[str, object]:
    """Time the three sweep legs, interleaved so machine noise hits all
    legs equally; keep the best of ``repeats`` for each."""
    runner = FtpRunner(nbytes=ftp_bytes)
    best = {"seed_serial": math.inf, "serial": math.inf, "parallel": math.inf}
    tables_identical = True
    workers_used = 0
    for rep in range(repeats):
        with seed_mode():
            elapsed, _ = _time_sweep(runner, trials, workers=1)
        best["seed_serial"] = min(best["seed_serial"], elapsed)
        print(f"  sweep[{rep}] seed_serial {elapsed:6.2f}s")

        elapsed, serial_sweep = _time_sweep(runner, trials, workers=1)
        best["serial"] = min(best["serial"], elapsed)
        print(f"  sweep[{rep}] serial      {elapsed:6.2f}s")

        elapsed, parallel_sweep = _time_sweep(runner, trials, workers=workers)
        best["parallel"] = min(best["parallel"], elapsed)
        workers_used = parallel_sweep.workers_used
        print(f"  sweep[{rep}] parallel    {elapsed:6.2f}s "
              f"(workers={parallel_sweep.workers_used})")

        if serial_sweep.render() != parallel_sweep.render():
            tables_identical = False
            print("  WARNING: serial and parallel tables differ!")
    return {
        "scenarios": [cls.name for cls in ALL_SCENARIOS],
        "ftp_bytes": ftp_bytes,
        "trials": trials,
        "workers": workers,
        "workers_used": workers_used,
        "repeats": repeats,
        "seed_serial_seconds": round(best["seed_serial"], 3),
        "serial_seconds": round(best["serial"], 3),
        "parallel_seconds": round(best["parallel"], 3),
        "speedup_serial_vs_seed_serial": round(
            best["seed_serial"] / best["serial"], 3),
        "speedup_parallel_vs_serial": round(
            best["serial"] / best["parallel"], 3),
        "speedup_parallel_vs_seed_serial": round(
            best["seed_serial"] / best["parallel"], 3),
        "tables_identical": tables_identical,
    }


# ======================================================================
# Telemetry overhead leg
# ======================================================================
def bench_telemetry(ftp_bytes: int, trials: int, workers: int,
                    repeats: int) -> Dict[str, object]:
    """Measure what sweep telemetry costs — and prove the disabled path
    costs (almost) nothing.

    Two measurements:

    * ``overhead_fraction`` — the *disabled*-path tax.  A/B wall-clock
      cannot resolve it (run-to-run noise on a multi-second sweep dwarfs
      a few hundred no-op calls), so it is measured directly: the
      per-call cost of a disabled :func:`span_begin` (one global load +
      ``None`` test, micro-timed over millions of calls) times the
      number of instrumentation points the same sweep hits when enabled
      (two calls per recorded span), over the sweep's wall clock.  The
      gate asserts this is ≤ 1%; in practice it is orders of magnitude
      below.
    * ``enabled_ratio`` — informational: enabled-telemetry wall clock
      over disabled, interleaved best-of-N.  Tables must be identical.
    """
    from repro.obs import telemetry as tmod
    from repro.obs.telemetry import SweepTelemetry

    runner = FtpRunner(nbytes=ftp_bytes)
    scenario = ALL_SCENARIOS[0]
    best = {"off": math.inf, "on": math.inf}
    tables_identical = True
    span_count = 0
    for rep in range(repeats):
        t0 = time.perf_counter()
        sweep_off = run_validation([scenario], runner, seed=0,
                                   trials=trials, workers=workers)
        best["off"] = min(best["off"], time.perf_counter() - t0)

        tel = SweepTelemetry()
        t0 = time.perf_counter()
        sweep_on = run_validation([scenario], runner, seed=0,
                                  trials=trials, workers=workers,
                                  telemetry=tel)
        best["on"] = min(best["on"], time.perf_counter() - t0)
        span_count = max(span_count, len(tel.spans))
        if sweep_off.render() != sweep_on.render():
            tables_identical = False
            print("  WARNING: telemetry-on and -off tables differ!")
        print(f"  telemetry[{rep}] off {best['off']:6.2f}s   "
              f"on {best['on']:6.2f}s   ({len(tel.spans)} spans)")

    # Disabled-path per-call cost, micro-timed.  Capture must be off
    # (it is: only execute_wire_chunk_keys turns it on, in workers).
    assert not tmod.capture_active()
    calls = 2_000_000
    begin = tmod.span_begin
    t0 = time.perf_counter()
    for _ in range(calls):
        begin()
    per_call_ns = (time.perf_counter() - t0) / calls * 1e9
    # Two disabled calls (begin + end) per span the enabled sweep took.
    disabled_calls = 2 * span_count
    overhead_fraction = (per_call_ns * disabled_calls) / (best["off"] * 1e9)
    print(f"  telemetry disabled-path: {per_call_ns:.0f} ns/call x "
          f"{disabled_calls} calls / {best['off']:.2f}s sweep "
          f"= {overhead_fraction:.2e} overhead")
    return {
        "ftp_bytes": ftp_bytes,
        "trials": trials,
        "workers": workers,
        "off_seconds": round(best["off"], 3),
        "on_seconds": round(best["on"], 3),
        "enabled_ratio": round(best["on"] / best["off"], 4),
        "spans": span_count,
        "disabled_call_ns": round(per_call_ns, 1),
        "overhead_fraction": overhead_fraction,
        "overhead_within_1pct": overhead_fraction <= 0.01,
        "tables_identical": tables_identical,
    }


# ======================================================================
# Regression gate against the committed BENCH_engine.json
# ======================================================================
def check_engine_regression(engine: Dict[str, object],
                            baseline_path: str,
                            tolerance: float) -> List[str]:
    """Compare this run's engine events/s against the committed
    baseline.  Absolute throughput varies across machines, so the gate
    only trips when a workload falls below ``tolerance`` (a fraction)
    of the committed number — a catastrophic-regression tripwire, not a
    benchmarking substitute."""
    try:
        with open(baseline_path, encoding="utf-8") as f:
            committed = json.load(f)
    except (OSError, ValueError):
        print(f"  [no committed baseline at {baseline_path}; "
              "engine gate skipped]")
        return []
    failures: List[str] = []
    base_workloads = committed.get("engine", {}).get("workloads", {})
    for name, now in engine["workloads"].items():
        base_eps = base_workloads.get(name, {}).get("current_events_per_sec")
        if not base_eps:
            continue
        floor = base_eps * tolerance
        eps = now["current_events_per_sec"]
        status = "ok" if eps >= floor else "REGRESSION"
        print(f"  gate engine/{name:<11} {eps:>12,} ev/s  "
              f"(floor {round(floor):,}, committed {base_eps:,})  {status}")
        if eps < floor:
            failures.append(
                f"engine/{name}: {eps:,} ev/s < {tolerance:.0%} of "
                f"committed {base_eps:,}")
    return failures


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true",
                    help="reduced CI smoke run (smaller sweep, one repeat)")
    ap.add_argument("--engine-only", action="store_true",
                    help="engine microbenchmarks + allocation leg only "
                         "(skip the validation sweep)")
    ap.add_argument("--workers", type=int, default=4,
                    help="worker count for the parallel leg (default 4)")
    ap.add_argument("--repeats", type=int, default=None,
                    help="best-of-N repeats (default 3, or 1 with --quick)")
    ap.add_argument("--out", default=DEFAULT_OUT,
                    help=f"output JSON path (default {DEFAULT_OUT})")
    ap.add_argument("--baseline", default=DEFAULT_OUT,
                    help="committed benchmark JSON to gate against "
                         f"(default {DEFAULT_OUT})")
    ap.add_argument("--regression-tolerance", type=float, default=0.35,
                    help="engine gate floor as a fraction of the committed "
                         "events/s (default 0.35; CI machines vary)")
    ap.add_argument("--fail-on-regression", action="store_true",
                    help="exit non-zero if the parallel sweep is slower "
                         "than serial or engine events/s falls below the "
                         "committed baseline floor")
    args = ap.parse_args(argv)

    repeats = args.repeats if args.repeats is not None else (
        1 if args.quick else 3)
    repeats = max(1, repeats)
    if args.quick:
        engine_events, ftp_bytes, trials = 50_000, 200_000, 2
    else:
        engine_events, ftp_bytes, trials = 300_000, 2_000_000, 4

    print(f"engine microbenchmarks ({engine_events:,} events, "
          f"best of {repeats}):")
    engine = bench_engine(engine_events, repeats)

    print(f"allocation leg (ftp {200_000:,}B, tracemalloc):")
    alloc = bench_alloc(200_000)

    engine_failures: List[str] = []
    if args.fail_on_regression:
        print("engine regression gate:")
        engine_failures = check_engine_regression(
            engine, args.baseline, args.regression_tolerance)

    sweep: Optional[Dict[str, object]] = None
    telemetry: Optional[Dict[str, object]] = None
    if not args.engine_only:
        print(f"validation sweep (4 scenarios, ftp {ftp_bytes:,}B x{trials} "
              f"trials, best of {repeats}):")
        sweep = bench_sweep(ftp_bytes, trials, args.workers, repeats)

        print(f"telemetry overhead (ftp {ftp_bytes:,}B x{trials} trials, "
              f"best of {repeats}):")
        telemetry = bench_telemetry(ftp_bytes, trials, args.workers, repeats)

    regression = (sweep is not None
                  and sweep["speedup_parallel_vs_serial"] < 1.0)
    telemetry_failure = (telemetry is not None
                         and not (telemetry["overhead_within_1pct"]
                                  and telemetry["tables_identical"]))
    result = {
        "benchmark": "parallel_harness",
        "mode": "quick" if args.quick else "full",
        "engine": engine,
        "alloc": alloc,
        "sweep": sweep,
        "telemetry": telemetry,
        "parallel_regression": regression,
        "telemetry_regression": telemetry_failure,
        "engine_regressions": engine_failures,
    }
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(result, f, indent=2)
        f.write("\n")

    if regression:
        print(f"WARNING: parallel sweep slower than serial "
              f"({sweep['speedup_parallel_vs_serial']:.2f}x) — "
              f"parallel_regression", file=sys.stderr)
    for failure in engine_failures:
        print(f"WARNING: {failure}", file=sys.stderr)

    print(f"\nsingle-thread engine speedup : "
          f"{engine['single_thread_speedup']:.2f}x on dense batch-fire "
          f"(chain/retransmit geomean "
          f"{engine['geomean_speedup']:.2f}x)")
    print(f"allocation ratio (pool on/off): {alloc['allocation_ratio']}  "
          f"metrics identical: {alloc['metrics_identical']}")
    if sweep is not None:
        print(f"parallel vs seed serial      : "
              f"{sweep['speedup_parallel_vs_seed_serial']:.2f}x (target >= 2x)")
        print(f"parallel vs current serial   : "
              f"{sweep['speedup_parallel_vs_serial']:.2f}x")
        print(f"tables identical             : {sweep['tables_identical']}")
    if telemetry is not None:
        print(f"telemetry disabled overhead  : "
              f"{telemetry['overhead_fraction']:.2e} (gate <= 1e-2)  "
              f"enabled ratio {telemetry['enabled_ratio']:.3f}x  "
              f"tables identical: {telemetry['tables_identical']}")
    print(f"[written to {args.out}]")
    if sweep is not None and not sweep["tables_identical"]:
        return 1
    if not alloc["metrics_identical"]:
        return 1
    if telemetry_failure:
        print("WARNING: telemetry overhead gate failed — "
              "telemetry_regression", file=sys.stderr)
        return 1
    if args.fail_on_regression and (regression or engine_failures):
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
