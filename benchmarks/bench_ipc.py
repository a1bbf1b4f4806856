#!/usr/bin/env python
"""IPC transport benchmark: serial vs pickle-pool vs envelope-pool.

Produces ``BENCH_ipc.json`` at the repo root measuring the data plane
between the validation sweep's worker pool and the parent:

* ``serial`` — ``workers=1``: every trial runs in-process; nothing
  crosses a process boundary.
* ``pickle_pool`` — the pre-codec transport: workers return full trial
  results (replay traces, record lists, metric sinks) pickled over the
  pool's pipe.
* ``envelope_pool`` — the store-mediated handoff: workers write
  binary-codec artifacts into a shared content-addressed store and
  return only ``(key, digest, stats)`` envelopes; the parent rehydrates
  lazily.

Each pool leg reuses one persistent :class:`TrialExecutor` (the warm
worker pool is the steady state this benchmark characterizes — pool
start-up and registry warm-up are paid once, outside the timed region,
exactly as in a long sweep session).  Legs are interleaved per round,
with the order reversed on alternate rounds so slow drifts in machine
load cancel; the reported speedups are the **median of per-round
ratios**, which pairs each parallel measurement with a serial
measurement taken seconds away.

Every round asserts that all three legs render byte-identical
validation tables — the transports must be observationally equivalent.
Each round sweeps its own seed (the warm-up another one): an executor
runs each distinct trial once and reads repeats back from its scratch
store, so a round repeating an earlier sweep would time store reads,
not the transport.

Usage::

    PYTHONPATH=src python benchmarks/bench_ipc.py          # full
    PYTHONPATH=src python benchmarks/bench_ipc.py --quick  # CI smoke
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from typing import Dict, List

import os

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from repro.scenarios import ALL_SCENARIOS  # noqa: E402
from repro.validation.harness import FtpRunner  # noqa: E402
from repro.validation.parallel import (  # noqa: E402
    TrialExecutor,
    run_validation,
)

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_OUT = os.path.join(REPO_ROOT, "BENCH_ipc.json")

# The warm-up sweeps a seed no round uses (rounds sweep 0, 1, ...).
WARMUP_SEED = 1000

_COUNTER_KEYS = ("envelope_count", "ipc_bytes_sent", "ipc_bytes_recv",
                 "artifact_bytes", "encode_ns", "rehydrate_ns",
                 "serial_fallbacks")


class _Leg:
    """One transport configuration with its persistent executor."""

    def __init__(self, name: str, workers: int, transport: str,
                 runner: FtpRunner):
        self.name = name
        self.transport = transport
        self.runner = runner
        self.executor = TrialExecutor(workers=workers, transport=transport)
        self.walls: List[float] = []
        self.deltas: List[Dict[str, int]] = []
        self.renders: List[str] = []
        # Warm-up (untimed): starts the pool, resolves the scenario
        # registry in every worker, heats imports and code paths.
        run_validation([ALL_SCENARIOS[0]], runner, seed=WARMUP_SEED,
                       trials=1, executor=self.executor,
                       transport=transport)

    def _counters(self) -> Dict[str, int]:
        stats = self.executor.transport_stats()
        return {k: int(stats.get(k) or 0) for k in _COUNTER_KEYS}

    def run_once(self, trials: int, seed: int) -> float:
        before = self._counters()
        t0 = time.perf_counter()
        sweep = run_validation(ALL_SCENARIOS, self.runner, seed=seed,
                               trials=trials, baseline=True,
                               executor=self.executor,
                               transport=self.transport)
        wall = time.perf_counter() - t0
        after = self._counters()
        self.walls.append(wall)
        self.deltas.append({k: after[k] - before[k] for k in _COUNTER_KEYS})
        self.renders.append(sweep.render())
        return wall

    def summary(self) -> Dict[str, object]:
        per_sweep = self.deltas[0] if self.deltas else {}
        return {
            "transport": self.transport,
            "workers_used": self.executor.effective_workers,
            "wall_seconds": [round(w, 3) for w in self.walls],
            "median_seconds": round(statistics.median(self.walls), 3),
            "ipc_bytes_per_sweep": (per_sweep.get("ipc_bytes_sent", 0)
                                    + per_sweep.get("ipc_bytes_recv", 0)),
            "per_sweep_counters": per_sweep,
            "fallback_reason": self.executor.fallback_reason,
        }

    def close(self) -> None:
        self.executor.shutdown()


def _median_ratio(num: List[float], den: List[float]) -> float:
    return statistics.median(n / d for n, d in zip(num, den))


def bench(ftp_bytes: int, trials: int, workers: int,
          rounds: int) -> Dict[str, object]:
    runner = FtpRunner(nbytes=ftp_bytes)
    print(f"warming 3 legs (4 scenarios, ftp {ftp_bytes:,}B x{trials} "
          f"trials, {rounds} round(s))...")
    serial = _Leg("serial", 1, "auto", runner)
    pickle_leg = _Leg("pickle_pool", workers, "pickle", runner)
    envelope = _Leg("envelope_pool", workers, "envelope", runner)
    legs = [serial, pickle_leg, envelope]
    try:
        for rnd in range(rounds):
            order = legs if rnd % 2 == 0 else list(reversed(legs))
            for leg in order:
                wall = leg.run_once(trials, seed=rnd)
                print(f"  round[{rnd}] {leg.name:<13} {wall:6.2f}s")
        tables_identical = (serial.renders == pickle_leg.renders
                            == envelope.renders)
        result: Dict[str, object] = {
            "benchmark": "ipc_transport",
            "workload": {
                "scenarios": [cls.name for cls in ALL_SCENARIOS],
                "ftp_bytes": ftp_bytes,
                "trials": trials,
                "workers": workers,
                "rounds": rounds,
                "baseline": True,
            },
            "legs": {leg.name: leg.summary() for leg in legs},
            "speedup_pickle_vs_serial": round(
                _median_ratio(serial.walls, pickle_leg.walls), 3),
            "speedup_envelope_vs_serial": round(
                _median_ratio(serial.walls, envelope.walls), 3),
            "tables_identical": tables_identical,
        }
        pick_bytes = result["legs"]["pickle_pool"]["ipc_bytes_per_sweep"]
        env_bytes = result["legs"]["envelope_pool"]["ipc_bytes_per_sweep"]
        if env_bytes:
            result["ipc_bytes_ratio_pickle_vs_envelope"] = round(
                pick_bytes / env_bytes, 2)
        result["parallel_regression"] = (
            result["speedup_envelope_vs_serial"] < 1.0)
        return result
    finally:
        for leg in legs:
            leg.close()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true",
                    help="reduced CI smoke run (smaller sweep)")
    ap.add_argument("--workers", type=int, default=4,
                    help="worker count for the pool legs (default 4)")
    ap.add_argument("--rounds", type=int, default=3,
                    help="interleaved measurement rounds (default 3)")
    ap.add_argument("--out", default=DEFAULT_OUT,
                    help=f"output JSON path (default {DEFAULT_OUT})")
    ap.add_argument("--fail-on-regression", action="store_true",
                    help="exit non-zero if the envelope pool is slower "
                         "than serial")
    args = ap.parse_args(argv)

    ftp_bytes, trials = (200_000, 2) if args.quick else (2_000_000, 4)
    result = bench(ftp_bytes, trials, args.workers, max(1, args.rounds))
    result["mode"] = "quick" if args.quick else "full"

    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(result, f, indent=2)
        f.write("\n")

    print(f"\npickle pool vs serial    : "
          f"{result['speedup_pickle_vs_serial']:.2f}x")
    print(f"envelope pool vs serial  : "
          f"{result['speedup_envelope_vs_serial']:.2f}x (target >= 1.5x)")
    if "ipc_bytes_ratio_pickle_vs_envelope" in result:
        print(f"pipe bytes, pickle/envelope : "
              f"{result['ipc_bytes_ratio_pickle_vs_envelope']:.1f}x")
    print(f"tables identical         : {result['tables_identical']}")
    print(f"[written to {args.out}]")

    if result["parallel_regression"]:
        print("WARNING: envelope pool slower than serial "
              "(parallel_regression)", file=sys.stderr)
        if args.fail_on_regression:
            return 1
    return 0 if result["tables_identical"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
