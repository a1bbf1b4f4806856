#!/usr/bin/env python
"""Runtime dispatch-overhead benchmark and equivalence gate.

Produces ``BENCH_runtime.json`` at the repo root, characterizing the
``repro.runtime`` layer itself rather than the simulations it drives.
Three legs run the same warmed sweep: ``serial`` (``workers=1``,
inline), ``workers`` (``--workers N`` local workers) and ``fleet``
(``--hosts local:N/2,local:N/2``, two pseudo-hosts with private stores
and the artifact-sync plane).

* ``dispatch overhead`` — the wall time the scheduler spends inside
  ``submit_jobs`` (chunking, fingerprint cache lookups, pickling,
  backend hand-off; the ``executor.dispatch_ns`` counter) as a
  fraction of a full validation sweep's wall clock.  **Gate: <= 2%.**
  This is the number that must not regress now that validate, check,
  golden and fuzz all route through one generic scheduler instead of
  the old trial-specific pool loop.
* ``parallel vs serial`` — the warm ``workers`` sweep must not be
  slower than the warm serial sweep.  **Gate: speedup >= 1.0.**
* ``echo micro`` — per-job round-trip cost of the pure runtime on
  every leg, measured with the zero-work ``echo`` job kind, so backend
  overhead is visible without simulation noise.
* ``equivalence`` — the workers and fleet sweeps must render the
  serial sweep's table byte for byte.

Full mode adds a ``check`` leg (two scenarios through the invariant
pipeline, serial vs parallel) to record the end-to-end speedup of the
ported consumers on multi-core machines.

Usage::

    PYTHONPATH=src python benchmarks/bench_runtime.py          # full
    PYTHONPATH=src python benchmarks/bench_runtime.py --quick  # CI smoke
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Dict, List, Optional

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from repro.runtime import Job, Scheduler, runner_ref  # noqa: E402
from repro.runtime.job import echo  # noqa: E402
from repro.scenarios import ALL_SCENARIOS  # noqa: E402
from repro.validation.harness import FtpRunner  # noqa: E402
from repro.validation.parallel import (  # noqa: E402
    TrialExecutor,
    run_validation,
)

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_OUT = os.path.join(REPO_ROOT, "BENCH_runtime.json")

# The tentpole gate: scheduler bookkeeping must stay a rounding error
# next to the simulations it dispatches.
DISPATCH_OVERHEAD_LIMIT = 0.02

_ECHO = runner_ref(echo)


def _echo_jobs(count: int) -> List[Job]:
    return [Job(kind="echo", runner=_ECHO, payload=i, label=f"echo:{i}",
                cost_hint=0.1) for i in range(count)]


def fleet_hosts(workers: int) -> str:
    """Two local pseudo-hosts sharing ``workers`` between them."""
    half = max(1, workers // 2)
    return f"local:{half},local:{max(1, workers - half)}"


def legs(workers: int) -> Dict[str, Dict[str, object]]:
    """Executor arguments of the three legs."""
    return {"serial": {"workers": 1},
            "workers": {"workers": workers},
            "fleet": {"hosts": fleet_hosts(workers)}}


def bench_sweep(ftp_bytes: int, trials: int, workers: Optional[int] = None,
                hosts: Optional[str] = None) -> Dict[str, object]:
    """One warmed validation sweep; dispatch_ns vs wall."""
    runner = FtpRunner(nbytes=ftp_bytes)
    exe = TrialExecutor(workers=workers, hosts=hosts)
    try:
        # Untimed warm-up: worker start, registry + import heat.  Its
        # seed is one the timed sweep does not use, so none of the
        # timed trials is read back from the executor's scratch store.
        run_validation([ALL_SCENARIOS[0]], runner, seed=1, trials=1,
                       executor=exe)
        before_ns = int(exe.transport_stats().get("dispatch_ns") or 0)
        t0 = time.perf_counter()
        sweep = run_validation(ALL_SCENARIOS, runner, seed=0,
                               trials=trials, baseline=True, executor=exe)
        wall = time.perf_counter() - t0
        dispatch_ns = int(exe.transport_stats().get("dispatch_ns")
                          or 0) - before_ns
        return {
            "transport": exe.transport_used,
            "workers_used": exe.effective_workers,
            "wall_seconds": round(wall, 3),
            "dispatch_ms": round(dispatch_ns / 1e6, 3),
            "dispatch_fraction": round(dispatch_ns / (wall * 1e9), 5),
            "fallback_reason": exe.fallback_reason,
            "table": sweep.render(),
        }
    finally:
        exe.shutdown()


def bench_echo(count: int, workers: int) -> Dict[str, object]:
    """Per-job runtime cost with zero-work jobs, every leg."""
    out: Dict[str, object] = {}
    for name, kwargs in legs(workers).items():
        exe = Scheduler(**kwargs)
        try:
            exe.map_jobs(_echo_jobs(8))        # warm the backend
            t0 = time.perf_counter()
            results = exe.map_jobs(_echo_jobs(count))
            wall = time.perf_counter() - t0
            assert results == list(range(count)), f"{name}: wrong results"
            out[name] = {
                "jobs": count,
                "wall_seconds": round(wall, 4),
                "us_per_job": round(wall / count * 1e6, 1),
                "fallback_reason": exe.fallback_reason,
            }
        finally:
            exe.shutdown()
    return out


def bench_check(workers: int) -> Dict[str, object]:
    """Two scenarios through the invariant pipeline, serial vs
    local workers."""
    from repro.check.runner import SMOKE_FTP_BYTES, check_all

    names = ["wean", "porter"]
    t0 = time.perf_counter()
    serial = check_all(scenarios=names, ftp_bytes=SMOKE_FTP_BYTES)
    serial_wall = time.perf_counter() - t0
    t0 = time.perf_counter()
    parallel = check_all(scenarios=names, ftp_bytes=SMOKE_FTP_BYTES,
                         workers=workers)
    parallel_wall = time.perf_counter() - t0
    identical = ([r.render() for r in serial]
                 == [r.render() for r in parallel])
    return {
        "scenarios": names,
        "serial_seconds": round(serial_wall, 3),
        "parallel_seconds": round(parallel_wall, 3),
        "speedup": round(serial_wall / parallel_wall, 2),
        "reports_identical": identical,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true",
                    help="reduced CI smoke run (smaller sweep, no "
                         "check leg)")
    ap.add_argument("--workers", type=int, default=4,
                    help="worker count for the parallel legs (default 4)")
    ap.add_argument("--out", default=DEFAULT_OUT,
                    help=f"output JSON path (default {DEFAULT_OUT})")
    ap.add_argument("--fail-on-regression", action="store_true",
                    help="exit non-zero if dispatch overhead exceeds "
                         f"{DISPATCH_OVERHEAD_LIMIT:.0%} of sweep wall "
                         "or the warm workers sweep is slower than the "
                         "warm serial one")
    args = ap.parse_args(argv)

    ftp_bytes, trials = (200_000, 2) if args.quick else (2_000_000, 4)
    echo_count = 200 if args.quick else 1000

    print(f"sweep legs (4 scenarios, ftp {ftp_bytes:,}B x{trials} "
          f"trials)...")
    sweeps = {}
    for name, kwargs in legs(args.workers).items():
        sweeps[name] = leg = bench_sweep(ftp_bytes, trials, **kwargs)
        print(f"  {name:<7} {leg['wall_seconds']:6.2f}s "
              f"dispatch {leg['dispatch_fraction']:.3%}")

    tables_identical = len({leg["table"] for leg in sweeps.values()}) == 1
    overhead = max(leg["dispatch_fraction"] for leg in sweeps.values())
    speedup = (float(sweeps["serial"]["wall_seconds"])
               / float(sweeps["workers"]["wall_seconds"]))

    print(f"echo micro ({echo_count} jobs per backend)...")
    echo_legs = bench_echo(echo_count, args.workers)
    for name, leg in echo_legs.items():
        print(f"  {name:<7} {leg['us_per_job']:8.1f} us/job")

    result: Dict[str, object] = {
        "benchmark": "runtime_dispatch",
        "mode": "quick" if args.quick else "full",
        "workload": {
            "scenarios": [cls.name for cls in ALL_SCENARIOS],
            "ftp_bytes": ftp_bytes,
            "trials": trials,
            "workers": args.workers,
            "hosts": fleet_hosts(args.workers),
            "baseline": True,
        },
        "sweep_legs": {
            name: {k: v for k, v in leg.items() if k != "table"}
            for name, leg in sweeps.items()
        },
        "echo_legs": echo_legs,
        "dispatch_overhead_fraction": round(overhead, 5),
        "dispatch_overhead_limit": DISPATCH_OVERHEAD_LIMIT,
        "speedup_workers_vs_serial": round(speedup, 3),
        "tables_identical": tables_identical,
    }
    if not args.quick:
        print(f"check leg (2 scenarios, serial vs {args.workers} "
              f"workers)...")
        result["check_leg"] = bench_check(args.workers)
        print(f"  speedup {result['check_leg']['speedup']:.2f}x")
    result["dispatch_regression"] = overhead > DISPATCH_OVERHEAD_LIMIT
    result["parallel_regression"] = speedup < 1.0

    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(result, f, indent=2)
        f.write("\n")

    print(f"\ndispatch overhead (worst leg) : {overhead:.3%} "
          f"(limit {DISPATCH_OVERHEAD_LIMIT:.0%})")
    print(f"workers vs serial (warm)      : {speedup:.2f}x")
    print(f"tables identical              : {tables_identical}")
    print(f"[written to {args.out}]")

    failed = not tables_identical
    if result["dispatch_regression"]:
        print("WARNING: scheduler dispatch overhead above limit "
              "(dispatch_regression)", file=sys.stderr)
        failed = failed or args.fail_on_regression
    if result["parallel_regression"]:
        print("WARNING: warm workers sweep slower than serial "
              "(parallel_regression)", file=sys.stderr)
        failed = failed or args.fail_on_regression
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
