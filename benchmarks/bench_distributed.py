#!/usr/bin/env python
"""Distributed-sweep scaling benchmark and fleet-equivalence gate.

Produces ``BENCH_distributed.json`` at the repo root, characterizing
the multi-node configuration against local workers on one machine:

* ``scaling efficiency`` — wall clock of one warmed validation sweep
  on a 2-pseudo-host fleet (4 workers each, private stores, full
  artifact-sync plane) vs the same sweep on ``--workers 8`` (local
  workers sharing the parent's store, at most cores + 1 of them).
  The fleet pays private stores and artifact sync; the gate is that
  it keeps **>= 0.8** of the local workers' throughput, so going
  distributed is never a large regression on one box — it only
  unlocks more boxes.  The bytes the FETCH/HAVE plane moved are
  recorded with the fleet leg.
* ``dispatch overhead`` — the work-stealing scheduler's bookkeeping
  must stay **<= 2%** of sweep wall on every leg (the same gate
  ``bench_runtime.py`` pins).
* ``fleet equivalence`` — every leg renders the serial table byte for
  byte.

Usage::

    PYTHONPATH=src python benchmarks/bench_distributed.py          # full
    PYTHONPATH=src python benchmarks/bench_distributed.py --quick  # CI
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Dict, Optional

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from repro.scenarios import ALL_SCENARIOS  # noqa: E402
from repro.validation.harness import FtpRunner  # noqa: E402
from repro.validation.parallel import (  # noqa: E402
    TrialExecutor,
    run_validation,
)

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_OUT = os.path.join(REPO_ROOT, "BENCH_distributed.json")

# The tentpole gates.
SCALING_EFFICIENCY_LIMIT = 0.8
DISPATCH_OVERHEAD_LIMIT = 0.02
HOSTS = "local:4,local:4"
LOCAL_WORKERS = 8


def bench_leg(ftp_bytes: int, trials: int, seeds: int, *,
              workers: Optional[int] = None,
              hosts: Optional[str] = None) -> Dict[str, object]:
    """One warmed validation sweep on one configuration."""
    runner = FtpRunner(nbytes=ftp_bytes)
    exe = TrialExecutor(workers=workers, hosts=hosts)
    try:
        # Untimed warm-up: worker start (fleet launch for the remote
        # leg), registry + import heat on every worker.  Its seed is
        # past the timed sweep's, so none of the timed trials is read
        # back from the executor's scratch store.
        run_validation([ALL_SCENARIOS[0]], runner, seed=seeds, trials=1,
                       executor=exe)
        before = exe.transport_stats()
        t0 = time.perf_counter()
        sweep = run_validation(ALL_SCENARIOS, runner, seed=0,
                               trials=trials, seeds=seeds, baseline=True,
                               executor=exe)
        wall = time.perf_counter() - t0
        stats = exe.transport_stats()
        dispatch_ns = (int(stats.get("dispatch_ns") or 0)
                       - int(before.get("dispatch_ns") or 0))
        leg: Dict[str, object] = {
            "transport": exe.transport_used,
            "workers_used": exe.effective_workers,
            "wall_seconds": round(wall, 3),
            "dispatch_fraction": round(dispatch_ns / (wall * 1e9), 5),
            "fallback_reason": exe.fallback_reason,
            "table": sweep.render(),
        }
        backend = stats.get("backend")
        if hosts is not None and backend:
            sync = backend.get("sync") or {}
            leg["fleet"] = {
                "nodes": [{k: n[k] for k in ("host", "workers",
                                             "chunks", "jobs")}
                          for n in backend.get("nodes", [])],
                "redispatches": backend.get("redispatches", 0),
                "workers_lost": backend.get("workers_lost", 0),
                "sync_bytes_fetched": sync.get("bytes_fetched", 0),
                "sync_bytes_pushed": sync.get("bytes_pushed", 0),
                "fetch_requests": sync.get("fetch_requests", 0),
                "unique_keys_fetched": sync.get("unique_keys_fetched", 0),
            }
        return leg
    finally:
        exe.shutdown()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true",
                    help="reduced CI smoke run (smaller transfer, "
                         "fewer trials)")
    ap.add_argument("--out", default=DEFAULT_OUT,
                    help=f"output JSON path (default {DEFAULT_OUT})")
    ap.add_argument("--fail-on-regression", action="store_true",
                    help="exit non-zero if scaling efficiency drops "
                         f"below {SCALING_EFFICIENCY_LIMIT} or dispatch "
                         f"overhead exceeds "
                         f"{DISPATCH_OVERHEAD_LIMIT:.0%}")
    args = ap.parse_args(argv)

    ftp_bytes, trials, seeds = ((200_000, 2, 1) if args.quick
                                else (2_000_000, 4, 2))

    print(f"sweep: {len(ALL_SCENARIOS)} scenarios, ftp {ftp_bytes:,}B "
          f"x{trials} trials x{seeds} seed(s), baseline on")
    serial = bench_leg(ftp_bytes, trials, seeds, workers=1)
    print(f"  serial              {serial['wall_seconds']:7.2f}s")
    local = bench_leg(ftp_bytes, trials, seeds, workers=LOCAL_WORKERS)
    print(f"  --workers {LOCAL_WORKERS} (x{local['workers_used']})"
          f"    {local['wall_seconds']:7.2f}s")
    remote = bench_leg(ftp_bytes, trials, seeds, hosts=HOSTS)
    print(f"  remote {HOSTS}  {remote['wall_seconds']:7.2f}s")

    tables_identical = (serial["table"] == local["table"]
                        == remote["table"])
    efficiency = round(
        float(local["wall_seconds"]) / float(remote["wall_seconds"]), 4)
    overhead = max(float(leg["dispatch_fraction"])
                   for leg in (serial, local, remote))
    sync_bytes = int(remote["fleet"]["sync_bytes_fetched"])

    result: Dict[str, object] = {
        "benchmark": "distributed_sweep",
        "mode": "quick" if args.quick else "full",
        "workload": {
            "scenarios": [cls.name for cls in ALL_SCENARIOS],
            "ftp_bytes": ftp_bytes,
            "trials": trials,
            "seeds": seeds,
            "hosts": HOSTS,
            "local_workers": LOCAL_WORKERS,
            "baseline": True,
        },
        "legs": {
            name: {k: v for k, v in leg.items() if k != "table"}
            for name, leg in (("serial", serial), ("workers", local),
                              ("remote", remote))
        },
        "scaling_efficiency": efficiency,
        "scaling_efficiency_limit": SCALING_EFFICIENCY_LIMIT,
        "artifact_sync_bytes": sync_bytes,
        "dispatch_overhead_fraction": round(overhead, 5),
        "dispatch_overhead_limit": DISPATCH_OVERHEAD_LIMIT,
        "tables_identical": tables_identical,
    }
    result["scaling_regression"] = efficiency < SCALING_EFFICIENCY_LIMIT
    result["dispatch_regression"] = overhead > DISPATCH_OVERHEAD_LIMIT

    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(result, f, indent=2)
        f.write("\n")

    print(f"\nscaling efficiency (workers/remote) : {efficiency:.2f} "
          f"(limit {SCALING_EFFICIENCY_LIMIT})")
    print(f"artifact-sync bytes fetched         : {sync_bytes:,}")
    print(f"dispatch overhead (worst leg)       : {overhead:.3%} "
          f"(limit {DISPATCH_OVERHEAD_LIMIT:.0%})")
    print(f"tables identical                    : {tables_identical}")
    print(f"[written to {args.out}]")

    failed = not tables_identical
    if result["scaling_regression"]:
        print("WARNING: fleet scaling efficiency below limit "
              "(scaling_regression)", file=sys.stderr)
        failed = failed or args.fail_on_regression
    if result["dispatch_regression"]:
        print("WARNING: scheduler dispatch overhead above limit "
              "(dispatch_regression)", file=sys.stderr)
        failed = failed or args.fail_on_regression
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
