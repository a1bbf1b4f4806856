#!/usr/bin/env python
"""Benchmark the content-addressed artifact cache.

Times the same validation sweep four ways:

* ``cold``     — ``run_validation`` with a fresh ``--cache-dir``:
  every stage computes and is stored;
* ``warm``     — the identical sweep against the populated cache:
  every stage must load from the store (zero recomputes);
* ``uncached`` — no cache at all, the pre-pipeline behaviour;
* ``workers``  — ``cold`` again on two local workers, over a second
  fresh cache.

Asserts the cache's whole contract: the warm rerun recomputes nothing,
is at least ``MIN_SPEEDUP``x faster than the cold run, decodes only
the artifacts its table needs (the metrics, never a distilled
traversal), and all four sweeps render byte-identical tables.  The
workers leg must run on the workers, and its parent must decode no
distilled traversal either: the workers take each one from the store
by reference.  The serial legs (``cold``, ``uncached``) take them by
reference too, so no decoded distillation may be alive when their
sweep returns, before anything reads its ``distillations``.  Writes
the measurements, the decode counts and the serial legs' live
distillations as JSON.

Usage::

    PYTHONPATH=src python benchmarks/bench_cache.py            # full
    PYTHONPATH=src python benchmarks/bench_cache.py --quick    # CI smoke
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core.distill import DistillationResult  # noqa: E402
from repro.pipeline import Pipeline  # noqa: E402
from repro.scenarios import scenario_by_name  # noqa: E402
from repro.validation import FtpRunner, run_validation  # noqa: E402

MIN_SPEEDUP = 5.0


def run_sweep(scenario, runner, trials, cache=None, workers=1):
    started = time.perf_counter()
    sweep = run_validation(scenario, runner, seed=0, trials=trials,
                           workers=workers, cache=cache)
    return sweep, time.perf_counter() - started


def live_distillations() -> int:
    """Decoded distillations alive in this process."""
    gc.collect()
    return sum(isinstance(o, DistillationResult) for o in gc.get_objects())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--quick", action="store_true",
                        help="smaller transfer and fewer trials (CI)")
    parser.add_argument("--scenario", default="wean")
    parser.add_argument("--out", default=None, metavar="FILE",
                        help="where to write the JSON report "
                             "(default benchmarks/output/BENCH_cache.json)")
    args = parser.parse_args(argv)

    trials = 1 if args.quick else 2
    nbytes = 100_000 if args.quick else 500_000
    scenario = scenario_by_name(args.scenario)
    runner = FtpRunner(nbytes=nbytes, direction="send")
    print(f"cache benchmark: {args.scenario}, ftp-send {nbytes} B, "
          f"{trials} trial(s)")

    with tempfile.TemporaryDirectory(prefix="repro-bench-cache-") as root, \
            tempfile.TemporaryDirectory(prefix="repro-bench-cache-") as root2:
        cold, cold_s = run_sweep(scenario, runner, trials, cache=root)
        held = {"cold": live_distillations()}
        warm_cache = Pipeline(root)
        warm, warm_s = run_sweep(scenario, runner, trials, cache=warm_cache)
        plain, plain_s = run_sweep(scenario, runner, trials)
        held["uncached"] = live_distillations()
        workers_cache = Pipeline(root2)
        pooled, pooled_s = run_sweep(scenario, runner, trials,
                                     cache=workers_cache, workers=2)

    print(f"  cold:     {cold_s:6.2f}s  ({cold.cache_misses} computed)")
    print(f"  warm:     {warm_s:6.2f}s  ({warm.cache_hits} hits, "
          f"{warm.cache_misses} recomputed)")
    print(f"  uncached: {plain_s:6.2f}s")
    print(f"  workers:  {pooled_s:6.2f}s  ({pooled.cache_misses} computed "
          f"on {pooled.workers_used} workers)")
    speedup = cold_s / max(warm_s, 1e-9)
    print(f"  warm speedup: {speedup:.1f}x")

    assert warm.cache_misses == 0, \
        f"warm rerun recomputed {warm.cache_misses} stage(s)"
    assert warm.cache_hits == cold.cache_misses
    assert speedup >= MIN_SPEEDUP, \
        f"warm speedup {speedup:.1f}x below {MIN_SPEEDUP}x"
    tables = {label: sweep.render()
              for label, sweep in (("cold", cold), ("warm", warm),
                                   ("uncached", plain), ("workers", pooled))}
    assert tables["cold"] == tables["warm"] == tables["uncached"], \
        "cache changed the rendered table"
    assert tables["workers"] == tables["cold"], \
        "the workers leg rendered another table than the serial legs"
    print("  tables byte-identical (cold == warm == uncached == workers)")
    # Counted after rendering: a hit is decoded when first read, a
    # worker's result when the parent rehydrates it.
    decoded = dict(sorted(warm_cache.decoded.items()))
    print(f"  warm decoded: {sum(decoded.values())} artifact(s) {decoded}")
    assert not decoded.get("distill"), \
        f"warm rerun decoded {decoded['distill']} distillation(s)"
    pooled_decoded = dict(sorted(workers_cache.decoded.items()))
    print(f"  workers decoded: {sum(pooled_decoded.values())} artifact(s) "
          f"{pooled_decoded}")
    # On a serial fallback the parent computes the distillations and
    # the decode check below would pass without testing anything.
    assert pooled.transport.get("transport") == "remote", \
        f"the workers leg ran in-process: {pooled.fallback_reason}"
    assert not pooled_decoded.get("distill"), \
        f"the workers leg's parent decoded " \
        f"{pooled_decoded['distill']} distillation(s)"
    # Counted as each serial sweep returned, before any read.
    print(f"  live distillations after the serial legs: {held}")
    for label, count in held.items():
        assert count == 0, \
            f"the {label} leg returned holding {count} distillation(s)"

    out = Path(args.out) if args.out else \
        Path(__file__).resolve().parent / "output" / "BENCH_cache.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({
        "scenario": args.scenario,
        "trials": trials,
        "ftp_bytes": nbytes,
        "cold_seconds": round(cold_s, 4),
        "warm_seconds": round(warm_s, 4),
        "uncached_seconds": round(plain_s, 4),
        "warm_speedup": round(speedup, 2),
        "stages_cold": cold.cache_misses,
        "stages_warm_hits": warm.cache_hits,
        "warm_decoded": decoded,
        "workers_seconds": round(pooled_s, 4),
        "workers_decoded": pooled_decoded,
        "serial_live_distillations": held,
        "tables_identical": True,
    }, indent=1), encoding="utf-8")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
