#!/usr/bin/env python
"""Benchmark the content-addressed artifact cache.

Times the same validation sweep three ways:

* ``cold``     — ``run_validation`` with a fresh ``--cache-dir``:
  every stage computes and is stored;
* ``warm``     — the identical sweep against the populated cache:
  every stage must load from the store (zero recomputes);
* ``uncached`` — no cache at all, the pre-pipeline behaviour.

Asserts the cache's whole contract: the warm rerun recomputes nothing,
is at least ``MIN_SPEEDUP``x faster than the cold run, decodes only
the artifacts its table needs (the metrics, never a distilled
traversal), and all three sweeps render byte-identical tables.  Writes
the measurements as JSON.

Usage::

    PYTHONPATH=src python benchmarks/bench_cache.py            # full
    PYTHONPATH=src python benchmarks/bench_cache.py --quick    # CI smoke
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.pipeline import Pipeline  # noqa: E402
from repro.scenarios import scenario_by_name  # noqa: E402
from repro.validation import FtpRunner, run_validation  # noqa: E402

MIN_SPEEDUP = 5.0


def run_sweep(scenario, runner, trials, cache=None):
    started = time.perf_counter()
    sweep = run_validation(scenario, runner, seed=0, trials=trials,
                           workers=1, cache=cache)
    return sweep, time.perf_counter() - started


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

    with tempfile.TemporaryDirectory(prefix="repro-bench-cache-") as root:
        cold, cold_s = run_sweep(scenario, runner, trials, cache=root)
        warm_cache = Pipeline(root)
        warm, warm_s = run_sweep(scenario, runner, trials, cache=warm_cache)
        plain, plain_s = run_sweep(scenario, runner, trials)

    print(f"  cold:     {cold_s:6.2f}s  ({cold.cache_misses} computed)")
    print(f"  warm:     {warm_s:6.2f}s  ({warm.cache_hits} hits, "
          f"{warm.cache_misses} recomputed)")
    print(f"  uncached: {plain_s:6.2f}s")
    speedup = cold_s / max(warm_s, 1e-9)
    print(f"  warm speedup: {speedup:.1f}x")

    assert warm.cache_misses == 0, \
        f"warm rerun recomputed {warm.cache_misses} stage(s)"
    assert warm.cache_hits == cold.cache_misses
    assert speedup >= MIN_SPEEDUP, \
        f"warm speedup {speedup:.1f}x below {MIN_SPEEDUP}x"
    tables = {label: sweep.render()
              for label, sweep in (("cold", cold), ("warm", warm),
                                   ("uncached", plain))}
    assert tables["cold"] == tables["warm"] == tables["uncached"], \
        "cache changed the rendered table"
    print("  tables byte-identical (cold == warm == uncached)")
    # Counted after rendering: a hit is decoded when first read.
    decoded = dict(sorted(warm_cache.decoded.items()))
    print(f"  warm decoded: {sum(decoded.values())} artifact(s) {decoded}")
    assert not decoded.get("distill"), \
        f"warm rerun decoded {decoded['distill']} distillation(s)"

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
        "tables_identical": True,
    }, indent=1), encoding="utf-8")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
