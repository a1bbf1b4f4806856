"""Shared benchmark helpers.

Every benchmark regenerates one of the paper's tables or figures,
prints it, and writes it under ``benchmarks/output/`` so the artifacts
survive the run.  ``pytest-benchmark`` timings measure the full
experiment (simulation included); each experiment runs once
(``rounds=1``) because a run already aggregates four trials internally,
exactly like the paper's protocol.
"""

from __future__ import annotations

import os

OUTPUT_DIR = os.path.join(os.path.dirname(__file__), "output")

TRIALS = 4
SEED = 0
# Validation sweeps fan trials out over worker processes; results are
# bit-identical for any worker count (see docs/PERFORMANCE.md), so this
# only changes wall-clock time.  Override with REPRO_BENCH_WORKERS=1 to
# force serial runs.
WORKERS = int(os.environ.get("REPRO_BENCH_WORKERS",
                             min(4, os.cpu_count() or 1)))


def emit(name: str, text: str) -> None:
    """Print a rendered figure and persist it to benchmarks/output/."""
    os.makedirs(OUTPUT_DIR, exist_ok=True)
    path = os.path.join(OUTPUT_DIR, f"{name}.txt")
    with open(path, "w", encoding="utf-8") as f:
        f.write(text + "\n")
    print(f"\n{text}\n[written to {path}]")


def once(benchmark, fn):
    """Run ``fn`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)
