"""Measure the constants of the speed correction in ``run_workload.py``.

Repeats one fixed serial sweep (FTP, 512 KB, the four scenarios, two
trials) with :func:`run_workload.reference_kernel` timed after every
trial, as a benchmark pass does, then prints

* the slope of log sweep time on log mean kernel time over the repeats:
  ``SENSITIVITY``, which needs minutes of a host whose speed varies;
* the fastest mean kernel time seen: ``REF_KERNEL_S`` when the host is
  idle.

Usage, from the repository root::

    python3 benchmarks/e2e/calibrate.py --minutes 7
"""

from __future__ import annotations

import argparse
import math
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

from run_workload import SpeedProbe  # noqa: E402

from repro.scenarios import ALL_SCENARIOS  # noqa: E402
from repro.validation import (FtpRunner, TrialExecutor,  # noqa: E402
                              compensation_vb, run_validation)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--minutes", type=float, default=7.0)
    args = parser.parse_args(argv)
    compensation_vb()
    runner = FtpRunner(nbytes=512 * 1024)
    points = []
    end = time.time() + 60.0 * args.minutes
    while time.time() < end or len(points) < 3:
        probe = SpeedProbe()
        t0 = time.perf_counter()
        with TrialExecutor(workers=1) as executor:
            executor.progress = probe
            run_validation(ALL_SCENARIOS, runner, seed=3, trials=2,
                           baseline=True, executor=executor)
        sweep = time.perf_counter() - t0 - probe.inside
        kernel = statistics.fmean(probe.samples)
        points.append((math.log(kernel), math.log(sweep)))
        print(f"sweep {sweep:8.3f} s  kernel {kernel * 1e3:7.3f} ms",
              flush=True)
    xs, ys = zip(*points)
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    syy = sum((y - my) ** 2 for y in ys)
    print(f"repeats {len(points)}")
    print(f"SENSITIVITY  {sxy / sxx:.3f}  (r = {sxy / math.sqrt(sxx * syy):.3f})")
    print(f"REF_KERNEL_S {math.exp(min(xs)):.4f}  (fastest mean kernel time)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
