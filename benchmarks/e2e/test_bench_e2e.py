"""Tests of the end-to-end benchmark itself.

Run with ``python -m pytest benchmarks/e2e -q`` from the repository
root.  The last test runs the whole benchmark at toy sizes.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import bench_e2e  # noqa: E402
import layers  # noqa: E402


def repro_modules():
    src = ROOT / "src"
    for path in (src / "repro").rglob("*.py"):
        parts = path.relative_to(src).with_suffix("").parts
        yield ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def test_every_module_maps_to_one_layer():
    listed = [m for modules in layers.LAYERS.values() for m in modules]
    twice = {m for m in listed if listed.count(m) > 1}
    assert not twice, f"modules in more than one layer: {sorted(twice)}"
    modules = set(repro_modules())
    assert not modules - set(listed), \
        f"modules in no layer: {sorted(modules - set(listed))}"
    assert not set(listed) - modules, \
        f"layer table names missing modules: {sorted(set(listed) - modules)}"


def frame(module, code=None, back=None):
    """A stand-in for a Python frame object."""
    return SimpleNamespace(f_globals={"__name__": module},
                           f_code=code or object(), f_back=back)


def test_sampler_attributes_synthetic_stack():
    from repro.validation import harness

    sampler = layers.StackSampler(
        layers.Attributor(layers.module_layers(), layers.stage_codes()))
    bench = frame("__main__")
    live = frame("repro.validation.harness", harness.run_live_trial.__code__,
                 bench)
    tcp = frame("repro.protocols.tcp", back=live)
    # A stdlib frame is charged to the repro code that called it.
    sampler.add(frame("heapq", back=tcp), 0.002)
    # Blocking under the runtime is runtime wait, not self time.
    sampler.add(frame("threading",
                      back=frame("repro.runtime.scheduler", back=bench)),
                0.003)
    # No repro frame at all: sampled but not attributed.
    sampler.add(bench, 0.001)
    assert sampler.self_s["tcp"] == 0.002
    assert sampler.wait_s["runtime"] == 0.003
    assert sampler.self_s["runtime"] == 0.0
    assert sampler.total_s == pytest.approx(0.006)
    assert sampler.attributed_s == pytest.approx(0.005)
    assert sampler.stage_s["live"] == 0.002
    assert sampler.stage_calls["live"] == 1
    # The same call sampled again is not a new call; a new frame is.
    sampler.add(tcp, 0.001)
    assert sampler.stage_calls["live"] == 1
    again = frame("repro.validation.harness",
                  harness.run_live_trial.__code__, bench)
    sampler.add(frame("repro.net.packet", back=again), 0.001)
    assert sampler.stage_calls["live"] == 2
    assert sampler.self_s["packet"] == 0.001


def test_tail_percentile_needs_ten_samples_beyond():
    values = [float(v) for v in range(100)]
    assert bench_e2e.tail_percentile(values, 90) == pytest.approx(89.1)
    assert bench_e2e.tail_percentile(values[:20], 50) == pytest.approx(9.5)
    with pytest.raises(ValueError):
        bench_e2e.tail_percentile(values[:99], 90)
    with pytest.raises(ValueError):
        bench_e2e.tail_percentile(values[:19], 50)


def test_smoke_runs_every_workload_with_the_catalog_names(tmp_path):
    out = tmp_path / "smoke.json"
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "bench_e2e.py"), "--smoke",
         "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    elapsed = time.monotonic() - started
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    assert elapsed < 60
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    assert summary["correct"] and summary["failed"] == 0
    catalog = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    names = {m["name"] for kind in ("end_to_end", "per_layer")
             for m in catalog[kind]}
    runs = json.loads(out.read_text("utf-8"))["runs"]
    assert [r["workload"] for r in runs] == list(bench_e2e.WORKLOADS)
    assert [w["name"] for w in catalog["workloads"]] == \
        list(bench_e2e.WORKLOADS)
    for run in runs:
        assert set(run["metrics"]) == names, run["workload"]
    by_name = {r["workload"]: r for r in runs}
    for serial in ("ftp_serial", "nfs_serial"):
        assert by_name[serial]["metrics"]["trace.coverage"] >= 0.95
