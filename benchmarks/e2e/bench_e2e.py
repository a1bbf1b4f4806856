"""bench_e2e: time reproducing the paper, end to end and layer by layer.

Usage (from the repository root)::

    python3 benchmarks/e2e/bench_e2e.py                      # all workloads
    python3 benchmarks/e2e/bench_e2e.py --workload paper --seed 3
    python3 benchmarks/e2e/bench_e2e.py --workload ftp_serial --trace 1
    python3 benchmarks/e2e/bench_e2e.py --repeat 10 --seed 100 \
        --out benchmarks/e2e/results/set_a.json
    python3 benchmarks/e2e/bench_e2e.py --smoke               # toy sizes

Each run of a workload happens in fresh ``python`` subprocesses
(``run_workload.py``), one after another:

* ``--trace 0``: a few set-up-only processes, then one process that runs
  passes of the workload for ``--seconds``.  Reports the end-to-end
  metrics of ``BENCHMARK.json``.
* ``--trace 1``: one untraced and one traced process, ``--seconds / 2``
  each.  Reports the per-layer metrics; ``trace.overhead`` compares the
  two.
* no ``--trace``: both, ``--seconds`` each.

Every metric is printed by name with its unit; the last line of stdout
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
Results, with a host stamp, go to ``--out``.  The exit code is 1 if any
correctness check failed, 2 if the repository is not there to run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
WORKLOADS = ("paper", "ftp_serial", "nfs_serial", "mc_cache")
SETUP_PROBES = 2          # set-up-only processes per run, plus the run's own
RUN_DEADLINE_S = 170.0    # a run's subprocesses are killed after this
DEFAULT_SECONDS = 15.0
# Tables two workloads must agree on byte for byte when they ran the
# same seed: a parallel (and for mc_cache cached) sweep against its
# serial twin.
CROSS_CHECKS = (("paper", "nfs_serial", "fig8_andrew"),
                ("mc_cache", "ftp_serial", "ftp2"))
# Workload seeds on which every workload completes.  On seeds 12 and 13
# one modulated 10 MB FTP receive of the paper workload (Flagstaff trial
# 0, Chatterbox trial 1) runs past the harness's 2400 s simulated-time
# cap and raises, which would fail every run on them.  ``--seed n`` runs
# input seed ``INPUT_SEEDS[n % len(INPUT_SEEDS)]``.
INPUT_SEEDS = tuple(s for s in range(20) if s not in (12, 13))


class RunFailed(Exception):
    """A subprocess of a run crashed or timed out."""


def tail_percentile(values: List[float], p: float) -> float:
    """The ``p``-th percentile (linear interpolation, as
    ``repro.analysis.stats.percentile``), allowed only when at least ten
    samples lie beyond it.  This process does not import ``repro``, so
    that a checkout without a working package still gets a clean exit
    code."""
    n = len(values)
    if n * (100.0 - p) / 100.0 < 10.0:
        raise ValueError(f"p{p:g} of {n} samples has fewer than ten "
                         f"samples beyond it")
    ordered = sorted(values)
    rank = p / 100.0 * (n - 1)
    lo = int(rank)
    hi = min(lo + 1, n - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def load_catalog() -> Dict[str, Dict[str, dict]]:
    """``{"end_to_end": {name: spec}, "per_layer": {name: spec}}``."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {kind: {m["name"]: m for m in doc[kind]}
            for kind in ("end_to_end", "per_layer")}


def host_stamp() -> dict:
    affinity = sorted(os.sched_getaffinity(0))
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    sha = dirty = None
    if (ROOT / ".git").exists():
        def git(*cmd):
            return subprocess.run(["git", *cmd], cwd=ROOT, text=True,
                                  capture_output=True, timeout=30).stdout
        sha = git("rev-parse", "HEAD").strip() or None
        dirty = bool(git("status", "--porcelain").strip())
    return {"nproc": len(affinity), "cpu_count": os.cpu_count(),
            "affinity": affinity, "python": platform.python_version(),
            "numpy": numpy_version, "platform": platform.platform(),
            "git_sha": sha, "git_dirty": dirty}


class Runner:
    """Starts the subprocesses of one run and waits for them."""

    def __init__(self, work: Path, smoke: bool, deadline: float):
        self.work = work
        self.smoke = smoke
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH"))
            if p)
        # Scheduler IPC directories are temp dirs: keep them in the
        # checkout.
        self.env["TMPDIR"] = str(work / "tmp")
        (work / "tmp").mkdir(parents=True, exist_ok=True)
        self._n = 0

    def child(self, mode: str, workload: str, seed: int,
              seconds: float = 0.0, traced: bool = False) -> dict:
        self._n += 1
        out = self.work / f"child-{self._n}.json"
        cmd = [sys.executable, str(HERE / "run_workload.py"), "--mode", mode,
               "--workload", workload, "--seed", str(seed),
               "--seconds", repr(seconds), "--work", str(self.work),
               "--out", str(out)]
        if traced:
            cmd.append("--traced")
        if self.smoke:
            cmd.append("--smoke")
        spawned = time.time()
        # A session of its own, so a timeout kills the pool workers too.
        proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env,
                                stdout=sys.stderr, start_new_session=True)
        try:
            code = proc.wait(timeout=max(1.0, self.deadline - time.time()))
        except subprocess.TimeoutExpired:
            code = None
        finally:
            if proc.returncode is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        if code != 0 or not out.exists():
            raise RunFailed(f"{mode} {workload}: "
                            + ("timed out" if code is None
                               else f"exit code {code}"))
        result = json.loads(out.read_text(encoding="utf-8"))
        result["setup_s"] = result["ready_at"] - spawned
        return result


def pass_medians(passes: List[dict], part: str = "layer"
                 ) -> Dict[str, float]:
    """Per-key medians of one part of every pass record."""
    return {key: statistics.median(p[part][key] for p in passes)
            for key in passes[0][part]}


def run_one(workload: str, seed: int, trace: Optional[int], seconds: float,
            smoke: bool, work: Path) -> dict:
    """One run: its metrics, checks, and what the subprocesses reported."""
    input_seed = INPUT_SEEDS[seed % len(INPUT_SEEDS)]
    run = {"workload": workload, "seed": seed, "input_seed": input_seed,
           "trace": trace,
           "smoke": smoke, "load_before": list(os.getloadavg()),
           "metrics": {}, "checks": [], "attempted": 0, "failed": 0}
    runner = Runner(work, smoke, time.time() + RUN_DEADLINE_S)

    def check(name: str, ok: bool, detail: str = "") -> None:
        run["checks"].append({"name": name, "ok": bool(ok),
                              "detail": detail})

    def absorb(result: dict, label: str) -> None:
        passes = result["passes"]
        run["attempted"] += sum(p["attempted"] for p in passes)
        run["failed"] += sum(p["failed"] for p in passes)
        for p in passes:
            for error in p["errors"]:
                check(f"{label}: operation", False, error)
        for i, p in enumerate(passes[1:], 2):
            check(f"{label}: pass {i} tables == pass 1",
                  p["digest"] == passes[0]["digest"])

    try:
        plain = None
        if trace in (None, 0):
            setups = [runner.child("setup", workload, input_seed)
                      for _ in range(SETUP_PROBES)]
            plain = runner.child("run", workload, input_seed, seconds)
            absorb(plain, "untraced")
            setups.append(plain)
            passes = plain["passes"]
            run["metrics"].update({
                "setup_s": statistics.median(s["setup_s"] * s["speed"]
                                             for s in setups),
                "wall_s": statistics.median(p["wall_s"] * p["speed"]
                                            for p in passes),
                "cpu_s": statistics.median(p["cpu_s"] * p["speed"]
                                           for p in passes),
                "peak_rss_mb": plain["peak_rss_kb"] / 1024.0,
            })
            run["raw"] = {"setup_s": statistics.median(s["setup_s"]
                                                       for s in setups)}
        if trace in (None, 1):
            budget = seconds if trace is None else seconds / 2
            if plain is None:
                plain = runner.child("run", workload, input_seed, budget)
                absorb(plain, "untraced")
            traced = runner.child("run", workload, input_seed, budget,
                                  traced=True)
            absorb(traced, "traced")
            check("traced tables == untraced tables",
                  traced["passes"][0]["digest"] == plain["passes"][0]["digest"])
            layer = pass_medians(traced["passes"])
            layer.update(traced["fidelity"])
            untraced_wall = statistics.median(
                p["wall_s"] for p in plain["passes"])
            traced_wall = statistics.median(
                p["wall_s"] for p in traced["passes"])
            layer["trace.overhead"] = traced_wall / untraced_wall - 1.0
            layer.update(pass_medians(plain["passes"], "cache"))
            reruns = [ms for p in plain["passes"] for ms in p["reruns_ms"]]
            cold_ms = 1e3 * statistics.median(
                p["sweep_s"].get("ftp2", 0.0) for p in plain["passes"])
            for pct in (50, 90):
                layer[f"cache.rerun_p{pct}_over_cold"] = (
                    tail_percentile(reruns, pct) / cold_ms if reruns else 0.0)
            run["metrics"].update(layer)
        run["workers"] = plain["workers"]
        run["passes"] = len(plain["passes"])
        run.setdefault("raw", {}).update(
            {key: statistics.median(p[key] for p in plain["passes"])
             for key in ("wall_s", "cpu_s", "speed")})
        run["tables"] = plain["tables"]
        run["claims"] = plain["claims"]
        run["fidelity"] = plain["fidelity"]
        run["sweep_s"] = pass_medians(plain["passes"], "sweep_s")
        run["reruns_ms"] = [ms for p in plain["passes"]
                            for ms in p["reruns_ms"]]
    except (RunFailed, ValueError, KeyError) as exc:
        check("run completed", False, f"{type(exc).__name__}: {exc}")
    run["load_after"] = list(os.getloadavg())
    return run


def expected_names(catalog: dict, trace: Optional[int]) -> set:
    kinds = {None: ("end_to_end", "per_layer"), 0: ("end_to_end",),
             1: ("per_layer",)}[trace]
    return {name for kind in kinds for name in catalog[kind]}


def unit_of(catalog: dict, name: str) -> str:
    spec = catalog["end_to_end"].get(name) or catalog["per_layer"][name]
    return spec["unit"]


def report(run: dict, catalog: dict) -> None:
    """Human-readable lines for one run (stdout, before the JSON)."""
    print(f"== {run['workload']} seed={run['seed']} "
          f"workers={run.get('workers')} passes={run.get('passes')} "
          f"reruns={len(run.get('reruns_ms', ()))}"
          f"{' smoke' if run['smoke'] else ''}")
    for name, value in run["metrics"].items():
        print(f"  {name:34s} {value:14.6g} {unit_of(catalog, name)}")
    for key, value in run.get("raw", {}).items():
        print(f"  raw {key:30s} {value:14.6g} {'' if key == 'speed' else 's'}")
    reruns = run.get("reruns_ms", ())
    if len(reruns) >= 100:
        for pct in (50, 90):
            print(f"  raw rerun_p{pct}_ms {'':21s} "
                  f"{tail_percentile(reruns, pct):14.6g} ms")
    for name, value in run.get("sweep_s", {}).items():
        print(f"  sweep {name:40s} {value:10.4g} s")
    for name, value in run.get("claims", {}).items():
        print(f"  claim {name:40s} {value:10.4g}")
    failed = [c for c in run["checks"] if not c["ok"]]
    print(f"  checks: {len(run['checks']) - len(failed)}/"
          f"{len(run['checks'])} ok")
    for c in failed:
        print(f"  FAILED {c['name']}: {c['detail']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark of reproducing the paper.")
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="wall time one run spends on passes")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: end-to-end metrics only; 1: per-layer "
                             "only (default: both)")
    parser.add_argument("--repeat", type=int, default=1,
                        help="run seeds seed .. seed+repeat-1")
    parser.add_argument("--smoke", action="store_true",
                        help="toy sizes, one pass per run")
    parser.add_argument("--out", type=Path,
                        default=HERE / "results" / "BENCH_e2e.json")
    args = parser.parse_args(argv)
    # On SIGTERM unwind through Runner.child, which kills the workers.
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "repro" / "__init__.py").is_file() \
            or not (ROOT / "BENCHMARK.json").is_file():
        print(f"bench_e2e: {ROOT} lacks src/repro or BENCHMARK.json",
              file=sys.stderr)
        return 2
    catalog = load_catalog()
    seconds = 0.0 if args.smoke else args.seconds
    workloads = (args.workload,) if args.workload else WORKLOADS
    host = host_stamp()
    print(f"host: nproc={host['nproc']} cpu_count={host['cpu_count']} "
          f"python={host['python']} numpy={host['numpy']} "
          f"sha={host['git_sha']} dirty={host['git_dirty']}")

    work = HERE / ".work" / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    runs: List[dict] = []
    try:
        for seed in range(args.seed, args.seed + args.repeat):
            by_workload = {}
            for workload in workloads:
                run = run_one(workload, seed, args.trace, seconds,
                              args.smoke, work)
                names = set(run["metrics"])
                if run["failed"] == 0 and all(c["ok"] for c in run["checks"]):
                    missing = expected_names(catalog, args.trace) ^ names
                    run["checks"].append({
                        "name": "metric names == BENCHMARK.json",
                        "ok": not missing,
                        "detail": ", ".join(sorted(missing))})
                by_workload[workload] = run
                runs.append(run)
            for a, b, table in CROSS_CHECKS:
                if a in by_workload and b in by_workload:
                    ta = by_workload[a].get("tables", {}).get(table)
                    tb = by_workload[b].get("tables", {}).get(table)
                    by_workload[b]["checks"].append({
                        "name": f"{a} {table} == {b} {table}",
                        "ok": ta is not None and ta == tb, "detail": ""})
            for workload in workloads:
                report(by_workload[workload], catalog)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()  # only when no other run is using it
        except OSError:
            pass

    checks = [c for run in runs for c in run["checks"]]
    attempted = sum(run["attempted"] for run in runs) + len(checks)
    failed = (sum(run["failed"] for run in runs)
              + sum(not c["ok"] for c in checks))
    correct = failed == 0
    single = len(runs) == 1
    metrics = {}
    for run in runs:
        for name, value in run["metrics"].items():
            key = name if single else f"{run['workload']}@{run['seed']}:{name}"
            metrics[key] = {"value": value, "unit": unit_of(catalog, name)}
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps({
        "schema": "bench_e2e/1", "host": host,
        "args": {"workload": args.workload, "seed": args.seed,
                 "seconds": seconds, "trace": args.trace,
                 "repeat": args.repeat, "smoke": args.smoke},
        "correct": correct, "runs": runs}, indent=1) + "\n",
        encoding="utf-8")
    print(f"results: {args.out}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
