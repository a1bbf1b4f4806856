"""Compare two sets of bench_e2e results, metric by metric.

Usage (from the repository root)::

    python3 benchmarks/e2e/compare.py A.json [A2.json ...] -- B.json [...]

``A`` is the parent, ``B`` the change.  For every (workload, end-to-end
metric) it prints each side's median and quartiles, the fraction of
pairs B won, and a verdict against the metric's bound in
``BENCHMARK.json``:

* ``better``: B won at least 9 of 10 pairs, over at least ten pairs,
  and the medians differ by more than A's quartile spread;
* ``worse``: B's median is worse than A's by more than the bound;
* ``unresolved``: the spread of either side is wider than the bound,
  and not every B run beats every A run;
* ``within``: none of the above.

Runs pair up by seed.  Results whose host stamps differ are refused
unless ``--force`` is given.  The exit code is 1 if any verdict is
``worse``, 2 if the hosts differ.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parents[2]
HOST_KEYS = ("nproc", "cpu_count", "affinity", "python", "numpy",
             "platform")


def load(paths: List[str]) -> Tuple[List[dict], List[dict]]:
    """(runs, host stamps) of every result file; smoke runs dropped."""
    runs, hosts = [], []
    for path in paths:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
        hosts.append({key: doc["host"].get(key) for key in HOST_KEYS})
        runs.extend(r for r in doc["runs"] if not r["smoke"])
    return runs, hosts


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread_text(q: Tuple[float, float, float]) -> str:
    return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"


def by_seed(runs: List[dict], workload: str, metric: str) -> Dict[int, float]:
    return {r["seed"]: r["metrics"][metric] for r in runs
            if r["workload"] == workload and metric in r["metrics"]}


def verdict(a: Dict[int, float], b: Dict[int, float], bound: float,
            lower: bool) -> Tuple[str, float, int]:
    """(verdict, fraction of pairs B won, pairs)."""
    def beats(x: float, y: float) -> bool:
        return x < y if lower else x > y

    seeds = sorted(set(a) & set(b))
    pairs = ([(a[s], b[s]) for s in seeds] if seeds
             else list(zip(a.values(), b.values())))
    won = sum(beats(vb, va) for va, vb in pairs) / len(pairs)
    a_q1, a_med, a_q3 = quartiles(list(a.values()))
    b_q1, b_med, b_q3 = quartiles(list(b.values()))
    spread = max((a_q3 - a_q1) / a_med, (b_q3 - b_q1) / b_med)
    worse_by = (b_med - a_med) / a_med * (1 if lower else -1)
    if (len(pairs) >= 10 and won >= 0.9 and beats(b_med, a_med)
            and abs(b_med - a_med) > a_q3 - a_q1):
        return "better", won, len(pairs)
    if worse_by > bound:
        return "worse", won, len(pairs)
    if spread > bound and not all(beats(vb, va) for vb in b.values()
                                  for va in a.values()):
        return "unresolved", won, len(pairs)
    return "within", won, len(pairs)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if "--" not in argv:
        print(__doc__, file=sys.stderr)
        return 2
    split = argv.index("--")
    parser = argparse.ArgumentParser(description="Compare bench_e2e results.")
    parser.add_argument("files", nargs="+")
    parser.add_argument("--force", action="store_true",
                        help="compare even if the host stamps differ")
    left = parser.parse_args(argv[:split])
    right = parser.parse_args(argv[split + 1:])
    runs_a, hosts_a = load(left.files)
    runs_b, hosts_b = load(right.files)
    hosts = hosts_a + hosts_b
    if any(h != hosts[0] for h in hosts) and not (left.force or right.force):
        print("compare: host stamps differ; pass --force to compare anyway",
              file=sys.stderr)
        for path, host in zip(left.files + right.files, hosts):
            print(f"  {path}: {host}", file=sys.stderr)
        return 2
    catalog = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    workloads = [w["name"] for w in catalog["workloads"]]
    print(f"{'workload':11s} {'metric':12s} {'A median [q1, q3]':28s} "
          f"{'B median [q1, q3]':28s} {'change':>7s}  won      verdict")
    worse = False
    for workload in workloads:
        for spec in catalog["end_to_end"]:
            name = spec["name"]
            a = by_seed(runs_a, workload, name)
            b = by_seed(runs_b, workload, name)
            if not a or not b:
                continue
            result, won, pairs = verdict(a, b, spec["bound"],
                                         spec["better"] == "lower")
            worse |= result == "worse"
            qa, qb = quartiles(list(a.values())), quartiles(list(b.values()))
            print(f"{workload:11s} {name:12s} {spread_text(qa):28s} "
                  f"{spread_text(qb):28s} {(qb[1] - qa[1]) / qa[1]:+7.1%}  "
                  f"{won:4.0%}/{pairs:<3d} {result} "
                  f"(bound {spec['bound']:.0%})")
    tables_a = {(r["workload"], r["seed"]): r.get("tables") for r in runs_a}
    changed = sorted({(r["workload"], r["seed"]) for r in runs_b
                      if tables_a.get((r["workload"], r["seed"]),
                                      r.get("tables")) != r.get("tables")})
    if changed:
        print("tables differ between A and B for: "
              + ", ".join(f"{w}@{s}" for w, s in changed))
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
