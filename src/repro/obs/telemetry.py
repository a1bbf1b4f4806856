"""Sweep-scope telemetry: where the *orchestration tier* spends time.

:mod:`repro.obs` instruments one world at a time — per-trial metrics,
packet-lifecycle spans, the modulation audit.  Since the sweep became a
multi-process pipeline (warm worker pool, envelope transport, artifact
cache) the interesting time is spent *between* worlds: queue wait,
codec encode, store writes, replay resolution, stragglers.  This module
makes that layer observable, end to end:

* **Stage spans** — workers record ``(stage, label, pid, ts, dur)``
  spans around every orchestration stage (``queue``, ``collect`` /
  ``distill`` / ``live`` / ``modulated`` / ``ethernet`` trial bodies,
  ``encode``, ``store_write``, ``replay_resolve``, ``chunk``) using
  :func:`time.perf_counter_ns` for durations and :func:`time.time_ns`
  for cross-process placement.  Spans travel back to the parent as one
  compact codec frame per job and merge into a
  :class:`SweepTelemetry` timeline.
* **Chrome-trace timeline** — :meth:`SweepTelemetry.to_chrome_trace`
  renders the merged spans with **one process track per worker pid**
  (plus the parent), so stragglers, queue wait and pool utilization
  read off a single flamegraph.
* **Run ledger** — :class:`RunLedger` appends one structured JSONL
  manifest per sweep/bench invocation (:func:`sweep_ledger_record`),
  making the perf trajectory machine-readable across revisions.
* **Live progress** — :class:`SweepProgress` renders per-sweep trial
  completion, cache hits and an ETA; single rewritten line on a TTY,
  plain throttled lines otherwise.
* **Profiling** — helpers for ``ObsConfig(profile=True)``: per-trial
  cProfile extraction (:func:`profile_rows`), cross-trial aggregation
  (:func:`aggregate_profiles`) and a rendered top-N table.
* **Unified registry** — :func:`sweep_registry` folds world counters,
  engine stats, pipeline hit/miss and transport counters into one
  :class:`~repro.obs.registry.MetricsRegistry`, whose
  ``render_prometheus()`` is the future daemon's ``/metrics``.

Zero-cost contract: with telemetry off, the only instrumentation cost
is a :func:`span_begin` call returning ``None`` (one global load and a
``None`` test) at a handful of per-trial — never per-packet — call
sites.  Telemetry reads wall clocks only; it draws no RNG, schedules no
events and touches no packet, so validation tables are byte-identical
with it on or off.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from .registry import MetricsRegistry
from .sinks import _json_safe, chrome_trace

__all__ = [
    "SPAN_SCHEMA",
    "LEDGER_SCHEMA",
    "SweepTelemetry",
    "RunLedger",
    "SweepProgress",
    "capture_begin",
    "capture_end",
    "capture_active",
    "span_begin",
    "span_end",
    "record_point",
    "pack_spans",
    "unpack_spans",
    "merged_chrome_trace",
    "profile_rows",
    "aggregate_profiles",
    "render_profile_table",
    "engine_rollup",
    "fold_fleet",
    "fold_peak_rss",
    "fold_records",
    "peak_rss_mb",
    "sweep_registry",
    "sweep_ledger_record",
    "table_digest",
]

SPAN_SCHEMA = 1
LEDGER_SCHEMA = 1

# Fields every span carries; extra keys are free-form metadata.
_SPAN_CORE = ("stage", "label", "pid", "ts", "dur")


# ======================================================================
# Worker-side span capture (module-global so sealed helpers deep in the
# worker call stack can record without threading a handle through)
# ======================================================================
_CAPTURE: Optional[List[Dict[str, Any]]] = None
_SWEEP_ID = ""


def capture_begin(sweep_id: str = "") -> None:
    """Start buffering spans in this process (worker chunk entry)."""
    global _CAPTURE, _SWEEP_ID
    _CAPTURE = []
    _SWEEP_ID = sweep_id


def capture_active() -> bool:
    return _CAPTURE is not None


def capture_end() -> List[Dict[str, Any]]:
    """Stop buffering; returns (and clears) the captured spans."""
    global _CAPTURE
    spans = _CAPTURE or []
    _CAPTURE = None
    return spans


def span_begin() -> Optional[Tuple[int, int]]:
    """A span token ``(time_ns, perf_counter_ns)`` — or ``None`` when
    capture is off.  This is the *entire* disabled-path cost of an
    instrumentation point: one global load and a ``None`` test at the
    caller."""
    if _CAPTURE is None:
        return None
    return (time.time_ns(), time.perf_counter_ns())


def span_end(token: Optional[Tuple[int, int]], stage: str,
             label: str = "", **meta: Any) -> None:
    """Close a span started by :func:`span_begin` (no-op on ``None``)."""
    if token is None or _CAPTURE is None:
        return
    ts, p0 = token
    span: Dict[str, Any] = {
        "stage": stage,
        "label": label,
        "pid": os.getpid(),
        "ts": ts,
        "dur": time.perf_counter_ns() - p0,
    }
    if meta:
        span.update(meta)
    _CAPTURE.append(span)


def record_point(stage: str, label: str = "", ts: Optional[int] = None,
                 dur: int = 0, **meta: Any) -> None:
    """Record a span with explicit timing (queue wait, instants)."""
    if _CAPTURE is None:
        return
    span: Dict[str, Any] = {
        "stage": stage,
        "label": label,
        "pid": os.getpid(),
        "ts": time.time_ns() if ts is None else ts,
        "dur": max(0, dur),
    }
    if meta:
        span.update(meta)
    _CAPTURE.append(span)


# ======================================================================
# Wire form: spans cross the pool pipe as one compact codec frame
# ======================================================================
def pack_spans(spans: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """Columnar form for the codec: one shared key list, one row per
    span — repeated dict keys never cross the pipe."""
    keys: List[str] = list(_SPAN_CORE)
    seen = set(keys)
    for span in spans:
        for key in span:
            if key not in seen:
                seen.add(key)
                keys.append(key)
    return {
        "v": SPAN_SCHEMA,
        "keys": keys,
        "rows": [[span.get(key) for key in keys] for span in spans],
    }


def unpack_spans(doc: Dict[str, Any]) -> List[Dict[str, Any]]:
    """Inverse of :func:`pack_spans` (unknown schema → empty list)."""
    if not isinstance(doc, dict) or doc.get("v") != SPAN_SCHEMA:
        return []
    keys = doc["keys"]
    return [{key: value for key, value in zip(keys, row) if value is not None
             or key in ("label",)}
            for row in doc["rows"]]


# ======================================================================
# The parent-side merged timeline
# ======================================================================
class SweepTelemetry:
    """One sweep's merged cross-process stage-span timeline."""

    def __init__(self, sweep_id: Optional[str] = None):
        self.sweep_id = sweep_id or (
            f"sweep-{os.getpid()}-{time.time_ns():x}")
        self.parent_pid = os.getpid()
        self.spans: List[Dict[str, Any]] = []
        self._lock = threading.Lock()

    # -- recording (parent side) ---------------------------------------
    def begin(self) -> Tuple[int, int]:
        return (time.time_ns(), time.perf_counter_ns())

    def end(self, token: Tuple[int, int], stage: str, label: str = "",
            **meta: Any) -> None:
        ts, p0 = token
        span: Dict[str, Any] = {
            "stage": stage, "label": label, "pid": os.getpid(),
            "ts": ts, "dur": time.perf_counter_ns() - p0,
        }
        if meta:
            span.update(meta)
        with self._lock:
            self.spans.append(span)

    def point(self, stage: str, label: str = "", dur: int = 0,
              **meta: Any) -> None:
        span: Dict[str, Any] = {
            "stage": stage, "label": label, "pid": os.getpid(),
            "ts": time.time_ns(), "dur": max(0, dur),
        }
        if meta:
            span.update(meta)
        with self._lock:
            self.spans.append(span)

    def extend(self, spans: Iterable[Dict[str, Any]]) -> None:
        """Merge a batch of worker spans into the timeline."""
        with self._lock:
            self.spans.extend(spans)

    # -- analysis ------------------------------------------------------
    def worker_pids(self) -> List[int]:
        return sorted({s["pid"] for s in self.spans
                       if s["pid"] != self.parent_pid})

    def stage_totals(self) -> Dict[str, Dict[str, Any]]:
        """Per-stage count and total wall seconds across all processes."""
        out: Dict[str, Dict[str, Any]] = {}
        for span in self.spans:
            entry = out.setdefault(span["stage"],
                                   {"count": 0, "wall_s": 0.0})
            entry["count"] += 1
            entry["wall_s"] += span["dur"] / 1e9
        for entry in out.values():
            entry["wall_s"] = round(entry["wall_s"], 6)
        return dict(sorted(out.items()))

    def utilization(self) -> Dict[str, Any]:
        """Pool utilization: per-worker busy time (chunk spans) over the
        sweep's wall span.  1.0 means every worker was busy the whole
        time; low numbers expose stragglers and queue stalls."""
        if not self.spans:
            return {"wall_s": 0.0, "workers": {}, "utilization": None}
        t_lo = min(s["ts"] for s in self.spans)
        t_hi = max(s["ts"] + s["dur"] for s in self.spans)
        wall = max(t_hi - t_lo, 1) / 1e9
        busy: Dict[int, float] = {}
        for span in self.spans:
            if span["pid"] == self.parent_pid or span["stage"] != "chunk":
                continue
            busy[span["pid"]] = busy.get(span["pid"], 0.0) \
                + span["dur"] / 1e9
        util = None
        if busy:
            util = round(sum(busy.values()) / (wall * len(busy)), 4)
        return {
            "wall_s": round(wall, 6),
            "workers": {str(pid): round(s, 6)
                        for pid, s in sorted(busy.items())},
            "utilization": util,
        }

    def summary(self) -> Dict[str, Any]:
        """JSON-friendly rollup (ledger / ``--json`` payload)."""
        return {
            "sweep_id": self.sweep_id,
            "spans": len(self.spans),
            "worker_pids": self.worker_pids(),
            "stage_totals": self.stage_totals(),
            "utilization": self.utilization(),
        }

    # -- rendering -----------------------------------------------------
    def to_chrome_trace(self) -> Dict[str, Any]:
        """The merged timeline as a Chrome trace-event document: one
        process per pid (named ``parent``/``worker``), complete ("X")
        events in relative microseconds."""
        events: List[Dict[str, Any]] = []
        if not self.spans:
            return {"traceEvents": events, "displayTimeUnit": "ms"}
        t0 = min(s["ts"] for s in self.spans)
        named: set = set()
        for span in sorted(self.spans, key=lambda s: (s["pid"], s["ts"])):
            pid = span["pid"]
            if pid not in named:
                named.add(pid)
                role = "parent" if pid == self.parent_pid else "worker"
                events.append({"name": "process_name", "ph": "M", "ts": 0,
                               "pid": pid, "tid": 1,
                               "args": {"name": f"{role} pid {pid}"}})
            args = {k: _json_safe(v) for k, v in span.items()
                    if k not in ("stage", "pid", "ts", "dur")}
            args["sweep"] = self.sweep_id
            events.append({
                "name": span["stage"],
                "ph": "X",
                "ts": (span["ts"] - t0) / 1e3,
                "dur": span["dur"] / 1e3,
                "pid": pid,
                "tid": 1,
                "args": args,
            })
        return {"traceEvents": events, "displayTimeUnit": "ms"}


def merged_chrome_trace(timeline: Optional[SweepTelemetry],
                        span_groups: Sequence[Tuple[str, Sequence[dict]]]
                        ) -> Dict[str, Any]:
    """One trace document holding both the sweep timeline (real pids)
    and per-trial packet-lifecycle groups (synthetic pids above them)."""
    if timeline is None:
        return chrome_trace(span_groups)
    doc = timeline.to_chrome_trace()
    if span_groups:
        base = max((e["pid"] for e in doc["traceEvents"]), default=0)
        packet_doc = chrome_trace(span_groups, pid_base=base + 1)
        doc["traceEvents"].extend(packet_doc["traceEvents"])
    return doc


# ======================================================================
# Run ledger
# ======================================================================
class RunLedger:
    """Append-only JSONL manifest of sweep/bench invocations.

    One file per ``--run-dir``; every :meth:`append` stamps the schema
    version and a wall-clock timestamp, so the perf trajectory of a
    checkout is machine-readable across revisions (and uploadable as a
    CI artifact)."""

    FILENAME = "ledger.jsonl"

    def __init__(self, run_dir: str):
        os.makedirs(run_dir, exist_ok=True)
        self.path = os.path.join(run_dir, self.FILENAME)

    def append(self, record: Dict[str, Any]) -> Dict[str, Any]:
        stamped = {"schema": LEDGER_SCHEMA, "ts": round(time.time(), 3)}
        stamped.update(record)
        with open(self.path, "a", encoding="utf-8") as f:
            f.write(json.dumps(_json_safe(stamped), sort_keys=False) + "\n")
        return stamped

    def read(self) -> List[Dict[str, Any]]:
        try:
            with open(self.path, "r", encoding="utf-8") as f:
                return [json.loads(line) for line in f if line.strip()]
        except OSError:
            return []


def table_digest(text: str) -> str:
    """SHA-256 of a rendered table — the ledger's byte-identity pin."""
    import hashlib

    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def engine_rollup(trial_metrics: Sequence[Dict[str, Any]]
                  ) -> Optional[Dict[str, Any]]:
    """Aggregate engine counters across a sweep's trial records."""
    fired = scheduled = 0
    wall = 0.0
    seen = False
    for record in trial_metrics:
        engine = record.get("engine")
        if not engine:
            continue
        seen = True
        fired += int(engine.get("events_fired", 0))
        scheduled += int(engine.get("events_scheduled", 0))
        wall += float(engine.get("wall_time", 0.0))
    if not seen:
        return None
    return {
        "events_fired": fired,
        "events_scheduled": scheduled,
        "wall_s": round(wall, 6),
        "events_per_sec": round(fired / wall) if wall > 0 else None,
    }


def peak_rss_mb() -> Dict[str, Optional[float]]:
    """Peak resident memory so far, in MB: this process's (``parent``)
    and the largest of its reaped child processes' (``workers``, the
    local workers of every backend shut down so far; ``None`` when
    none was reaped) — ``getrusage`` ``RUSAGE_SELF`` and
    ``RUSAGE_CHILDREN``.  Both are peaks over the process's life, not
    over one sweep."""
    try:
        import resource
    except ImportError:  # pragma: no cover - not a Unix
        return {"parent": None, "workers": None}
    # ru_maxrss is in KiB on Linux, in bytes on macOS.
    unit = 1024.0 * 1024.0 if sys.platform == "darwin" else 1024.0
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {"parent": round(own / unit, 2),
            "workers": round(kids / unit, 2) if kids else None}


def sweep_ledger_record(sweep, *, command: str, scenario: str,
                        seed: int, trials: int, wall_s: float,
                        cpu_s: Optional[float] = None,
                        table: Optional[str] = None,
                        telemetry: Optional[SweepTelemetry] = None,
                        extra: Optional[Dict[str, Any]] = None
                        ) -> Dict[str, Any]:
    """The ledger manifest of one validation sweep."""
    record: Dict[str, Any] = {
        "kind": command,
        "benchmark": sweep.benchmark,
        "scenario": scenario,
        "scenarios": [v.scenario for v in sweep.validations],
        "seed": seed,
        "trials": trials,
        "workers": sweep.workers_used,
        "transport": dict(sweep.transport or {}),
        "cache": {"hits": sweep.cache_hits, "misses": sweep.cache_misses},
        "wall_s": round(wall_s, 6),
        "cpu_s": round(cpu_s, 6) if cpu_s is not None else None,
        "table_sha256": table_digest(table) if table else None,
        "engine": engine_rollup(sweep.trial_metrics),
        "telemetry": telemetry.summary() if telemetry is not None else None,
        "peak_rss_mb": peak_rss_mb(),
    }
    if extra:
        record.update(extra)
    return record


# ======================================================================
# Live progress
# ======================================================================
class SweepProgress:
    """Sweep progress: trials done / total, cache hits, workers, ETA.

    On a TTY the line is rewritten in place; otherwise plain lines are
    printed, throttled to one per ``plain_interval`` seconds (plus the
    first and last), so CI logs stay readable."""

    def __init__(self, stream=None, label: str = "sweep",
                 min_interval: float = 0.1, plain_interval: float = 1.0):
        self.stream = stream if stream is not None else sys.stderr
        self.tty = bool(getattr(self.stream, "isatty", lambda: False)())
        self.label = label
        self.total = 0
        self.done = 0
        self.hits = 0
        self.workers = 0
        self._t0 = time.monotonic()
        self._last_emit = 0.0
        self._interval = min_interval if self.tty else plain_interval
        self._emitted = False
        self._lock = threading.Lock()

    # -- event feed (called from the executor, any thread) -------------
    def add_total(self, n: int) -> None:
        with self._lock:
            self.total += n
            self._emit()

    def cache_hit(self, n: int = 1) -> None:
        with self._lock:
            self.hits += n
            self.done += n
            self._emit()

    def completed(self, n: int = 1) -> None:
        with self._lock:
            self.done += n
            self._emit()

    def set_workers(self, n: int) -> None:
        with self._lock:
            self.workers = n

    # -- rendering -----------------------------------------------------
    def line(self) -> str:
        elapsed = time.monotonic() - self._t0
        computed = self.done - self.hits
        if computed > 0 and self.done < self.total:
            eta = elapsed / max(computed, 1) * (self.total - self.done)
            eta_text = f" eta {eta:5.1f}s"
        else:
            eta_text = ""
        return (f"[{self.label}] {self.done}/{self.total} trials "
                f"({self.hits} cached) workers={self.workers} "
                f"elapsed {elapsed:6.1f}s{eta_text}")

    def _emit(self, force: bool = False) -> None:
        now = time.monotonic()
        if not force and self._emitted \
                and now - self._last_emit < self._interval \
                and self.done < self.total:
            return
        self._last_emit = now
        self._emitted = True
        text = self.line()
        try:
            if self.tty:
                self.stream.write("\r\x1b[2K" + text)
            else:
                self.stream.write(text + "\n")
            self.stream.flush()
        except (OSError, ValueError):
            pass

    def finish(self) -> None:
        """Print the final line (always) and release the TTY line."""
        with self._lock:
            self._emit(force=True)
            if self.tty:
                try:
                    self.stream.write("\n")
                    self.stream.flush()
                except (OSError, ValueError):
                    pass


# ======================================================================
# Profiling (ObsConfig(profile=True))
# ======================================================================
def profile_rows(profiler, top: int = 20) -> List[Dict[str, Any]]:
    """Top-``top`` functions of a finished cProfile by internal time."""
    import pstats

    entries = []
    stats = pstats.Stats(profiler)
    for (filename, lineno, name), (cc, nc, tt, ct, _callers) \
            in stats.stats.items():  # type: ignore[attr-defined]
        entries.append({
            "func": f"{os.path.basename(filename)}:{lineno}({name})",
            "ncalls": nc,
            "tottime": round(tt, 6),
            "cumtime": round(ct, 6),
        })
    entries.sort(key=lambda e: (-e["tottime"], e["func"]))
    return entries[:max(1, top)]


def aggregate_profiles(records: Sequence[Dict[str, Any]],
                       top: int = 20) -> List[Dict[str, Any]]:
    """Merge per-trial profile rows (summing times and calls) into one
    cross-sweep top-``top`` table."""
    merged: Dict[str, Dict[str, Any]] = {}
    trials = 0
    for record in records:
        rows = record.get("profile")
        if not rows:
            continue
        trials += 1
        for row in rows:
            entry = merged.setdefault(row["func"], {
                "func": row["func"], "ncalls": 0,
                "tottime": 0.0, "cumtime": 0.0, "trials": 0})
            entry["ncalls"] += row["ncalls"]
            entry["tottime"] += row["tottime"]
            entry["cumtime"] += row["cumtime"]
            entry["trials"] += 1
    out = sorted(merged.values(),
                 key=lambda e: (-e["tottime"], e["func"]))[:max(1, top)]
    for entry in out:
        entry["tottime"] = round(entry["tottime"], 6)
        entry["cumtime"] = round(entry["cumtime"], 6)
    return out


def render_profile_table(rows: Sequence[Dict[str, Any]]) -> str:
    """Human-readable profile table (``repro validate --profile``)."""
    from ..analysis.tables import render_table

    body = [[row["func"], f"{row['ncalls']:,}",
             f"{row['tottime']:.4f}", f"{row['cumtime']:.4f}"]
            for row in rows] or [["(no profile data)", "0", "0", "0"]]
    return render_table(["Function", "Calls", "Internal s", "Cumulative s"],
                        body,
                        title="Aggregated trial profile (top by "
                              "internal time)")


# ======================================================================
# Unified metrics registry (the future daemon's /metrics)
# ======================================================================
def fold_records(registry: MetricsRegistry,
                 records: Sequence[Dict[str, Any]]) -> MetricsRegistry:
    """Fold per-trial metrics records into one registry: engine and
    drop counters are summed across trials, trial counts kept per
    kind."""
    for record in records:
        kind = record.get("kind", "trial")
        registry.counter(f"trials.{kind}",
                         help="Trials folded into this snapshot").inc()
        engine = record.get("engine") or {}
        for name in ("events_scheduled", "events_fired",
                     "events_cancelled", "bucket_sweeps", "runs"):
            if name in engine:
                registry.counter(
                    f"engine.{name}",
                    help="Summed simulator counter across trials",
                ).inc(int(engine[name]))
        if "wall_time" in engine:
            registry.counter("engine.wall_ms",
                             help="Summed run() wall clock, ms").inc(
                int(engine["wall_time"] * 1e3))
        for name, value in (record.get("drops") or {}).items():
            registry.counter(f"drops.{name}",
                             help="Summed drop counter").inc(int(value))
    rollup = engine_rollup(records)
    if rollup and rollup["events_per_sec"]:
        registry.gauge("engine.events_per_sec",
                       help="Fired events per wall second, all trials"
                       ).set(float(rollup["events_per_sec"]))
    fold_fleet(registry, records)
    fold_peak_rss(registry, records)
    return registry


def fold_peak_rss(registry: MetricsRegistry,
                  records: Sequence[Dict[str, Any]]) -> MetricsRegistry:
    """Fold the run ledger's ``peak_rss_mb`` into two gauges,
    ``peak_rss_mb.parent`` and ``peak_rss_mb.workers``: the largest
    value any folded manifest recorded."""
    peaks: Dict[str, float] = {}
    for record in records:
        for side, value in (record.get("peak_rss_mb") or {}).items():
            if value is not None:
                peaks[side] = max(peaks.get(side, 0.0), float(value))
    for side, value in sorted(peaks.items()):
        registry.gauge(f"peak_rss_mb.{side}",
                       help="Largest peak resident memory recorded, MB"
                       ).set(value)
    return registry


def fold_fleet(registry: MetricsRegistry,
               records: Sequence[Dict[str, Any]]) -> MetricsRegistry:
    """Fold per-node fleet contribution out of run-ledger manifests.

    Distributed runs record ``transport.backend`` (per-node chunk/job
    counts, artifact-sync bytes, busy wall) in their ledger records;
    this rolls those up into ``fleet.*`` counters — per-node series
    plus fleet totals and a utilization gauge (node busy time over
    fleet capacity, summed across manifests) — so ``repro metrics
    DIR/ledger.jsonl`` answers "how evenly did the fleet pull?"."""
    busy_s = 0.0
    capacity_s = 0.0
    seen = False
    for record in records:
        transport = record.get("transport") or {}
        backend = transport.get("backend") or {}
        nodes = backend.get("nodes")
        if not nodes:
            continue
        seen = True
        workers = 0
        for node in nodes:
            name = str(node.get("host", "?"))
            for counter in ("chunks", "jobs", "bytes_fetched",
                            "bytes_pushed"):
                registry.counter(
                    f"fleet.node.{name}.{counter}",
                    help="Per-node fleet contribution",
                ).inc(int(node.get(counter, 0)))
                registry.counter(
                    f"fleet.{counter}",
                    help="Summed fleet contribution across nodes",
                ).inc(int(node.get(counter, 0)))
            registry.counter(
                f"fleet.node.{name}.busy_ms",
                help="Per-node busy wall, ms",
            ).inc(int(float(node.get("wall_s", 0.0)) * 1e3))
            busy_s += float(node.get("wall_s", 0.0))
            workers += int(node.get("workers", 0))
        for counter in ("redispatches", "workers_lost"):
            registry.counter(
                f"fleet.{counter}",
                help="Fleet recovery counter across manifests",
            ).inc(int(backend.get(counter, 0)))
        sync = backend.get("sync") or {}
        for counter in ("fetch_requests", "unique_keys_fetched"):
            if counter in sync:
                registry.counter(
                    f"fleet.sync.{counter}",
                    help="Artifact-sync counter across manifests",
                ).inc(int(sync.get(counter, 0)))
        wall = float(record.get("wall_s") or 0.0)
        capacity_s += wall * workers
    if seen:
        registry.gauge("fleet.nodes",
                       help="Distinct fleet nodes seen").set(float(
            len([n for n in registry._counters
                 if n.startswith("fleet.node.")
                 and n.endswith(".chunks")])))
        if capacity_s > 0:
            registry.gauge(
                "fleet.utilization",
                help="Node busy time over fleet capacity",
            ).set(round(busy_s / capacity_s, 6))
    return registry


def sweep_registry(sweep, pipeline=None,
                   telemetry: Optional[SweepTelemetry] = None
                   ) -> MetricsRegistry:
    """One registry snapshot unifying a finished sweep's accounting:
    world/engine counters (from trial records), transport counters,
    cache hit/miss, and sweep-timeline stage totals."""
    registry = MetricsRegistry()
    registry.gauge("sweep.workers_used",
                   help="Effective worker count of the sweep").set(
        float(sweep.workers_used))
    transport = sweep.transport or {}
    for name in ("envelope_count", "ipc_bytes_sent", "ipc_bytes_recv",
                 "artifact_bytes", "encode_ns", "rehydrate_ns",
                 "serial_fallbacks"):
        if name in transport:
            registry.counter(f"transport.{name}",
                             help="Executor data-plane counter").inc(
                int(transport[name] or 0))
    registry.gauge("transport.pool_broken",
                   help="1 when the worker pool broke mid-sweep").set(
        1.0 if transport.get("pool_broken") else 0.0)
    registry.counter("cache.hits",
                     help="Artifact-cache hits this sweep").inc(
        sweep.cache_hits)
    registry.counter("cache.misses",
                     help="Artifact-cache misses this sweep").inc(
        sweep.cache_misses)
    if pipeline is not None:
        registry.add_collector(pipeline.collector(), key="pipeline")
    fold_records(registry, sweep.trial_metrics)
    if telemetry is not None:
        for stage, entry in telemetry.stage_totals().items():
            registry.counter(f"sweep.stage.{stage}.count",
                             help="Timeline spans of this stage").inc(
                entry["count"])
            registry.counter(f"sweep.stage.{stage}.wall_ms",
                             help="Total wall ms in this stage").inc(
                int(entry["wall_s"] * 1e3))
        util = telemetry.utilization().get("utilization")
        if util is not None:
            registry.gauge("sweep.pool_utilization",
                           help="Worker busy time over sweep wall"
                           ).set(float(util))
    return registry
