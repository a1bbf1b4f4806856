"""Sweep-scope telemetry tests (repro.obs.telemetry).

The expensive case — one real 2-worker sweep with a SweepTelemetry
attached — is run once per module and doubles as the acceptance check:
the merged Chrome trace must validate with one track per worker pid,
the tables must be byte-identical to an un-instrumented run, and the
transport stats must surface fallback/pool state.  Everything else
(ledger, Prometheus grammar, progress, profiling, span codec) is unit
tested against synthetic data.
"""

import io
import json
import re

import pytest

from repro.cli import main
from repro.obs import (
    LEDGER_SCHEMA,
    MetricsRegistry,
    ObsConfig,
    RunLedger,
    SweepProgress,
    SweepTelemetry,
    aggregate_profiles,
    fold_records,
    merged_chrome_trace,
    read_jsonl,
    render_profile_table,
    sweep_ledger_record,
    sweep_registry,
    validate_chrome_trace,
)
from repro.obs import telemetry as tmod
from repro.scenarios import WeanScenario
from repro.validation.harness import FtpRunner, run_live_trial
from repro.validation.parallel import TrialExecutor, run_validation

RUNNER = FtpRunner(nbytes=120_000, direction="send")


# ----------------------------------------------------------------------
# One real instrumented 2-worker sweep, shared by the e2e tests
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def instrumented_sweep():
    telemetry = SweepTelemetry()
    progress = SweepProgress(stream=io.StringIO(), label="test")
    sweep = run_validation(WeanScenario(), RUNNER, seed=0, trials=1,
                           workers=2, obs=ObsConfig(),
                           telemetry=telemetry, progress=progress)
    plain = run_validation(WeanScenario(), RUNNER, seed=0, trials=1,
                           workers=2)
    return sweep, plain, telemetry, progress


def test_sweep_timeline_has_one_track_per_worker_pid(instrumented_sweep):
    sweep, _, telemetry, _ = instrumented_sweep
    if sweep.workers_used < 2:
        pytest.skip("pool fell back to serial on this machine")
    doc = telemetry.to_chrome_trace()
    validate_chrome_trace(doc)
    worker_tracks = [e for e in doc["traceEvents"]
                     if e.get("name") == "process_name"
                     and e["args"]["name"].startswith("worker pid ")]
    assert len(worker_tracks) >= 2
    assert len(telemetry.worker_pids()) >= 2
    # Worker stages made it across the pipe as codec frames.
    stages = telemetry.stage_totals()
    for stage in ("chunk", "queue", "live", "modulated"):
        assert stages[stage]["count"] > 0, stage
    assert 0.0 < telemetry.utilization()["utilization"] <= 1.0


def test_merged_timeline_validates(instrumented_sweep):
    _, _, telemetry, _ = instrumented_sweep
    groups = [("live:demo", [
        {"host": "mobile", "layer": "tcp", "event": "send", "t": 0.001}])]
    doc = merged_chrome_trace(telemetry, groups)
    validate_chrome_trace(doc)
    names = {e["args"]["name"] for e in doc["traceEvents"]
             if e.get("name") == "process_name"}
    assert any(n.startswith("worker pid ") or n.startswith("parent pid ")
               for n in names)
    assert "live:demo:mobile" in names


def test_telemetry_off_tables_byte_identical(instrumented_sweep):
    sweep, plain, _, _ = instrumented_sweep
    assert sweep.render() == plain.render()
    assert sweep.telemetry is not None
    assert plain.telemetry is None


def test_transport_stats_surface_fallback_state(instrumented_sweep):
    sweep, _, _, _ = instrumented_sweep
    transport = sweep.transport
    assert "fallback_reasons" in transport
    assert "pool_broken" in transport
    assert isinstance(transport["fallback_reasons"], list)
    assert transport["pool_broken"] in (False, True)
    assert sweep.as_dict()["telemetry"]["spans"] > 0


def test_progress_counts_every_trial(instrumented_sweep):
    sweep, _, _, progress = instrumented_sweep
    assert progress.total == progress.done
    # 1 trial x (collection + live + modulated) for the send-only runner.
    assert progress.done >= 3
    out = progress.stream.getvalue()
    assert "test" in out and f"{progress.done}/{progress.total}" in out


def test_sweep_registry_renders_prometheus(instrumented_sweep):
    sweep, _, telemetry, _ = instrumented_sweep
    text = sweep_registry(sweep, telemetry=telemetry).render_prometheus()
    assert "repro_sweep_workers_used" in text
    assert "repro_sweep_stage_chunk_wall_ms_total" in text
    _assert_prometheus_grammar(text)


# ----------------------------------------------------------------------
# Span capture + wire codec (unit)
# ----------------------------------------------------------------------
def test_disabled_capture_records_nothing():
    assert not tmod.capture_active()
    assert tmod.span_begin() is None
    tmod.span_end(None, "stage")          # no-op, must not raise
    tmod.record_point("stage", "label")   # no-op, must not raise
    assert tmod.capture_end() == []


def test_capture_and_span_wire_round_trip():
    tmod.capture_begin("sweep-1")
    try:
        token = tmod.span_begin()
        assert token is not None
        tmod.span_end(token, "live", "wean:0", trial=0)
        tmod.record_point("fallback", "broken", reason="test")
    finally:
        spans = tmod.capture_end()
    assert not tmod.capture_active()
    assert [s["stage"] for s in spans] == ["live", "fallback"]
    assert spans[0]["trial"] == 0 and spans[0]["dur"] >= 0
    packed = tmod.pack_spans(spans)
    assert packed["v"] == tmod.SPAN_SCHEMA
    assert tmod.unpack_spans(packed) == spans


# ----------------------------------------------------------------------
# Run ledger
# ----------------------------------------------------------------------
def test_ledger_append_round_trip_and_schema(tmp_path):
    ledger = RunLedger(str(tmp_path / "run"))
    stamped = ledger.append({"kind": "validate", "workers": 2})
    assert stamped["schema"] == LEDGER_SCHEMA == 1
    ledger.append({"kind": "bench"})
    records = ledger.read()
    assert [r["kind"] for r in records] == ["validate", "bench"]
    for record in records:
        assert record["schema"] == LEDGER_SCHEMA
        assert record["ts"] > 0


def test_ledger_read_missing_file_is_empty(tmp_path):
    assert RunLedger(str(tmp_path / "empty")).read() == []


def test_sweep_ledger_record_schema(instrumented_sweep):
    sweep, _, telemetry, _ = instrumented_sweep
    table = sweep.render()
    record = sweep_ledger_record(sweep, command="validate",
                                 scenario="wean", seed=0, trials=1,
                                 wall_s=1.25, cpu_s=2.5, table=table,
                                 telemetry=telemetry)
    # Schema stability: these keys are the contract CI artifacts rely on.
    assert set(record) >= {"kind", "benchmark", "scenario", "scenarios",
                           "seed", "trials", "workers", "transport",
                           "cache", "wall_s", "cpu_s", "table_sha256",
                           "engine", "telemetry"}
    assert record["table_sha256"] == tmod.table_digest(table)
    assert record["engine"]["events_fired"] > 0
    assert record["engine"]["events_per_sec"] > 0
    assert record["telemetry"]["spans"] == len(telemetry.spans)


def test_ledger_records_peak_memory_and_metrics_exposes_it(
        instrumented_sweep, tmp_path, capsys):
    sweep = instrumented_sweep[0]
    record = sweep_ledger_record(sweep, command="validate",
                                 scenario="wean", seed=0, trials=1,
                                 wall_s=1.0)
    peaks = record["peak_rss_mb"]
    # The fixture's 2-worker sweeps shut their workers down, so they
    # were reaped and count among this process's children.
    assert peaks["parent"] > 0 and peaks["workers"] > 0
    ledger = RunLedger(tmp_path)
    ledger.append(record)
    ledger.append(dict(record, peak_rss_mb={"parent": 1.5,
                                            "workers": None}))
    assert main(["metrics", str(ledger.path)]) == 0
    out = capsys.readouterr().out
    _assert_prometheus_grammar(out)
    gauges = dict(line.split() for line in out.splitlines()
                  if line.startswith("repro_peak_rss_mb_"))
    assert float(gauges["repro_peak_rss_mb_parent"]) == peaks["parent"]
    assert float(gauges["repro_peak_rss_mb_workers"]) == peaks["workers"]


# ----------------------------------------------------------------------
# Prometheus exposition
# ----------------------------------------------------------------------
PROM_LINE = re.compile(
    r"^(# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]* .*"
    r"|[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? -?[0-9eE.+-]+(\s[0-9]+)?)$")


def _assert_prometheus_grammar(text):
    assert text.endswith("\n")
    for line in text.splitlines():
        if not line:
            continue
        assert PROM_LINE.match(line), f"bad exposition line: {line!r}"


def test_render_prometheus_grammar_and_types():
    registry = MetricsRegistry()
    registry.counter("engine.events_fired", help="Fired\nevents").inc(7)
    registry.gauge("pool.utilization").set(0.5)
    registry.histogram("rtt.ms", edges=[1.0, 10.0]).observe(3.0)
    registry.add_collector(lambda: {"wean.ftp-recv.drops": 2.0})
    text = registry.render_prometheus(prefix="repro")
    _assert_prometheus_grammar(text)
    assert "# TYPE repro_engine_events_fired_total counter" in text
    assert "repro_engine_events_fired_total 7" in text
    assert "repro_pool_utilization 0.5" in text
    assert 'repro_rtt_ms_bucket{le="+Inf"} 1' in text
    assert "repro_rtt_ms_count 1" in text
    # Dashes sanitize to underscores; newline in help is escaped.
    assert "repro_wean_ftp_recv_drops 2" in text
    assert "Fired\\nevents" in text


def test_add_collector_key_is_idempotent():
    registry = MetricsRegistry()
    registry.add_collector(lambda: {"x": 1.0}, key="pipeline")
    registry.add_collector(lambda: {"x": 2.0}, key="pipeline")
    registry.add_collector(lambda: {"y": 3.0})
    snap = registry.snapshot()["collected"]
    assert snap["x"] == 2.0 and snap["y"] == 3.0


def test_fold_records_sums_engine_counters():
    records = [
        {"kind": "live", "engine": {"events_fired": 10,
                                    "events_scheduled": 12,
                                    "wall_time": 0.5},
         "drops": {"weak": 1}},
        {"kind": "live", "engine": {"events_fired": 30,
                                    "events_scheduled": 31,
                                    "wall_time": 0.5},
         "drops": {"weak": 2}},
    ]
    snap = fold_records(MetricsRegistry(), records).snapshot()
    counters = snap["counters"]
    assert counters["trials.live"] == 2
    assert counters["engine.events_fired"] == 40
    assert counters["drops.weak"] == 3
    assert snap["gauges"]["engine.events_per_sec"] == 40.0


# ----------------------------------------------------------------------
# Fallback bookkeeping (unit)
# ----------------------------------------------------------------------
def test_note_fallback_dedupes_and_marks_pool():
    exe = TrialExecutor(workers=1)
    try:
        exe._note_fallback("codec error")
        exe._note_fallback("codec error")
        exe._mark_broken()
        stats = exe.transport_stats()
        assert stats["fallback_reasons"] == ["codec error",
                                             "process pool broke"]
        assert stats["pool_broken"] is True
        # Every fallback counts (2 codec + the pool break), but the
        # reason list stays deduped.
        assert stats["serial_fallbacks"] == 3
    finally:
        exe.shutdown()


# ----------------------------------------------------------------------
# Per-trial profiling
# ----------------------------------------------------------------------
def test_profile_record_and_aggregation():
    sink = run_live_trial(WeanScenario(), RUNNER, seed=0, trial=0,
                          obs=ObsConfig(profile=True, profile_top=5))
    record = sink["__obs__"]
    rows = record["profile"]
    assert 0 < len(rows) <= 5
    assert all({"func", "ncalls", "tottime", "cumtime"} <= set(r)
               for r in rows)
    merged = aggregate_profiles([record, record], top=3)
    assert len(merged) <= 3
    assert merged[0]["trials"] == 2
    assert merged[0]["tottime"] == pytest.approx(2 * rows[0]["tottime"])
    table = render_profile_table(merged)
    assert "Aggregated trial profile" in table


def test_profile_token_keeps_unprofiled_fingerprints_stable():
    default = ObsConfig()
    base = default.cache_token()
    # The unprofiled token must stay exactly the pre-telemetry dataclass
    # shape, or every cached artifact fingerprint changes.
    assert base == {"__dataclass__": "ObsConfig",
                    "metrics": default.metrics, "trace": default.trace,
                    "spans": default.spans,
                    "span_limit": default.span_limit}
    profiled = ObsConfig(profile=True).cache_token()
    assert profiled != base
    assert {k: v for k, v in profiled.items()
            if k not in ("profile", "profile_top")} == base


# ----------------------------------------------------------------------
# Progress rendering (unit)
# ----------------------------------------------------------------------
def test_progress_plain_stream_lines():
    stream = io.StringIO()
    progress = SweepProgress(stream=stream, label="ftp",
                             plain_interval=0.0)
    progress.add_total(4)
    progress.set_workers(2)
    progress.cache_hit()
    progress.completed(3)
    progress.finish()
    out = stream.getvalue()
    assert "\r" not in out                    # non-TTY: plain lines only
    assert "[ftp] 4/4 trials (1 cached) workers=2" in out.splitlines()[-1]


# ----------------------------------------------------------------------
# repro metrics (CLI)
# ----------------------------------------------------------------------
def test_metrics_subcommand_emits_prometheus(tmp_path, capsys):
    path = str(tmp_path / "metrics.jsonl")
    with open(path, "w", encoding="utf-8") as f:
        f.write(json.dumps({"kind": "live",
                            "engine": {"events_fired": 5,
                                       "wall_time": 0.1}}) + "\n")
    assert main(["metrics", path]) == 0
    out = capsys.readouterr().out
    _assert_prometheus_grammar(out)
    assert "repro_trials_live_total 1" in out
    assert "repro_engine_events_fired_total 5" in out
    assert read_jsonl(path)  # input untouched
