"""The execution runtime's acceptance gate.

Three claims, tested end to end through the CLI:

1. **Backend equivalence** — `validate`, `check` and `fuzz` produce
   byte-identical stdout (and hence identical table SHA-256s) inline,
   on local workers and on one loopback pseudo-host, at every worker
   count.  This is the contract that makes ``--workers``/``--hosts``
   pure performance knobs (fleets of several pseudo-hosts are
   ``tests/test_distributed.py``).
2. **Scheduler semantics** — each job is its own round trip, a batch
   starts longest first, results merge in submission order no matter
   how jobs are reordered for dispatch, ``--workers`` starts at most
   one worker more than there are cores, and a broken backend or a
   cancelled job degrades to in-process execution with correct
   results, never wrong ones.
3. **Teardown** — Ctrl-C cancels outstanding work and exits 130;
   shutdown drops queued jobs instead of running them; run ledgers
   record workers/backend/output-hash for ``check`` and ``fuzz`` like
   they always have for ``validate``.
"""

import hashlib
import json
import re
import time
from concurrent.futures import Future

import pytest

from repro.cli import main
from repro.obs.telemetry import SweepTelemetry
from repro.runtime import Job, Scheduler, runner_ref
from repro.runtime.job import echo

_ECHO = runner_ref(echo)
_SLEEP = runner_ref(time.sleep)


def _echo_job(payload, cost_hint=0.1):
    return Job(kind="echo", runner=_ECHO, payload=payload,
               label=f"echo:{payload}", cost_hint=cost_hint)


def _sleep_jobs(count, seconds):
    return [Job(kind="sleep", runner=_SLEEP, payload=seconds,
                label=f"sleep:{i}") for i in range(count)]


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _strip_ledger_line(out: str) -> str:
    # The manifest path contains a per-test tmp dir; everything else
    # on stdout must be byte-identical.
    return re.sub(r"appended run manifest to [^\n]*\n", "", out)


# ======================================================================
# 1. Backend-equivalence matrix: inline == local workers == one host
# ======================================================================
# (layout, workers): "auto" is ``--workers N``, which the scheduler
# sizes itself (at most cores + 1 local workers, sharing the parent's
# store); "socket" is ``--hosts local:N``, exactly N workers behind one
# loopback pseudo-host with a private store and the artifact-sync
# plane.  Worker counts 2 and 4 cover both the capped and uncapped
# sizing paths.
MATRIX = [("auto", 2), ("auto", 4), ("socket", 2), ("socket", 4)]

VALIDATE_ARGV = ["validate", "--scenario", "wean", "--benchmark", "ftp",
                 "--ftp-bytes", "50000", "--trials", "2"]
CHECK_ARGV = ["check", "--smoke"]
FUZZ_ARGV = ["fuzz", "--count", "2", "--seed", "0"]

# Serial reference stdout per command, computed once per test session.
_REFERENCE = {}


def _run(capsys, argv, expect_rc=0):
    rc = main(argv)
    out = capsys.readouterr().out
    assert rc == expect_rc, f"{argv} exited {rc}"
    return out


def _reference(capsys, key, argv):
    if key not in _REFERENCE:
        _REFERENCE[key] = _run(capsys, argv + ["--workers", "1"])
    return _REFERENCE[key]


def _layout(layout, workers):
    if layout == "auto":
        return ["--workers", str(workers)]
    return ["--hosts", f"local:{workers}"]


class TestBackendEquivalence:
    @pytest.mark.parametrize("layout,workers", MATRIX)
    def test_validate_matrix(self, capsys, layout, workers):
        serial = _reference(capsys, "validate", VALIDATE_ARGV)
        out = _run(capsys, VALIDATE_ARGV + _layout(layout, workers))
        assert out == serial
        assert _sha(out) == _sha(serial)

    @pytest.mark.parametrize("layout,workers", MATRIX)
    def test_check_matrix(self, capsys, layout, workers):
        serial = _reference(capsys, "check", CHECK_ARGV)
        out = _run(capsys, CHECK_ARGV + _layout(layout, workers))
        assert out == serial
        assert _sha(out) == _sha(serial)

    @pytest.mark.parametrize("layout,workers", MATRIX)
    def test_fuzz_matrix(self, capsys, layout, workers):
        serial = _reference(capsys, "fuzz", FUZZ_ARGV)
        out = _run(capsys, FUZZ_ARGV + _layout(layout, workers))
        assert out == serial
        assert _sha(out) == _sha(serial)


# ======================================================================
# 2. Scheduler semantics
# ======================================================================
class TestScheduler:
    def test_socket_backend_echo_roundtrip(self):
        exe = Scheduler(workers=2)
        try:
            jobs = [_echo_job(i) for i in range(8)]
            assert exe.map_jobs(jobs) == list(range(8))
            assert exe.transport_used == "remote"
            # The workers connected back over the loopback as one
            # pseudo-host, which ran every job.
            (node,) = exe.transport_stats()["backend"]["nodes"]
            assert node["workers"] == 2 and node["jobs"] == 8
        finally:
            exe.shutdown()

    def test_local_width_is_capped_at_cores_plus_one(self, monkeypatch):
        monkeypatch.setattr("repro.runtime.scheduler.os.cpu_count",
                            lambda: 1)
        assert Scheduler(workers=4).effective_workers == 2
        assert Scheduler(workers=2).effective_workers == 2
        assert Scheduler(workers=1).effective_workers == 1
        # A fleet is the width its hosts say, uncapped.
        assert Scheduler(hosts="local:4,local:4").effective_workers == 8

    def test_merge_order_is_submission_order(self):
        # Dispatch reorders by cost (expensive first); the merged
        # results must ignore that.
        exe = Scheduler(workers=2)
        costs = [0.1, 500.0, 1.0, 250.0, 0.1, 120.0]
        try:
            jobs = [_echo_job(i, cost_hint=costs[i % len(costs)])
                    for i in range(24)]
            assert exe.map_jobs(jobs) == list(range(24))
        finally:
            exe.shutdown()

    def test_broken_backend_falls_back_to_correct_results(self, monkeypatch):
        class _BrokenBackend:
            name = "remote"

            def start(self, store_root=None):
                pass

            def submit_chunk(self, wire, telemetry_ctx, input_refs=()):
                fut = Future()
                fut.set_exception(OSError("pipe closed"))
                return fut

            def stats(self):
                return {}

            def shutdown(self, cancel=False):
                pass

        exe = Scheduler(workers=2)
        monkeypatch.setattr(exe, "_make_backend", _BrokenBackend)
        try:
            jobs = [_echo_job(i, cost_hint=200.0) for i in range(6)]
            assert exe.map_jobs(jobs) == list(range(6))
            stats = exe.transport_stats()
            assert stats["pool_broken"] is True
            assert stats["serial_fallbacks"] >= 6
            assert "pool broke" in stats["fallback_reason"]
        finally:
            exe.shutdown()

    def test_keyboard_interrupt_cancels_scheduler(self, monkeypatch):
        exe = Scheduler(workers=1)
        try:
            futs = exe.submit_jobs([_echo_job(0)])
            monkeypatch.setattr(
                "repro.runtime.scheduler.run_job_inline",
                lambda job: (_ for _ in ()).throw(KeyboardInterrupt()))
            with pytest.raises(KeyboardInterrupt):
                futs[0].result()
            # cancel() ran: everything still queued degrades to the
            # in-process path and the backend is gone.
            assert exe._serial_fallback is True
            assert exe._backend is None
        finally:
            exe.shutdown()

    def test_each_job_is_its_own_round_trip(self):
        exe = Scheduler(workers=2)
        try:
            assert exe.map_jobs([_echo_job(i) for i in range(8)]) \
                == list(range(8))
            (node,) = exe.transport_stats()["backend"]["nodes"]
            assert node["chunks"] == node["jobs"] == 8
        finally:
            exe.shutdown()

    def test_batch_runs_longest_first(self):
        # One worker pulls the backend's FIFO queue in order, so the
        # worker-side spans start in the order the batch was queued:
        # descending cost hint, ties in submission order.
        costs = [1.0, 50.0, 5.0, 50.0, 0.1, 5.0, 300.0, 1.0]
        exe = Scheduler(hosts="local:1")
        exe.telemetry = SweepTelemetry()
        try:
            jobs = [_echo_job(i, cost_hint=c) for i, c in enumerate(costs)]
            assert exe.map_jobs(jobs) == list(range(len(costs)))
            spans = sorted((s for s in exe.telemetry.spans
                            if s["stage"] == "echo"
                            and s["pid"] != exe.telemetry.parent_pid),
                           key=lambda s: s["ts"])
        finally:
            exe.shutdown()
        expected = sorted(range(len(costs)), key=lambda i: -costs[i])
        assert [s["label"] for s in spans] == [f"echo:{i}"
                                               for i in expected]

    def test_cancelled_jobs_recompute_in_parent(self):
        # cancel() drops the jobs still queued in the backend; reading
        # one recomputes it here instead of raising CancelledError.
        exe = Scheduler(workers=2)
        try:
            futures = exe.submit_jobs(_sleep_jobs(24, 0.2))
            time.sleep(0.5)
            exe.cancel()
            assert [f.result() for f in futures] == [None] * 24
            stats = exe.transport_stats()
            assert stats["pool_broken"] is False
            assert stats["serial_fallbacks"] >= 1
            assert any(r.startswith("cancelled")
                       for r in stats["fallback_reasons"])
        finally:
            exe.shutdown()

    def test_shutdown_drops_queued_jobs(self):
        exe = Scheduler(workers=2)
        exe.submit_jobs(_sleep_jobs(200, 0.05))
        t0 = time.perf_counter()
        exe.shutdown()
        assert time.perf_counter() - t0 < 1.0


# ======================================================================
# 3. Teardown and bookkeeping through the CLI
# ======================================================================
class TestCliRuntime:
    def test_interrupt_exits_130(self, monkeypatch, capsys):
        from repro import cli

        def _boom(args):
            raise KeyboardInterrupt()

        monkeypatch.setitem(cli.COMMANDS, "check", _boom)
        assert main(["check", "--smoke"]) == 130
        assert "interrupted" in capsys.readouterr().err

    def test_check_writes_ledger_record(self, tmp_path, capsys):
        serial = _reference(capsys, "check", CHECK_ARGV)
        out = _run(capsys, CHECK_ARGV
                   + ["--workers", "2", "--run-dir", str(tmp_path)])
        assert "appended run manifest" in out
        # Stdout minus the (path-bearing) ledger line matches serial.
        assert _strip_ledger_line(out) == serial
        lines = (tmp_path / "ledger.jsonl").read_text().splitlines()
        record = json.loads(lines[-1])
        assert record["kind"] == "check"
        assert record["scenarios"] == ["wean"]
        assert record["workers"] == 2
        assert record["status"] == "ok"
        assert re.fullmatch(r"[0-9a-f]{64}", record["table_sha256"])
        assert record["transport"]["transport"] == "remote"

    def test_fuzz_writes_ledger_record(self, tmp_path, capsys):
        out = _run(capsys, ["fuzz", "--count", "1", "--seed", "0",
                            "--workers", "2", "--run-dir", str(tmp_path)])
        assert "appended run manifest" in out
        record = json.loads(
            (tmp_path / "ledger.jsonl").read_text().splitlines()[-1])
        assert record["kind"] == "fuzz"
        assert record["status"] == "ok"
        assert record["checked"] == 1
        assert record["corpus_digest"]
        assert record["workers"] == 2

    def test_unknown_transport_rejected(self, capsys):
        # --workers and --hosts choose everything; the old backend
        # selector is a usage error, whatever its value.
        with pytest.raises(SystemExit) as exc:
            main(CHECK_ARGV + ["--transport", "socket"])
        assert exc.value.code == 2
