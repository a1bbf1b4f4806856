"""Distilled replays travel by reference; the parent decodes what it reads.

A modulated trial that runs on a worker takes its traversal's
distillation from the store by key and content digest — a memo or
cache hit as much as a result a worker sealed — and the worker, not
the parent, decodes it.  Counted in the parent (never in resident
memory):

* a ``workers=2`` sweep whose distillations nobody reads decodes none
  of them, cold (worker-sealed) or over memo hits, and renders the
  ``workers=1`` table;
* a modulated trial whose worker cannot resolve its ``replay_ref`` —
  the artifact is missing, or does not match its digest — completes in
  the parent with the identical result;
* the scratch store's undecoded results keep their encoded bytes past
  ``shutdown()``, which decodes none of them; they read back equal to
  the cold results, and a corrupted kept blob is recomputed; results
  read during the sweep give up their objects for those bytes too;
* the distill trial, which collects only the records distillation
  reads, equals distilling the full trace, for all four scenarios;
* a serial sweep takes its replays by reference too: at most one
  decoded distillation is alive while a modulated trial runs, none
  when the sweep returns, and a wider ``seeds`` sweep holds no more.
"""

import gc
import json
import tempfile
import weakref
from dataclasses import replace

import pytest

from repro.core.distill import DistillationResult, Distiller
from repro.core.replay import QualityTuple, ReplayTrace
from repro.pipeline import Pipeline, codec
from repro.scenarios import ALL_SCENARIOS, PorterScenario, WeanScenario
from repro.validation import (
    FtpRunner,
    characterize_scenario_parallel,
    collect_trace,
    run_validation,
)
from repro.validation import parallel
from repro.validation.harness import run_modulated_trial
from repro.validation.parallel import TrialExecutor, TrialSpec, execute_trial

RUNNER = FtpRunner(nbytes=40_000)
SCENARIOS = (PorterScenario(), WeanScenario())
WORKERS = pytest.mark.parametrize("workers", [1, 2])


def sweep(executor=None, workers=None, cache=None, scenarios=SCENARIOS):
    return run_validation(list(scenarios), RUNNER, seed=0, trials=2,
                          baseline=True, workers=workers, cache=cache,
                          executor=executor)


@pytest.fixture(scope="module")
def serial_table():
    return sweep(workers=1).render()


@pytest.fixture
def distill_decodes(monkeypatch):
    """Sizes of the distillation frames this process decodes."""
    decodes = []
    decode_gz = codec.decode_gz

    def counting_decode_gz(blob):
        value = decode_gz(blob)
        inner = value.get("__distill__") if isinstance(value, dict) \
            else value
        if isinstance(inner, DistillationResult):
            decodes.append(len(blob))
        return value

    monkeypatch.setattr(codec, "decode_gz", counting_decode_gz)
    return decodes


def distilled(validations):
    """Every distillation of a sweep, as comparable values."""
    return [[(d.replay.name, d.replay.tuples, d.estimates, d.groups_total,
              d.groups_used, d.echoes_sent, d.replies_received,
              d.status_records)
             for d in v.distillations]
            for v in validations]


# ----------------------------------------------------------------------
# Workers read the distillations; the parent does not
# ----------------------------------------------------------------------
def test_cold_sweep_decodes_no_worker_sealed_distillation(
        serial_table, distill_decodes, tmp_path):
    pipeline = Pipeline(tmp_path / "cache")
    cold = sweep(workers=2, cache=pipeline)
    assert cold.transport["transport"] == "remote"
    assert cold.fallback_reason is None
    assert cold.render() == serial_table
    # The four traversals came back sealed in the store ...
    assert cold.transport["envelope_count"] >= 4
    # ... and reached the modulated trials' workers undecoded.
    assert distill_decodes == []
    assert pipeline.decoded["distill"] == 0
    # Every stage is accounted, the forwarded distillations included:
    # compensation, 4 distill, 8 live, 8 modulated, 4 Ethernet.
    assert (cold.cache_hits, cold.cache_misses) == (0, 25)


def test_memo_hit_distillations_reach_workers_undecoded(
        serial_table, distill_decodes):
    with TrialExecutor(workers=2) as exe:
        for scenario in SCENARIOS:
            characterize_scenario_parallel(scenario, seed=0, trials=2,
                                           executor=exe)
        # The characterizations read their four distillations ...
        assert len(distill_decodes) == 4
        warm = sweep(executor=exe)
        collected = exe.metrics.snapshot()["collected"]
        assert collected["pipeline.hits"] == 4
    assert exe.transport_used == "remote"
    assert warm.render() == serial_table
    # ... the sweep over them reads none, and neither does shutdown.
    assert len(distill_decodes) == 4
    assert sum(len(v.distillations) for v in warm.validations) == 4
    assert len(distill_decodes) == 4
    distilled(warm.validations)
    assert len(distill_decodes) == 8


def test_cache_attached_to_running_workers_hands_its_hits_over(
        serial_table, tmp_path):
    # A cache holding the distillations but no modulated result ...
    cache = tmp_path / "cache"
    sweep(workers=1, cache=cache)
    for meta in (cache / "objects").glob("*/*.json"):
        if json.loads(meta.read_text())["stage"] == "modulated":
            meta.with_suffix(".rba").unlink()
    with TrialExecutor(workers=2) as exe:
        # ... attached after the workers started over the scratch store:
        # the modulated trials still run there, reading a copy.
        sweep(executor=exe, scenarios=SCENARIOS[:1])
        warm = sweep(executor=exe, cache=Pipeline(cache))
    assert warm.fallback_reason is None
    assert warm.render() == serial_table
    assert (warm.cache_hits, warm.cache_misses) == (17, 8)


# ----------------------------------------------------------------------
# A replay_ref the worker cannot resolve
# ----------------------------------------------------------------------
REPLAY = ReplayTrace([QualityTuple(d=1.0, F=0.002, Vb=1.0e-6, Vr=2.0e-7,
                                   L=0.01)] * 8, name="flat")
MOD_RUNNER = FtpRunner(nbytes=20_000, direction="send")


@pytest.mark.parametrize("problem", ["missing", "digest"])
def test_unresolvable_replay_ref_completes_in_the_parent(problem):
    expected = run_modulated_trial(REPLAY, MOD_RUNNER, 0, 0, 0.0)
    with TrialExecutor(workers=2) as exe:
        key = "f" * 64
        digest = "0" * 64
        if problem == "digest":
            # The artifact is where workers read, but it is not the one
            # the spec names.
            exe._memo().store.put(key, REPLAY)
        loads = []

        def loader():
            loads.append(1)
            return REPLAY

        spec = TrialSpec(kind="modulated", seed=0, trial=0,
                         runner=MOD_RUNNER, compensation=0.0,
                         replay_ref=key, replay_digest=digest,
                         replay_loader=loader)
        result = exe.submit(spec).result()
        assert exe.transport_used == "remote"
    assert result == expected
    # The worker refused; the parent ran the trial over its own replay.
    assert loads == [1]
    reason = exe.fallback_reason or ""
    assert reason.startswith("worker transport: distill artifact")
    assert ("missing from the store" if problem == "missing"
            else "digest mismatch") in reason


# ----------------------------------------------------------------------
# Scratch results keep their bytes past shutdown
# ----------------------------------------------------------------------
@WORKERS
def test_scratch_hits_are_kept_as_bytes_past_shutdown(
        workers, tmp_path, monkeypatch, distill_decodes):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    with TrialExecutor(workers=workers) as exe:
        first = sweep(executor=exe, scenarios=SCENARIOS[1:])
        cold = distilled(first.validations)
        second = sweep(executor=exe, scenarios=SCENARIOS[1:])
        before = len(distill_decodes)
    # Nobody read the second sweep's two traversals, so shutdown did not
    # decode them either ...
    assert len(distill_decodes) == before
    assert list(tmp_path.glob("repro-ipc-*")) == []
    # ... and they read back from the kept bytes, equal to the cold ones.
    assert distilled(second.validations) == cold
    assert len(distill_decodes) == before + 2
    assert list(tmp_path.glob("repro-ipc-*")) == []


@WORKERS
def test_read_results_give_up_their_objects_at_shutdown(
        workers, tmp_path, monkeypatch, distill_decodes):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    with TrialExecutor(workers=workers) as exe:
        first = sweep(executor=exe, scenarios=SCENARIOS[1:])
        cold = distilled(first.validations)
        objects = [weakref.ref(d) for v in first.validations
                   for d in v.distillations]
        before = len(distill_decodes)
    # The finished sweep still holds its futures, but they hold only the
    # encoded bytes of what the sweep read: its objects are gone ...
    gc.collect()
    assert [ref() for ref in objects] == [None, None]
    # ... and come back equal, decoded once more.
    assert distilled(first.validations) == cold
    assert len(distill_decodes) == before + 2


@WORKERS
def test_corrupted_kept_bytes_are_recomputed(workers, tmp_path,
                                             monkeypatch):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    with TrialExecutor(workers=workers) as exe:
        first = sweep(executor=exe, scenarios=SCENARIOS[1:])
        cold = distilled(first.validations)
        second = sweep(executor=exe, scenarios=SCENARIOS[1:])
        (root,) = tmp_path.glob("repro-ipc-*")
        corrupted = 0
        for meta in (root / "objects").glob("*/*.json"):
            if json.loads(meta.read_text())["stage"] == "distill":
                meta.with_suffix(".rba").write_bytes(b"not an artifact")
                corrupted += 1
        assert corrupted == 2
    # Shutdown kept the corrupted bytes; reading them recomputes each
    # traversal in this process, stored nowhere.
    assert distilled(second.validations) == cold
    assert list(tmp_path.glob("repro-ipc-*")) == []


# ----------------------------------------------------------------------
# The distill trial collects only what distillation reads
# ----------------------------------------------------------------------
@pytest.mark.parametrize("scenario_cls", ALL_SCENARIOS,
                         ids=lambda cls: cls.__name__)
def test_distill_trial_equals_distilling_the_full_trace(scenario_cls):
    scenario = scenario_cls(replace(scenario_cls.spec, duration=30.0))
    spec = TrialSpec(kind="distill", seed=2, trial=1, scenario=scenario,
                     name="short")
    full = collect_trace(scenario, 2, 1)
    expected = Distiller().distill(full, name="short")
    assert codec.encode(execute_trial(spec)) == codec.encode(expected)
    # The projection is the records distillation reads, in trace order.
    kept = collect_trace(scenario, 2, 1, keep=Distiller().reads)
    assert kept == [r for r in full if Distiller().reads(r)]


# ----------------------------------------------------------------------
# A serial sweep holds no distillation between its trials
# ----------------------------------------------------------------------
def live_distillations():
    """How many decoded distillations this process holds (a census of
    the collector's objects)."""
    gc.collect()
    return sum(isinstance(o, DistillationResult) for o in gc.get_objects())


@pytest.fixture
def census(monkeypatch):
    """Live distillations, beyond those alive before the test, counted
    as each modulated trial of this process starts."""
    base = live_distillations()
    counts = []
    run = parallel.run_modulated_trial

    def counting_run(*args, **kwargs):
        counts.append(live_distillations() - base)
        return run(*args, **kwargs)

    monkeypatch.setattr(parallel, "run_modulated_trial", counting_run)
    return base, counts


@pytest.mark.parametrize("cached", [False, True], ids=["memo", "cache"])
def test_serial_sweep_decodes_each_replay_for_its_trial(
        cached, census, serial_table, tmp_path):
    base, counts = census
    result = sweep(workers=1,
                   cache=Pipeline(tmp_path / "cache") if cached else None)
    # Two scenarios x two variants x two trials, all run here ...
    assert len(counts) == 8
    assert max(counts) <= 1
    # ... and nothing holds a distillation once the sweep returned.
    assert live_distillations() == base
    assert result.render() == serial_table == sweep(workers=2).render()


def test_wider_serial_sweep_holds_no_more_distillations(census):
    base, counts = census
    peaks = []
    for seeds in (1, 2):
        counts.clear()
        run_validation(SCENARIOS[1], RUNNER, seed=0, trials=1, seeds=seeds,
                       workers=1)
        assert len(counts) == 2 * seeds
        peaks.append(max(counts))
        assert live_distillations() == base
    assert peaks[1] <= peaks[0] <= 1
