"""The executor's trial memo: each distinct trial runs once per executor.

Every :class:`~repro.validation.parallel.TrialExecutor` resolves
fingerprinted trials through a pipeline for its whole lifetime: the
caller's cache when one is attached, else a scratch store it makes on
first use and removes on shutdown.  On the serial and the pool path
alike:

* a characterization followed by a sweep on one executor reads every
  traversal back, and renders the same bytes as a fresh executor;
* stored results are copies: a sweep repeated on one executor returns
  the same per-trial metrics records, although reassembling the first
  sweep popped them out of its results;
* a cache attached to an executor whose backend is already running
  still receives every artifact, so a fresh executor over it then
  recomputes nothing;
* an Ethernet baseline repeated on one executor is read back whole;
* the scratch store is made lazily and is gone after ``shutdown()``.

A hit is found at submission and decoded when first read:

* a warm rerun of a cached four-scenario sweep decodes no distilled
  traversal, yet its ``distillations`` equal the cold sweep's, also
  read after the executor has shut down (with a cache or with the
  scratch memo);
* a found artifact that no longer decodes is recomputed, rewritten
  and logged as a miss, and the table does not change.
"""

import shutil
import tempfile

import pytest

from repro.obs import ObsConfig
from repro.pipeline import Pipeline, codec
from repro.scenarios import ALL_SCENARIOS, scenario_by_name
from repro.validation import (
    FtpRunner,
    characterize_scenario_parallel,
    ethernet_baseline,
    ethernet_baseline_parallel,
    run_validation,
)
from repro.validation.parallel import TrialExecutor

RUNNER = FtpRunner(nbytes=40_000)
WORKERS = pytest.mark.parametrize("workers", [1, 2])


def wean():
    return scenario_by_name("wean")


def memo_stats(exe):
    """The executor's hit/miss accounting of its memo."""
    collected = exe.metrics.snapshot()["collected"]
    return collected["pipeline.hits"], collected["pipeline.misses"]


@WORKERS
def test_sweep_reads_back_characterized_traversals(workers):
    with TrialExecutor(workers=workers) as exe:
        characterize_scenario_parallel(wean(), seed=0, trials=2,
                                       executor=exe)
        assert memo_stats(exe) == (0, 2)
        sweep = run_validation(wean(), RUNNER, seed=0, trials=2,
                               baseline=True, executor=exe)
        hits, _misses = memo_stats(exe)
    # Both traversals came back from the memo; every other trial of
    # the sweep was new.
    assert hits == 2
    assert sweep.fallback_reason is None
    # The caller passed no cache=, so the sweep reports none.
    assert sweep.cache_hits == 0 and sweep.cache_misses == 0
    fresh = run_validation(wean(), RUNNER, seed=0, trials=2,
                           baseline=True, workers=workers)
    assert sweep.render() == fresh.render()


@WORKERS
def test_repeated_sweep_returns_the_same_records(workers):
    obs = ObsConfig(metrics=True)
    with TrialExecutor(workers=workers) as exe:
        first = run_validation(wean(), RUNNER, seed=0, trials=1,
                               executor=exe, obs=obs)
        second = run_validation(wean(), RUNNER, seed=0, trials=1,
                                executor=exe, obs=obs)
        hits, misses = memo_stats(exe)
    # One collection, two live and two modulated trials, all read back.
    assert (hits, misses) == (5, 5)
    assert len(first.trial_metrics) == 5
    assert second.trial_metrics == first.trial_metrics
    assert second.render() == first.render()


@WORKERS
def test_cache_attached_to_a_running_executor_gets_every_artifact(
        workers, tmp_path):
    cache = tmp_path / "cache"
    with TrialExecutor(workers=workers) as exe:
        # Starts the backend over the scratch store ...
        scratch = run_validation(wean(), RUNNER, seed=0, trials=1,
                                 executor=exe)
        # ... which the cache then replaces as the executor's memo.
        cold = run_validation(wean(), RUNNER, seed=0, trials=1,
                              executor=exe, cache=cache)
    assert cold.cache_hits == 0 and cold.cache_misses > 0
    warm = run_validation(wean(), RUNNER, seed=0, trials=1,
                          workers=workers, cache=cache)
    assert warm.cache_misses == 0
    assert warm.cache_hits == cold.cache_misses
    assert warm.render() == cold.render() == scratch.render()


@WORKERS
def test_repeated_ethernet_baseline_is_read_back(workers):
    with TrialExecutor(workers=workers) as exe:
        first = ethernet_baseline_parallel(RUNNER, seed=0, trials=2,
                                           executor=exe)
        # Two variants (send, recv) of two trials each, all new.
        assert memo_stats(exe) == (0, 4)
        second = ethernet_baseline_parallel(RUNNER, seed=0, trials=2,
                                            executor=exe)
        # The second call submits nothing: every trial is a memo hit.
        assert memo_stats(exe) == (4, 4)
    assert second == first
    assert ethernet_baseline(RUNNER, seed=0, trials=2) == first


@WORKERS
def test_scratch_store_is_made_lazily_and_removed_on_shutdown(
        workers, tmp_path, monkeypatch):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))

    def scratch_dirs():
        return list(tmp_path.glob("repro-ipc-*"))

    exe = TrialExecutor(workers=workers)
    try:
        assert scratch_dirs() == []
        run_validation(wean(), RUNNER, seed=0, trials=1, executor=exe)
        (root,) = scratch_dirs()
        assert list((root / "objects").glob("*/*.rba"))
    finally:
        exe.shutdown()
    assert scratch_dirs() == []


# ----------------------------------------------------------------------
# Hits decode when first read
# ----------------------------------------------------------------------
def four_scenario_sweep(cache, workers, executor=None):
    return run_validation(ALL_SCENARIOS, RUNNER, seed=0, trials=1,
                          baseline=True, workers=workers, cache=cache,
                          executor=executor)


def distilled(validations):
    """Every distillation of a sweep, as comparable values."""
    return [[(d.replay.name, d.replay.tuples, d.estimates, d.groups_total,
              d.groups_used, d.echoes_sent, d.replies_received)
             for d in v.distillations]
            for v in validations]


@pytest.fixture(scope="module")
def cold_cache(tmp_path_factory):
    """A cache filled by one cold four-scenario sweep: its directory,
    table, distillations and the fingerprints of its artifacts by
    stage."""
    root = tmp_path_factory.mktemp("cold") / "cache"
    pipeline = Pipeline(root)
    cold = four_scenario_sweep(pipeline, workers=2)
    by_stage = {}
    for execution in pipeline.executions:
        by_stage.setdefault(execution.stage, []).append(
            execution.fingerprint)
    return root, cold.render(), distilled(cold.validations), by_stage


def cache_copy(cold_cache, tmp_path):
    root = tmp_path / "cache"
    shutil.copytree(cold_cache[0], root)
    return root


def corrupt(root, fingerprint):
    (root / "objects" / fingerprint[:2]
     / f"{fingerprint}.rba").write_bytes(b"not an artifact")


@WORKERS
def test_warm_rerun_decodes_no_distillation(workers, cold_cache,
                                            monkeypatch):
    root, table, _, by_stage = cold_cache
    assert len(by_stage["distill"]) == 4
    decodes = []
    decode_gz = codec.decode_gz

    def counting_decode_gz(blob):
        decodes.append(len(blob))
        return decode_gz(blob)

    monkeypatch.setattr(codec, "decode_gz", counting_decode_gz)
    pipeline = Pipeline(root)
    warm = four_scenario_sweep(pipeline, workers)
    assert warm.render() == table
    assert (warm.cache_hits, warm.cache_misses) == (23, 0)
    # Everything the table needs, and not one of the four traversals.
    assert pipeline.decoded == {"compensation": 1, "live": 8,
                                "modulated": 8, "ethernet": 2}
    assert len(decodes) == 19


@WORKERS
def test_warm_distillations_equal_the_cold_ones(workers, cold_cache):
    root, _, cold_distilled, _ = cold_cache
    pipeline = Pipeline(root)
    warm = four_scenario_sweep(pipeline, workers)
    assert pipeline.decoded["distill"] == 0
    # Read after the sweep's own executor has shut down.
    assert distilled(warm.validations) == cold_distilled
    assert pipeline.decoded["distill"] == 4


@WORKERS
def test_distillations_readable_after_shutdown_from_a_cache(
        workers, cold_cache):
    root, _, cold_distilled, _ = cold_cache
    with TrialExecutor(workers=workers) as exe:
        warm = four_scenario_sweep(Pipeline(root), workers, executor=exe)
    assert distilled(warm.validations) == cold_distilled


@WORKERS
def test_distillations_readable_after_shutdown_from_the_scratch_memo(
        workers, tmp_path, monkeypatch):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    with TrialExecutor(workers=workers) as exe:
        first = run_validation(wean(), RUNNER, seed=0, trials=2,
                               executor=exe)
        second = run_validation(wean(), RUNNER, seed=0, trials=2,
                                executor=exe)
        # The second sweep found every trial in the memo, so nothing
        # read its two traversals.
        assert memo_stats(exe) == (10, 10)
    assert list(tmp_path.glob("repro-ipc-*")) == []
    assert distilled(second.validations) == distilled(first.validations)
    # Reading them wrote nothing where the scratch store was.
    assert list(tmp_path.glob("repro-ipc-*")) == []


@WORKERS
def test_corrupted_distillation_is_recomputed_when_read(
        workers, cold_cache, tmp_path):
    _, table, cold_distilled, by_stage = cold_cache
    root = cache_copy(cold_cache, tmp_path)
    bad = by_stage["distill"][0]
    corrupt(root, bad)
    pipeline = Pipeline(root)
    warm = four_scenario_sweep(pipeline, workers)
    # The traversal's modulated trials hit, so the sweep never read it.
    assert warm.render() == table
    assert (warm.cache_hits, warm.cache_misses) == (23, 0)
    assert distilled(warm.validations) == cold_distilled
    assert pipeline.misses == 1
    assert [e.fingerprint for e in pipeline.executions
            if e.status == "miss"] == [bad]
    found, value = Pipeline(root).lookup(bad)
    assert found and value.replay.tuples in [
        d[1] for validation in cold_distilled for d in validation]


@WORKERS
def test_corrupted_metric_artifacts_are_recomputed_as_misses(
        workers, cold_cache, tmp_path):
    _, table, _, by_stage = cold_cache
    root = cache_copy(cold_cache, tmp_path)
    bad = [by_stage["live"][0], by_stage["modulated"][0]]
    for fingerprint in bad:
        corrupt(root, fingerprint)
    pipeline = Pipeline(root)
    warm = four_scenario_sweep(pipeline, workers)
    assert warm.render() == table
    assert (warm.cache_hits, warm.cache_misses) == (23, 2)
    assert sorted(e.fingerprint for e in pipeline.executions
                  if e.status == "miss") == sorted(bad)
    # Rerunning the modulated trial needed its traversal's replay.
    assert pipeline.decoded["distill"] == 1
    again = Pipeline(root)
    rerun = four_scenario_sweep(again, workers)
    assert rerun.render() == table and again.misses == 0
