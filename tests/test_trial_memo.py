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
"""

import tempfile

import pytest

from repro.obs import ObsConfig
from repro.scenarios import scenario_by_name
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
