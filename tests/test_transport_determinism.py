"""Result planes: store envelope ≡ reply-frame pickle ≡ serial, bit for bit.

A worker hands a result back one of two ways.  When the memo store has
a directory (the executor's scratch store, or a disk cache) it seals
every result of 4 KiB or more into the store and replies with a small
envelope (the "envelope" plane); with a memory-only cache there is no
directory to share, so every result rides the reply frame pickled (the
"pickle" plane).  These tests pin the contract that the plane can never
change a result — identical tables for any worker count on either
plane, and identical behaviour with a disk cache underneath (where
workers write artifacts straight into the pipeline's own store).
"""

import pytest

from repro.pipeline import Pipeline
from repro.scenarios import PorterScenario, WeanScenario
from repro.validation.harness import FtpRunner
from repro.validation.parallel import run_validation

# The ``cache=`` that selects each plane: none (the executor's scratch
# store, a directory) or a memory-only pipeline.
PLANES = {"envelope": lambda: None, "pickle": Pipeline}


@pytest.fixture(scope="module")
def reference_sweep():
    runner = FtpRunner(nbytes=150_000, direction="send")
    scenarios = [PorterScenario(), WeanScenario()]
    sweep = run_validation(scenarios, runner, seed=0, trials=2,
                           baseline=True, workers=1)
    return runner, scenarios, sweep.render()


def _sweep(reference_sweep, workers, transport):
    runner, scenarios, _ = reference_sweep
    return run_validation(scenarios, runner, seed=0, trials=2,
                          baseline=True, workers=workers,
                          cache=PLANES[transport]())


@pytest.mark.parametrize("workers", [1, 2, 4])
@pytest.mark.parametrize("transport", ["envelope", "pickle"])
def test_transport_and_worker_count_change_nothing(reference_sweep,
                                                   workers, transport):
    reference = reference_sweep[2]
    sweep = _sweep(reference_sweep, workers, transport)
    assert sweep.render() == reference
    assert sweep.fallback_reason is None
    if workers > 1:
        assert sweep.workers_used > 1
        assert sweep.transport["transport"] == "remote"
        # results crossed the boundary: both planes account bytes
        assert sweep.transport["ipc_bytes_sent"] > 0
        if transport == "envelope":
            assert sweep.transport["envelope_count"] > 0
        else:
            assert sweep.transport["envelope_count"] == 0
    else:
        assert sweep.transport["transport"] == "serial"


def test_envelope_moves_bulk_results_out_of_the_pipe(reference_sweep):
    """The envelope sweep's pipe traffic must be a small fraction of
    the pickle sweep's — bulk artifacts travel through the store."""
    reference = reference_sweep[2]
    env = _sweep(reference_sweep, 2, "envelope")
    pick = _sweep(reference_sweep, 2, "pickle")
    assert env.render() == pick.render() == reference
    assert env.transport["envelope_count"] > 0
    assert pick.transport["envelope_count"] == 0
    env_pipe = (env.transport["ipc_bytes_sent"]
                + env.transport["ipc_bytes_recv"])
    pick_pipe = (pick.transport["ipc_bytes_sent"]
                 + pick.transport["ipc_bytes_recv"])
    assert env_pipe < pick_pipe / 4


def test_envelope_with_disk_cache_warm_rerun_zero_recompute(tmp_path):
    runner = FtpRunner(nbytes=120_000, direction="send")

    def sweep(pipeline):
        return run_validation([PorterScenario()], runner, seed=0,
                              trials=1, baseline=True, workers=2,
                              cache=pipeline)

    cold = sweep(Pipeline(str(tmp_path)))
    assert cold.cache_misses > 0 and cold.cache_hits == 0
    # local workers wrote binary-framed objects into the pipeline's
    # own store — no separate staging copies
    assert list((tmp_path / "objects").glob("*/*.rba"))

    warm = sweep(Pipeline(str(tmp_path)))
    assert warm.cache_misses == 0 and warm.cache_hits > 0
    assert warm.render() == cold.render()
