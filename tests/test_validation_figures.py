"""Unit tests for the figure helpers in repro.validation.figures.

``fetch_store_gap`` and ``checkpoint_ranges`` are pure functions over
hand-built inputs here, so their math is pinned independently of any
simulation; the slow-network check at the end pins the one Figure-1
property the paper leans on — compensation closes the fetch/store gap
— on the real pipeline at a fixed seed.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.core.replay import QualityTuple, ReplayTrace
from repro.validation.figures import (MB, CompensationPoint, Figure1Result,
                                      ScenarioCharacterization, _one_ftp,
                                      figure1_slow_network_check)
from repro.scenarios.base import Checkpoint, Scenario


# ----------------------------------------------------------------------
# Figure1Result.fetch_store_gap
# ----------------------------------------------------------------------
def _point(size, direction, compensated, throughput_bps):
    return CompensationPoint(size_bytes=size, direction=direction,
                             compensated=compensated,
                             elapsed=size * 8.0 / throughput_bps)


def test_throughput_from_elapsed():
    p = _point(MB, "store", True, 2e6)
    assert p.throughput_bps == pytest.approx(2e6)


def test_fetch_store_gap_mean_of_relative_gaps():
    fig = Figure1Result(points=[
        _point(MB, "store", False, 100.0),
        _point(MB, "fetch", False, 80.0),       # gap 0.20
        _point(2 * MB, "store", False, 200.0),
        _point(2 * MB, "fetch", False, 150.0),  # gap 0.25
    ])
    assert fig.fetch_store_gap(compensated=False) == pytest.approx(0.225)


def test_fetch_store_gap_ignores_unmatched_sizes():
    fig = Figure1Result(points=[
        _point(MB, "store", True, 100.0),
        _point(MB, "fetch", True, 90.0),        # gap 0.10
        _point(4 * MB, "store", True, 100.0),   # no fetch at 4 MB
    ])
    assert fig.fetch_store_gap(compensated=True) == pytest.approx(0.10)


def test_fetch_store_gap_empty_is_zero():
    assert Figure1Result().fetch_store_gap(compensated=True) == 0.0


def test_curve_filters_and_sorts():
    fig = Figure1Result(points=[
        _point(2 * MB, "store", True, 200.0),
        _point(MB, "store", True, 100.0),
        _point(MB, "fetch", True, 80.0),
        _point(MB, "store", False, 90.0),
    ])
    curve = fig.curve("store", compensated=True)
    assert [s for s, _ in curve] == [MB, 2 * MB]
    assert curve[0][1] == pytest.approx(100.0)


# ----------------------------------------------------------------------
# ScenarioCharacterization.checkpoint_ranges
# ----------------------------------------------------------------------
class _PathScenario(Scenario):
    name = "path"
    duration = 100.0
    checkpoints = (Checkpoint("start", 0.0), Checkpoint("mid", 0.5))


def _dist(estimates):
    return SimpleNamespace(estimates=estimates, status_records=[],
                           replay=[])


def _est(time, F, Vb=1e-5):
    return SimpleNamespace(time=time, F=F, Vb=Vb)


def test_checkpoint_ranges_bucket_by_fraction():
    char = ScenarioCharacterization(
        scenario=_PathScenario(),
        distillations=[
            _dist([_est(10.0, 0.010), _est(60.0, 0.030)]),
            _dist([_est(20.0, 0.015), _est(80.0, 0.020)]),
        ])
    labels, lows, highs = char.checkpoint_ranges("latency_ms")
    assert labels == ["start", "mid"]
    assert lows == pytest.approx([10.0, 20.0])   # min F per label, in ms
    assert highs == pytest.approx([15.0, 30.0])


def test_checkpoint_ranges_empty_bucket_defaults_to_zero():
    char = ScenarioCharacterization(
        scenario=_PathScenario(),
        distillations=[_dist([_est(10.0, 0.010)])])  # nothing past u=0.5
    labels, lows, highs = char.checkpoint_ranges("latency_ms")
    assert labels == ["start", "mid"]
    assert (lows[1], highs[1]) == (0.0, 0.0)


def test_checkpoint_ranges_bandwidth_skips_zero_cost():
    char = ScenarioCharacterization(
        scenario=_PathScenario(),
        distillations=[_dist([_est(10.0, 0.010, Vb=1e-5),
                              _est(20.0, 0.010, Vb=0.0)])])
    _, lows, highs = char.checkpoint_ranges("bandwidth_kbps")
    assert lows[0] == highs[0] == pytest.approx(8.0 / 1e-5 / 1e3)


def test_unknown_quantity_raises():
    char = ScenarioCharacterization(
        scenario=_PathScenario(),
        distillations=[_dist([_est(10.0, 0.010)])])
    with pytest.raises(ValueError, match="unknown quantity"):
        char.checkpoint_ranges("jitter")


# ----------------------------------------------------------------------
# Figure 1 on the real pipeline (slow-network independence check)
# ----------------------------------------------------------------------
@pytest.mark.check
def test_slow_network_independence_check():
    fig = figure1_slow_network_check(seed=0, sizes=(MB // 2,))
    gap_raw = fig.fetch_store_gap(compensated=False)
    gap_comp = fig.fetch_store_gap(compensated=True)
    # At 256 kb/s the modulating Ethernet's per-byte cost is a rounding
    # error next to the modeled cost, so the fetch/store gap must stay
    # near zero with or without compensation — the paper's evidence
    # that the compensation constant depends only on the testbed, not
    # on the network being modeled.
    assert abs(gap_raw) < 0.06
    assert abs(gap_comp) < 0.06
    # Compensation still shifts fetch faster by the (small) subtracted
    # Ethernet cost; the shift stays bounded by that cost's share.
    assert gap_comp < gap_raw
    assert gap_raw - gap_comp < 0.06


def test_figure1_trial_past_the_cap_says_so():
    # 10 ms per byte: 300 KB would take over 3000 s, past the 2400 s cap.
    slow = ReplayTrace([QualityTuple(d=1.0, F=0.0, Vb=0.01, Vr=0.0,
                                     L=0.0)] * 4, name="slow")
    with pytest.raises(RuntimeError, match="did not complete within 2400"):
        _one_ftp(slow, "store", 300_000, False, 0.0, seed=0)
