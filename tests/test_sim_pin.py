"""Full-precision pins of small end-to-end trials.

The golden tables (``tests/golden``) round trial metrics to two
decimals, so a drift far below that — one RNG draw moved, two
same-instant events swapped, a float expression reassociated — passes
them.  These pins fix, for a handful of small trials covering every
model layer, the engine's fired and scheduled event counts, the frames
each medium carried, and the exact ``repr`` of every metric (for the
trace collection, a digest of every record).

Change a constant only together with a change that is meant to alter
what the simulation does; a change that only makes the simulator
cheaper must leave every value here untouched.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.scenarios import ChatterboxScenario, WeanScenario
from repro.validation.harness import (
    AndrewRunner,
    FtpRunner,
    WebRunner,
    collect_trace,
    compensation_vb,
    distill_scenario_trace,
    run_ethernet_trial,
    run_live_trial,
    run_modulated_trial,
)

SEED = 3
FTP_BYTES = 200_000

# case -> (events fired, events scheduled, frames per medium, outcome)
PINS = {
    "chatterbox-collect": (
        9084, 9925, {"ether": 2542, "radio": 2543, "radio_lost": 2},
        {"records": 1415,
         "sha256": "f9c357e9d24f46d7ffc15a1cfbb2ae30"
                   "a96f0525c37aa9d8946dfe999cf25cd6"}),
    "wean-ftp-send-live": (
        1156, 1335, {"ether": 302, "radio": 304, "radio_lost": 4},
        {"send": "2.0243090684138507"}),
    "wean-ftp-recv-live": (
        1166, 1338, {"ether": 283, "radio": 286, "radio_lost": 4},
        {"recv": "1.7687172061916132"}),
    "wean-ftp-send-modulated": (
        872, 1041, {"ether": 258}, {"send": "1.7055497999999991"}),
    "wean-ftp-recv-modulated": (
        904, 1082, {"ether": 276}, {"recv": "1.445549729032257"}),
    "ftp-send-ethernet": (
        429, 597, {"ether": 256}, {"send": "0.5803517016434898"}),
    "ftp-recv-ethernet": (
        367, 547, {"ether": 267}, {"recv": "0.3548284451612913"}),
    "wean-andrew-live": (
        7652, 8462, {"ether": 1764, "radio": 1776, "radio_lost": 15},
        {"MakeDir": "1.788509171753892",
         "Copy": "18.5292139748929",
         "ScanDir": "8.960837138231387",
         "ReadAll": "18.063914685553502",
         "Make": "127.04623324289591",
         "Total": "174.3887082133276"}),
    "wean-web-live": (
        3283, 3976, {"ether": 970, "radio": 973, "radio_lost": 3},
        {"elapsed": "33.08166956955758"}),
}


def _wean_replay():
    records = collect_trace(WeanScenario(), SEED, 0, duration=30.0)
    return distill_scenario_trace(records, name="wean-pin").replay


def _run(case: str, world_out: dict):
    """Run one pinned trial; returns its outcome in the PINS form."""
    if case == "chatterbox-collect":
        records = collect_trace(ChatterboxScenario(), SEED, 0, duration=10.0,
                                world_out=world_out)
        return {"records": len(records),
                "sha256": hashlib.sha256(repr(records).encode()).hexdigest()}
    wean = WeanScenario()
    if case.startswith(("wean-ftp-", "ftp-")):
        direction = "send" if "-send-" in case else "recv"
        runner = FtpRunner(FTP_BYTES, direction)
        if case.endswith("-live"):
            sink = run_live_trial(wean, runner, SEED, 0, world_out=world_out)
        elif case.endswith("-modulated"):
            sink = run_modulated_trial(_wean_replay(), runner, SEED, 0,
                                       compensation_vb(),
                                       world_out=world_out)
        else:
            sink = run_ethernet_trial(runner, SEED, 0, world_out=world_out)
    elif case == "wean-andrew-live":
        sink = run_live_trial(wean, AndrewRunner(), SEED, 0,
                              world_out=world_out)
    else:
        sink = run_live_trial(wean, WebRunner(users=1), SEED, 0,
                              world_out=world_out)
    return {metric: repr(value) for metric, value in sink.items()}


@pytest.mark.parametrize("case", sorted(PINS))
def test_trial_pinned_at_full_precision(case):
    world_out: dict = {}
    outcome = _run(case, world_out)
    world = world_out["world"]
    stats = world.sim.stats()
    media = {"ether": world.ether.frames_carried}
    medium = getattr(world, "medium", None)
    if medium is not None:
        media["radio"] = medium.frames_carried
        media["radio_lost"] = medium.frames_lost
    fired, scheduled, want_media, want_outcome = PINS[case]
    assert outcome == want_outcome
    assert (stats.events_fired, stats.events_scheduled) == (fired, scheduled)
    assert media == want_media
