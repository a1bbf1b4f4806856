"""One workload of the end-to-end benchmark, in a fresh interpreter.

``bench_e2e.py`` starts this script once per run, plus a few times with
``--mode setup`` to time set-up alone.  Set-up is everything between
process spawn and the first timed call: interpreter start, imports, the
delay-compensation measurement and building the benchmark runners.

A run then executes *passes* of the workload while the next one is
expected to end within ``--seconds`` of wall time, always at least one.
Every pass builds its own executor and shuts it down, so worker
processes are reaped and their CPU time shows in ``RUSAGE_CHILDREN``.
With ``--traced`` each pass runs with ``obs=ObsConfig()`` under a
:class:`layers.StackSampler`.

The script writes one JSON document to ``--out``; bench_e2e.py turns
it into metrics and checks.
"""

from __future__ import annotations

import argparse
import hashlib
import heapq
import io
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional

from layers import Attributor, StackSampler, module_layers, stage_codes

from repro.analysis import render_table
from repro.core import Distiller, install_modulation
from repro.hosts import LAPTOP_ADDR, SERVER_ADDR, ModulationWorld
from repro.net.packet import POOL
from repro.obs import ObsConfig, SweepProgress
from repro.pipeline import ArtifactStore, Pipeline
from repro.scenarios import ALL_SCENARIOS, FlagstaffScenario, WeanScenario
from repro.sim import Timeout
from repro.validation import (
    AndrewRunner,
    FtpRunner,
    TrialExecutor,
    WebRunner,
    characterize_scenario_parallel,
    collect_trace,
    compensation_vb,
    figure1_compensation,
    figure1_slow_network_check,
    render_andrew_table,
    render_benchmark_table,
    run_validation,
)

KB = 1024
MB = 1024 * KB


@dataclass(frozen=True)
class Sizes:
    """Input sizes of every workload.  :data:`PAPER` is the paper's
    protocol; :data:`SMOKE` shrinks it so all four workloads finish in
    seconds."""

    trials: int
    ftp_bytes: int        # Figure 7, in the paper workload
    ftp2_bytes: int       # the FTP sweep of ftp_serial and mc_cache
    fig1_sizes: tuple
    fig1_slow_sizes: tuple
    ablation_comp_sizes: tuple
    web_requests: int


PAPER = Sizes(trials=4, ftp_bytes=10 * MB, ftp2_bytes=2 * MB,
              fig1_sizes=(MB // 2, MB, 2 * MB, 4 * MB),
              fig1_slow_sizes=(MB // 2, MB),
              ablation_comp_sizes=(MB, 2 * MB), web_requests=55)
SMOKE = Sizes(trials=1, ftp_bytes=128 * KB, ftp2_bytes=32 * KB,
              fig1_sizes=(128 * KB,), fig1_slow_sizes=(128 * KB,),
              ablation_comp_sizes=(128 * KB,), web_requests=2)

# bench_ablations runs the Flagstaff symmetry check at two trials.
SYMMETRY_TRIALS = 2

# Warm reruns in every mc_cache pass, so that one pass gives a p90 with
# ten samples beyond it.
RERUNS = 100

# The figure sweeps whose cells make up the fidelity verdict.
FIDELITY_SWEEPS = ("fig6_web", "fig7_ftp", "fig8_andrew", "ftp2")

# What reference_kernel takes on the reference host when nothing else
# runs there.  Times are reported at this speed.
REF_KERNEL_S = 0.005
# When other tenants slow the host down, the simulator slows by the
# kernel's slowdown to this power: the slope of log sweep time on log
# kernel time over 67 repeats of one fixed sweep on the reference host.
SENSITIVITY = 0.6


def workers_for(workload: str) -> int:
    if workload in ("ftp_serial", "nfs_serial"):
        return 1
    return min(4, len(os.sched_getaffinity(0)))


class _Entry:
    __slots__ = ("when", "key", "payload")

    def __init__(self, when, key, payload):
        self.when = when
        self.key = key
        self.payload = payload


def reference_kernel() -> float:
    """Fixed interpreter-bound work that uses no ``repro`` code: a heap
    of small objects, dict updates and float sums, the operations the
    simulator spends its time on, then an integer loop.  On a shared
    host the two parts slow down by different amounts, and their sum
    follows the simulator's speed more closely than either part."""
    heap: list = []
    counts: Dict[int, int] = {}
    total = 0.0
    for i in range(3000):
        entry = _Entry((i * 7919) % 1000 + i, i, {"size": i & 1023})
        heapq.heappush(heap, (entry.when, i, entry))
        if len(heap) > 64:
            _, _, got = heapq.heappop(heap)
            counts[got.key & 255] = counts.get(got.key & 255, 0) + 1
            total += got.payload["size"] * 1e-3
    acc = 0
    for i in range(30000):
        acc += (i * i) % 7
    return total + acc


class SpeedProbe(SweepProgress):
    """Times :func:`reference_kernel` whenever the main thread is
    between two pieces of work and no worker process is busy: after
    every trial of a serial executor (its progress hook), before and
    after every call of the pass, and in a burst before and after the
    pass.  A sample taken while workers run would measure how they
    contend for the CPUs, not the host.  :meth:`speed` is how fast this
    host ran the simulator during the pass, relative to the idle
    reference host; multiplying by it cancels most of the speed swings
    of a shared host.  :attr:`inside` is the probing time within the
    timed region, which the pass's wall and CPU time leave out."""

    BURST = 20

    def __init__(self):
        super().__init__(stream=io.StringIO())
        self.samples: List[float] = []
        self.inside = 0.0

    def speed(self) -> float:
        # The mean, not the median: the host's speed changes within
        # seconds, and the pass is slowed by the average of it.
        kernel_speed = REF_KERNEL_S / statistics.fmean(self.samples)
        return kernel_speed ** SENSITIVITY

    def sample(self) -> None:
        t0 = time.perf_counter()
        reference_kernel()
        seconds = time.perf_counter() - t0
        self.samples.append(seconds)
        self.inside += seconds

    def burst(self) -> None:
        for _ in range(self.BURST):
            self.sample()
        self.inside -= sum(self.samples[-self.BURST:])

    def completed(self, n: int = 1) -> None:
        super().completed(n)
        self.sample()


def cpu_seconds() -> tuple:
    """(this process, its reaped children) user+system CPU seconds."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (own.ru_utime + own.ru_stime, kids.ru_utime + kids.ru_stime)


def sweep_trials(n_scenarios: int, runner, trials: int,
                 baseline: bool = True) -> int:
    """Trials one ``run_validation`` call executes: per scenario and
    trial a collection, a live and a modulated trial per variant, then
    the Ethernet trials."""
    variants = len(runner.variants())
    return (n_scenarios * trials * (1 + 2 * variants)
            + (variants * trials if baseline else 0))


class Context:
    """Set-up state shared by every pass of one run."""

    def __init__(self, workload: str, seed: int, sizes: Sizes,
                 traced: bool, work: Path):
        self.workload = workload
        self.seed = seed
        self.sizes = sizes
        self.workers = workers_for(workload)
        # Not on mc_cache: its warm reruns would read and decode the obs
        # records too, six times slower than the plain artifacts an
        # untraced rerun reads, so the traced split would describe other
        # work.  The sampler alone traces it.
        self.obs = ObsConfig() if traced and workload != "mc_cache" \
            else None
        self.work = work
        self.compensation = compensation_vb()
        self.web = WebRunner(requests_per_user=sizes.web_requests)
        self.ftp = FtpRunner(nbytes=sizes.ftp_bytes)
        self.ftp2 = FtpRunner(nbytes=sizes.ftp2_bytes)
        self.andrew = AndrewRunner()


class PassLog:
    """What one pass produced: rendered tables, sweeps, obs records and
    the operation count.  An operation is one trial; a call that raises
    fails all the trials it carried."""

    def __init__(self, probe: Optional[SpeedProbe] = None):
        self.probe = probe
        self.tables: Dict[str, str] = {}
        self.sweeps: Dict[str, object] = {}
        self.records: List[dict] = []
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.extra: Dict[str, float] = {}
        self.sweep_s: Dict[str, float] = {}
        self.reruns_ms: List[float] = []

    def call(self, label: str, trials: int, fn: Callable):
        self.attempted += trials
        if self.probe is not None:
            self.probe.sample()
        try:
            return fn()
        except Exception:  # a failed trial is counted, not fatal
            self.failed += trials
            text = traceback.format_exc()
            self.errors.append(f"{label}: {text.splitlines()[-1]}")
            print(f"[{label}] failed:\n{text}", file=sys.stderr)
            return None
        finally:
            if self.probe is not None:
                self.probe.sample()

    def sweep(self, ctx: Context, name: str, runner, executor, cache=None,
              title: str = ""):
        """One figure sweep over the four scenarios, timed on its own so
        that a parallel sweep compares with its serial twin."""
        trials = ctx.sizes.trials
        t0 = time.perf_counter()
        sweep = self.call(name, sweep_trials(len(ALL_SCENARIOS), runner,
                                             trials),
                          lambda: run_validation(
                              ALL_SCENARIOS, runner, seed=ctx.seed,
                              trials=trials, baseline=True,
                              executor=executor, obs=ctx.obs, cache=cache))
        self.sweep_s[name] = time.perf_counter() - t0
        if sweep is not None:
            self.sweeps[name] = sweep
            self.tables[name] = render(sweep, title or name)
            self.records.extend(sweep.trial_metrics)
        return sweep

    def digest(self) -> str:
        h = hashlib.sha256()
        for name in sorted(self.tables):
            h.update(name.encode() + b"\0" + self.tables[name].encode()
                     + b"\0")
        return h.hexdigest()


def render(sweep, title: str) -> str:
    if sweep.benchmark == "andrew":
        return render_andrew_table(sweep.validations, sweep.baseline)
    return render_benchmark_table(sweep.validations, sweep.baseline,
                                  title=title)


# ----------------------------------------------------------------------
# Workload passes
# ----------------------------------------------------------------------
def paper_pass(ctx: Context, log: PassLog, executor) -> None:
    """The calls bench_fig1 ... bench_fig8 and bench_ablations make."""
    sizes, seed = ctx.sizes, ctx.seed
    fig1 = log.call("fig1", 4 * len(sizes.fig1_sizes),
                    lambda: figure1_compensation(seed=seed,
                                                 sizes=sizes.fig1_sizes))
    if fig1 is not None:
        log.tables["fig1"] = fig1.render()
    slow = log.call("fig1_slow", 4 * len(sizes.fig1_slow_sizes),
                    lambda: figure1_slow_network_check(
                        seed=seed, sizes=sizes.fig1_slow_sizes))
    if slow is not None:
        log.tables["fig1_slow"] = slow.render()
    for scenario_cls in ALL_SCENARIOS:
        scenario = scenario_cls()
        char = log.call(f"characterize_{scenario.name}", sizes.trials,
                        lambda: characterize_scenario_parallel(
                            scenario, seed=seed, trials=sizes.trials,
                            executor=executor, obs=ctx.obs,
                            trial_metrics=log.records))
        if char is not None:
            log.tables[f"characterize_{scenario.name}"] = char.render()
    log.sweep(ctx, "fig6_web", ctx.web, executor,
              title="Figure 6: Elapsed Times for World Wide Web Benchmark")
    log.sweep(ctx, "fig7_ftp", ctx.ftp, executor,
              title="Figure 7: Elapsed Times for FTP Benchmark")
    log.sweep(ctx, "fig8_andrew", ctx.andrew, executor)
    ablations(ctx, log, executor)


def ablations(ctx: Context, log: PassLog, executor) -> None:
    seed, wean = ctx.seed, WeanScenario()

    def window_width() -> str:
        records = collect_trace(wean, seed, 0)
        rows = []
        for width in (1.0, 5.0, 15.0):
            latencies = [t.F for t in
                         Distiller(window_width=width).distill(records).replay]
            rows.append([f"{width:.0f} s",
                         f"{statistics.fmean(latencies) * 1e3:.2f}",
                         f"{statistics.pstdev(latencies) * 1e3:.2f}"])
        return render_table(["Window", "mean F (ms)", "stddev F (ms)"], rows,
                            title="Ablation: sliding-window width")

    def tick_granularity() -> Dict[float, float]:
        replay = Distiller().distill(collect_trace(wean, seed, 0)).replay
        out = {}
        for tick in (0.010, 0.001):
            world = ModulationWorld(seed=seed, tick_resolution=tick)
            install_modulation(world.laptop, world.laptop_device, replay,
                               world.rngs.stream("mod"),
                               compensation_vb=ctx.compensation, loop=True)
            rtts: List[float] = []
            world.laptop.icmp.on_echo_reply(
                9, lambda pkt, now: rtts.append(
                    now - pkt.meta["echo_sent_at"]))

            def pinger():
                yield Timeout(0.5)
                for seq in range(40):
                    world.laptop.icmp.send_echo(LAPTOP_ADDR, SERVER_ADDR, 9,
                                                seq, 16)
                    yield Timeout(0.25)

            world.laptop.spawn(pinger())
            world.run(until=15.0)
            out[tick] = statistics.fmean(rtts)
        return out

    def compensation_gap() -> str:
        result = figure1_compensation(seed=seed,
                                      sizes=ctx.sizes.ablation_comp_sizes)
        return render_table(
            ["Compensation", "fetch/store throughput gap"],
            [[label, f"{result.fetch_store_gap(compensated=on) * 100:.1f}%"]
             for label, on in (("off", False), ("on", True))],
            title="Ablation: inbound delay compensation")

    table = log.call("ablation_window", 4, window_width)
    if table is not None:
        log.tables["ablation_window"] = table
    ticks = log.call("ablation_tick", 3, tick_granularity)
    if ticks is not None:
        log.tables["ablation_tick"] = render_table(
            ["Tick", "small-message RTT (ms)"],
            [[f"{t * 1e3:.0f} ms", f"{v * 1e3:.2f}"]
             for t, v in sorted(ticks.items(), reverse=True)],
            title="Ablation: scheduling granularity")
        log.extra["tick_rtt_ratio"] = ticks[0.001] / ticks[0.010]
    table = log.call("ablation_compensation",
                     4 * len(ctx.sizes.ablation_comp_sizes), compensation_gap)
    if table is not None:
        log.tables["ablation_compensation"] = table
    symmetry = log.call(
        "ablation_symmetry",
        sweep_trials(1, ctx.ftp, SYMMETRY_TRIALS, baseline=False),
        lambda: run_validation([FlagstaffScenario()], ctx.ftp, seed=seed,
                               trials=SYMMETRY_TRIALS, executor=executor))
    if symmetry is not None:
        log.tables["ablation_symmetry"] = symmetry.render()


FTP2_TITLE = "FTP 2 MB sweep"


def ftp_serial_pass(ctx: Context, log: PassLog, executor) -> None:
    """The inputs of mc_cache's cold sweep, serially and uncached."""
    log.sweep(ctx, "ftp2", ctx.ftp2, executor, title=FTP2_TITLE)


def nfs_serial_pass(ctx: Context, log: PassLog, executor) -> None:
    """The paper workload's Figure 8 sweep, serially."""
    log.sweep(ctx, "fig8_andrew", ctx.andrew, executor)


def mc_cache_pass(ctx: Context, log: PassLog, executor) -> None:
    """The cold sweep on a fresh cache directory, then :data:`RERUNS`
    warm reruns against it, each through a fresh :class:`Pipeline` as a
    new command would.  Every rerun must hit on every trial and render
    the cold table byte for byte.  The cache is deleted at the end."""
    cache_dir = Path(tempfile.mkdtemp(prefix="cache-", dir=ctx.work))
    try:
        cold = log.sweep(ctx, "ftp2", ctx.ftp2, executor,
                         cache=Pipeline(ArtifactStore(cache_dir)),
                         title=FTP2_TITLE)
        if cold is None:
            return
        log.extra["cache_bytes"] = sum(
            p.stat().st_size for p in cache_dir.rglob("*") if p.is_file())
        log.extra["cache_misses"] = cold.cache_misses

        def rerun():
            # Timed in here, so that the probe samples around it are not.
            t0 = time.perf_counter()
            sweep = run_validation(ALL_SCENARIOS, ctx.ftp2, seed=ctx.seed,
                                   trials=ctx.sizes.trials, baseline=True,
                                   workers=ctx.workers,
                                   cache=Pipeline(ArtifactStore(cache_dir)))
            text = render(sweep, FTP2_TITLE)
            log.reruns_ms.append((time.perf_counter() - t0) * 1e3)
            return sweep, text

        for i in range(RERUNS):
            got = log.call(f"rerun{i}", 1, rerun)
            if got is None:
                continue
            sweep, text = got
            log.extra["cache_hits"] = sweep.cache_hits
            if text != log.tables["ftp2"] or sweep.cache_misses:
                log.failed += 1
                log.errors.append(f"rerun{i}: differs from the cold table "
                                  f"({sweep.cache_misses} misses)")
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)


PASSES = {"paper": paper_pass, "ftp_serial": ftp_serial_pass,
          "nfs_serial": nfs_serial_pass, "mc_cache": mc_cache_pass}


# ----------------------------------------------------------------------
# Traced-pass counters
# ----------------------------------------------------------------------
def obs_counters(records: List[dict]) -> Dict[str, float]:
    """Fold the sweep's per-trial obs records into per-layer counts."""
    out = dict.fromkeys((
        "engine.events_fired", "engine.events_cancelled",
        "media.frames_carried", "media.frames_lost", "media.queue_drops",
        "ip.fragments_sent", "ip.reassembled", "ip.reassembly_timeouts",
        "modulation.out_packets", "modulation.sent_immediately",
        "modulation.under_delayed", "kernel.rounded_callouts",
        "kernel.immediate_callouts"), 0)
    sweeps = engine_wall = 0.0
    hwm = 0
    for rec in records:
        engine = rec.get("engine", {})
        out["engine.events_fired"] += engine.get("events_fired", 0)
        out["engine.events_cancelled"] += engine.get("events_cancelled", 0)
        sweeps += engine.get("bucket_sweeps", 0)
        engine_wall += engine.get("wall_time", 0.0)
        hwm = max(hwm, engine.get("pending_hwm", 0))
        collected = rec.get("metrics", {}).get("collected", {})
        for key, value in collected.items():
            if key.endswith(".frames_carried"):
                out["media.frames_carried"] += value
            elif key.endswith(".frames_lost"):
                out["media.frames_lost"] += value
        out["modulation.out_packets"] += collected.get(
            "modulation.out_packets", 0)
        for key, value in rec.get("drops", {}).items():
            if key.endswith(".queue_full"):
                out["media.queue_drops"] += value
        for host in rec.get("hosts", {}).values():
            ip, kernel = host.get("ip", {}), host.get("kernel", {})
            for name in ("fragments_sent", "reassembled",
                         "reassembly_timeouts"):
                out[f"ip.{name}"] += ip.get(name, 0)
            for name in ("rounded_callouts", "immediate_callouts"):
                out[f"kernel.{name}"] += kernel.get(name, 0)
        totals = rec.get("modulation", {}).get("totals", {})
        out["modulation.sent_immediately"] += totals.get("sent_immediately", 0)
        out["modulation.under_delayed"] += totals.get("under_delayed", 0)
    fired = out["engine.events_fired"]
    out["engine.batch_mean"] = fired / sweeps if sweeps else 0.0
    out["engine.pending_hwm"] = hwm
    out["engine.events_per_s"] = fired / engine_wall if engine_wall else 0.0
    return out


def sampler_metrics(sampler: StackSampler) -> Dict[str, float]:
    """Layer and stage time as shares of the sampled wall time.  Shares,
    not seconds, so that a layer a workload never enters reads 0 as a
    ratio; ``trace.sampled_s`` turns any share back into seconds."""
    total = sampler.total_s or 1.0
    out: Dict[str, float] = {
        "trace.samples": sampler.samples,
        "trace.sampled_s": sampler.total_s,
        "trace.coverage": sampler.attributed_s / total,
    }
    for layer, seconds in sampler.self_s.items():
        out[f"layer.{layer}.share"] = seconds / total
    out["layer.runtime.wait_share"] = sampler.wait_s["runtime"] / total
    for stage, seconds in sampler.stage_s.items():
        out[f"stage.{stage}.share"] = seconds / total
        out[f"stage.{stage}.calls"] = sampler.stage_calls[stage]
    return out


def runtime_metrics(stats: dict, children_cpu: float, workers: int,
                    wall: float) -> Dict[str, float]:
    """The executor's data-plane counters for one pass; its timers as
    shares of the pass's wall time."""
    serial = stats.get("transport", "serial") == "serial"
    return {
        "runtime.encode_share": stats.get("encode_ns", 0) / 1e9 / wall,
        "runtime.rehydrate_share": stats.get("rehydrate_ns", 0) / 1e9 / wall,
        "runtime.dispatch_share": stats.get("dispatch_ns", 0) / 1e9 / wall,
        "runtime.artifact_bytes": stats.get("artifact_bytes", 0),
        "runtime.ipc_bytes": (stats.get("ipc_bytes_sent", 0)
                              + stats.get("ipc_bytes_recv", 0)),
        "runtime.serial_fallbacks": stats.get("serial_fallbacks", 0),
        "runtime.worker_util": (0.0 if serial else
                                children_cpu / (workers * wall)),
    }


def fidelity(log: PassLog) -> Dict[str, float]:
    """The paper's verdict over every (scenario, metric) cell."""
    distances, within = [], 0
    for name in FIDELITY_SWEEPS:
        sweep = log.sweeps.get(name)
        for validation in getattr(sweep, "validations", ()):
            for comparison in validation.comparisons.values():
                distances.append(comparison.sigma_distance)
                within += comparison.accurate
    finite = [d for d in distances if d != float("inf")]
    return {"fidelity.cells": len(distances),
            "fidelity.cells_within_sigma": within,
            "fidelity.sigma_dist_mean":
                statistics.fmean(finite) if finite else 0.0}


def shape_claims(log: PassLog) -> Dict[str, float]:
    """The paper's shape claims as plain numbers.  They depend on the
    seed, so they are reported, never gated."""
    out: Dict[str, float] = {}
    ftp = log.sweeps.get("fig7_ftp")
    if ftp is not None:
        by = {v.scenario: v for v in ftp.validations}
        out["ether_ftp_send_s (paper 20.50)"] = ftp.baseline["send"].mean
        out["ether_ftp_recv_s (paper 18.83)"] = ftp.baseline["recv"].mean
        flag = by["flagstaff"]
        send, recv = flag.comparison("send"), flag.comparison("recv")
        out["flagstaff_live_send_minus_recv_s"] = \
            send.real.mean - recv.real.mean
        out["flagstaff_mod_send_minus_recv_s"] = \
            send.modulated.mean - recv.modulated.mean
        for direction in ("send", "recv"):
            comp = by["porter"].comparison(direction)
            out[f"porter_{direction}_mod_over_real"] = \
                comp.modulated.mean / comp.real.mean
    andrew = log.sweeps.get("fig8_andrew")
    if andrew is not None:
        out["ether_andrew_total_s (paper 124.00)"] = \
            andrew.baseline["Total"].mean
        readall = {v.scenario: v for v in andrew.validations}[
            "wean"].comparison("ReadAll")
        out["wean_readall_mod_over_real (10 ms ticks)"] = \
            readall.modulated.mean / readall.real.mean
    if "tick_rtt_ratio" in log.extra:
        out["small_msg_rtt_1ms_over_10ms_tick"] = log.extra["tick_rtt_ratio"]
    return out


# ----------------------------------------------------------------------
def one_pass(ctx: Context, attributor: Optional[Attributor]) -> tuple:
    """Run one pass; returns its record and its :class:`PassLog`.
    Untraced, a :class:`SpeedProbe` gives the record ``"speed"``; with an
    ``attributor`` the pass instead runs under a :class:`StackSampler`
    and the record gains ``"layer"``."""
    sampler = probe = None
    if attributor is not None:
        sampler = StackSampler(attributor)
    else:
        probe = SpeedProbe()
        probe.burst()
    log = PassLog(probe)
    pool_before = POOL.stats()
    cpu0 = cpu_seconds()
    if sampler is not None:
        switch = sys.getswitchinterval()
        sys.setswitchinterval(0.001)
        sampler.start()
    try:
        t0 = time.perf_counter()
        with TrialExecutor(workers=ctx.workers) as executor:
            if ctx.workers == 1:
                executor.progress = probe
            PASSES[ctx.workload](ctx, log, executor)
        wall = time.perf_counter() - t0
        cpu1 = cpu_seconds()
        left_out = probe.inside if probe is not None else 0.0
    finally:
        if sampler is not None:
            sampler.stop()
            sys.setswitchinterval(switch)
    if probe is not None:
        probe.burst()
    record = {"wall_s": wall - left_out,
              "cpu_s": (cpu1[0] - cpu0[0]) + (cpu1[1] - cpu0[1]) - left_out,
              "speed": probe.speed() if probe else None,
              "digest": log.digest(),
              "attempted": log.attempted, "failed": log.failed,
              "errors": log.errors, "sweep_s": log.sweep_s,
              "reruns_ms": log.reruns_ms,
              "cache": {f"cache.{key}": log.extra.get(f"cache_{key}", 0)
                        for key in ("hits", "misses", "bytes")}}
    if sampler is not None:
        pool_after = POOL.stats()
        fresh = pool_after["fresh"] - pool_before["fresh"]
        reused = pool_after["reused"] - pool_before["reused"]
        layer = sampler_metrics(sampler)
        layer.update(obs_counters(log.records))
        layer.update(runtime_metrics(executor.transport_stats(),
                                     cpu1[1] - cpu0[1], ctx.workers, wall))
        layer.update({
            "packet.pool_fresh": fresh,
            "packet.pool_reuse_ratio": (reused / (fresh + reused)
                                        if fresh + reused else 0.0),
        })
        record["layer"] = layer
    return record, log


def run(ctx: Context, seconds: float, traced: bool) -> dict:
    """Passes until the next one would end after ``seconds``."""
    attributor = Attributor(module_layers(), stage_codes()) if traced \
        else None
    passes: List[dict] = []
    started = time.perf_counter()
    while True:
        record, log = one_pass(ctx, attributor)
        passes.append(record)
        if len(passes) == 1:
            first = log
        elapsed = time.perf_counter() - started
        if elapsed + elapsed / len(passes) > seconds:
            break
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {
        "workers": ctx.workers,
        "passes": passes,
        "tables": {name: hashlib.sha256(text.encode()).hexdigest()
                   for name, text in first.tables.items()},
        "fidelity": fidelity(first),
        "claims": shape_claims(first),
        "peak_rss_kb": max(own, kids),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--mode", choices=("setup", "run"), required=True)
    parser.add_argument("--workload", choices=sorted(PASSES), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    ctx = Context(args.workload, args.seed, SMOKE if args.smoke else PAPER,
                  args.traced, args.work)
    result = {"ready_at": time.time()}
    probe = SpeedProbe()
    probe.burst()
    result["speed"] = probe.speed()
    if args.mode == "run":
        result.update(run(ctx, args.seconds, args.traced))
    args.out.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
