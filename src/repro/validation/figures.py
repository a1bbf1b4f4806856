"""Regenerating the paper's figures and tables.

* Figure 1  — effect of delay compensation on FTP fetch vs. store;
* Figures 2–4 — per-checkpoint ranges of signal / latency / bandwidth /
  loss for the motion scenarios, from four distilled traces;
* Figure 5  — the same quantities as histograms (Chatterbox, no motion);
* Figures 6–8 — the real-vs-modulated benchmark tables.

Everything renders to plain text; the bench harness prints these so the
"same rows/series the paper reports" come out of a pytest run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Generator, List, Optional, Sequence, Tuple

from ..analysis.stats import Summary, histogram
from ..analysis.tables import render_histogram, render_series, render_table
from ..apps.ftp import FtpClient, FtpServer
from ..core.distill import DistillationResult
from ..core.modulator import install_modulation
from ..core.replay import ReplayTrace
from ..core.synthetic import slow_network_trace, wavelan_like_trace
from ..hosts.worlds import ModulationWorld, SERVER_ADDR
from ..scenarios.base import Scenario
from ..sim.rng import derive_seed
from .harness import (
    BenchmarkRunner,
    ScenarioValidation,
    _run_until_done,
    compensation_vb,
)

MB = 1024 * 1024


# ======================================================================
# Figure 1 — delay compensation
# ======================================================================
@dataclass
class CompensationPoint:
    """One FTP transfer under a synthetic modulated network."""

    size_bytes: int
    direction: str          # "store" (outbound) or "fetch" (inbound)
    compensated: bool
    elapsed: float

    @property
    def throughput_bps(self) -> float:
        return self.size_bytes * 8.0 / self.elapsed


@dataclass
class Figure1Result:
    """All curves of Figure 1 plus the slow-network independence check."""

    points: List[CompensationPoint] = field(default_factory=list)

    def curve(self, direction: str,
              compensated: bool) -> List[Tuple[int, float]]:
        return sorted(
            (p.size_bytes, p.throughput_bps) for p in self.points
            if p.direction == direction and p.compensated == compensated)

    def fetch_store_gap(self, compensated: bool) -> float:
        """Mean relative throughput gap fetch vs. store across sizes."""
        store = dict(self.curve("store", compensated))
        fetch = dict(self.curve("fetch", compensated))
        gaps = [(store[s] - fetch[s]) / store[s]
                for s in store if s in fetch]
        return sum(gaps) / len(gaps) if gaps else 0.0

    def render(self) -> str:
        sizes = sorted({p.size_bytes for p in self.points})
        rows = []
        for size in sizes:
            row = [f"{size / MB:.1f} MB"]
            for direction, comp in (("store", True), ("fetch", False),
                                    ("fetch", True)):
                match = [p for p in self.points
                         if p.size_bytes == size and p.direction == direction
                         and p.compensated == comp]
                row.append(f"{match[0].throughput_bps / 1e6:.3f}"
                           if match else "-")
            rows.append(row)
        return render_table(
            ["Transfer", "Store Mb/s", "Fetch (no comp)", "Fetch (comp)"],
            rows,
            title="Figure 1: Effect of Delay Compensation",
            caption=("A perfect realization of the delay model would make "
                     "Fetch identical to Store; compensation subtracts the "
                     "modulating Ethernet's measured bottleneck cost from "
                     "inbound packets."),
        )


def _one_ftp(trace: ReplayTrace, direction: str, size_bytes: int,
             compensated: bool, comp_vb: float, seed: int) -> float:
    world = ModulationWorld(
        seed=derive_seed(seed, f"fig1:{direction}:{size_bytes}:{compensated}"))
    install_modulation(world.laptop, world.laptop_device, trace,
                       world.rngs.stream("modulation"),
                       compensation_vb=comp_vb if compensated else 0.0,
                       loop=True)
    FtpServer(world.server).start()
    client = FtpClient(world.laptop, SERVER_ADDR)
    sink: Dict[str, float] = {}

    def body() -> Generator:
        ftp_direction = "send" if direction == "store" else "recv"
        result = yield from client.transfer(ftp_direction, size_bytes)
        sink["elapsed"] = result.elapsed

    proc = world.laptop.spawn(body(), name="fig1-ftp")
    _run_until_done(world, proc)
    return sink["elapsed"]


def figure1_compensation(seed: int = 0,
                         sizes: Sequence[int] = (MB // 2, MB, 2 * MB,
                                                 4 * MB, 8 * MB),
                         trace: Optional[ReplayTrace] = None
                         ) -> Figure1Result:
    """Reproduce Figure 1 with the synthetic WaveLAN-like trace."""
    trace = trace or wavelan_like_trace(duration=300.0)
    comp_vb = compensation_vb()
    result = Figure1Result()
    for size in sizes:
        for direction, compensated in (("store", True), ("store", False),
                                       ("fetch", False), ("fetch", True)):
            elapsed = _one_ftp(trace, direction, size, compensated,
                               comp_vb, seed)
            result.points.append(CompensationPoint(
                size_bytes=size, direction=direction,
                compensated=compensated, elapsed=elapsed))
    return result


def figure1_slow_network_check(seed: int = 0,
                               sizes: Sequence[int] = (MB // 2, MB, 2 * MB)
                               ) -> Figure1Result:
    """The paper's independence check: a much slower synthetic network.

    Compensation is measured from the testbed alone, so it should close
    the fetch/store gap here too, with the identical constant.
    """
    return figure1_compensation(seed=derive_seed(seed, "slow"), sizes=sizes,
                                trace=slow_network_trace(duration=600.0))


# ======================================================================
# Figures 2-5 — scenario characterization
# ======================================================================
@dataclass
class ScenarioCharacterization:
    """Distilled network quality of one scenario, across trials."""

    scenario: Scenario
    distillations: List[DistillationResult]

    # ------------------------------------------------------------------
    def checkpoint_ranges(self, quantity: str) -> Tuple[List[str],
                                                        List[float],
                                                        List[float]]:
        """(labels, lows, highs) across trials at each checkpoint."""
        labels = [cp.label for cp in self.scenario.checkpoints]
        per_label: Dict[str, List[float]] = {label: [] for label in labels}
        for dist in self.distillations:
            for t, value in self._series(dist, quantity):
                u = min(1.0, t / self.scenario.duration)
                label = self.scenario.checkpoint_for_fraction(u)
                if label:
                    per_label[label].append(value)
        lows, highs = [], []
        for label in labels:
            values = per_label[label] or [0.0]
            lows.append(min(values))
            highs.append(max(values))
        return labels, lows, highs

    def all_values(self, quantity: str) -> List[float]:
        values: List[float] = []
        for dist in self.distillations:
            values.extend(v for _, v in self._series(dist, quantity))
        return values

    def _series(self, dist: DistillationResult,
                quantity: str) -> List[Tuple[float, float]]:
        if quantity == "signal":
            base = min((r.timestamp for r in dist.status_records),
                       default=0.0)
            return [(r.timestamp - base, r.signal_level)
                    for r in dist.status_records]
        if quantity == "latency_ms":
            return [(e.time, e.F * 1e3) for e in dist.estimates]
        if quantity == "bandwidth_kbps":
            return [(e.time, (8.0 / e.Vb) / 1e3)
                    for e in dist.estimates if e.Vb > 0]
        if quantity == "loss_pct":
            out = []
            t = 0.0
            for tup in dist.replay:
                out.append((t, tup.L * 100.0))
                t += tup.d
            return out
        raise ValueError(f"unknown quantity {quantity!r}")

    # ------------------------------------------------------------------
    def render(self) -> str:
        parts = [f"Scenario characterization: {self.scenario.name} "
                 f"({len(self.distillations)} trials)"]
        quantities = (("signal", "WaveLAN units", False),
                      ("latency_ms", "ms", True),
                      ("bandwidth_kbps", "Kb/s", False),
                      ("loss_pct", "%", False))
        if self.scenario.has_motion:
            for quantity, unit, log in quantities:
                labels, lows, highs = self.checkpoint_ranges(quantity)
                parts.append(render_series(quantity, labels, lows, highs,
                                           unit=unit, log_scale=log))
        else:
            for quantity, unit, _ in quantities:
                values = self.all_values(quantity)
                parts.append(render_histogram(quantity,
                                              histogram(values, bins=8),
                                              unit=unit))
        return "\n\n".join(parts)


def characterize_scenario(scenario: Scenario, seed: int = 0,
                          trials: int = 4,
                          workers: int = 1) -> ScenarioCharacterization:
    """Collect and distill ``trials`` traversals (Figures 2-5 data).

    A thin front to
    :func:`repro.validation.parallel.characterize_scenario_parallel`,
    as :func:`~repro.validation.harness.validate_scenario` is for
    ``run_validation``; results are bit-identical for any ``workers``
    because each traversal draws from named seeded RNG streams keyed
    only by ``(scenario, seed, trial)``.
    """
    from .parallel import characterize_scenario_parallel

    return characterize_scenario_parallel(scenario, seed=seed,
                                          trials=trials, workers=workers)


# ======================================================================
# Figures 6-8 — benchmark tables
# ======================================================================
def render_benchmark_table(validations: List[ScenarioValidation],
                           baseline: Dict[str, Summary],
                           title: str, caption: str = "") -> str:
    """The paper's real-vs-modulated table for one benchmark."""
    if not validations:
        raise ValueError("no validations to render")
    metrics = list(validations[0].comparisons)
    single = len(metrics) == 1
    rows: List[List[str]] = []
    for validation in validations:
        for i, metric in enumerate(metrics):
            comp = validation.comparisons[metric]
            name = validation.scenario.capitalize() if i == 0 else ""
            label = "" if single else metric
            rows.append([name, label, comp.real.format(),
                         comp.modulated.format(),
                         f"{comp.sigma_distance:.2f}",
                         "yes" if comp.accurate else "NO"])
    for i, metric in enumerate(metrics):
        rows.append(["Ethernet" if i == 0 else "",
                     "" if single else metric,
                     baseline[metric].format(), "-", "-", "-"])
    headers = ["Scenario", "Metric", "Real (s)", "Modulated (s)",
               "dist/sigma", "within"]
    if single:
        headers = [headers[0]] + headers[2:]
        rows = [[r[0]] + r[2:] for r in rows]
    return render_table(headers, rows, title=title, caption=caption)


def render_andrew_table(validations: List[ScenarioValidation],
                        baseline: Dict[str, Summary]) -> str:
    """Figure 8's wide layout: phases as columns."""
    phases = ("MakeDir", "Copy", "ScanDir", "ReadAll", "Make", "Total")
    rows: List[List[str]] = []
    for validation in validations:
        for kind in ("Real", "Mod."):
            row = [validation.scenario.capitalize() if kind == "Real" else "",
                   kind]
            for phase in phases:
                comp = validation.comparisons[phase]
                summary = comp.real if kind == "Real" else comp.modulated
                row.append(summary.format())
            rows.append(row)
    row = ["Ethernet", "Real"]
    for phase in phases:
        row.append(baseline[phase].format())
    rows.append(row)
    return render_table(["Scenario", "", *phases], rows,
                        title="Figure 8: Elapsed Times for Andrew "
                              "Benchmark Phases",
                        caption="Per-phase mean elapsed seconds "
                                "(standard deviations in parentheses).")
