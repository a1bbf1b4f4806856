"""Driving the invariant monitors over full traced pipeline runs.

``check_scenario`` replays the paper's whole protocol for one scenario
— a traced collection traversal, distillation, a traced live benchmark
trial, and a traced modulated trial — and runs every invariant monitor
over each stage's finished world.  ``check_all`` covers all four
scenarios; ``smoke_check`` is the single fast configuration CI runs on
every push.

``inject_tick_undershoot`` is the mutation hook for the CI smoke test:
it makes the kernel's nearest-tick rounding land one full tick early,
an off-by-one-tick modulator bug that the delay-bound monitor must
catch (and a clean run must not).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Iterable, List, Optional

from ..hosts.kernel import Kernel
from ..obs import ObsConfig
from ..pipeline import (CollectStage, CompensationStage, DistillStage,
                        LiveTrialStage, ModulatedTrialStage, Pipeline,
                        as_pipeline, cache_token, digest)
from ..runtime.job import Job, register_job_kind, runner_ref
from ..runtime.session import shared_pipeline
from ..scenarios import ALL_SCENARIOS, resolve_scenario
from ..scenarios.base import Scenario
from ..validation.harness import FtpRunner, compensation_vb
from .invariants import (ALL_MONITORS, CheckContext, InvariantViolation,
                         run_monitors)

# The smoke configuration: the smallest scenario, a transfer short
# enough for seconds-scale wall clock, still exercising every stage.
SMOKE_SCENARIO = "wean"
SMOKE_FTP_BYTES = 100_000
DEFAULT_FTP_BYTES = 200_000

# Bump when check_scenario's own logic changes behaviour (stage
# versions and monitor names are part of the report cache key already).
CHECK_VERSION = 1


@dataclass
class StageResult:
    """One pipeline stage's monitors, plus enough context to read it."""

    stage: str                    # "collect" | "distill" | "live" | "modulated"
    violations: List[InvariantViolation]
    info: Dict[str, Any] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.violations

    def as_dict(self) -> Dict[str, Any]:
        return {
            "stage": self.stage,
            "ok": self.ok,
            "violations": [v.as_dict() for v in self.violations],
            "info": self.info,
        }


@dataclass
class CheckReport:
    """Every stage of one scenario's pipeline check."""

    scenario: str
    seed: int
    trial: int
    stages: List[StageResult] = field(default_factory=list)

    @property
    def violations(self) -> List[InvariantViolation]:
        return [v for stage in self.stages for v in stage.violations]

    @property
    def ok(self) -> bool:
        return not self.violations

    def as_dict(self) -> Dict[str, Any]:
        return {
            "scenario": self.scenario,
            "seed": self.seed,
            "trial": self.trial,
            "ok": self.ok,
            "stages": [stage.as_dict() for stage in self.stages],
        }

    def render(self) -> str:
        lines = [f"check {self.scenario} (seed={self.seed}, "
                 f"trial={self.trial})"]
        for stage in self.stages:
            status = "ok" if stage.ok else \
                f"{len(stage.violations)} violation(s)"
            info = ", ".join(f"{k}={v}" for k, v in stage.info.items())
            lines.append(f"  {stage.stage:<10} {status}"
                         + (f"  [{info}]" if info else ""))
            for violation in stage.violations:
                lines.append(f"    !! {violation}")
        return "\n".join(lines)

    def raise_if_violations(self) -> None:
        if self.violations:
            raise self.violations[0]


# ======================================================================
# Pipeline checking
# ======================================================================
def _monitor_instances(monitors: Optional[Iterable]) -> List:
    if monitors is None:
        return [cls() for cls in ALL_MONITORS]
    return list(monitors)


def _stage_info(out: Dict[str, Any]) -> Dict[str, Any]:
    info: Dict[str, Any] = {}
    wobs = out.get("obs")
    if wobs is not None and wobs.tracer is not None:
        info["spans"] = len(wobs.tracer.spans)
        info["drops"] = sum(wobs.tracer.drop_counts.values())
    return info


def _report_key(scenario: Scenario, seed: int, trial: int,
                ftp_bytes: int, span_limit: int) -> Optional[str]:
    """Cache key for a default-monitors check report (None: uncacheable)."""
    try:
        return digest({
            "check": "report",
            "version": CHECK_VERSION,
            "scenario": cache_token(scenario),
            "seed": seed,
            "trial": trial,
            "ftp_bytes": ftp_bytes,
            "span_limit": span_limit,
            "monitors": [cls.__qualname__ for cls in ALL_MONITORS],
            "stages": [[cls.stage_name, cls.version]
                       for cls in (CollectStage, DistillStage,
                                   LiveTrialStage, ModulatedTrialStage)],
        })
    except TypeError:
        return None


def check_scenario(scenario, seed: int = 0, trial: int = 0,
                   ftp_bytes: int = DEFAULT_FTP_BYTES,
                   span_limit: int = 250_000,
                   monitors: Optional[Iterable] = None,
                   cache=None) -> CheckReport:
    """Run every invariant monitor over one scenario's full pipeline.

    ``scenario`` may be a :class:`Scenario`, a registered scenario name
    or a path to a TOML/JSON spec file.  Each stage (collect, distill,
    live trial, modulated trial) is checked independently, so a
    violation upstream still lets the later stages report theirs.

    The stages run through the unified pipeline API; ``cache`` (a
    directory path, store or :class:`~repro.pipeline.Pipeline`) enables
    report-level caching — a warm rerun with unchanged inputs returns
    the stored report without simulating anything.  (The monitors need
    live worlds, so individual stage runs can't be served from cache;
    the finished report can.)
    """
    scenario = resolve_scenario(scenario)
    cache_pipeline = as_pipeline(cache)
    report_key = None
    if cache_pipeline is not None and monitors is None:
        report_key = _report_key(scenario, seed, trial, ftp_bytes,
                                 span_limit)
        if report_key is not None:
            found, cached = cache_pipeline.lookup(report_key,
                                                  stage="check-report")
            if found:
                return cached
    # Stage artifacts flow through a pipeline either way, so distill
    # reuses the collect artifact without re-simulating the traversal.
    work = cache_pipeline if cache_pipeline is not None else Pipeline()
    checks = _monitor_instances(monitors)
    obs = ObsConfig(metrics=True, trace=True, spans=True,
                    span_limit=span_limit)
    report = CheckReport(scenario=scenario.name, seed=seed, trial=trial)

    # 1. Traced collection traversal.
    collect_stage = CollectStage(scenario, seed, trial, obs=obs)
    out: Dict[str, Any] = {}
    records = work.run(collect_stage, world_out=out)["records"]
    ctx = CheckContext(kind="collect", label=f"{scenario.name}:collect",
                       world=out.get("world"), obs=out.get("obs"),
                       records=records)
    info = _stage_info(out)
    info["records"] = len(records)
    report.stages.append(StageResult("collect", run_monitors(ctx, checks),
                                     info))

    # 2. Distillation (pure computation: well-formedness only).
    distill_stage = DistillStage(collect_stage,
                                 label=f"{scenario.name}-{trial}")
    distillation = work.run(distill_stage)
    ctx = CheckContext(kind="distill", label=f"{scenario.name}:distill",
                       replay=distillation.replay,
                       distillation=distillation)
    report.stages.append(StageResult(
        "distill", run_monitors(ctx, checks),
        {"tuples": len(distillation.replay),
         "estimates": len(distillation.estimates)}))

    # 3. Traced live benchmark trial.
    runner = FtpRunner(nbytes=ftp_bytes, direction="send")
    out = {}
    work.run(LiveTrialStage(scenario, runner, seed, trial, obs=obs),
             world_out=out)
    ctx = CheckContext(kind="live", label=f"{scenario.name}:live",
                       world=out.get("world"), obs=out.get("obs"))
    report.stages.append(StageResult("live", run_monitors(ctx, checks),
                                     _stage_info(out)))

    # 4. Traced modulated trial over the freshly distilled replay.
    comp = (compensation_vb() if cache_pipeline is None
            else work.run(CompensationStage()))
    out = {}
    work.run(ModulatedTrialStage(distill_stage, runner, seed, trial,
                                 compensation=comp, obs=obs),
             world_out=out)
    ctx = CheckContext(kind="modulated",
                       label=f"{scenario.name}:modulated",
                       world=out.get("world"), obs=out.get("obs"),
                       layer=out.get("layer"),
                       replay=distillation.replay,
                       distillation=distillation)
    info = _stage_info(out)
    layer = out.get("layer")
    if layer is not None:
        info["modulated"] = layer.out_packets + layer.in_packets
    report.stages.append(StageResult("modulated",
                                     run_monitors(ctx, checks), info))
    if report_key is not None:
        cache_pipeline.store_result(report_key, report,
                                    stage="check-report")
    return report


# ======================================================================
# The runtime job kind ("check")
# ======================================================================
# A check runs a full traversal, a distillation and two benchmark
# trials, so checks go to the workers ahead of cheaper jobs.
CHECK_COST_HINT = 600.0


@dataclass(frozen=True)
class CheckJob:
    """Picklable description of one ``check_scenario`` run.

    ``scenario`` is whatever ``check_scenario`` accepts (a registered
    name, a spec path, or a :class:`Scenario` — all picklable).  The
    live ``cache`` pipeline handle is for in-process execution only;
    the wire variant nulls it and workers reopen ``cache_root`` through
    the per-process memo (:func:`~repro.runtime.session.shared_pipeline`),
    so report- and stage-level caching work identically on every
    backend.
    """

    scenario: Any
    seed: int = 0
    trial: int = 0
    ftp_bytes: int = DEFAULT_FTP_BYTES
    span_limit: int = 250_000
    cache_root: Optional[str] = None
    cache: Optional[Pipeline] = None


def run_check_job(job: CheckJob) -> CheckReport:
    """The runtime runner behind one check job (pure in the payload:
    byte-identical reports on every backend)."""
    cache = job.cache
    if cache is None:
        cache = shared_pipeline(job.cache_root)
    return check_scenario(job.scenario, seed=job.seed, trial=job.trial,
                          ftp_bytes=job.ftp_bytes,
                          span_limit=job.span_limit, cache=cache)


_RUN_CHECK = runner_ref(run_check_job)
register_job_kind("check", _RUN_CHECK, cost_hint=CHECK_COST_HINT)


def check_job(scenario, seed: int = 0, trial: int = 0,
              ftp_bytes: int = DEFAULT_FTP_BYTES,
              span_limit: int = 250_000, cache=None) -> Job:
    """Build the runtime job for one scenario check."""
    pipeline = as_pipeline(cache)
    root = None
    if pipeline is not None and pipeline.store.root is not None:
        root = str(pipeline.store.root)
    payload = CheckJob(scenario=scenario, seed=seed, trial=trial,
                       ftp_bytes=ftp_bytes, span_limit=span_limit,
                       cache_root=root, cache=pipeline)
    label = getattr(scenario, "name", None) or str(scenario)
    return Job(kind="check", runner=_RUN_CHECK, payload=payload,
               label=f"check:{label}", cost_hint=CHECK_COST_HINT,
               wire_payload=replace(payload, cache=None))


def check_all(scenarios: Optional[Iterable[str]] = None, seed: int = 0,
              trial: int = 0, ftp_bytes: int = DEFAULT_FTP_BYTES,
              monitors: Optional[Iterable] = None,
              cache=None, workers: Optional[int] = None,
              executor=None) -> List[CheckReport]:
    """`check_scenario` over every scenario (default: all four).

    With ``workers`` > 1 or a caller-supplied runtime ``executor``
    (:class:`~repro.runtime.scheduler.Scheduler`), scenarios fan out
    through the unified runtime — reports come back in scenario order
    and are byte-identical to the serial loop for every worker count.
    Custom ``monitors`` (live objects, not necessarily picklable)
    force the serial path.
    """
    if scenarios is None:
        names = [cls.name for cls in ALL_SCENARIOS]
    else:
        names = list(scenarios)
    cache_pipeline = as_pipeline(cache)
    parallel = executor is not None or (workers or 1) > 1
    if monitors is not None or not parallel:
        return [check_scenario(name, seed=seed, trial=trial,
                               ftp_bytes=ftp_bytes, monitors=monitors,
                               cache=cache_pipeline)
                for name in names]
    jobs = [check_job(name, seed=seed, trial=trial, ftp_bytes=ftp_bytes,
                      cache=cache_pipeline)
            for name in names]
    owned = False
    if executor is None:
        from ..runtime.scheduler import Scheduler

        executor = Scheduler(workers=workers)
        owned = True
    try:
        return executor.map_jobs(jobs)
    finally:
        if owned:
            executor.shutdown()


def smoke_check(seed: int = 0, cache=None) -> CheckReport:
    """The fast configuration CI runs on every push."""
    return check_scenario(SMOKE_SCENARIO, seed=seed,
                          ftp_bytes=SMOKE_FTP_BYTES, cache=cache)


# ======================================================================
# Mutation hook (CI's "does the net actually catch fish" test)
# ======================================================================
@contextmanager
def inject_tick_undershoot(ticks: int = 1):
    """Make nearest-tick rounding land ``ticks`` full ticks early.

    An off-by-one-tick modulator bug: ``schedule_rounded`` still lands
    releases on the tick grid (so tick *alignment* stays green), but
    packets are released up to one-and-a-half ticks before their
    intended delay — which the delay-bound monitor must flag.  The
    audit's analytic ``applied`` uses the same kernel method, so the
    books and the actual schedule shift together, exactly like a real
    rounding regression would.
    """
    original = Kernel.nearest_tick_at

    def undershooting(self, when: float) -> float:
        return original(self, when) - ticks * self.tick_resolution

    Kernel.nearest_tick_at = undershooting
    try:
        yield
    finally:
        Kernel.nearest_tick_at = original
