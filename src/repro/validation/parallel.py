"""Validation trials on the unified execution runtime.

Every figure in the paper's evaluation is built from batches of
*independent, seeded* trials: four live runs, four trace-collection
traversals, four modulated runs per scenario/benchmark pair.  Each
trial builds its own world from named seeded RNG streams
(:mod:`repro.sim.rng`), so trials share no state and their results
depend only on ``(scenario, runner, seed, trial)`` — which makes them
embarrassingly parallel *and* guarantees that a parallel run is
bit-identical to a serial one.

This module is the *trial-specific glue* over :mod:`repro.runtime` —
all scheduling, worker lifecycle, retry and rehydration
machinery lives there.  What stays here:

* :class:`TrialSpec` — a picklable description of one trial (one
  registered job kind of the runtime);
* :func:`execute_trial` — the trial runner (module-level, resolved by
  reference in workers);
* :class:`TrialExecutor` — the
  :class:`~repro.runtime.scheduler.Scheduler` subclass that accepts
  trial specs (converting them to runtime jobs);
* :func:`run_validation` — the full multi-scenario sweep (the paper's
  Figures 6–8 protocol), collection and benchmark phases each fanned
  out across *all* scenarios at once;
* :func:`validate_scenario_parallel`, :func:`ethernet_baseline_parallel`,
  :func:`characterize_scenario_parallel` — the entry points behind
  :mod:`repro.validation.harness` and :mod:`repro.validation.figures`,
  whose serial functions are these with ``workers=1``.

Workers seal bulk results into the scheduler's store and hand back
envelopes; see :mod:`repro.runtime`.  A modulated trial takes its
replay by store reference — the distillation artifact's key and
content digest — whether the distillation is a cache or memo hit, a
worker-sealed envelope, or was computed in this process (serially, or
after a transport failure), which stores it and keeps no decoded copy.
The process that runs the trial decodes the replay, checking the
digest first, and lets it go when the trial ends; nothing memoizes
it.  The parent otherwise reads a distillation only when the sweep
collects metrics records, or when a caller reads
:attr:`ScenarioValidation.distillations`.  Distill trials collect
through :meth:`Distiller.reads <repro.core.distill.Distiller.reads>`,
so a worker holds only the trace records distillation reads.

Determinism contract: for any ``workers`` value, any ``hosts`` and
every fallback path, results are byte-identical to ``workers=1``
because every spec is executed by the same pure function with the
same arguments, the codec round-trip is exact, and results are
reassembled in submission order.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..analysis.stats import Summary
from ..core.distill import DistillationResult, Distiller
from ..core.replay import ReplayTrace
from ..obs import ObsConfig
from ..obs.telemetry import SweepProgress, SweepTelemetry, span_begin, span_end
from ..pipeline import (
    CollectStage,
    CompensationStage,
    DistillStage,
    EthernetTrialStage,
    LiveTrialStage,
    ModulatedTrialStage,
    Pipeline,
    as_pipeline,
    codec,
    digest,
)
from ..runtime.backends import worker_store
from ..runtime.job import (
    Job,
    JobTransportError,
    ResultEnvelope,
    register_job_kind,
    runner_ref,
)
from ..runtime.scheduler import JobFuture, Scheduler, default_workers
from ..scenarios.base import Scenario
from .harness import (
    BenchmarkRunner,
    LazySequence,
    MetricComparison,
    ScenarioValidation,
    collect_trace,
    compensation_vb,
    distill_scenario_trace,
    run_ethernet_trial,
    run_live_trial,
    run_modulated_trial,
)

__all__ = [
    "TrialSpec",
    "TrialExecutor",
    "ResultEnvelope",
    "ValidationSweep",
    "execute_trial",
    "job_for_spec",
    "run_validation",
    "spec_fingerprint",
    "validate_scenario_parallel",
    "ethernet_baseline_parallel",
    "characterize_scenario_parallel",
    "default_workers",
]


# ======================================================================
# Trial specs and the worker entry point
# ======================================================================
@dataclass(frozen=True)
class TrialSpec:
    """A picklable description of one independent trial.

    ``kind`` selects the work:

    ``"distill"``
        Collect one trace-collection traversal of ``scenario`` and
        distill it; returns a :class:`DistillationResult`.  (Collection
        and distillation stay in the worker so the bulky raw records
        never cross the process boundary; collection keeps only the
        records the distiller reads.)
    ``"live"``
        One live benchmark trial; returns the metric dict.
    ``"modulated"``
        One modulated benchmark trial over ``replay`` (or the replay
        ``replay_ref`` names); returns the metric dict.
    ``"ethernet"``
        One unmodulated Ethernet baseline trial; returns the metric
        dict.

    ``obs`` (an :class:`~repro.obs.ObsConfig`, itself a frozen
    primitive-only dataclass, so the spec stays picklable) requests a
    per-trial metrics record.  Benchmark trials return it inside the
    sink under ``"__obs__"``; distill trials, whose natural result is a
    :class:`DistillationResult`, return a
    ``{"__distill__": ..., "__obs__": ...}`` wrapper instead.

    ``replay_ref`` names the distill artifact holding this modulated
    trial's replay in the scheduler's store, and ``replay_digest`` its
    content digest, which a worker checks before decoding it.  The
    copy shipped to workers carries only these; a worker decodes the
    replay for the one trial.  In-process execution uses ``replay``
    when set (a caller's own replay), else ``replay_loader`` — a
    zero-argument callable decoding the replay from its distillation's
    artifact, never shipped.  All are byte-equivalent — the codec
    round-trip is exact — so where a trial runs cannot change its
    result.
    """

    kind: str
    seed: int
    trial: int
    scenario: Optional[Scenario] = None
    runner: Optional[BenchmarkRunner] = None
    replay: Optional[ReplayTrace] = None
    compensation: float = 0.0
    distiller: Optional[Distiller] = None
    name: str = ""
    obs: Optional[ObsConfig] = None
    # Pipeline-stage fingerprint of this trial's result, set by the
    # sweeps (see spec_fingerprint); ``None`` means the trial is
    # uncacheable and always executes.
    fingerprint: Optional[str] = None
    # Shared-store key of the upstream distill artifact and its content
    # digest (see above).
    replay_ref: Optional[str] = None
    replay_digest: Optional[str] = None
    # Reads the replay in this process (see above).
    replay_loader: Optional[Callable[[], ReplayTrace]] = field(
        default=None, compare=False, repr=False)
    # Sweep-scoped trace context: set on the wire copy when the sweep
    # runs with telemetry, so worker-side stage spans carry the sweep
    # they belong to.  Never part of any fingerprint (fingerprints are
    # computed from the pipeline stages, not this dataclass).
    sweep_id: Optional[str] = None

    def span_label(self) -> str:
        """How this trial appears in the sweep timeline."""
        if self.name:
            return self.name
        scenario = getattr(self.scenario, "name", None)
        parts = [p for p in (scenario, str(self.trial)) if p is not None]
        return ":".join(parts) if parts else str(self.trial)

    def cost_hint(self) -> float:
        """Rough relative wall-clock cost, for longest-first
        submission.

        Collection+distill trials simulate the scenario's full
        traversal with its cross traffic — seconds of wall clock.
        Live, modulated and Ethernet trials run one benchmark transfer
        (a far smaller event count; live worlds carry the scenario's
        cross traffic, modulated/Ethernet worlds are the small isolated
        pair).  The exact values only affect load balancing, never
        results.
        """
        if self.kind == "distill":
            scenario = self.scenario
            duration = getattr(scenario, "duration", 240.0)
            cross = getattr(scenario, "cross_laptops", 0)
            return duration * (1.0 + 2.0 * cross)
        if self.kind == "live":
            cross = getattr(self.scenario, "cross_laptops", 0)
            return 15.0 + 5.0 * cross
        if self.kind == "modulated":
            return 10.0
        return 5.0


class _ReplayResolveError(JobTransportError):
    """A ``replay_ref`` that the worker's store cannot supply.
    A :class:`JobTransportError`, so the job executor converts it to
    a transport failure and the parent re-executes the trial, reading
    the replay itself — a transport hiccup must never surface as a
    wrong result."""


def _resolve_replay(ref: Optional[str],
                    digest: Optional[str] = None) -> ReplayTrace:
    """The replay trace behind a ``replay_ref``, decoded from this
    worker's store for one trial; with ``digest``, the artifact must
    match it to be decoded."""
    if ref is None:
        raise _ReplayResolveError(
            "modulated spec carries neither replay nor replay_ref")
    store = worker_store()
    if store is None:
        raise _ReplayResolveError("worker has no store")
    tok = span_begin()
    found, blob = store.raw_get(ref)
    if not found:
        raise _ReplayResolveError(
            f"distill artifact {ref[:12]}... missing from the store")
    try:
        value = codec.decode_gz_checked(blob, digest)
    except codec.CodecError as exc:
        raise _ReplayResolveError(f"distill artifact {ref[:12]}...: {exc}")
    if isinstance(value, dict) and "__distill__" in value:
        value = value["__distill__"]
    span_end(tok, "replay_resolve", ref[:12], nbytes=len(blob))
    return value.replay if isinstance(value, DistillationResult) else value


def execute_trial(spec: TrialSpec):
    """Run one trial described by ``spec`` (the runtime's trial runner).

    Pure: the result depends only on the spec, so serial and parallel
    execution agree bit-for-bit.
    """
    if spec.kind == "distill":
        distiller = spec.distiller or Distiller()
        obs_out: Dict[str, Dict] = {}
        records = collect_trace(spec.scenario, spec.seed, spec.trial,
                                obs=spec.obs, obs_out=obs_out,
                                keep=distiller.reads)
        result = distill_scenario_trace(records, name=spec.name,
                                        distiller=distiller)
        if spec.obs is None:
            return result
        return {"__distill__": result, "__obs__": obs_out.get("record")}
    if spec.kind == "live":
        return run_live_trial(spec.scenario, spec.runner, spec.seed,
                              spec.trial, obs=spec.obs)
    if spec.kind == "modulated":
        replay = spec.replay
        if replay is None and spec.replay_loader is not None:
            replay = spec.replay_loader()
        if replay is None:
            replay = _resolve_replay(spec.replay_ref, spec.replay_digest)
        return run_modulated_trial(replay, spec.runner, spec.seed,
                                   spec.trial, spec.compensation,
                                   obs=spec.obs)
    if spec.kind == "ethernet":
        return run_ethernet_trial(spec.runner, spec.seed, spec.trial,
                                  obs=spec.obs)
    raise ValueError(f"unknown trial kind {spec.kind!r}")


_EXECUTE_TRIAL = runner_ref(execute_trial)
register_job_kind("trial", _EXECUTE_TRIAL)


def job_for_spec(spec: TrialSpec) -> Job:
    """The runtime job for one trial spec.

    A spec with a store reference ships only the reference: the wire
    payload strips the materialized replay and the in-process loader,
    so a distilled trace reaches a worker through the store.  The
    loader never ships; a trial with nothing but a loader is refused
    by the worker and runs here.
    """
    wire = None
    refs: tuple = ()
    if spec.replay_ref is not None:
        wire = replace(spec, replay=None, replay_loader=None)
        # A --hosts fleet pushes this store artifact to the executing
        # node (HAVE-deduplicated) before dispatch, so the stripped
        # spec resolves there exactly as it does on one machine.
        refs = (spec.replay_ref,)
    elif spec.replay_loader is not None:
        wire = replace(spec, replay_loader=None)
    return Job(kind=spec.kind, runner=_EXECUTE_TRIAL, payload=spec,
               label=spec.span_label(), fingerprint=spec.fingerprint,
               cost_hint=spec.cost_hint(), wire_payload=wire,
               input_refs=refs)


def spec_fingerprint(spec: TrialSpec,
                     distill_stage: Optional[DistillStage] = None
                     ) -> Optional[str]:
    """The pipeline-stage fingerprint of a trial spec's result.

    Live, modulated and Ethernet specs return exactly what the matching
    pipeline stage computes, so they share the stage's own fingerprint
    (and thus its cached artifacts).  A ``"distill"`` spec folds collect
    and distill into one worker task; without observability its result
    is the :class:`DistillStage` artifact, with observability it is the
    ``{"__distill__", "__obs__"}`` wrapper, which gets its own keyspace.

    ``distill_stage`` supplies the upstream ancestry for ``"modulated"``
    specs (the spec itself carries only its replay, or a reference to
    it); for a ``"distill"`` spec it is the stage the spec runs, so a
    sweep that keeps the stage computes its fingerprint once for the
    distill trial and every modulated trial chained to it.
    Returns ``None`` — never cache — when an input has no stable token.
    """
    try:
        if spec.kind == "distill":
            stage = distill_stage
            if stage is None:
                stage = _distill_stage(spec.scenario, spec.seed, spec.trial,
                                       spec.distiller, spec.obs, spec.name)
            if spec.obs is None:
                return stage.fingerprint()
            return digest({"trial": "distill+obs",
                           "stage": stage.fingerprint()})
        if spec.kind == "live":
            return LiveTrialStage(spec.scenario, spec.runner, spec.seed,
                                  spec.trial, obs=spec.obs).fingerprint()
        if spec.kind == "modulated":
            if distill_stage is None:
                return None
            return ModulatedTrialStage(distill_stage, spec.runner,
                                       spec.seed, spec.trial,
                                       compensation=spec.compensation,
                                       obs=spec.obs).fingerprint()
        if spec.kind == "ethernet":
            return EthernetTrialStage(spec.runner, spec.seed, spec.trial,
                                      obs=spec.obs).fingerprint()
    except TypeError:
        return None
    return None


def _fingerprinted(spec: TrialSpec,
                   distill_stage: Optional[DistillStage] = None
                   ) -> TrialSpec:
    return replace(spec, fingerprint=spec_fingerprint(spec, distill_stage))


# ======================================================================
# The executor
# ======================================================================
class TrialExecutor(Scheduler):
    """Order-preserving trial execution — the runtime
    :class:`~repro.runtime.scheduler.Scheduler` specialized to accept
    :class:`TrialSpec` batches.

    ``submit`` / ``submit_all`` / ``map`` take trial specs and convert
    them to runtime jobs (:func:`job_for_spec`); the inherited
    ``submit_jobs`` / ``map_jobs`` remain available for generic jobs,
    so one warm backend can serve a validation sweep and, say, a
    golden regeneration in the same invocation.  Everything else —
    worker counts, hosts, caching, fallback accounting — is the
    scheduler's contract; see its docstring.
    """

    def submit(self, spec: TrialSpec) -> JobFuture:
        """Queue one trial; its result is read with ``.result()``."""
        return self.submit_all([spec])[0]

    def submit_all(self, specs: Sequence[TrialSpec],
                   prepare: Optional[Callable[[TrialSpec], TrialSpec]] = None
                   ) -> List[JobFuture]:
        """Submit a batch of trial specs: cache lookups first, then
        longest trials first.  The returned futures align
        index-for-index with ``specs``.  ``prepare`` completes a spec
        that has to execute (see :meth:`Scheduler.submit_jobs`)."""
        complete = None
        if prepare is not None:
            def complete(job: Job) -> Job:
                return job_for_spec(prepare(job.payload))
        return self.submit_jobs([job_for_spec(spec) for spec in specs],
                                prepare=complete)

    def map(self, specs: Sequence[TrialSpec]) -> List:
        """Execute all specs; results align index-for-index with specs."""
        return [f.result() for f in self.submit_all(list(specs))]


def _executor_for(workers: Optional[int],
                  executor: Optional[TrialExecutor],
                  pipeline: Optional[Pipeline] = None,
                  hosts=None) -> tuple:
    """(executor, owns_it): reuse the caller's executor when given.

    A given ``pipeline`` is attached to the executor either way: on a
    caller-supplied executor it replaces the scratch store unless the
    executor already has a caller cache, and the executor always keeps
    its own workers and hosts.
    """
    if executor is not None:
        if executor.pipeline is None:
            executor.pipeline = pipeline
        return executor, False
    return TrialExecutor(workers=workers, pipeline=pipeline,
                         hosts=hosts), True


# ======================================================================
# The entry points behind the harness and figures functions
# ======================================================================
def _distill_stage(scenario: Scenario, seed: int, trial: int,
                   distiller: Optional[Distiller],
                   obs: Optional[ObsConfig], label: str) -> DistillStage:
    return DistillStage(CollectStage(scenario, seed, trial, obs=obs),
                        distiller=distiller, label=label)


def _distill_spec(stage: DistillStage) -> TrialSpec:
    """The worker task that collects and distills ``stage``'s traversal,
    fingerprinted through ``stage``."""
    collect = stage.collect
    return _fingerprinted(TrialSpec(
        kind="distill", seed=collect.seed, trial=collect.trial,
        scenario=collect.scenario, distiller=stage.distiller,
        name=stage.label, obs=collect.obs), stage)


def _distill_specs(scenario: Scenario, seed: int, trials: int,
                   distiller: Optional[Distiller],
                   obs: Optional[ObsConfig] = None) -> List[TrialSpec]:
    return [_distill_spec(_distill_stage(scenario, seed, t, distiller, obs,
                                         f"{scenario.name}-{t}"))
            for t in range(trials)]


def _unwrap_distill(result) -> tuple:
    """(DistillationResult, metrics record | None) from a worker result."""
    if isinstance(result, dict) and "__distill__" in result:
        return result["__distill__"], result.get("__obs__")
    return result, None


def _distillation(future: JobFuture) -> DistillationResult:
    return _unwrap_distill(future.result())[0]


def _replay_of(future: JobFuture) -> ReplayTrace:
    """The replay, decoded for the trial that reads it: the future
    does not hold it."""
    return _unwrap_distill(future.result(keep=False))[0].replay


def _with_replay(dist_futs: Sequence[JobFuture],
                 run_index: Dict[Tuple[int, int], int],
                 spec: TrialSpec) -> TrialSpec:
    """A modulated spec completed with its traversal's distillation,
    by reference: the store key and content digest of its artifact
    (see :meth:`JobFuture.artifact`, which stores a distillation
    computed here).  A worker decodes the replay from its store, this
    process through the loader; either lets it go when the trial ends.
    """
    future = dist_futs[run_index[spec.seed, spec.trial]]
    ref, digest = future.artifact() or (None, None)
    return replace(spec, replay_ref=ref, replay_digest=digest,
                   replay_loader=functools.partial(_replay_of, future))


def _assemble_validation(scenario: Scenario, runner: BenchmarkRunner,
                         distillations: Sequence[DistillationResult],
                         real_by_variant: List[List[Dict[str, float]]],
                         mod_by_variant: List[List[Dict[str, float]]]
                         ) -> ScenarioValidation:
    """Fold per-trial metric dicts into the harness's result object.

    Mirrors :func:`repro.validation.harness.validate_scenario` exactly
    (same Summary construction, same comparison ordering) so rendered
    tables match the serial path byte-for-byte.
    """
    validation = ScenarioValidation(scenario=scenario.name,
                                    benchmark=runner.name,
                                    distillations=distillations)
    for variant, real_runs, modulated_runs in zip(runner.variants(),
                                                  real_by_variant,
                                                  mod_by_variant):
        for metric in variant.metrics:
            validation.comparisons[metric] = MetricComparison(
                metric=metric,
                real=Summary.of([r[metric] for r in real_runs]),
                modulated=Summary.of([m[metric] for m in modulated_runs]),
            )
    return validation


def validate_scenario_parallel(scenario: Scenario, runner: BenchmarkRunner,
                               seed: int = 0, trials: int = 4,
                               distiller: Optional[Distiller] = None,
                               compensation: Optional[float] = None,
                               workers: Optional[int] = None,
                               executor: Optional[TrialExecutor] = None,
                               cache=None) -> ScenarioValidation:
    """:func:`repro.validation.harness.validate_scenario` on
    ``workers`` workers; bit-identical to it for the same arguments.
    """
    sweep = run_validation([scenario], runner, seed=seed, trials=trials,
                           distiller=distiller, compensation=compensation,
                           workers=workers, executor=executor, cache=cache)
    return sweep.validations[0]


def ethernet_baseline_parallel(runner: BenchmarkRunner, seed: int = 0,
                               trials: int = 4,
                               workers: Optional[int] = None,
                               executor: Optional[TrialExecutor] = None
                               ) -> Dict[str, Summary]:
    """Summaries of the benchmark over the raw modulation Ethernet.

    :func:`repro.validation.harness.ethernet_baseline` is this with
    ``workers=1``.  The trials carry the same fingerprints as
    :func:`run_validation`'s baseline trials, so a baseline repeated on
    one executor is read back, not rerun.
    """
    exe, owned = _executor_for(workers, executor)
    try:
        variants = runner.variants()
        specs = [_fingerprinted(TrialSpec(kind="ethernet", seed=seed,
                                          trial=t, runner=variant))
                 for variant in variants for t in range(trials)]
        results = exe.map(specs)
        out: Dict[str, Summary] = {}
        for v, variant in enumerate(variants):
            runs = results[v * trials:(v + 1) * trials]
            for metric in variant.metrics:
                out[metric] = Summary.of([r[metric] for r in runs])
        return out
    finally:
        if owned:
            exe.shutdown()


def characterize_scenario_parallel(scenario: Scenario, seed: int = 0,
                                   trials: int = 4,
                                   workers: Optional[int] = None,
                                   executor: Optional[TrialExecutor] = None,
                                   obs: Optional[ObsConfig] = None,
                                   trial_metrics: Optional[List[Dict]] = None):
    """Collect and distill ``trials`` traversals of ``scenario``.

    :func:`repro.validation.figures.characterize_scenario` is this with
    ``workers=1``.  With ``obs`` set, each traversal's metrics record is appended to
    the caller-supplied ``trial_metrics`` list in trial order.  The
    traversals carry the same fingerprints as :func:`run_validation`'s
    collections, so a sweep on the same executor (or over the same
    cache) reads them back instead of collecting them again.
    """
    from .figures import ScenarioCharacterization

    exe, owned = _executor_for(workers, executor)
    try:
        results = exe.map(_distill_specs(scenario, seed, trials, None, obs))
        distillations = []
        for result in results:
            dist, record = _unwrap_distill(result)
            distillations.append(dist)
            if record is not None and trial_metrics is not None:
                trial_metrics.append(record)
        return ScenarioCharacterization(scenario=scenario,
                                        distillations=distillations)
    finally:
        if owned:
            exe.shutdown()


# ======================================================================
# The full sweep
# ======================================================================
@dataclass
class ValidationSweep:
    """Everything one benchmark sweep produced, plus how it ran."""

    benchmark: str
    validations: List[ScenarioValidation] = field(default_factory=list)
    baseline: Optional[Dict[str, Summary]] = None
    workers_used: int = 1
    # One metrics record per trial (collect, live, modulated, ethernet)
    # when the sweep ran with an ObsConfig; empty otherwise.  Ordered
    # deterministically: per scenario, collections then live then
    # modulated (variant-major), then the baseline trials.
    trial_metrics: List[Dict] = field(default_factory=list)
    # Artifact-cache accounting of the caller's ``cache=``: how many
    # trials were loaded from it versus recomputed.  Both are zero
    # without one; trials the executor read back from its own scratch
    # store are not counted here.
    cache_hits: int = 0
    cache_misses: int = 0
    # Data-plane accounting (see Scheduler.transport_stats): what
    # carried results ("serial" or the backend's name), envelope/byte
    # counters, and how often — and why — execution fell back
    # in-process.
    transport: Dict[str, Any] = field(default_factory=dict)
    fallback_reason: Optional[str] = None
    # Sweep-timeline rollup (SweepTelemetry.summary()) when the sweep
    # ran with telemetry; None otherwise.
    telemetry: Optional[Dict[str, Any]] = None

    def render(self, title: Optional[str] = None, caption: str = "") -> str:
        """The Figures 6–8 style table for this sweep.

        Byte-identical for any worker count and any hosts — the
        determinism tests compare exactly this string across
        ``workers`` and ``hosts`` values.
        """
        from .figures import render_benchmark_table

        baseline = self.baseline
        if baseline is None:
            metrics = self.validations[0].comparisons if self.validations else {}
            baseline = {m: Summary(mean=float("nan"), std=float("nan"), n=0)
                        for m in metrics}
        return render_benchmark_table(
            self.validations, baseline,
            title=title or f"Validation sweep: {self.benchmark}",
            caption=caption)

    def as_dict(self) -> Dict[str, Any]:
        """Machine-readable sweep: per-scenario tables, cache and
        data-plane accounting (the CLI's ``--json`` surface)."""
        return {
            "benchmark": self.benchmark,
            "workers_used": self.workers_used,
            "scenarios": [
                {
                    "scenario": v.scenario,
                    "metrics": {
                        name: {
                            "real": c.real.as_dict(),
                            "modulated": c.modulated.as_dict(),
                            "sigma_distance": (
                                c.sigma_distance
                                if math.isfinite(c.sigma_distance)
                                else None),  # strict-JSON safe
                            "accurate": c.accurate,
                        }
                        for name, c in v.comparisons.items()
                    },
                }
                for v in self.validations
            ],
            "baseline": (
                {m: s.as_dict() for m, s in self.baseline.items()}
                if self.baseline is not None else None),
            "cache": {"hits": self.cache_hits,
                      "misses": self.cache_misses},
            "transport": self.transport,
            "fallback_reason": self.fallback_reason,
            "telemetry": self.telemetry,
        }


def run_validation(scenarios: Union[Scenario, Sequence[Scenario]],
                   runner: BenchmarkRunner,
                   seed: int = 0, trials: int = 4,
                   seeds: int = 1,
                   distiller: Optional[Distiller] = None,
                   compensation: Optional[float] = None,
                   baseline: bool = False,
                   workers: Optional[int] = None,
                   executor: Optional[TrialExecutor] = None,
                   obs: Optional[ObsConfig] = None,
                   cache=None,
                   hosts=None,
                   telemetry: Optional[SweepTelemetry] = None,
                   progress: Optional[SweepProgress] = None
                   ) -> ValidationSweep:
    """Run the paper's validation protocol over one or more scenarios.

    The sweep is fully pipelined: every trial with no input dependency
    — all trace-collection traversals, all live trials, the Ethernet
    baseline — is queued up front (longest first), and each scenario's
    modulated trials are queued the moment its distillations resolve,
    carrying the distilled replay by store reference.  The backend
    therefore never idles at a phase barrier; cheap scenarios'
    modulated trials join the queue while expensive collections are
    still in flight.

    A distillation is decoded only when something reads it: a
    modulated trial of its traversal, in the process that runs the
    trial and for that trial alone, the metrics records of a sweep with
    ``obs``, or a caller reading a
    :attr:`ScenarioValidation.distillations` entry, which is decoded on
    first access (and stays readable after the executor has shut
    down).  A warm rerun therefore decodes no distilled trace, and a
    serial sweep holds none between its trials.

    The delay-compensation constant is measured once, in the parent,
    and shipped to every worker — exactly like the serial harness,
    which measures it once per process.

    Every trial is fingerprinted through the pipeline stages and
    looked up before it is executed.  Without ``cache`` the lookup goes
    to the executor's scratch store, which lives as long as the
    executor: a trial an earlier call already ran on the same executor
    (a traversal collected for another figure) is read back, not rerun.
    ``cache`` (a directory path, :class:`~repro.pipeline.ArtifactStore`
    or :class:`~repro.pipeline.Pipeline`) takes the scratch store's
    place and outlives the executor, so a warm rerun of the same sweep
    recomputes nothing; with a disk cache local workers write their
    artifacts straight into it.  Results are identical with or without
    a cache, for every ``workers`` and ``hosts``.

    ``seeds`` widens the sweep into a Monte Carlo workload: the full
    trial protocol repeats for ``seed, seed+1, ..., seed+seeds-1`` and
    every per-metric summary pools all ``seeds × trials`` runs.  The
    default ``seeds=1`` is byte-identical to the pre-``seeds``
    behavior; ``hosts`` (an ``"a:4,b:8"`` expression, hosts-file path
    or spec list) runs the sweep on that fleet instead of ``workers``
    local workers (see :class:`~repro.runtime.scheduler.Scheduler`).
    """
    if isinstance(scenarios, Scenario):
        scenarios = [scenarios]
    # Accept scenario classes (ALL_SCENARIOS is a tuple of classes).
    scenarios = [s() if isinstance(s, type) else s for s in scenarios]
    seeds_n = max(1, int(seeds))
    # One entry per (seed, trial) execution of the protocol, seed-major
    # — with seeds=1 this is exactly the classic trial list, so all
    # slicing below degenerates to the original layout byte-for-byte.
    runs = [(sd, t) for sd in range(seed, seed + seeds_n)
            for t in range(trials)]
    n_runs = len(runs)
    pipeline = as_pipeline(cache)
    cache_mark = len(pipeline.executions) if pipeline is not None else 0
    comp_tok = telemetry.begin() if telemetry is not None else None
    if compensation is not None:
        comp = compensation
    elif pipeline is not None:
        comp = pipeline.run(CompensationStage())
    else:
        comp = compensation_vb()
    if telemetry is not None:
        telemetry.end(comp_tok, "compensation")
    exe, owned = _executor_for(workers, executor, pipeline, hosts)
    if telemetry is not None:
        exe.telemetry = telemetry
    if progress is not None:
        exe.progress = progress
    try:
        variants = runner.variants()
        n = len(scenarios)

        # One distill stage per (scenario, seed, trial).  Its
        # fingerprint, computed once, keys the distill trial and is
        # chained into every modulated trial of that traversal, so a
        # changed scenario spec or distiller invalidates exactly its
        # downstream trials.
        dist_stages = [[_distill_stage(scenario, sd, t, distiller, obs,
                                       f"{scenario.name}-{t}")
                        for sd, t in runs]
                       for scenario in scenarios]

        # ---- queue every dependency-free trial -----------------------
        nodep_specs: List[TrialSpec] = [_distill_spec(stage)
                                        for stages in dist_stages
                                        for stage in stages]
        for scenario in scenarios:
            for variant in variants:
                for sd, t in runs:
                    nodep_specs.append(_fingerprinted(TrialSpec(
                        kind="live", seed=sd, trial=t,
                        scenario=scenario, runner=variant, obs=obs)))
        if baseline:
            for variant in variants:
                for sd, t in runs:
                    nodep_specs.append(_fingerprinted(TrialSpec(
                        kind="ethernet", seed=sd, trial=t,
                        runner=variant, obs=obs)))
        nodep_futs = exe.submit_all(nodep_specs)
        dist_futs = [nodep_futs[s * n_runs:(s + 1) * n_runs]
                     for s in range(n)]
        bench_futs = nodep_futs[n * n_runs:]

        # ---- queue modulated trials as distillations resolve ---------
        # Cheapest scenarios first: their modulated trials slot in
        # behind the expensive collections still running.  A modulated
        # trial gets its replay only if it has to execute.
        resolve_order = sorted(
            range(n), key=lambda s: dist_futs[s][0].job.cost_hint)
        run_index = {run: r for r, run in enumerate(runs)}
        collect_records: List[List[Dict]] = [[] for _ in range(n)]
        mod_futs: List[List[JobFuture]] = [[] for _ in range(n)]
        for s in resolve_order:
            if obs is not None:
                for f in dist_futs[s]:
                    record = _unwrap_distill(f.result())[1]
                    if record is not None:
                        collect_records[s].append(record)
            mod_specs = [_fingerprinted(
                             TrialSpec(kind="modulated", seed=sd, trial=t,
                                       runner=variant, compensation=comp,
                                       obs=obs),
                             dist_stages[s][r])
                         for variant in variants
                         for r, (sd, t) in enumerate(runs)]
            mod_futs[s] = exe.submit_all(
                mod_specs,
                prepare=functools.partial(_with_replay, dist_futs[s],
                                          run_index))

        # ---- reassembly ---------------------------------------------
        # Metrics records are pulled out of the sinks here, in a fixed
        # order (per scenario: collections, then live and modulated
        # variant-major; baseline last) — never in completion order.
        sweep = ValidationSweep(benchmark=runner.name,
                                workers_used=exe.effective_workers)

        def _take_records(runs: List[Dict]) -> List[Dict]:
            out = []
            for run in runs:
                record = run.pop("__obs__", None)
                if record is not None:
                    out.append(record)
            return out

        cursor = 0
        for s, scenario in enumerate(scenarios):
            sweep.trial_metrics.extend(collect_records[s])
            real_by_variant: List[List[Dict[str, float]]] = []
            mod_by_variant: List[List[Dict[str, float]]] = []
            for v, _variant in enumerate(variants):
                real_runs = [f.result()
                             for f in bench_futs[cursor:cursor + n_runs]]
                cursor += n_runs
                mod_runs = [f.result()
                            for f in mod_futs[s][v * n_runs:(v + 1) * n_runs]]
                sweep.trial_metrics.extend(_take_records(real_runs))
                sweep.trial_metrics.extend(_take_records(mod_runs))
                real_by_variant.append(real_runs)
                mod_by_variant.append(mod_runs)
            sweep.validations.append(_assemble_validation(
                scenario, runner,
                LazySequence(functools.partial(_distillation, f)
                             for f in dist_futs[s]),
                real_by_variant, mod_by_variant))
        if baseline:
            out: Dict[str, Summary] = {}
            for variant in variants:
                base_runs = [f.result()
                             for f in bench_futs[cursor:cursor + n_runs]]
                cursor += n_runs
                sweep.trial_metrics.extend(_take_records(base_runs))
                for metric in variant.metrics:
                    out[metric] = Summary.of(
                        [r[metric] for r in base_runs])
            sweep.baseline = out
        if pipeline is not None:
            stats = pipeline.summary(since=cache_mark)
            sweep.cache_hits = stats["hits"]
            sweep.cache_misses = stats["misses"]
        sweep.workers_used = exe.effective_workers
        sweep.transport = exe.transport_stats()
        sweep.fallback_reason = exe.fallback_reason
        if telemetry is not None:
            sweep.telemetry = telemetry.summary()
        return sweep
    finally:
        if owned:
            exe.shutdown()
        else:
            # A caller-supplied executor outlives this sweep; detach
            # the sweep-scope hooks so a later sweep starts clean.
            if telemetry is not None and exe.telemetry is telemetry:
                exe.telemetry = None
            if progress is not None and exe.progress is progress:
                exe.progress = None
