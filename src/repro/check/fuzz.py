"""Generative fuzzing: random scenarios through the invariant monitors.

``run_fuzz`` turns the fixed-corpus invariant suite into a generative
one: it draws ``count`` random-but-valid scenario specs from the
seeded generator (:mod:`repro.scenarios.generate`), runs the full
``check_scenario`` pipeline — collect, distill, live trial, modulated
trial, every monitor — over each, and for any spec that violates an
invariant it *shrinks* the spec to a smaller reproducer and archives
both as repro artifacts.

Everything is deterministic in ``(seed, count, kinds)``: the corpus,
the per-spec check seeds, the shrink sequence and the rendered summary
are byte-identical across reruns and machines — which is what lets CI
assert reproducibility by diffing two runs.

Reproducing an archived failure::

    repro check --scenario artifacts/fuzz-s0-i0042.spec.toml

(the artifact is a plain TOML spec; see docs/SCENARIOS.md for the full
walkthrough).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence

from ..pipeline import Pipeline, as_pipeline, digest
from ..runtime.job import Job, register_job_kind, runner_ref
from ..runtime.session import shared_pipeline
from ..scenarios.generate import GENERATOR_VERSION, generate_specs
from ..scenarios.spec import (LossModel, ScenarioSpec, SpecError,
                              SpecScenario, save_spec, spec_to_dict)
from .invariants import InvariantViolation
from .runner import check_scenario

FUZZ_VERSION = 1

# A fuzz check uses a short transfer so hundreds of specs stay in
# minutes of wall clock; every stage still runs.
FUZZ_FTP_BYTES = 25_000
DEFAULT_SHRINK_BUDGET = 24


# ======================================================================
# Results
# ======================================================================
@dataclass
class FuzzFinding:
    """One violating spec: the shrunk reproducer plus provenance."""

    spec: ScenarioSpec                       # shrunk reproducer
    original: ScenarioSpec                   # as generated
    violations: List[InvariantViolation]
    shrink_steps: int = 0
    shrink_checks: int = 0
    artifacts: Dict[str, str] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "name": self.original.name,
            "generator": self.original.generator,
            "violations": [v.as_dict() for v in self.violations],
            "shrink_steps": self.shrink_steps,
            "shrink_checks": self.shrink_checks,
            "spec": spec_to_dict(self.spec),
            "original": spec_to_dict(self.original),
            "artifacts": dict(self.artifacts),
        }


@dataclass
class FuzzRun:
    """The outcome of one seeded fuzz campaign."""

    seed: int
    count: int
    kinds: Optional[List[str]]
    checked: int = 0
    findings: List[FuzzFinding] = field(default_factory=list)
    corpus_digest: str = ""
    corpus_dir: str = ""
    artifact_dir: str = ""

    @property
    def ok(self) -> bool:
        return not self.findings

    def as_dict(self) -> Dict[str, Any]:
        return {
            "fuzz_version": FUZZ_VERSION,
            "generator_version": GENERATOR_VERSION,
            "seed": self.seed,
            "count": self.count,
            "kinds": self.kinds,
            "checked": self.checked,
            "ok": self.ok,
            "corpus_digest": self.corpus_digest,
            "findings": [f.as_dict() for f in self.findings],
        }

    def render(self) -> str:
        """Deterministic summary (no wall-clock, byte-stable reruns)."""
        head = (f"fuzz seed={self.seed} count={self.count}: "
                f"{self.checked} spec(s) checked, "
                f"{len(self.findings)} violating")
        lines = [head, f"corpus digest {self.corpus_digest}"]
        for finding in self.findings:
            first = finding.violations[0]
            lines.append(f"  !! {finding.original.name}: "
                         f"{len(finding.violations)} violation(s), "
                         f"first [{first.monitor}.{first.invariant}] "
                         f"(shrunk in {finding.shrink_steps} step(s))")
            for label, path in sorted(finding.artifacts.items()):
                lines.append(f"     {label}: {path}")
        return "\n".join(lines)


def corpus_digest(specs: Sequence[ScenarioSpec]) -> str:
    """SHA-256 over the canonical-JSON corpus (order-sensitive)."""
    return digest({"fuzz_corpus": FUZZ_VERSION,
                   "specs": [spec_to_dict(s) for s in specs]})


# ======================================================================
# Shrinking
# ======================================================================
def _field_shrink_candidates(spec: ScenarioSpec):
    """Per-field simplifications, most aggressive first."""
    for fname, pieces in sorted(spec.fields.items()):
        if len(pieces) > 1:
            # Collapse the curve to its first piece, extended full-span.
            collapsed = (replace(pieces[0], end=1.0, inclusive=False),)
            yield (f"{fname}: collapse to 1 piece",
                   _with_field(spec, fname, collapsed))
        simplified = tuple(
            replace(p, dist="gauss", slope=0.0, span=None,
                    dip_prob=0.0, spike_prob=0.0, spike_magnitude=0.0)
            for p in pieces)
        if simplified != pieces:
            yield (f"{fname}: gauss, no ramps/dips/spikes",
                   _with_field(spec, fname, simplified))


def _with_field(spec: ScenarioSpec, fname: str, pieces) -> ScenarioSpec:
    fields = dict(spec.fields)
    fields[fname] = pieces
    return replace(spec, fields=fields)


def _shrink_candidates(spec: ScenarioSpec):
    """Ordered candidate simplifications of ``spec``."""
    if spec.family is not None:
        # Detach the family first so field-level shrinking can bite;
        # the compiled fields are already on the spec.
        yield "detach family", replace(spec, family=None)
        return
    if spec.duration > 20.0:
        yield (f"halve duration to {spec.duration / 2:.1f}",
               replace(spec, duration=round(spec.duration / 2, 1)))
    if spec.checkpoints:
        yield "drop checkpoints", replace(spec, checkpoints=())
    if spec.cross_laptops:
        yield "drop cross laptops", replace(spec, cross_laptops=0)
    if spec.loss_model != LossModel():
        yield "default loss model", replace(spec, loss_model=LossModel())
    yield from _field_shrink_candidates(spec)


def shrink_spec(spec: ScenarioSpec,
                reproduces: Callable[[ScenarioSpec], bool],
                budget: int = DEFAULT_SHRINK_BUDGET):
    """Greedy shrink: keep any simplification that still reproduces.

    ``reproduces`` re-checks a candidate (expensive — a full pipeline
    run), so the total number of candidate evaluations is capped by
    ``budget``.  Returns ``(shrunk_spec, steps_applied, checks_used)``.
    """
    current = spec
    steps = 0
    checks = 0
    progress = True
    while progress and checks < budget:
        progress = False
        for _label, candidate in _shrink_candidates(current):
            if checks >= budget:
                break
            try:
                candidate.validate()
            except SpecError:
                continue
            checks += 1
            if reproduces(candidate):
                current = candidate
                steps += 1
                progress = True
                break   # restart from the smaller spec
    return current, steps, checks


# ======================================================================
# The campaign
# ======================================================================
def _check_spec(spec: ScenarioSpec, seed: int, ftp_bytes: int,
                cache) -> List[InvariantViolation]:
    """Violations for one spec; a pipeline crash is itself a finding."""
    try:
        report = check_scenario(SpecScenario(spec), seed=seed,
                                ftp_bytes=ftp_bytes, cache=cache)
    except InvariantViolation:
        raise
    except Exception as exc:  # noqa: BLE001 - fuzzing wants the crash
        return [InvariantViolation(
            "fuzz", "pipeline_crash",
            f"pipeline raised {type(exc).__name__}: {exc}")]
    return report.violations


def _signature(violations: Sequence[InvariantViolation]):
    return {(v.monitor, v.invariant) for v in violations}


# ----------------------------------------------------------------------
# The runtime job kind ("fuzz"): one generated spec through the full
# invariant pipeline.  The short FUZZ_FTP_BYTES transfer keeps a spec
# check cheaper than a full `check` job, so checks start first when
# both share a batch.
# ----------------------------------------------------------------------
FUZZ_COST_HINT = 150.0


@dataclass(frozen=True)
class FuzzCheckJob:
    """Picklable description of one spec check.  The live ``cache``
    handle is in-process only; the wire variant nulls it and workers
    reopen ``cache_root`` per process."""

    spec: ScenarioSpec
    seed: int = 0
    ftp_bytes: int = FUZZ_FTP_BYTES
    cache_root: Optional[str] = None
    cache: Optional[Pipeline] = None


def run_fuzz_check_job(job: FuzzCheckJob) -> List[InvariantViolation]:
    cache = job.cache
    if cache is None:
        cache = shared_pipeline(job.cache_root)
    return _check_spec(job.spec, job.seed, job.ftp_bytes, cache)


_RUN_FUZZ_CHECK = runner_ref(run_fuzz_check_job)
register_job_kind("fuzz", _RUN_FUZZ_CHECK, cost_hint=FUZZ_COST_HINT)


def fuzz_check_job(spec: ScenarioSpec, seed: int = 0,
                   ftp_bytes: int = FUZZ_FTP_BYTES, cache=None) -> Job:
    """Build the runtime job checking one generated spec."""
    pipeline = as_pipeline(cache)
    root = None
    if pipeline is not None and pipeline.store.root is not None:
        root = str(pipeline.store.root)
    payload = FuzzCheckJob(spec=spec, seed=seed, ftp_bytes=ftp_bytes,
                           cache_root=root, cache=pipeline)
    return Job(kind="fuzz", runner=_RUN_FUZZ_CHECK, payload=payload,
               label=f"fuzz:{spec.name}", cost_hint=FUZZ_COST_HINT,
               wire_payload=replace(payload, cache=None))


def run_fuzz(count: int, seed: int = 0,
             kinds: Optional[Sequence[str]] = None,
             ftp_bytes: int = FUZZ_FTP_BYTES,
             corpus_dir: Optional[str] = None,
             artifact_dir: Optional[str] = None,
             cache=None, shrink: bool = True,
             shrink_budget: int = DEFAULT_SHRINK_BUDGET,
             progress: Optional[Callable[[int, int, str], None]] = None,
             executor=None) -> FuzzRun:
    """Fuzz ``count`` generated scenarios through the invariant suite.

    * ``corpus_dir`` — write every generated spec as a TOML file;
    * ``artifact_dir`` — archive each violating spec (shrunk reproducer
      ``<name>.spec.toml``, original ``<name>.orig.toml``, violation
      report ``<name>.report.json``);
    * ``cache`` — a pipeline cache dir/store: warm reruns of an
      unchanged corpus skip the simulations entirely;
    * ``progress`` — optional ``fn(done, total, name)`` callback (the
      CLI points it at stderr so stdout stays byte-identical);
    * ``executor`` — a runtime :class:`~repro.runtime.Scheduler`: the
      initial sweep over the corpus fans out across its workers while
      results are consumed in spec order, so ``FuzzRun`` (and hence the
      rendered summary) is byte-identical to the serial run.  Shrinking
      stays serial in the parent — each shrink candidate depends on the
      previous verdict, so there is no parallelism to harvest there.
    """
    specs = list(generate_specs(seed, count, kinds=kinds))
    cache = as_pipeline(cache)
    run = FuzzRun(seed=seed, count=count,
                  kinds=list(kinds) if kinds else None,
                  corpus_digest=corpus_digest(specs))
    if corpus_dir:
        corpus = Path(corpus_dir)
        corpus.mkdir(parents=True, exist_ok=True)
        for spec in specs:
            save_spec(spec, corpus / f"{spec.name}.toml")
        run.corpus_dir = str(corpus)
    archive = None
    if artifact_dir:
        archive = Path(artifact_dir)
        archive.mkdir(parents=True, exist_ok=True)
        run.artifact_dir = str(archive)
    futures = None
    if executor is not None:
        jobs = [fuzz_check_job(spec, seed=seed, ftp_bytes=ftp_bytes,
                               cache=cache) for spec in specs]
        futures = executor.submit_jobs(jobs)
    for i, spec in enumerate(specs):
        if progress is not None:
            progress(i, count, spec.name)
        if futures is not None:
            violations = futures[i].result()
        else:
            violations = _check_spec(spec, seed, ftp_bytes, cache)
        run.checked += 1
        if not violations:
            continue
        shrunk, steps, checks = spec, 0, 0
        if shrink:
            # A candidate reproduces when it breaks one of the same
            # invariants the original did — a candidate that fails some
            # *other* way (e.g. too short to distill) does not count.
            signature = _signature(violations)

            def reproduces(cand, signature=signature):
                found = _check_spec(cand, seed, ftp_bytes, cache)
                return bool(_signature(found) & signature)

            shrunk, steps, checks = shrink_spec(spec, reproduces,
                                                budget=shrink_budget)
            if shrunk is not spec:
                # Report the violations of the *reproducer*.
                violations = _check_spec(shrunk, seed, ftp_bytes, cache)
        finding = FuzzFinding(spec=shrunk, original=spec,
                              violations=violations,
                              shrink_steps=steps, shrink_checks=checks)
        if archive is not None:
            spec_path = archive / f"{spec.name}.spec.toml"
            orig_path = archive / f"{spec.name}.orig.toml"
            report_path = archive / f"{spec.name}.report.json"
            save_spec(shrunk, spec_path)
            save_spec(spec, orig_path)
            report_path.write_text(
                json.dumps(finding.as_dict(), indent=1, sort_keys=True),
                encoding="utf-8")
            finding.artifacts = {"reproducer": str(spec_path),
                                 "original": str(orig_path),
                                 "report": str(report_path)}
        run.findings.append(finding)
    if progress is not None:
        progress(count, count, "")
    return run
