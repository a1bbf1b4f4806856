"""Golden-master regression corpus: distilled traces + validation tables.

The corpus pins the pipeline's *behaviour* — not just "tests pass" —
at fixed seeds: one distilled replay trace and one rendered validation
table per scenario, checked into ``tests/golden/``.  The determinism
contract (everything keyed by ``(scenario, seed, trial)``, observability
draws no RNG) makes these byte-identical across runs and worker counts,
so any future perf PR that skews behaviour fails the diff loudly
instead of silently drifting EXPERIMENTS.md.

The differ is tolerance-aware: with ``rtol=0`` (the default, and what
the regression test uses) it demands byte-identical text; a non-zero
``rtol`` compares every embedded number within a relative tolerance
while still requiring the surrounding text to match exactly — the mode
to use when an *intentional* behaviour change is being reviewed.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence

from ..core.replay import ReplayTrace
from ..pipeline import CollectStage, DistillStage, Pipeline, as_pipeline
from ..runtime.job import Job, register_job_kind, runner_ref
from ..runtime.session import shared_pipeline
from ..scenarios import ALL_SCENARIOS, scenario_by_name
from ..validation.harness import FtpRunner, compensation_vb
from ..validation.parallel import run_validation

# Corpus location: <repo>/tests/golden (this file is src/repro/check/).
DEFAULT_GOLDEN_DIR = Path(__file__).resolve().parents[3] / "tests" / "golden"

GOLDEN_SEED = 0
GOLDEN_TRIAL = 0
GOLDEN_FTP_BYTES = 200_000

# One representative scenario per profile family (mobility, RAN, LEO)
# rides in the corpus alongside the paper's four traversals.
FAMILY_GOLDEN_SCENARIOS = ("shuttle", "ran4g", "leo")

_NUMBER = re.compile(r"[-+]?\d+\.?\d*(?:[eE][-+]?\d+)?")


def scenario_names(scenarios: Optional[Iterable[str]] = None) -> List[str]:
    if scenarios is None:
        return [cls.name for cls in ALL_SCENARIOS] \
            + list(FAMILY_GOLDEN_SCENARIOS)
    return list(scenarios)


# ======================================================================
# Corpus generation
# ======================================================================
def golden_replay(name: str, seed: int = GOLDEN_SEED,
                  trial: int = GOLDEN_TRIAL,
                  cache=None) -> ReplayTrace:
    """The scenario's distilled replay trace at the pinned seed.

    Runs collect → distill through the pipeline API; with ``cache``
    set, the stages resolve from the artifact store when warm.
    """
    scenario = scenario_by_name(name)
    pipeline = as_pipeline(cache) or Pipeline()
    stage = DistillStage(CollectStage(scenario, seed, trial),
                         label=f"{name}-{trial}")
    return pipeline.run(stage).replay


def golden_table(name: str, seed: int = GOLDEN_SEED,
                 ftp_bytes: int = GOLDEN_FTP_BYTES,
                 cache=None) -> str:
    """The scenario's one-trial validation table at the pinned seed.

    A single trial of a short FTP send keeps regeneration fast while
    exercising collect, distill, live and modulated stages end to end;
    ``workers=1`` is explicit, but any worker count renders the same
    bytes (the PR-1 determinism contract).
    """
    scenario = scenario_by_name(name)
    runner = FtpRunner(nbytes=ftp_bytes, direction="send")
    sweep = run_validation(scenario, runner, seed=seed, trials=1,
                           compensation=compensation_vb(), workers=1,
                           cache=cache)
    return sweep.render(title=f"Golden: {name} ftp-send "
                              f"{ftp_bytes} B, seed {seed}")


# ======================================================================
# The runtime job kind ("golden")
# ======================================================================
# One golden artifact pair runs collect, distill, live and modulated
# stages end to end, so it starts ahead of cheaper jobs in a batch.
GOLDEN_COST_HINT = 400.0


@dataclass(frozen=True)
class GoldenJob:
    """Picklable description of one scenario's corpus artifacts.  The
    live ``cache`` handle is in-process only; the wire variant nulls
    it and workers reopen ``cache_root`` per process."""

    name: str
    seed: int = GOLDEN_SEED
    trial: int = GOLDEN_TRIAL
    ftp_bytes: int = GOLDEN_FTP_BYTES
    cache_root: Optional[str] = None
    cache: Optional[Pipeline] = None


def run_golden_job(job: GoldenJob) -> Dict[str, str]:
    """Produce one scenario's corpus artifacts as *text*: the replay
    JSON and the rendered table.  Returning the serialized forms keeps
    the job's output identical to what lands on disk, so byte-identity
    across backends is pinned at the job boundary."""
    cache = job.cache
    if cache is None:
        cache = shared_pipeline(job.cache_root)
    replay = golden_replay(job.name, seed=job.seed, trial=job.trial,
                           cache=cache)
    table = golden_table(job.name, seed=job.seed,
                         ftp_bytes=job.ftp_bytes, cache=cache)
    return {"replay_json": replay.to_json(), "table": table}


_RUN_GOLDEN = runner_ref(run_golden_job)
register_job_kind("golden", _RUN_GOLDEN, cost_hint=GOLDEN_COST_HINT)


def golden_job(name: str, cache=None) -> Job:
    """Build the runtime job for one scenario's corpus artifacts."""
    pipeline = as_pipeline(cache)
    root = None
    if pipeline is not None and pipeline.store.root is not None:
        root = str(pipeline.store.root)
    payload = GoldenJob(name=name, cache_root=root, cache=pipeline)
    return Job(kind="golden", runner=_RUN_GOLDEN, payload=payload,
               label=f"golden:{name}", cost_hint=GOLDEN_COST_HINT,
               wire_payload=replace(payload, cache=None))


def _golden_outputs(names: Sequence[str], cache,
                    executor=None) -> List[Dict[str, str]]:
    """Each scenario's ``{replay_json, table}`` pair, in name order —
    serial, or fanned out through a caller-supplied runtime executor
    (results are byte-identical either way)."""
    pipeline = as_pipeline(cache)
    jobs = [golden_job(name, cache=pipeline) for name in names]
    if executor is None:
        return [run_golden_job(job.payload) for job in jobs]
    return executor.map_jobs(jobs)


def replay_path(directory: Path, name: str) -> Path:
    return directory / f"{name}.replay.json"


def table_path(directory: Path, name: str) -> Path:
    return directory / f"{name}.table.txt"


def regenerate(directory: Optional[Path] = None,
               scenarios: Optional[Iterable[str]] = None,
               cache=None, executor=None) -> List[Path]:
    """(Re)write the corpus; returns the paths written.

    Only for *intentional* behaviour changes — see docs/TESTING.md.
    The written bytes are the runner's serialized output verbatim
    (``ReplayTrace.save`` writes exactly ``to_json()``), so serial and
    parallel regeneration produce identical files.
    """
    directory = Path(directory or DEFAULT_GOLDEN_DIR)
    directory.mkdir(parents=True, exist_ok=True)
    names = scenario_names(scenarios)
    written: List[Path] = []
    for name, out in zip(names, _golden_outputs(names, cache, executor)):
        path = replay_path(directory, name)
        path.write_text(out["replay_json"], encoding="utf-8")
        written.append(path)
        path = table_path(directory, name)
        path.write_text(out["table"], encoding="utf-8")
        written.append(path)
    return written


# ======================================================================
# Tolerance-aware diffing
# ======================================================================
def diff_text(expected: str, actual: str, rtol: float = 0.0,
              label: str = "") -> List[str]:
    """Differences between two texts, numbers compared within ``rtol``.

    With ``rtol=0`` any byte difference is reported.  Otherwise each
    line is tokenized into numbers and the text between them: the text
    must match exactly, numbers must agree within relative tolerance
    ``rtol`` (absolute for values near zero).
    """
    prefix = f"{label}: " if label else ""
    if expected == actual:
        return []
    if rtol <= 0.0:
        exp_lines = expected.splitlines()
        act_lines = actual.splitlines()
        diffs = []
        for i in range(max(len(exp_lines), len(act_lines))):
            exp = exp_lines[i] if i < len(exp_lines) else "<missing>"
            act = act_lines[i] if i < len(act_lines) else "<missing>"
            if exp != act:
                diffs.append(f"{prefix}line {i + 1}: expected "
                             f"{exp!r}, got {act!r}")
        return diffs or [f"{prefix}texts differ (trailing whitespace?)"]
    diffs = []
    exp_lines = expected.splitlines()
    act_lines = actual.splitlines()
    if len(exp_lines) != len(act_lines):
        return [f"{prefix}line count {len(act_lines)} != expected "
                f"{len(exp_lines)}"]
    for i, (exp, act) in enumerate(zip(exp_lines, act_lines)):
        if exp == act:
            continue
        exp_nums = _NUMBER.findall(exp)
        act_nums = _NUMBER.findall(act)
        if (_NUMBER.sub("#", exp) != _NUMBER.sub("#", act)
                or len(exp_nums) != len(act_nums)):
            diffs.append(f"{prefix}line {i + 1}: structure differs: "
                         f"expected {exp!r}, got {act!r}")
            continue
        for e, a in zip(exp_nums, act_nums):
            ev, av = float(e), float(a)
            tol = rtol * max(abs(ev), abs(av), 1e-12)
            if abs(ev - av) > tol:
                diffs.append(f"{prefix}line {i + 1}: {av} outside "
                             f"rtol={rtol} of expected {ev}")
    return diffs


def diff_replay(expected: ReplayTrace, actual: ReplayTrace,
                rtol: float = 0.0, label: str = "") -> List[str]:
    """Differences between two replay traces, tuple by tuple."""
    prefix = f"{label}: " if label else ""
    diffs: List[str] = []
    if len(expected) != len(actual):
        return [f"{prefix}{len(actual)} tuples != expected "
                f"{len(expected)}"]
    for i, (e, a) in enumerate(zip(expected.tuples, actual.tuples)):
        for fld in ("d", "F", "Vb", "Vr", "L"):
            ev, av = getattr(e, fld), getattr(a, fld)
            tol = rtol * max(abs(ev), abs(av), 1e-12)
            if abs(ev - av) > tol:
                diffs.append(f"{prefix}tuple {i}.{fld}: {av} != "
                             f"expected {ev} (rtol={rtol})")
    return diffs


def compare(directory: Optional[Path] = None,
            scenarios: Optional[Iterable[str]] = None,
            rtol: float = 0.0, cache=None,
            executor=None) -> Dict[str, List[str]]:
    """Regenerate in memory and diff against the checked-in corpus.

    Returns ``{artifact: [differences]}`` — empty when everything
    matches.  A missing golden file is itself a difference (run
    ``repro check --regen-golden`` once to seed the corpus).
    """
    directory = Path(directory or DEFAULT_GOLDEN_DIR)
    names = scenario_names(scenarios)
    out: Dict[str, List[str]] = {}
    for name, actual in zip(names, _golden_outputs(names, cache, executor)):
        rpath = replay_path(directory, name)
        if not rpath.exists():
            out[rpath.name] = ["golden file missing"]
        else:
            expected = ReplayTrace.load(str(rpath))
            diffs = diff_replay(expected,
                                ReplayTrace.from_json(actual["replay_json"]),
                                rtol=rtol)
            # The JSON text itself must round-trip byte-identically
            # when the tuples match exactly.
            if not diffs and rtol == 0.0:
                diffs = diff_text(rpath.read_text(encoding="utf-8"),
                                  actual["replay_json"], rtol=0.0)
            if diffs:
                out[rpath.name] = diffs
        tpath = table_path(directory, name)
        if not tpath.exists():
            out[tpath.name] = ["golden file missing"]
        else:
            diffs = diff_text(tpath.read_text(encoding="utf-8"),
                              actual["table"], rtol=rtol)
            if diffs:
                out[tpath.name] = diffs
    return out
