"""Shared execution wiring for one CLI invocation.

Every bulk subcommand (``validate``, ``check``, ``fuzz``, golden
regeneration) needs the same four pieces of plumbing: an artifact
pipeline over ``--cache-dir``, a scheduler over ``--workers`` /
``--hosts``, a progress meter over ``--progress``, and a run ledger
over ``--run-dir``.  :class:`RuntimeSession` owns all four so
subcommands stop hand-rolling them — and so one warm backend is
reused when a single invocation runs several phases (``repro check
--golden`` runs invariant checks *and* golden comparison through the
same workers).

:func:`shared_pipeline` is the per-process pipeline memo used by
worker-side job runners: a worker process opens one
:class:`~repro.pipeline.Pipeline` per cache root and reuses it across
every chunk it executes, mirroring how the parent holds one pipeline
per invocation.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

from ..obs.telemetry import RunLedger, SweepProgress, table_digest
from ..pipeline import Pipeline, as_pipeline

__all__ = [
    "ExecutionConfig",
    "RuntimeSession",
    "command_ledger_record",
    "shared_pipeline",
]


# ----------------------------------------------------------------------
# Per-process pipeline memo (worker side)
# ----------------------------------------------------------------------
_PIPELINES: Dict[str, Pipeline] = {}


def shared_pipeline(cache_root: Optional[str]) -> Optional[Pipeline]:
    """One :class:`~repro.pipeline.Pipeline` per cache root per
    process, opened on first use.  Worker-side runners resolve their
    wire payload's ``cache_root`` through this so a warm worker pays
    the store-open cost once, not once per job."""
    if not cache_root:
        return None
    root = os.path.abspath(str(cache_root))
    pipe = _PIPELINES.get(root)
    if pipe is None:
        pipe = as_pipeline(root)
        _PIPELINES[root] = pipe
    return pipe


# ----------------------------------------------------------------------
# Execution configuration (the shared CLI flags, as a value)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ExecutionConfig:
    """The shared execution flags of every bulk subcommand."""

    workers: Optional[int] = None
    cache_dir: Optional[str] = None
    progress: bool = False
    run_dir: Optional[str] = None
    hosts: Optional[str] = None

    @classmethod
    def from_args(cls, args: Any) -> "ExecutionConfig":
        """Read the shared flags off an argparse namespace (missing
        attributes fall back to the defaults, so subcommands that do
        not take a flag still get a valid config)."""
        return cls(
            workers=getattr(args, "workers", None),
            cache_dir=getattr(args, "cache_dir", None),
            progress=bool(getattr(args, "progress", False)),
            run_dir=getattr(args, "run_dir", None),
            hosts=getattr(args, "hosts", None),
        )


class RuntimeSession:
    """One invocation's execution state: pipeline + scheduler +
    progress + ledger, created lazily and torn down once.

    The scheduler is a
    :class:`~repro.validation.parallel.TrialExecutor` (the
    :class:`~repro.runtime.scheduler.Scheduler` subclass that also
    accepts trial specs), so one warm backend serves generic jobs and
    validation sweeps alike across every phase of the invocation.
    """

    def __init__(self, config: Optional[ExecutionConfig] = None, **kwargs):
        self.config = config if config is not None \
            else ExecutionConfig(**kwargs)
        self.pipeline: Optional[Pipeline] = as_pipeline(self.config.cache_dir)
        self.started = time.perf_counter()
        self._scheduler = None
        self._ledger: Optional[RunLedger] = None

    # -- lifecycle ------------------------------------------------------
    def __enter__(self) -> "RuntimeSession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        if self._scheduler is not None:
            self._scheduler.shutdown()
            self._scheduler = None

    # -- pieces ---------------------------------------------------------
    def scheduler(self):
        """The invocation's (lazily created, reused) executor."""
        if self._scheduler is None:
            from ..validation.parallel import TrialExecutor

            self._scheduler = TrialExecutor(
                workers=self.config.workers, pipeline=self.pipeline,
                hosts=self.config.hosts)
        return self._scheduler

    def progress(self, label: str) -> Optional[SweepProgress]:
        """A fresh progress meter when ``--progress`` is on."""
        if not self.config.progress:
            return None
        return SweepProgress(label=label)

    def ledger(self) -> Optional[RunLedger]:
        if self.config.run_dir is None:
            return None
        if self._ledger is None:
            self._ledger = RunLedger(self.config.run_dir)
        return self._ledger

    def record(self, record: Dict[str, Any]) -> Optional[Dict[str, Any]]:
        """Append one manifest record to the run ledger (no-op without
        ``--run-dir``)."""
        ledger = self.ledger()
        if ledger is None:
            return None
        return ledger.append(record)

    def wall_s(self) -> float:
        return time.perf_counter() - self.started


def command_ledger_record(*, command: str, scenarios: Sequence[str],
                          seed: int, wall_s: float,
                          scheduler=None,
                          cache: Optional[Dict[str, int]] = None,
                          output: Optional[str] = None,
                          status: Optional[str] = None,
                          extra: Optional[Dict[str, Any]] = None
                          ) -> Dict[str, Any]:
    """The ledger manifest of one non-sweep bulk command (``check``,
    ``fuzz``, golden regeneration) — same shape as validation's
    :func:`~repro.obs.telemetry.sweep_ledger_record` so ledger readers
    need one parser: kind, scenarios, workers/backend accounting,
    cache accounting, wall clock, and the SHA-256 of the rendered
    output that pins byte-identity across worker counts and hosts."""
    record: Dict[str, Any] = {
        "kind": command,
        "scenarios": list(scenarios),
        "seed": seed,
        "workers": scheduler.effective_workers if scheduler is not None else 1,
        "transport": scheduler.transport_stats() if scheduler is not None
        else {},
        "cache": dict(cache) if cache else {"hits": 0, "misses": 0},
        "wall_s": round(wall_s, 6),
        "table_sha256": table_digest(output) if output else None,
        "status": status,
    }
    if extra:
        record.update(extra)
    return record
