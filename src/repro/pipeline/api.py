"""The pipeline driver: resolve stages through the artifact cache.

``Pipeline.run(stage)`` is the one entry point: look the stage's
fingerprint up in the store, compute on a miss, record what happened.
Every consumer — the serial harness, the parallel sweep (which checks
the cache before shipping a trial to a worker), the check runner and
the CLI — funnels through it, so a ``--cache-dir`` warm rerun
recomputes exactly the stages whose fingerprints changed and loads
everything else from disk.

The parallel sweep splits a hit in two: :meth:`Pipeline.find` is one
existence check at submission (the hit is recorded there), and
:meth:`Pipeline.load` decodes the artifact when its result is first
read, so a rerun decodes only what it renders.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from .stages import Stage
from .store import ArtifactStore

__all__ = ["Pipeline", "StageExecution", "as_pipeline"]

HIT = "hit"
MISS = "miss"
BYPASS = "bypass"      # computed with live world capture; cache unused


@dataclass
class StageExecution:
    """One resolved stage: what ran (or didn't) and for how long."""

    stage: str
    fingerprint: str
    status: str                 # "hit" | "miss" | "bypass"
    seconds: float = 0.0

    def as_dict(self) -> Dict[str, Any]:
        return {"stage": self.stage, "fingerprint": self.fingerprint,
                "status": self.status, "seconds": self.seconds}


class Pipeline:
    """Stage resolver over a content-addressed :class:`ArtifactStore`."""

    def __init__(self, store: Optional[Union[ArtifactStore, str,
                                             Path]] = None):
        if not isinstance(store, ArtifactStore):
            store = ArtifactStore(store)
        self.store = store
        self.executions: List[StageExecution] = []
        # Artifacts decoded from the store, per stage name.
        self.decoded: Counter = Counter()

    # ------------------------------------------------------------------
    def run(self, stage: Stage, world_out: Optional[Dict] = None) -> Any:
        """The stage's artifact — cached when possible, computed when not.

        With ``world_out`` the caller needs live simulation state, which
        a cache hit cannot supply: the stage always computes (recorded
        as a bypass, not a miss), but its — picklable — artifact is
        still stored, so downstream stages and later runs reuse it.
        """
        fingerprint = stage.fingerprint()
        if world_out is None:
            found, value = self.load(fingerprint, stage.stage_name)
            if found:
                self._record(stage.stage_name, fingerprint, HIT)
                return value
        started = time.perf_counter()
        value = stage.compute(self, world_out=world_out)
        elapsed = time.perf_counter() - started
        self.store.put(fingerprint, value,
                       meta={"stage": stage.stage_name,
                             "version": stage.version})
        self._record(stage.stage_name, fingerprint,
                     MISS if world_out is None else BYPASS, elapsed)
        return value

    # -- the parallel sweep's split lookup/store protocol ---------------
    def lookup(self, fingerprint: str, stage: str = "") -> tuple:
        """(found, value); a hit is recorded, a miss records nothing
        (the eventual :meth:`store_result` logs the miss)."""
        found, value = self.load(fingerprint, stage)
        if found:
            self._record(stage, fingerprint, HIT)
        return found, value

    def find(self, fingerprint: str, stage: str = "") -> bool:
        """Whether the store holds ``fingerprint``'s artifact: one
        existence check, nothing read.  A found artifact is recorded as
        a hit; :meth:`load` decodes it when it is needed."""
        if self.store.contains(fingerprint):
            self._record(stage, fingerprint, HIT)
            return True
        return False

    def load(self, fingerprint: str, stage: str = "") -> tuple:
        """(found, value): read and decode ``fingerprint``'s artifact.
        One that no longer decodes is dropped and reads as not found;
        recomputing it and :meth:`store_result` then log the miss."""
        found, value = self.store.get(fingerprint)
        if found:
            self.decoded[stage] += 1
        return found, value

    def store_result(self, fingerprint: str, value: Any,
                     stage: str = "", seconds: float = 0.0) -> None:
        """Record a computed-elsewhere artifact (worker-pool results)."""
        self.store.put(fingerprint, value, meta={"stage": stage})
        self._record(stage, fingerprint, MISS, seconds)

    def record_remote(self, fingerprint: str, stage: str = "",
                      seconds: float = 0.0) -> None:
        """Account for an artifact a worker already wrote to the shared
        store (envelope handoff): a miss happened, but the bytes are on
        disk — nothing to rewrite."""
        self._record(stage, fingerprint, MISS, seconds)

    # ------------------------------------------------------------------
    def _record(self, stage: str, fingerprint: str, status: str,
                seconds: float = 0.0) -> None:
        self.executions.append(StageExecution(stage=stage,
                                              fingerprint=fingerprint,
                                              status=status,
                                              seconds=seconds))

    @property
    def hits(self) -> int:
        return sum(1 for e in self.executions if e.status == HIT)

    @property
    def misses(self) -> int:
        return sum(1 for e in self.executions if e.status == MISS)

    def summary(self, since: int = 0) -> Dict[str, Any]:
        """Hit/miss accounting for executions ``since`` an index."""
        window = self.executions[since:]
        return {
            "hits": sum(1 for e in window if e.status == HIT),
            "misses": sum(1 for e in window if e.status == MISS),
            "bypassed": sum(1 for e in window if e.status == BYPASS),
            "stages": [e.as_dict() for e in window],
        }

    def collector(self):
        """A :class:`~repro.obs.registry.MetricsRegistry` collector over
        this pipeline's hit/miss accounting.  Snapshot-time only, so
        registering it adds nothing to stage execution; register it
        under a fixed key (``"pipeline"``) so executor reuse never
        double-counts."""
        def collect() -> Dict[str, float]:
            return {
                "pipeline.hits": float(self.hits),
                "pipeline.misses": float(self.misses),
                "pipeline.executions": float(len(self.executions)),
            }
        return collect

    def render_summary(self, since: int = 0) -> str:
        s = self.summary(since=since)
        parts = [f"{s['hits']} hit(s)", f"{s['misses']} recomputed"]
        if s["bypassed"]:
            parts.append(f"{s['bypassed']} bypassed")
        label = "warm" if s["misses"] == 0 and s["hits"] else "cold" \
            if s["hits"] == 0 else "mixed"
        return f"pipeline cache: {', '.join(parts)} ({label})"


def as_pipeline(cache: Optional[Union[Pipeline, ArtifactStore, str,
                                      Path]]) -> Optional[Pipeline]:
    """Coerce a cache argument (dir path, store, pipeline) to a Pipeline."""
    if cache is None or isinstance(cache, Pipeline):
        return cache
    return Pipeline(cache)
