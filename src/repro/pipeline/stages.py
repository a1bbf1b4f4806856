"""The pipeline's stages: collect, distill, trials, compensation.

Each stage is a small frozen dataclass naming its inputs; its
fingerprint is the SHA-256 of ``{stage, version, inputs}`` where
upstream stages contribute *their* fingerprints — so changing a
scenario spec, a seed, a distiller parameter or a stage's algorithm
version invalidates exactly the downstream artifacts and nothing else.

``version`` is bumped when a stage's *algorithm* changes behaviour;
everything else about the cache key comes from declared inputs.  The
stages call straight into the validation harness's single-trial
primitives, so a stage computes exactly what the serial harness, the
parallel sweep and the check runner would compute — they are all the
same code path now.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, ClassVar, Dict, Optional

from ..core.distill import DistillationResult, Distiller
from ..obs import ObsConfig
from ..scenarios.base import Scenario
from .fingerprint import digest

__all__ = [
    "CACHE_FORMAT_VERSION",
    "Stage",
    "CollectStage",
    "DistillStage",
    "LiveTrialStage",
    "ModulatedTrialStage",
    "EthernetTrialStage",
    "CompensationStage",
    "ALL_STAGES",
]

# Version of the *stored artifact encoding*, folded into every stage
# fingerprint.  Bumped when the on-disk representation changes shape
# (v1: pickle objects; v2: gzip-framed binary codec), so caches written
# by an older layout miss cleanly instead of being misread.  A stage's
# own ``version`` still covers algorithm changes.
CACHE_FORMAT_VERSION = 2


class Stage:
    """One unit of pipeline work with a content-addressed identity."""

    stage_name: ClassVar[str] = "stage"
    version: ClassVar[int] = 1

    def inputs(self) -> Dict[str, Any]:
        """Declared inputs, as fingerprint tokens."""
        raise NotImplementedError

    def fingerprint(self) -> str:
        return digest({"stage": self.stage_name, "version": self.version,
                       "format": CACHE_FORMAT_VERSION,
                       "inputs": self.inputs()})

    def compute(self, pipeline, world_out: Optional[Dict] = None) -> Any:
        """Produce the stage's artifact (``pipeline`` resolves upstreams).

        ``world_out``, when given, receives live simulation state
        (worlds, obs handles) for in-process invariant checking; such
        runs bypass the cache because worlds cannot be stored.
        """
        raise NotImplementedError


@dataclass(frozen=True)
class CollectStage(Stage):
    """One trace-collection traversal of a scenario.

    Artifact: ``{"records": [...], "obs": record | None}``.
    """

    scenario: Scenario
    seed: int
    trial: int
    duration: Optional[float] = None
    obs: Optional[ObsConfig] = None

    stage_name: ClassVar[str] = "collect"
    version: ClassVar[int] = 1

    def inputs(self) -> Dict[str, Any]:
        return {"scenario": self.scenario, "seed": self.seed,
                "trial": self.trial, "duration": self.duration,
                "obs": self.obs}

    def compute(self, pipeline, world_out: Optional[Dict] = None) -> Any:
        from ..validation.harness import collect_trace

        obs_out: Dict[str, Any] = {}
        records = collect_trace(self.scenario, self.seed, self.trial,
                                duration=self.duration, obs=self.obs,
                                obs_out=obs_out, world_out=world_out)
        return {"records": records, "obs": obs_out.get("record")}


@dataclass(frozen=True)
class DistillStage(Stage):
    """Distill a collected trace into a replay trace.

    Artifact: a :class:`~repro.core.distill.DistillationResult`.
    """

    collect: CollectStage
    distiller: Optional[Distiller] = None
    label: str = ""

    stage_name: ClassVar[str] = "distill"
    version: ClassVar[int] = 1

    def inputs(self) -> Dict[str, Any]:
        return {"collect": self.collect.fingerprint(),
                "distiller": self.distiller, "label": self.label}

    def fingerprint(self) -> str:
        # Once per stage object: a sweep chains each distill stage into
        # its distill trial and every modulated trial of its traversal.
        # Keyed by the format version, which re-keys every stage.
        memo = self.__dict__.get("_fingerprint")
        if memo is None or memo[0] != CACHE_FORMAT_VERSION:
            memo = (CACHE_FORMAT_VERSION, super().fingerprint())
            object.__setattr__(self, "_fingerprint", memo)
        return memo[1]

    def compute(self, pipeline,
                world_out: Optional[Dict] = None) -> DistillationResult:
        from ..validation.harness import distill_scenario_trace

        records = pipeline.run(self.collect)["records"]
        return distill_scenario_trace(records, name=self.label,
                                      distiller=self.distiller)


@dataclass(frozen=True)
class LiveTrialStage(Stage):
    """One live benchmark trial over the scenario's WaveLAN world.

    Artifact: the benchmark's metric sink (plus ``"__obs__"`` when
    observability is configured).
    """

    scenario: Scenario
    runner: Any                  # BenchmarkRunner (cache_token protocol)
    seed: int
    trial: int
    obs: Optional[ObsConfig] = None

    stage_name: ClassVar[str] = "live"
    version: ClassVar[int] = 1

    def inputs(self) -> Dict[str, Any]:
        return {"scenario": self.scenario, "runner": self.runner,
                "seed": self.seed, "trial": self.trial, "obs": self.obs}

    def compute(self, pipeline, world_out: Optional[Dict] = None) -> Any:
        from ..validation.harness import run_live_trial

        return run_live_trial(self.scenario, self.runner, self.seed,
                              self.trial, obs=self.obs,
                              world_out=world_out)


@dataclass(frozen=True)
class ModulatedTrialStage(Stage):
    """One modulated benchmark trial over a distilled replay trace.

    Artifact: the benchmark's metric sink.  The replay comes from the
    upstream :class:`DistillStage`, whose fingerprint chains the whole
    collect → distill ancestry into this stage's key.
    """

    distill: DistillStage
    runner: Any
    seed: int
    trial: int
    compensation: float = 0.0
    obs: Optional[ObsConfig] = None

    stage_name: ClassVar[str] = "modulated"
    version: ClassVar[int] = 1

    def inputs(self) -> Dict[str, Any]:
        return {"distill": self.distill.fingerprint(),
                "runner": self.runner, "seed": self.seed,
                "trial": self.trial, "compensation": self.compensation,
                "obs": self.obs}

    def compute(self, pipeline, world_out: Optional[Dict] = None) -> Any:
        from ..validation.harness import run_modulated_trial

        replay = pipeline.run(self.distill).replay
        return run_modulated_trial(replay, self.runner, self.seed,
                                   self.trial, self.compensation,
                                   obs=self.obs, world_out=world_out)


@dataclass(frozen=True)
class EthernetTrialStage(Stage):
    """The unmodulated Ethernet baseline trial."""

    runner: Any
    seed: int
    trial: int
    obs: Optional[ObsConfig] = None

    stage_name: ClassVar[str] = "ethernet"
    version: ClassVar[int] = 1

    def inputs(self) -> Dict[str, Any]:
        return {"runner": self.runner, "seed": self.seed,
                "trial": self.trial, "obs": self.obs}

    def compute(self, pipeline, world_out: Optional[Dict] = None) -> Any:
        from ..validation.harness import run_ethernet_trial

        return run_ethernet_trial(self.runner, self.seed, self.trial,
                                  obs=self.obs)


@dataclass(frozen=True)
class CompensationStage(Stage):
    """The testbed's measured delay-compensation constant (§3.3)."""

    seed: int = 1729

    stage_name: ClassVar[str] = "compensation"
    version: ClassVar[int] = 1

    def inputs(self) -> Dict[str, Any]:
        return {"seed": self.seed}

    def compute(self, pipeline, world_out: Optional[Dict] = None) -> float:
        from ..core.compensation import measure_modulation_network

        return measure_modulation_network(seed=self.seed).vb


ALL_STAGES = (CollectStage, DistillStage, LiveTrialStage,
              ModulatedTrialStage, EthernetTrialStage, CompensationStage)
