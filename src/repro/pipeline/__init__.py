"""Unified pipeline API: stages, fingerprints, artifact cache.

The validation harness, the parallel sweep, the check runner and the
CLI all express their work as :class:`Stage` objects resolved through a
:class:`Pipeline`.  Stages declare their inputs; a stage's fingerprint
(SHA-256 over stage name x version x input tokens, with upstream
fingerprints chained in) addresses its artifact in the store, so warm
reruns recompute only the stages whose inputs actually changed.
"""

from .api import Pipeline, StageExecution, as_pipeline
from .codec import CodecError, content_digest, decode, decode_gz, encode, encode_gz
from .fingerprint import Canonical, cache_token, canonical_json, digest
from .stages import (
    ALL_STAGES,
    CACHE_FORMAT_VERSION,
    CollectStage,
    CompensationStage,
    DistillStage,
    EthernetTrialStage,
    LiveTrialStage,
    ModulatedTrialStage,
    Stage,
)
from .store import ArtifactStore

__all__ = [
    "ALL_STAGES",
    "ArtifactStore",
    "CACHE_FORMAT_VERSION",
    "Canonical",
    "CodecError",
    "CollectStage",
    "CompensationStage",
    "DistillStage",
    "EthernetTrialStage",
    "LiveTrialStage",
    "ModulatedTrialStage",
    "Pipeline",
    "Stage",
    "StageExecution",
    "as_pipeline",
    "cache_token",
    "canonical_json",
    "content_digest",
    "decode",
    "decode_gz",
    "digest",
    "encode",
    "encode_gz",
]
