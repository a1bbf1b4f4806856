"""Fingerprint-keyed artifact sync: the FETCH/HAVE wire plane.

A multi-node sweep leaves bulk results where they were computed: each
node's workers seal artifacts into that node's *private*
:class:`~repro.pipeline.ArtifactStore` and ship back only envelopes
(key + digest + size).  The parent then moves artifacts — not results
— and only the content hashes one side is missing:

``HAVE``
    Availability query: "which of these fingerprints do you hold?"
    The parent asks before pushing a job's input artifacts to a node
    (a node that computed a replay itself is never sent it again), and
    a node's reply is the subset of keys it holds.
``PUT``
    Parent → node artifact push: the encoded blobs a dispatched job
    needs and the node reported missing.
``FETCH``
    Parent → node artifact pull: "send me these blobs" — issued
    lazily, only for envelope keys the parent's own store cannot
    supply, so an artifact present on two nodes crosses the wire once.
``ARTIFACTS``
    A node's reply to ``FETCH``/``PUT``: the requested ``{key: blob}``
    map (``PUT`` replies with an empty map as the acknowledgement).

Frames are codec-framed (:mod:`repro.pipeline.codec`) under their own
magic/version header, so they inherit the codec's strictness: any
truncation, trailing bytes, wrong magic or malformed body raises
:class:`SyncError` — a sync frame is either exactly right or rejected.
The artifact blobs they carry are themselves already-encoded store
objects whose content digests the receiver verifies before use.
"""

from __future__ import annotations

import struct
from typing import Any, Dict, List, Sequence, Tuple

from ..pipeline import codec

__all__ = [
    "SYNC_MAGIC",
    "SYNC_VERSION",
    "SYNC_OPS",
    "SyncError",
    "encode_sync",
    "decode_sync",
    "have_frame",
    "put_frame",
    "fetch_frame",
    "artifacts_frame",
]

SYNC_MAGIC = b"RBSY"   # Repro Binary SYnc
SYNC_VERSION = 1
_HEADER = struct.Struct("<4sH")

# op -> payload shape: a key list (HAVE / FETCH) or a key->blob map
# (PUT / ARTIFACTS).
SYNC_OPS = {
    "HAVE": "keys",
    "FETCH": "keys",
    "PUT": "blobs",
    "ARTIFACTS": "blobs",
}


class SyncError(ValueError):
    """A malformed sync frame (truncated, bad magic, unknown op,
    payload of the wrong shape).  Receivers treat it as a transport
    problem — degrade, never guess."""


def _check_keys(keys: Any) -> List[str]:
    if not isinstance(keys, list) \
            or not all(isinstance(k, str) and k for k in keys):
        raise SyncError("sync payload must be a list of non-empty keys")
    return keys


def _check_blobs(blobs: Any) -> Dict[str, bytes]:
    if not isinstance(blobs, dict) \
            or not all(isinstance(k, str) and k and isinstance(v, bytes)
                       for k, v in blobs.items()):
        raise SyncError("sync payload must map keys to encoded blobs")
    return blobs


def encode_sync(op: str, payload: Any) -> bytes:
    """One sync frame: header + codec body ``{"op": ..., "p": ...}``."""
    shape = SYNC_OPS.get(op)
    if shape is None:
        raise SyncError(f"unknown sync op {op!r}")
    if shape == "keys":
        payload = list(_check_keys(list(payload)))
    else:
        payload = dict(_check_blobs(dict(payload)))
    return _HEADER.pack(SYNC_MAGIC, SYNC_VERSION) \
        + codec.encode({"op": op, "p": payload})


def decode_sync(blob: bytes) -> Tuple[str, Any]:
    """Parse a sync frame; raises :class:`SyncError` on anything that
    is not byte-exactly a frame :func:`encode_sync` produced."""
    if len(blob) < _HEADER.size:
        raise SyncError("truncated sync frame: no header")
    magic, version = _HEADER.unpack_from(blob)
    if magic != SYNC_MAGIC:
        raise SyncError(f"bad sync magic {magic!r}")
    if version != SYNC_VERSION:
        raise SyncError(f"unsupported sync frame version {version}")
    try:
        doc = codec.decode(blob[_HEADER.size:])
    except codec.CodecError as exc:
        raise SyncError(f"corrupt sync body: {exc}")
    if not isinstance(doc, dict) or set(doc) != {"op", "p"}:
        raise SyncError("sync body must be {'op', 'p'}")
    op = doc["op"]
    shape = SYNC_OPS.get(op)
    if shape is None:
        raise SyncError(f"unknown sync op {op!r}")
    payload = doc["p"]
    if shape == "keys":
        return op, _check_keys(payload)
    return op, _check_blobs(payload)


def have_frame(keys: Sequence[str]) -> bytes:
    """Availability query (parent → node) or reply (node → parent)."""
    return encode_sync("HAVE", list(keys))


def fetch_frame(keys: Sequence[str]) -> bytes:
    """Artifact pull request (parent → node)."""
    return encode_sync("FETCH", list(keys))


def put_frame(blobs: Dict[str, bytes]) -> bytes:
    """Artifact push (parent → node)."""
    return encode_sync("PUT", blobs)


def artifacts_frame(blobs: Dict[str, bytes]) -> bytes:
    """Artifact delivery (node → parent, replying to FETCH/PUT)."""
    return encode_sync("ARTIFACTS", blobs)
