"""Content-addressed artifact store.

Artifacts are keyed by their producing stage's fingerprint and stored
as gzip-framed binary codec blobs (:mod:`repro.pipeline.codec`) — on
disk under ``<root>/objects/<fp[:2]>/<fp>.rba`` with a JSON sidecar
describing what produced them, or purely in memory when no root
directory is given.  Both modes round-trip values through the codec,
so a cached artifact is always a *fresh copy*: callers may mutate what
they get back without corrupting the cache.

Writes are atomic (temp file + rename) so a crashed run never leaves a
truncated artifact behind; unreadable artifacts — including objects
from the pickle-era store layout, which used a different extension and
an incompatible stage keyspace — are treated as misses and dropped.
:meth:`ArtifactStore.contains` only checks that an object exists, so
an artifact found that way may still fail to decode when
:meth:`ArtifactStore.get` reads it; it is dropped then.

The raw-bytes surface (:meth:`ArtifactStore.put_encoded` /
:meth:`ArtifactStore.raw_get`) lets the parallel sweep's envelope
transport move already-encoded frames between worker and parent
without a decode/re-encode cycle in the middle.
"""

from __future__ import annotations

import io
import json
import os
import tempfile
from pathlib import Path
from typing import Any, Dict, Iterator, Optional, Tuple, Union

from . import codec

__all__ = ["ArtifactStore"]

_MISS = (False, None)
_RAW_MISS = (False, b"")


class ArtifactStore:
    """Codec-valued, fingerprint-keyed store (disk or memory)."""

    def __init__(self, root: Optional[Union[str, Path]] = None):
        self.root = Path(root) if root is not None else None
        self._memory: Dict[str, bytes] = {}
        # Object paths are built as strings from this prefix: a lookup
        # runs on every trial of a sweep, and joining Path objects
        # costs several times the existence check itself.
        self._objects = ""
        if self.root is not None:
            (self.root / "objects").mkdir(parents=True, exist_ok=True)
            self._objects = os.path.join(str(self.root), "objects") + os.sep

    # ------------------------------------------------------------------
    def _object_file(self, fingerprint: str) -> str:
        return f"{self._objects}{fingerprint[:2]}{os.sep}{fingerprint}.rba"

    def _meta_file(self, fingerprint: str) -> str:
        return f"{self._objects}{fingerprint[:2]}{os.sep}{fingerprint}.json"

    def _object_path(self, fingerprint: str) -> Path:
        return Path(self._object_file(fingerprint))

    def _meta_path(self, fingerprint: str) -> Path:
        return Path(self._meta_file(fingerprint))

    # ------------------------------------------------------------------
    def contains(self, fingerprint: str) -> bool:
        """Whether an object is stored under ``fingerprint`` (nothing
        is read or decoded)."""
        if self.root is None:
            return fingerprint in self._memory
        return os.path.exists(self._object_file(fingerprint))

    def get(self, fingerprint: str,
            digest: Optional[str] = None) -> Tuple[bool, Any]:
        """(found, value).  An unreadable artifact counts as a miss
        and is dropped; so does one whose content digest differs from
        ``digest``, when given."""
        found, blob = self.raw_get(fingerprint)
        if not found:
            return _MISS
        try:
            return True, codec.decode_gz_checked(blob, digest)
        except codec.CodecError:
            # Corrupt or stale artifact: drop it and recompute.
            self.delete(fingerprint)
            return _MISS

    def raw_get(self, fingerprint: str) -> Tuple[bool, bytes]:
        """(found, encoded frame) without decoding — the envelope
        rehydration path decodes (and times) on its own clock."""
        if self.root is None:
            blob = self._memory.get(fingerprint)
            if blob is None:
                return _RAW_MISS
            return True, blob
        try:
            with open(self._object_file(fingerprint), "rb") as f:
                return True, f.read()
        except FileNotFoundError:
            return _RAW_MISS
        except OSError:
            self.delete(fingerprint)
            return _RAW_MISS

    def put(self, fingerprint: str, value: Any,
            meta: Optional[Dict[str, Any]] = None) -> int:
        """Encode and store ``value``; returns the stored byte count."""
        return self.put_encoded(fingerprint, codec.encode_gz(value), meta)

    def put_encoded(self, fingerprint: str, blob: bytes,
                    meta: Optional[Dict[str, Any]] = None) -> int:
        """Store an already-encoded (gzip-framed) codec blob."""
        if self.root is None:
            self._memory[fingerprint] = blob
            return len(blob)
        path = self._object_file(fingerprint)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        self._atomic_write(path, blob)
        if meta is not None:
            doc = dict(meta)
            doc["fingerprint"] = fingerprint
            doc["bytes"] = len(blob)
            doc["codec"] = codec.VERSION
            self._atomic_write(self._meta_file(fingerprint),
                               json.dumps(doc, indent=1).encode("utf-8"))
        return len(blob)

    def delete(self, fingerprint: str) -> None:
        if self.root is None:
            self._memory.pop(fingerprint, None)
            return
        for path in (self._object_file(fingerprint),
                     self._meta_file(fingerprint)):
            try:
                os.unlink(path)
            except OSError:
                pass

    # ------------------------------------------------------------------
    def fingerprints(self) -> Iterator[str]:
        if self.root is None:
            yield from sorted(self._memory)
            return
        objects = self.root / "objects"
        if not objects.is_dir():
            return
        for path in sorted(objects.glob("*/*.rba")):
            yield path.stem

    def __len__(self) -> int:
        return sum(1 for _ in self.fingerprints())

    def __repr__(self) -> str:  # pragma: no cover
        where = str(self.root) if self.root is not None else "memory"
        return f"<ArtifactStore {where}: {len(self)} artifact(s)>"

    # ------------------------------------------------------------------
    @staticmethod
    def _atomic_write(path: str, blob: bytes) -> None:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path),
                                   prefix=os.path.basename(path) + ".")
        try:
            with io.FileIO(fd, "wb") as f:
                f.write(blob)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
