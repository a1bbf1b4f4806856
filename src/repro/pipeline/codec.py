"""Versioned binary codec for pipeline artifacts.

Every artifact the pipeline stores or ships between processes used to
round-trip through Python pickles.  Pickle is general but slow to
parse, version-fragile on disk, and opaque to size accounting — and
the bulk artifacts here (trace-record streams, replay traces,
distillation results, validation summaries) are all regular, mostly
numeric structures that pack tightly with ``struct``.

This module defines that packed form.  A frame is::

    MAGIC (4 bytes, b"RBAC") | version (<H) | one value

and a value is a one-byte tag followed by a tag-specific payload:

* primitives — ``None``/bools (tag only), ``int`` (``<q``, with an
  arbitrary-precision escape), ``float`` (``<d``, exact), ``str`` /
  ``bytes`` (``<I`` length prefix);
* containers — list / tuple / dict (``<I`` count, recursive values;
  list and tuple keep distinct tags so round-trips are exact);
* bulk domain types with dedicated packed layouts —
  :class:`~repro.core.traceformat.TraceRecord` streams (embedded as a
  self-descriptive :mod:`~repro.core.traceformat` blob),
  :class:`~repro.core.replay.QualityTuple` (``<5d``),
  :class:`~repro.core.replay.ReplayTrace` (name + packed tuple array),
  :class:`~repro.core.distill.ParameterEstimate` (``<4dB``),
  :class:`~repro.core.distill.DistillationResult`,
  :class:`~repro.analysis.stats.Summary` (``<ddq``);
* a pickle escape hatch for rare, small, irregular objects (check
  reports and the like).  Bulk trial data never takes it.

The codec is *exact*: floats are IEEE-754 doubles bit-for-bit, ints
are unbounded, list/tuple identity is preserved, and ``decode``
rejects trailing garbage — so ``decode(encode(x)) == x`` and the
determinism contract (byte-identical validation tables however an
artifact travelled) holds through any number of round trips.

``encode_gz``/``decode_gz`` add deterministic gzip framing (``mtime=0``)
for on-disk artifacts in :class:`~repro.pipeline.store.ArtifactStore`.

Failure modes raise :class:`CodecError`: bad magic, unsupported
version, truncated or corrupt frames, trailing bytes, and containers
nested deeper than :data:`MAX_DEPTH` (which :func:`encode` refuses
too, so every value it accepts decodes).
"""

from __future__ import annotations

import gzip
import hashlib
import pickle
import struct
from itertools import starmap
from typing import Any, Optional, Tuple

from ..analysis.stats import Summary
from ..core.distill import DistillationResult, ParameterEstimate
from ..core.replay import QualityTuple, ReplayTrace
from ..core.traceformat import (DeviceStatusRecord, LostRecordsRecord,
                                PacketRecord, dumps_trace, loads_trace)

__all__ = [
    "MAGIC",
    "VERSION",
    "MAX_DEPTH",
    "CodecError",
    "encode",
    "decode",
    "encode_gz",
    "decode_gz",
    "decode_gz_checked",
    "content_digest",
]

MAGIC = b"RBAC"        # Repro Binary Artifact Codec
VERSION = 1
_HEADER = struct.Struct("<4sH")
_GZIP_MAGIC = b"\x1f\x8b"
# Deepest list/tuple/dict nesting a frame may hold.  The deepest
# artifact this package writes (a live trial with a traced obs record)
# nests 7 levels; the bound keeps a hostile frame from exhausting the
# interpreter's stack.
MAX_DEPTH = 64

# Value tags ------------------------------------------------------------
_T_NONE = 0x00
_T_TRUE = 0x01
_T_FALSE = 0x02
_T_INT = 0x03          # <q
_T_BIGINT = 0x04       # <B sign, <I nbytes, big-endian magnitude
_T_FLOAT = 0x05        # <d
_T_STR = 0x06          # <I len, utf-8
_T_BYTES = 0x07        # <I len
_T_LIST = 0x10         # <I count, values
_T_TUPLE = 0x11        # <I count, values
_T_DICT = 0x12         # <I count, key/value value pairs
_T_TRACE_RECORDS = 0x20  # <I len, traceformat blob (self-descriptive)
_T_QUALITY = 0x21      # <5d  (d, F, Vb, Vr, L)
_T_REPLAY = 0x22       # str name, <I count, count x <5d
_T_ESTIMATE = 0x23     # <4d (time, F, Vb, Vr), one 0/1 byte corrected
_T_DISTILL = 0x24      # replay, estimates, <6q counters, status records
_T_SUMMARY = 0x25      # <ddq (mean, std, n)
_T_PICKLE = 0x7F       # <I len, pickle bytes (irregular small objects)

_U8 = struct.Struct("<B")
_I64 = struct.Struct("<q")
_F64 = struct.Struct("<d")
_U32 = struct.Struct("<I")
_QUALITY = struct.Struct("<5d")
_ESTIMATE = struct.Struct("<4d?")   # "?" packs 0/1 and unpacks a bool
_SUMMARY = struct.Struct("<ddq")
_COUNTERS = struct.Struct("<6q")


class CodecError(ValueError):
    """A frame that cannot be decoded: bad magic, bad version,
    truncation, corruption, trailing bytes or nesting past
    :data:`MAX_DEPTH` (also raised by :func:`encode` for such a value)."""


# ======================================================================
# Encoding
# ======================================================================
_TRACE_TYPES = (PacketRecord, DeviceStatusRecord, LostRecordsRecord)


def _nest(depth: int) -> int:
    """The depth of a container's items; refuses to pass MAX_DEPTH."""
    if depth >= MAX_DEPTH:
        raise CodecError(f"containers nest deeper than {MAX_DEPTH} levels")
    return depth + 1


def _encode_value(obj: Any, out: bytearray, depth: int) -> None:
    if obj is None:
        out.append(_T_NONE)
    elif obj is True:
        out.append(_T_TRUE)
    elif obj is False:
        out.append(_T_FALSE)
    elif type(obj) is int:
        if -(1 << 63) <= obj < (1 << 63):
            out.append(_T_INT)
            out += _I64.pack(obj)
        else:
            out.append(_T_BIGINT)
            mag = abs(obj)
            raw = mag.to_bytes((mag.bit_length() + 7) // 8, "big")
            out += _U8.pack(1 if obj < 0 else 0)
            out += _U32.pack(len(raw))
            out += raw
    elif type(obj) is float:
        out.append(_T_FLOAT)
        out += _F64.pack(obj)
    elif type(obj) is str:
        raw = obj.encode("utf-8")
        out.append(_T_STR)
        out += _U32.pack(len(raw))
        out += raw
    elif type(obj) is bytes:
        out.append(_T_BYTES)
        out += _U32.pack(len(obj))
        out += obj
    elif type(obj) is list:
        if obj and all(type(item) in _TRACE_TYPES for item in obj):
            blob = dumps_trace(obj)
            out.append(_T_TRACE_RECORDS)
            out += _U32.pack(len(blob))
            out += blob
        else:
            inner = _nest(depth)
            out.append(_T_LIST)
            out += _U32.pack(len(obj))
            for item in obj:
                _encode_value(item, out, inner)
    elif type(obj) is tuple:
        inner = _nest(depth)
        out.append(_T_TUPLE)
        out += _U32.pack(len(obj))
        for item in obj:
            _encode_value(item, out, inner)
    elif type(obj) is dict:
        inner = _nest(depth)
        out.append(_T_DICT)
        out += _U32.pack(len(obj))
        for key, value in obj.items():
            _encode_value(key, out, inner)
            _encode_value(value, out, inner)
    elif type(obj) is QualityTuple:
        out.append(_T_QUALITY)
        out += _QUALITY.pack(obj.d, obj.F, obj.Vb, obj.Vr, obj.L)
    elif type(obj) is ReplayTrace:
        _encode_replay(obj, out)
    elif type(obj) is ParameterEstimate:
        out.append(_T_ESTIMATE)
        out += _ESTIMATE.pack(obj.time, obj.F, obj.Vb, obj.Vr,
                              obj.corrected)
    elif type(obj) is DistillationResult:
        out.append(_T_DISTILL)
        _encode_replay(obj.replay, out)
        out += _U32.pack(len(obj.estimates))
        for est in obj.estimates:
            out += _ESTIMATE.pack(est.time, est.F, est.Vb, est.Vr,
                                  est.corrected)
        out += _COUNTERS.pack(obj.groups_total, obj.groups_used,
                              obj.groups_corrected, obj.groups_skipped,
                              obj.echoes_sent, obj.replies_received)
        _encode_value(list(obj.status_records), out, depth)
    elif type(obj) is Summary:
        out.append(_T_SUMMARY)
        out += _SUMMARY.pack(obj.mean, obj.std, obj.n)
    else:
        # Escape hatch for irregular, small objects (check reports,
        # subclassed containers).  Loud on genuinely unserializable
        # values, exactly like the store's old pickle path.
        blob = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
        out.append(_T_PICKLE)
        out += _U32.pack(len(blob))
        out += blob


def _encode_replay(replay, out: bytearray) -> None:
    out.append(_T_REPLAY)
    raw = replay.name.encode("utf-8")
    out += _U32.pack(len(raw))
    out += raw
    out += _U32.pack(len(replay.tuples))
    pack = _QUALITY.pack
    for q in replay.tuples:
        out += pack(q.d, q.F, q.Vb, q.Vr, q.L)


def encode(obj: Any) -> bytes:
    """Serialize ``obj`` to a versioned binary frame."""
    out = bytearray(_HEADER.pack(MAGIC, VERSION))
    _encode_value(obj, out, 0)
    return bytes(out)


# ======================================================================
# Decoding
# ======================================================================
class _Reader:
    __slots__ = ("buf", "pos", "end")

    def __init__(self, buf: memoryview):
        self.buf = buf
        self.pos = 0
        self.end = len(buf)

    def take(self, n: int) -> memoryview:
        if self.pos + n > self.end:
            raise CodecError(
                f"truncated frame: wanted {n} bytes at offset {self.pos}, "
                f"have {self.end - self.pos}")
        view = self.buf[self.pos:self.pos + n]
        self.pos += n
        return view

    def unpack(self, st: struct.Struct) -> Tuple:
        return st.unpack(self.take(st.size))


def _decode_value(r: _Reader, depth: int) -> Any:
    (tag,) = r.unpack(_U8)
    if tag == _T_NONE:
        return None
    if tag == _T_TRUE:
        return True
    if tag == _T_FALSE:
        return False
    if tag == _T_INT:
        return r.unpack(_I64)[0]
    if tag == _T_BIGINT:
        (sign,) = r.unpack(_U8)
        (nbytes,) = r.unpack(_U32)
        mag = int.from_bytes(r.take(nbytes), "big")
        return -mag if sign else mag
    if tag == _T_FLOAT:
        return r.unpack(_F64)[0]
    if tag == _T_STR:
        (n,) = r.unpack(_U32)
        return str(r.take(n), "utf-8")
    if tag == _T_BYTES:
        (n,) = r.unpack(_U32)
        return bytes(r.take(n))
    if tag == _T_LIST:
        (n,) = r.unpack(_U32)
        inner = _nest(depth)
        return [_decode_value(r, inner) for _ in range(n)]
    if tag == _T_TUPLE:
        (n,) = r.unpack(_U32)
        inner = _nest(depth)
        return tuple(_decode_value(r, inner) for _ in range(n))
    if tag == _T_DICT:
        (n,) = r.unpack(_U32)
        inner = _nest(depth)
        out = {}
        for _ in range(n):
            key = _decode_value(r, inner)
            out[key] = _decode_value(r, inner)
        return out
    if tag == _T_TRACE_RECORDS:
        (n,) = r.unpack(_U32)
        try:
            return loads_trace(r.take(n))
        except ValueError as exc:
            raise CodecError(f"corrupt trace-record block: {exc}")
    if tag == _T_QUALITY:
        return QualityTuple(*r.unpack(_QUALITY))
    if tag == _T_REPLAY:
        return _decode_replay(r)
    if tag == _T_ESTIMATE:
        return ParameterEstimate(*r.unpack(_ESTIMATE))
    if tag == _T_DISTILL:
        (rtag,) = r.unpack(_U8)
        if rtag != _T_REPLAY:
            raise CodecError("distillation frame missing its replay")
        replay = _decode_replay(r)
        (n,) = r.unpack(_U32)
        block = r.take(n * _ESTIMATE.size)
        estimates = list(starmap(ParameterEstimate,
                                 _ESTIMATE.iter_unpack(block)))
        counters = r.unpack(_COUNTERS)
        statuses = _decode_value(r, depth)
        return DistillationResult(
            replay=replay, estimates=estimates,
            groups_total=counters[0], groups_used=counters[1],
            groups_corrected=counters[2], groups_skipped=counters[3],
            echoes_sent=counters[4], replies_received=counters[5],
            status_records=statuses)
    if tag == _T_SUMMARY:
        return Summary(*r.unpack(_SUMMARY))
    if tag == _T_PICKLE:
        (n,) = r.unpack(_U32)
        try:
            return pickle.loads(bytes(r.take(n)))
        except Exception as exc:
            raise CodecError(f"corrupt pickle block: {exc}")
    raise CodecError(f"unknown value tag 0x{tag:02x}")


def _decode_replay(r: _Reader) -> ReplayTrace:
    (n,) = r.unpack(_U32)
    name = str(r.take(n), "utf-8")
    (count,) = r.unpack(_U32)
    block = r.take(count * _QUALITY.size)
    try:
        return ReplayTrace(starmap(QualityTuple, _QUALITY.iter_unpack(block)),
                           name=name)
    except ValueError as exc:
        raise CodecError(f"corrupt replay frame: {exc}")


def decode(blob: bytes) -> Any:
    """Parse a frame produced by :func:`encode` (strict: trailing
    bytes, truncation, bad magic, unknown versions and nesting past
    :data:`MAX_DEPTH` all raise :class:`CodecError`)."""
    r = _Reader(memoryview(blob))
    try:
        magic, version = r.unpack(_HEADER)
    except CodecError:
        raise CodecError("truncated frame: no header")
    if magic != MAGIC:
        raise CodecError(f"bad magic {bytes(magic)!r}; not a binary "
                         f"artifact frame")
    if version != VERSION:
        raise CodecError(f"unsupported artifact codec version {version} "
                         f"(this build reads version {VERSION})")
    try:
        value = _decode_value(r, 0)
    except CodecError:
        raise
    except (struct.error, ValueError, TypeError) as exc:
        # A value no encoder wrote: an invalid quality tuple, bad
        # UTF-8, an unhashable dict key.
        raise CodecError(f"corrupt frame: {exc}")
    if r.pos != r.end:
        raise CodecError(f"{r.end - r.pos} trailing byte(s) after the "
                         f"top-level value")
    return value


# ======================================================================
# Gzip framing (on-disk form) and content digests
# ======================================================================
def encode_gz(obj: Any, level: int = 1) -> bytes:
    """:func:`encode` plus deterministic gzip framing (``mtime=0``, so
    identical artifacts produce identical files)."""
    return gzip.compress(encode(obj), compresslevel=level, mtime=0)


def decode_gz(blob: bytes) -> Any:
    """Decode a gzip-framed artifact (plain frames also accepted)."""
    if blob[:2] == _GZIP_MAGIC:
        try:
            blob = gzip.decompress(blob)
        except (OSError, EOFError) as exc:
            raise CodecError(f"corrupt gzip framing: {exc}")
    return decode(blob)


def content_digest(blob: bytes) -> str:
    """SHA-256 hex digest of an encoded frame — the envelope integrity
    token for store-mediated result handoff."""
    return hashlib.sha256(blob).hexdigest()


def decode_gz_checked(blob: bytes, digest: Optional[str] = None) -> Any:
    """:func:`decode_gz`, once ``blob`` is checked against ``digest``
    (its :func:`content_digest`), when one is given: a frame handed
    over by reference is decoded only if it is the one named."""
    if digest is not None and content_digest(blob) != digest:
        raise CodecError("content digest mismatch")
    return decode_gz(blob)
