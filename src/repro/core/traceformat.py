"""Self-descriptive trace file format.

The paper defines a "flexible and extensible while remaining fully
self-descriptive" trace format (§3.1, published as RFC 2041).  This
module implements that idea: a trace file starts with a header that
*describes the layout of every record type it contains* — field names,
types and struct codes — so a reader can parse files containing record
types it has never seen, skipping unknown ones by length.

Record types used by the collection phase:

* ``packet`` — one per traced packet: host-clock timestamp, direction,
  protocol, wire size, addresses, and protocol-specific fields (ICMP
  type/ident/seq and the measured round-trip time for ECHOREPLYs).
* ``device_status`` — periodic snapshot of the wireless device's
  signal level, signal quality and silence level.
* ``lost_records`` — written after a circular-buffer overrun with the
  count of each record type lost, so loss of trace data is always
  detected (§3.1.2).
"""

from __future__ import annotations

import io
import json
import struct
from dataclasses import dataclass, fields
from typing import Any, BinaryIO, Dict, Iterable, List, Optional, Tuple, Type, Union

MAGIC = b"RPTR"
VERSION = 1

DIR_IN = 0
DIR_OUT = 1


class Weakrefable:
    """Base of a slotted dataclass whose instances take weak references.

    ``dataclass(slots=True)`` leaves instances without a ``__weakref__``
    slot, and ``weakref_slot=True`` puts it back only on Python 3.11 and
    later; a slotted dataclass deriving from this class inherits the
    slot on every supported Python.  The bulk records (trace records,
    parameter estimates, quality tuples) are slotted this way.
    """

    __slots__ = ("__weakref__",)


@dataclass(slots=True)
class PacketRecord(Weakrefable):
    """One traced packet."""

    timestamp: float
    direction: int            # DIR_IN or DIR_OUT
    proto: int                # IP protocol number
    size: int                 # IP datagram size in bytes
    src: str = ""
    dst: str = ""
    icmp_type: int = -1
    ident: int = -1
    seq: int = -1
    rtt: float = -1.0         # ECHOREPLY round-trip time; -1 when n/a
    src_port: int = -1
    dst_port: int = -1
    flags: int = 0

    RECORD_TYPE = "packet"


@dataclass(slots=True)
class DeviceStatusRecord(Weakrefable):
    """Periodic wireless device characteristics (§3.1.1)."""

    timestamp: float
    signal_level: float
    signal_quality: float
    silence_level: float

    RECORD_TYPE = "device_status"


@dataclass
class LostRecordsRecord:
    """Accounting for circular-buffer overruns."""

    timestamp: float
    record_type: str
    count: int

    RECORD_TYPE = "lost_records"


TraceRecord = Union[PacketRecord, DeviceStatusRecord, LostRecordsRecord]

RECORD_CLASSES: Dict[str, Type[Any]] = {
    cls.RECORD_TYPE: cls
    for cls in (PacketRecord, DeviceStatusRecord, LostRecordsRecord)
}

# struct codes per Python annotation; strings are length-prefixed UTF-8.
_STRUCT_CODES = {"float": "d", "int": "q", "str": "S"}


def _schema_for(cls: Type[Any]) -> List[Tuple[str, str]]:
    return [(f.name, _STRUCT_CODES[f.type]) for f in fields(cls)]


_U32 = struct.Struct("<I")
_STR_LEN = struct.Struct("<H")
# Every record is framed as <type id, body length> before its body.
_RECORD_HEAD = struct.Struct("<HI")


class _RecordPlan:
    """A schema compiled to batch struct operations.

    Consecutive fixed-width fields collapse into one precompiled
    :class:`struct.Struct`; strings (variable length) break the run.
    When the schema's field names match the record class exactly — the
    overwhelmingly common case of reading a file this writer produced —
    records are constructed positionally, skipping per-record dict
    assembly and :func:`dataclasses.fields` introspection, and an
    all-fixed-width schema (``fixed``) decodes with one ``unpack_from``.
    """

    __slots__ = ("name", "cls", "ops", "positional", "known", "names",
                 "fixed")

    def __init__(self, name: str, schema: List[Tuple[str, str]]):
        self.name = name
        self.cls = RECORD_CLASSES.get(name)
        self.names = [fname for fname, _ in schema]
        ops: List[Tuple[str, Any, Any]] = []
        run_codes = ""
        run_names: List[str] = []
        for fname, code in schema:
            if code == "S":
                if run_codes:
                    ops.append(("f", struct.Struct("<" + run_codes),
                                tuple(run_names)))
                    run_codes, run_names = "", []
                ops.append(("s", None, fname))
            else:
                run_codes += code
                run_names.append(fname)
        if run_codes:
            ops.append(("f", struct.Struct("<" + run_codes),
                        tuple(run_names)))
        self.ops = ops
        if self.cls is not None:
            cls_names = [f.name for f in fields(self.cls)]
            self.positional = cls_names == self.names
            self.known = set(cls_names)
        else:
            self.positional = False
            self.known = None
        self.fixed = (ops[0][1] if self.positional and len(ops) == 1
                      and ops[0][0] == "f" else None)

    def decode(self, buf: memoryview, pos: int,
               stop: int) -> Union[TraceRecord, Dict[str, Any]]:
        """The record whose body is exactly ``buf[pos:stop]``."""
        values: List[Any] = []
        for kind, st, _names in self.ops:
            if kind == "f":
                values.extend(st.unpack_from(buf, pos))
                pos += st.size
            else:
                (length,) = _STR_LEN.unpack_from(buf, pos)
                start = pos + 2
                pos = start + length
                values.append(str(buf[start:pos], "utf-8"))
        if pos != stop:
            raise ValueError(f"{self.name} record body is {stop - pos:+d} "
                             f"byte(s) off its declared length")
        if self.positional:
            return self.cls(*values)
        rec = dict(zip(self.names, values))
        if self.cls is None:
            rec["record_type"] = self.name
            return rec
        return self.cls(**{k: v for k, v in rec.items() if k in self.known})

    def encode(self, record: Any) -> bytes:
        parts: List[bytes] = []
        for kind, st, names in self.ops:
            if kind == "f":
                parts.append(st.pack(*[getattr(record, n) for n in names]))
            else:
                raw = str(getattr(record, names)).encode("utf-8")
                parts.append(_STR_LEN.pack(len(raw)))
                parts.append(raw)
        return b"".join(parts)


def _header_blob(description: str,
                 schemas: Dict[str, List[Tuple[str, str]]],
                 type_ids: Dict[str, int]) -> bytes:
    header = {
        "version": VERSION,
        "description": description,
        "types": {name: {"id": type_ids[name], "fields": schema}
                  for name, schema in schemas.items()},
    }
    return json.dumps(header, sort_keys=True).encode("utf-8")


def _type_ids(schemas: Dict[str, Any]) -> Dict[str, int]:
    return {name: i for i, name in enumerate(sorted(schemas))}


# Plans for this package's own record types, compiled once; a header
# declaring any other schema gets plans compiled for that trace alone.
# _OWN_HEADER is the exact header a writer with no description and no
# extra schemas emits (every codec trace block): a reader that sees it
# reuses these plans without parsing the JSON at all.
_OWN_SCHEMAS = {name: _schema_for(cls) for name, cls in RECORD_CLASSES.items()}
_OWN_PLANS = {(name, tuple(schema)): _RecordPlan(name, schema)
              for name, schema in _OWN_SCHEMAS.items()}
_OWN_TYPE_IDS = _type_ids(_OWN_SCHEMAS)
_OWN_HEADER = _header_blob("", _OWN_SCHEMAS, _OWN_TYPE_IDS)
_OWN_BY_ID = {_OWN_TYPE_IDS[name]: _OWN_PLANS[(name, tuple(schema))]
              for name, schema in _OWN_SCHEMAS.items()}


def _plan_for(name: str, schema: List[Tuple[str, str]]) -> _RecordPlan:
    plan = _OWN_PLANS.get((name, tuple((f, c) for f, c in schema)))
    return plan if plan is not None else _RecordPlan(name, schema)


class TraceWriter:
    """Streams records into a self-descriptive binary trace."""

    def __init__(self, stream: BinaryIO, description: str = "",
                 extra_schemas: Optional[Dict[str, List[Tuple[str, str]]]] = None):
        self._stream = stream
        self._schemas: Dict[str, List[Tuple[str, str]]] = dict(_OWN_SCHEMAS)
        if extra_schemas:
            self._schemas.update(extra_schemas)
        self._type_ids = _type_ids(self._schemas)
        self._plans = {name: _plan_for(name, schema)
                       for name, schema in self._schemas.items()}
        self.records_written = 0
        blob = _header_blob(description, self._schemas, self._type_ids)
        self._stream.write(MAGIC)
        self._stream.write(_U32.pack(len(blob)))
        self._stream.write(blob)

    def write(self, record: TraceRecord) -> None:
        name = record.RECORD_TYPE
        body = self._plans[name].encode(record)
        self._stream.write(_RECORD_HEAD.pack(self._type_ids[name], len(body)))
        self._stream.write(body)
        self.records_written += 1

    def write_all(self, records: Iterable[TraceRecord]) -> None:
        for record in records:
            self.write(record)


def _read_header(buf: memoryview) -> Tuple[str, Dict[int, _RecordPlan], int]:
    """(description, plan per type id, offset of the first record)."""
    magic = bytes(buf[:4])
    if magic != MAGIC:
        raise ValueError(f"bad magic {magic!r}; not a trace file")
    if len(buf) < 8:
        raise ValueError("truncated trace header")
    (header_len,) = _U32.unpack_from(buf, 4)
    pos = 8 + header_len
    if pos > len(buf):
        raise ValueError("truncated trace header")
    raw = bytes(buf[8:pos])
    if raw == _OWN_HEADER:
        return "", _OWN_BY_ID, pos
    try:
        header = json.loads(raw.decode("utf-8"))
        if header["version"] != VERSION:
            raise ValueError(
                f"unsupported trace version {header['version']}")
        by_id = {}
        for name, info in header["types"].items():
            by_id[info["id"]] = _plan_for(name, info["fields"])
        return header.get("description", ""), by_id, pos
    except (KeyError, TypeError, AttributeError, RecursionError,
            struct.error) as exc:
        raise ValueError(f"malformed trace header: {exc!r}") from None


def _parse_records(buf: memoryview, pos: int,
                   by_id: Dict[int, _RecordPlan]
                   ) -> List[Union[TraceRecord, Dict[str, Any]]]:
    """Every record from ``pos`` to the end of ``buf`` — the one parsing
    loop.  Strict: a partial record header, a body running past the
    end or off its declared length, or a type id the header never
    declared raises :class:`ValueError`."""
    out: List[Union[TraceRecord, Dict[str, Any]]] = []
    append = out.append
    head = _RECORD_HEAD.unpack_from
    end = len(buf)
    try:
        while pos < end:
            if end - pos < 6:
                raise ValueError(f"partial record header: {end - pos} "
                                 f"byte(s) after the last record")
            type_id, body_len = head(buf, pos)
            pos += 6
            stop = pos + body_len
            if stop > end:
                raise ValueError(f"truncated record: body needs {body_len} "
                                 f"byte(s), {end - pos} left")
            plan = by_id.get(type_id)
            if plan is None:
                raise ValueError(f"record type id {type_id} is not "
                                 f"declared in the trace header")
            fixed = plan.fixed
            if fixed is not None and fixed.size == body_len:
                append(plan.cls(*fixed.unpack_from(buf, pos)))
            else:
                append(plan.decode(buf, pos, stop))
            pos = stop
    except (struct.error, TypeError) as exc:
        raise ValueError(f"corrupt trace record: {exc}") from None
    return out


class TraceReader:
    """Parses a trace written by :class:`TraceWriter`.

    Unknown record types (present in the file header but not in
    ``RECORD_CLASSES``) are surfaced as plain dicts — the format is
    self-descriptive, so nothing is lost.  The whole stream is read and
    parsed on construction, so a malformed trace raises
    :class:`ValueError` there.
    """

    def __init__(self, stream: BinaryIO):
        buf = memoryview(stream.read())
        self.description, by_id, pos = _read_header(buf)
        self._records = iter(_parse_records(buf, pos, by_id))

    def __iter__(self):
        return self

    def __next__(self) -> Union[TraceRecord, Dict[str, Any]]:
        return next(self._records)

    def read_all(self) -> List[Union[TraceRecord, Dict[str, Any]]]:
        return list(self)


def save_trace(path: str, records: Iterable[TraceRecord],
               description: str = "") -> int:
    """Write ``records`` to ``path``; returns the record count."""
    with open(path, "wb") as f:
        writer = TraceWriter(f, description=description)
        writer.write_all(records)
        return writer.records_written


def load_trace(path: str) -> List[Union[TraceRecord, Dict[str, Any]]]:
    """Read every record from the trace file at ``path``."""
    with open(path, "rb") as f:
        return TraceReader(f).read_all()


def dumps_trace(records: Iterable[TraceRecord], description: str = "") -> bytes:
    """Serialize records to an in-memory trace blob."""
    buf = io.BytesIO()
    writer = TraceWriter(buf, description=description)
    writer.write_all(records)
    return buf.getvalue()


def loads_trace(blob) -> List[Union[TraceRecord, Dict[str, Any]]]:
    """Parse a trace blob produced by :func:`dumps_trace` (any
    bytes-like object; a :class:`memoryview` is read in place)."""
    buf = memoryview(blob)
    _description, by_id, pos = _read_header(buf)
    return _parse_records(buf, pos, by_id)
