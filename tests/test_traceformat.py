"""Unit tests for the self-descriptive trace format."""

import io
import os
import struct
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.traceformat import (
    DIR_IN,
    DIR_OUT,
    DeviceStatusRecord,
    LostRecordsRecord,
    PacketRecord,
    TraceReader,
    TraceWriter,
    dumps_trace,
    load_trace,
    loads_trace,
    save_trace,
)


def _packet_record(**kw):
    defaults = dict(timestamp=1.5, direction=DIR_OUT, proto=1, size=92,
                    src="10.0.0.2", dst="10.0.0.1", icmp_type=8, ident=7,
                    seq=3, rtt=-1.0)
    defaults.update(kw)
    return PacketRecord(**defaults)


def test_packet_record_roundtrip():
    rec = _packet_record(rtt=0.0123)
    (back,) = loads_trace(dumps_trace([rec]))
    assert back == rec


def test_device_status_roundtrip():
    rec = DeviceStatusRecord(timestamp=2.0, signal_level=17.5,
                             signal_quality=12.0, silence_level=4.0)
    (back,) = loads_trace(dumps_trace([rec]))
    assert back == rec


def test_lost_records_roundtrip():
    rec = LostRecordsRecord(timestamp=3.0, record_type="packet", count=42)
    (back,) = loads_trace(dumps_trace([rec]))
    assert back == rec


def test_mixed_stream_preserves_order():
    records = [
        _packet_record(seq=0),
        DeviceStatusRecord(1.0, 10.0, 5.0, 2.0),
        _packet_record(seq=1, direction=DIR_IN),
        LostRecordsRecord(2.0, "device_status", 1),
    ]
    assert loads_trace(dumps_trace(records)) == records


def test_description_preserved():
    blob = dumps_trace([], description="porter trial 3")
    reader = TraceReader(io.BytesIO(blob))
    assert reader.description == "porter trial 3"


def test_bad_magic_rejected():
    with pytest.raises(ValueError):
        TraceReader(io.BytesIO(b"JUNKxxxxxxxx"))


def test_empty_trace_ok():
    assert loads_trace(dumps_trace([])) == []


def test_save_and_load_file(tmp_path):
    path = str(tmp_path / "trial.trace")
    records = [_packet_record(seq=i) for i in range(5)]
    assert save_trace(path, records, description="t") == 5
    assert load_trace(path) == records


def test_self_descriptive_unknown_record_type():
    """A reader can parse record types it has never seen."""
    buf = io.BytesIO()
    writer = TraceWriter(buf, extra_schemas={
        "gps_fix": [("timestamp", "d"), ("lat", "d"), ("lon", "d"),
                    ("label", "S")],
    })

    class GpsFix:
        RECORD_TYPE = "gps_fix"
        timestamp = 9.0
        lat = 40.44
        lon = -79.94
        label = "wean hall"

    writer.write(GpsFix())
    writer.write(_packet_record())
    records = loads_trace(buf.getvalue())
    assert records[0]["record_type"] == "gps_fix"
    assert records[0]["label"] == "wean hall"
    assert isinstance(records[1], PacketRecord)


def test_unicode_strings_survive():
    rec = _packet_record(src="höst-α", dst="β")
    (back,) = loads_trace(dumps_trace([rec]))
    assert back.src == "höst-α"


def test_writer_counts_records():
    buf = io.BytesIO()
    writer = TraceWriter(buf)
    writer.write_all([_packet_record() for _ in range(3)])
    assert writer.records_written == 3


@given(st.lists(st.tuples(
    st.floats(min_value=0, max_value=1e6, allow_nan=False),
    st.integers(min_value=0, max_value=1),
    st.integers(min_value=-1, max_value=2**31),
    st.floats(min_value=-1.0, max_value=10.0, allow_nan=False),
    st.text(max_size=20),
), max_size=20))
def test_roundtrip_arbitrary_packet_records(rows):
    records = [
        PacketRecord(timestamp=ts, direction=d, proto=1, size=100,
                     src=name, dst="x", icmp_type=0, ident=1, seq=seq,
                     rtt=rtt)
        for ts, d, seq, rtt, name in rows
    ]
    assert loads_trace(dumps_trace(records)) == records


# ======================================================================
# Strict parsing: one loop for files, streams and blobs
# ======================================================================
_GPS_SCHEMA = {"gps_fix": [("timestamp", "d"), ("label", "S"),
                           ("lat", "d")]}


class _GpsFix:
    """A record of a type only the trace header describes."""

    RECORD_TYPE = "gps_fix"

    def __init__(self, timestamp, label, lat):
        self.timestamp, self.label, self.lat = timestamp, label, lat

    def as_read(self):
        return {"timestamp": self.timestamp, "label": self.label,
                "lat": self.lat, "record_type": "gps_fix"}


_finite = st.floats(allow_nan=False)
_records = st.one_of(
    st.builds(PacketRecord, timestamp=_finite,
              direction=st.sampled_from([DIR_IN, DIR_OUT]),
              proto=st.integers(0, 255), size=st.integers(0, 65535),
              src=st.text(max_size=8), dst=st.text(max_size=8),
              rtt=_finite),
    st.builds(DeviceStatusRecord, _finite, _finite, _finite, _finite),
    st.builds(LostRecordsRecord, _finite, st.text(max_size=8),
              st.integers(0, 2**40)),
    st.builds(_GpsFix, _finite, st.text(max_size=8), _finite))


def _expected(records):
    return [r.as_read() if isinstance(r, _GpsFix) else r for r in records]


def _record_ends(blob, count):
    """Offsets just past the header and past each record."""
    (header_len,) = struct.unpack_from("<I", blob, 4)
    ends = [8 + header_len]
    for _ in range(count):
        (body_len,) = struct.unpack_from("<I", blob, ends[-1] + 2)
        ends.append(ends[-1] + 6 + body_len)
    return ends


@settings(max_examples=40, deadline=None)
@given(st.lists(_records, max_size=6), st.binary(min_size=1, max_size=5))
def test_streams_roundtrip_and_reject_every_cut_and_extension(records,
                                                              extra):
    buf = io.BytesIO()
    TraceWriter(buf, extra_schemas=_GPS_SCHEMA).write_all(records)
    blob = buf.getvalue()
    want = _expected(records)
    assert loads_trace(blob) == want
    assert TraceReader(io.BytesIO(blob)).read_all() == want
    fd, path = tempfile.mkstemp(suffix=".trace")
    try:
        with os.fdopen(fd, "wb") as f:
            TraceWriter(f, extra_schemas=_GPS_SCHEMA).write_all(records)
        assert load_trace(path) == want
        if not any(isinstance(r, _GpsFix) for r in records):
            assert loads_trace(dumps_trace(records)) == want
            assert save_trace(path, records) == len(records)
            assert load_trace(path) == want
    finally:
        os.unlink(path)
    # The format has no record count: a cut at a record boundary is a
    # shorter, valid trace.  Every other cut raises.
    ends = _record_ends(blob, len(records))
    for cut in range(len(blob)):
        if cut in ends:
            assert loads_trace(blob[:cut]) == want[:ends.index(cut)]
        else:
            with pytest.raises(ValueError):
                loads_trace(blob[:cut])
    with pytest.raises(ValueError):
        loads_trace(blob + extra)


def test_undeclared_record_type_id_rejected():
    blob = dumps_trace([DeviceStatusRecord(1.0, 2.0, 3.0, 4.0)])
    body = struct.pack("<4d", 1.0, 2.0, 3.0, 4.0)
    forged = blob + struct.pack("<HI", 99, len(body)) + body
    with pytest.raises(ValueError, match="not declared"):
        loads_trace(forged)
    with pytest.raises(ValueError, match="not declared"):
        TraceReader(io.BytesIO(forged))


def test_record_body_off_its_declared_length_rejected():
    blob = bytearray(dumps_trace([DeviceStatusRecord(1.0, 2.0, 3.0, 4.0)]))
    (header_len,) = struct.unpack_from("<I", blob, 4)
    head = 8 + header_len
    # claim one byte more than the body holds, and supply it
    struct.pack_into("<I", blob, head + 2, 33)
    with pytest.raises(ValueError, match="declared length"):
        loads_trace(bytes(blob) + b"\x00")


def _with_header(header: bytes, body: bytes = b"") -> bytes:
    return b"RPTR" + struct.pack("<I", len(header)) + header + body


@pytest.mark.parametrize("header", [
    b'{"version": 99, "types": {}}',
    b'[1, 2]',
    b'{"version": 1}',
    b'{"version": 1, "types": {"x": {"id": 0, "fields": [["a", "?!"]]}}}',
    b'{"version": 1, "types": ' + b"[" * 5000 + b"]" * 5000 + b"}",
], ids=["bad-version", "not-an-object", "no-types", "bad-struct-code",
        "deeply-nested"])
def test_malformed_header_rejected(header):
    with pytest.raises(ValueError):
        loads_trace(_with_header(header))


def test_record_running_past_the_buffer_rejected():
    # A device-status record (type id 0) declared 8 bytes long, where
    # its fixed layout needs 32.
    forged = dumps_trace([]) + struct.pack("<HI", 0, 8) + b"\x00" * 8
    with pytest.raises(ValueError, match="corrupt trace record"):
        loads_trace(forged)


def test_schema_missing_a_class_field_rejected():
    header = (b'{"description": "", "types": {"device_status": {"fields": '
              b'[["timestamp", "d"]], "id": 0}}, "version": 1}')
    body = struct.pack("<HI", 0, 8) + struct.pack("<d", 1.0)
    with pytest.raises(ValueError):
        loads_trace(_with_header(header, body))
