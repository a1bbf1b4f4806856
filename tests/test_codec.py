"""The binary artifact codec: exact round-trips, strict rejection.

The pipeline store and the parallel sweep's envelope handoff both rest
on ``repro.pipeline.codec``: every artifact must survive encode→decode
bit-exactly (or the determinism contract breaks), and every malformed
frame must be rejected loudly (or a corrupt cache poisons results).
"""

import gzip
import json
import pickle
import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.stats import Summary
from repro.core.distill import DistillationResult, ParameterEstimate
from repro.core.replay import QualityTuple, ReplayTrace
from repro.core.traceformat import (
    DeviceStatusRecord,
    LostRecordsRecord,
    PacketRecord,
)
from repro.pipeline import codec
from repro.pipeline.codec import CodecError
from repro.pipeline.stages import CollectStage
from repro.pipeline.store import ArtifactStore


# ======================================================================
# Hypothesis strategies
# ======================================================================
# Exact round-trip excludes NaN (NaN != NaN would fail equality even on
# a correct codec); -0.0/infinities must survive.
_floats = st.floats(allow_nan=False)
_scalars = (st.none() | st.booleans() | st.integers() | _floats
            | st.text(max_size=40) | st.binary(max_size=40))
_values = st.recursive(
    _scalars,
    lambda children: (
        st.lists(children, max_size=5)
        | st.lists(children, max_size=5).map(tuple)
        | st.dictionaries(st.text(max_size=10), children, max_size=5)),
    max_leaves=25)

_quality_tuples = st.builds(
    QualityTuple,
    d=st.floats(min_value=0.001, max_value=100, allow_nan=False),
    F=st.floats(min_value=0, max_value=10, allow_nan=False),
    Vb=st.floats(min_value=0, max_value=1, allow_nan=False),
    Vr=st.floats(min_value=0, max_value=1, allow_nan=False),
    L=st.floats(min_value=0, max_value=1, allow_nan=False))

_packets = st.builds(
    PacketRecord,
    timestamp=st.floats(min_value=0, max_value=1e6, allow_nan=False),
    direction=st.sampled_from([0, 1]),
    proto=st.integers(min_value=0, max_value=255),
    size=st.integers(min_value=0, max_value=65535),
    src=st.text(max_size=16),
    dst=st.text(max_size=16),
    rtt=st.floats(min_value=-1, max_value=60, allow_nan=False))

_statuses = st.builds(
    DeviceStatusRecord,
    timestamp=st.floats(min_value=0, max_value=1e6, allow_nan=False),
    signal_level=st.floats(min_value=-100, max_value=0, allow_nan=False),
    signal_quality=st.floats(min_value=0, max_value=1, allow_nan=False),
    silence_level=st.floats(min_value=-100, max_value=0, allow_nan=False))


# ======================================================================
# Round-trip properties
# ======================================================================
@given(_values)
@settings(max_examples=200, deadline=None)
def test_roundtrip_values(value):
    assert codec.decode(codec.encode(value)) == value


@given(_values)
@settings(max_examples=50, deadline=None)
def test_roundtrip_gzip_framing(value):
    blob = codec.encode_gz(value)
    assert codec.decode_gz(blob) == value
    # gzip framing is deterministic (mtime pinned), so fingerprint-free
    # content digests are stable across processes and runs
    assert codec.encode_gz(value) == blob


def test_roundtrip_preserves_container_types():
    value = {"t": (1, 2), "l": [1, 2], "nested": ({"a": (None,)},)}
    out = codec.decode(codec.encode(value))
    assert out == value
    assert type(out["t"]) is tuple and type(out["l"]) is list
    assert type(out["nested"]) is tuple


@given(st.lists(_quality_tuples, min_size=1, max_size=20),
       st.text(max_size=20))
@settings(max_examples=50, deadline=None)
def test_roundtrip_replay_trace(tuples, name):
    replay = ReplayTrace(tuples, name=name)
    out = codec.decode(codec.encode(replay))
    assert isinstance(out, ReplayTrace)
    assert out == replay


@given(st.lists(st.one_of(_packets, _statuses), max_size=20))
@settings(max_examples=50, deadline=None)
def test_roundtrip_trace_records(records):
    records = records + [LostRecordsRecord(timestamp=1.0,
                                           record_type="packet", count=3)]
    assert codec.decode(codec.encode(records)) == records


@given(st.floats(allow_nan=False), st.floats(min_value=0, allow_nan=False),
       st.integers(min_value=0, max_value=10**6))
@settings(max_examples=50, deadline=None)
def test_roundtrip_summary(mean, std, n):
    s = Summary(mean=mean, std=std, n=n)
    assert codec.decode(codec.encode(s)) == s


def test_roundtrip_distillation_result():
    replay = ReplayTrace([QualityTuple(d=1.0, F=0.05, Vb=1e-4, Vr=0.0,
                                       L=0.1)], name="x")
    dist = DistillationResult(
        replay=replay,
        estimates=[ParameterEstimate(time=0.5, F=0.05, Vb=1e-4, Vr=0.0,
                                     corrected=True)],
        groups_total=10, groups_used=8, groups_corrected=1,
        groups_skipped=2, echoes_sent=100, replies_received=90,
        status_records=[DeviceStatusRecord(timestamp=0.0, signal_level=-60,
                                           signal_quality=0.9,
                                           silence_level=-90)])
    out = codec.decode(codec.encode(dist))
    assert out == dist
    assert isinstance(out.estimates[0], ParameterEstimate)


def test_roundtrip_huge_int():
    for value in (2**100, -(2**100), 2**63, -(2**63) - 1):
        assert codec.decode(codec.encode(value)) == value


def test_content_digest_is_sha256_hex():
    blob = codec.encode_gz([1, 2, 3])
    digest = codec.content_digest(blob)
    assert len(digest) == 64 and int(digest, 16) >= 0


# ======================================================================
# Strict rejection
# ======================================================================
def test_rejects_bad_magic():
    blob = bytearray(codec.encode(42))
    blob[:4] = b"NOPE"
    with pytest.raises(CodecError):
        codec.decode(bytes(blob))


def test_rejects_wrong_version():
    bad = codec.MAGIC + struct.pack("<H", codec.VERSION + 1) + b"\x00"
    with pytest.raises(CodecError):
        codec.decode(bad)


def test_rejects_truncation_at_every_point():
    blob = codec.encode({"key": [1.5, "text", (None, b"bytes")]})
    for cut in range(len(blob)):
        with pytest.raises(CodecError):
            codec.decode(blob[:cut])


def test_rejects_trailing_garbage():
    with pytest.raises(CodecError):
        codec.decode(codec.encode([1, 2]) + b"\x00")


def test_rejects_unknown_tag():
    blob = codec.MAGIC + struct.pack("<H", codec.VERSION) + b"\x6e"
    with pytest.raises(CodecError):
        codec.decode(blob)


def test_rejects_corrupt_gzip():
    blob = bytearray(codec.encode_gz([1, 2, 3]))
    blob[-3] ^= 0xFF
    with pytest.raises(CodecError):
        codec.decode_gz(bytes(blob))


def test_rejects_corrupt_replay_duration():
    replay = ReplayTrace([QualityTuple(d=1.0, F=0.0, Vb=0.0, Vr=0.0,
                                       L=0.0)], name="")
    blob = bytearray(codec.encode(replay))
    # overwrite the (little-endian) duration double with -1.0
    blob[-40:-32] = struct.pack("<d", -1.0)
    with pytest.raises(CodecError):
        codec.decode(bytes(blob))


# ======================================================================
# Store integration: old caches miss cleanly
# ======================================================================
def test_pickle_era_cache_dir_misses_cleanly(tmp_path):
    """A cache dir written by the pickle-era store (``.pkl`` objects,
    version-less sidecars) must produce clean misses — never a crash,
    never a stale artifact."""
    store = ArtifactStore(tmp_path)
    fp = CollectStage.__name__.lower() * 4  # any 64ish-char-safe key
    legacy_dir = tmp_path / "objects" / fp[:2]
    legacy_dir.mkdir(parents=True)
    (legacy_dir / f"{fp}.pkl").write_bytes(
        pickle.dumps({"records": [1, 2, 3]}))
    (legacy_dir / f"{fp}.json").write_text(
        json.dumps({"stage": "collect", "fingerprint": fp}))
    found, value = store.get(fp)
    assert not found and value is None
    # and the store still works for new-format objects
    store.put(fp, {"records": [1, 2, 3]})
    found, value = store.get(fp)
    assert found and value == {"records": [1, 2, 3]}


def test_corrupt_artifact_is_dropped_and_missed(tmp_path):
    store = ArtifactStore(tmp_path)
    store.put("ab" * 32, [1, 2, 3])
    (path,) = (tmp_path / "objects").glob("*/*.rba")
    path.write_bytes(b"not a frame at all")
    found, value = store.get("ab" * 32)
    assert not found and value is None
    assert not path.exists()  # the bad object was evicted


def test_store_objects_are_gzip_framed_binary(tmp_path):
    store = ArtifactStore(tmp_path)
    store.put("cd" * 32, {"table": [1.5] * 100})
    (path,) = (tmp_path / "objects").glob("*/*.rba")
    raw = path.read_bytes()
    assert raw[:2] == b"\x1f\x8b"  # gzip magic
    assert gzip.decompress(raw)[:4] == codec.MAGIC


def test_sidecar_metadata_still_json(tmp_path):
    store = ArtifactStore(tmp_path)
    store.put("ef" * 32, [1, 2], meta={"stage": "collect"})
    sidecars = list(tmp_path.glob("objects/*/*.json"))
    assert sidecars, "sidecar metadata must remain human-readable JSON"
    doc = json.loads(sidecars[0].read_text())
    assert doc["stage"] == "collect"
    assert doc["codec"] == codec.VERSION


def test_format_version_changes_stage_fingerprints(monkeypatch):
    """Bumping CACHE_FORMAT_VERSION must re-key every stage, so caches
    written under the old on-disk format miss cleanly."""
    from repro.pipeline import stages
    from repro.scenarios import PorterScenario

    stage = CollectStage(PorterScenario(), seed=0, trial=0)
    now = stage.fingerprint()
    monkeypatch.setattr(stages, "CACHE_FORMAT_VERSION", 1)
    assert stage.fingerprint() != now


# ======================================================================
# Nesting bound and trace-block strictness
# ======================================================================
def _nested_list_frame(depth: int) -> bytes:
    """A frame of ``depth`` one-element lists around ``None``, built by
    hand because the encoder refuses to write one past MAX_DEPTH."""
    return (codec.MAGIC + struct.pack("<H", codec.VERSION)
            + (b"\x10" + struct.pack("<I", 1)) * depth + b"\x00")


def _nested(depth: int):
    value = None
    for _ in range(depth):
        value = [value]
    return value


def test_deep_nesting_is_a_codec_error():
    with pytest.raises(CodecError, match="nest deeper"):
        codec.decode(_nested_list_frame(5000))


def test_nesting_limit_is_the_same_both_ways():
    deepest = _nested(codec.MAX_DEPTH)
    assert codec.decode(codec.encode(deepest)) == deepest
    assert codec.encode(deepest) == _nested_list_frame(codec.MAX_DEPTH)
    with pytest.raises(CodecError):
        codec.encode([deepest])
    with pytest.raises(CodecError):
        codec.decode(_nested_list_frame(codec.MAX_DEPTH + 1))


def test_deeply_nested_artifact_is_dropped_and_missed(tmp_path):
    store = ArtifactStore(tmp_path)
    store.put("ab" * 32, [1, 2, 3])
    (path,) = (tmp_path / "objects").glob("*/*.rba")
    path.write_bytes(gzip.compress(_nested_list_frame(5000), mtime=0))
    found, value = store.get("ab" * 32)
    assert not found and value is None
    assert not path.exists()


def test_padded_trace_block_is_a_codec_error():
    records = [DeviceStatusRecord(1.0, -60.0, 0.9, -90.0),
               DeviceStatusRecord(2.0, -61.0, 0.8, -91.0)]
    frame = codec.encode(records)
    assert frame[6] == 0x20  # the trace-record block tag
    (n,) = struct.unpack_from("<I", frame, 7)
    for pad in (1, 3, 5):
        padded = (frame[:7] + struct.pack("<I", n + pad) + frame[11:]
                  + b"\x00" * pad)
        with pytest.raises(CodecError, match="trace-record block"):
            codec.decode(padded)


def test_invalid_value_in_frame_is_a_codec_error():
    header = codec.MAGIC + struct.pack("<H", codec.VERSION)
    bad_tuple = header + b"\x21" + struct.pack("<5d", -1.0, 0, 0, 0, 0)
    bad_utf8 = header + b"\x06" + struct.pack("<I", 1) + b"\xff"
    list_key = (header + b"\x12" + struct.pack("<I", 1)
                + b"\x10" + struct.pack("<I", 0) + b"\x00")
    for frame in (bad_tuple, bad_utf8, list_key):
        with pytest.raises(CodecError):
            codec.decode(frame)


@pytest.mark.parametrize("corrected", [True, False])
def test_estimate_flag_round_trips_as_bool(corrected):
    est = ParameterEstimate(time=0.5, F=0.05, Vb=1e-4, Vr=0.0,
                            corrected=corrected)
    blob = codec.encode(est)
    assert blob[7:] == struct.pack("<4dB", 0.5, 0.05, 1e-4, 0.0,
                                   1 if corrected else 0)
    out = codec.decode(blob)
    assert out == est and out.corrected is corrected
