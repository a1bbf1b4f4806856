"""Worker-side execution and the wire framing.

The one process backend, :class:`~repro.runtime.remote.RemoteBackend`,
lives in :mod:`repro.runtime.remote`; this module holds what both ends
of its connections share:

* the error taxonomy (:class:`BackendUnavailable`,
  :class:`BackendBroken`);
* the wire framing (:func:`send_frame` / :func:`recv_frame`), the
  protocol version and the length of the authentication token a worker
  sends before anything else;
* the worker-process state (:func:`worker_store`, the warm-up in
  ``_worker_init``) and the chunk executor
  :func:`execute_wire_chunk_keys`, which decodes a chunk frame,
  resolves each job's runner by reference, executes, seals bulk
  results into the worker's store, and ships back per-job
  :class:`~repro.runtime.job.JobResult` frames plus the chunk's
  telemetry spans and the store keys it sealed.
"""

from __future__ import annotations

import gc
import pickle
import signal
import socket
import struct
import time
from typing import Any, List, Optional, Tuple

from ..obs.telemetry import (
    capture_begin,
    capture_end,
    pack_spans,
    record_point,
    span_begin,
    span_end,
)
from ..pipeline import ArtifactStore, codec
from .job import JobResult, JobTransportError, resolve_runner

__all__ = [
    "AUTH_TOKEN_BYTES",
    "BackendBroken",
    "BackendUnavailable",
    "PROTOCOL_VERSION",
    "execute_wire_chunk_keys",
    "worker_store",
]


class BackendUnavailable(RuntimeError):
    """The backend cannot start in this environment (restricted
    sandbox, missing semaphores, no sockets).  The scheduler degrades
    to serial execution and records why."""


class BackendBroken(RuntimeError):
    """The backend died mid-flight (worker crash, closed socket).  The
    scheduler re-executes affected jobs in the parent process."""


# ======================================================================
# Worker-process state
# ======================================================================
# The artifact store envelopes travel through, opened once per worker
# process by ``_worker_init``.
_WORKER_STORE: Optional[ArtifactStore] = None

# A worker runs gc.collect() between chunks instead of letting the
# cyclic collector interrupt jobs; past this many chunk executions
# without a sweep it collects unconditionally.
_GC_CHUNKS_PER_SWEEP = 4
_worker_chunks_since_gc = 0


def worker_store() -> Optional[ArtifactStore]:
    """This worker process's artifact store (``None`` in the parent,
    or when the backend runs without a store)."""
    return _WORKER_STORE


def _worker_init(store_root: Optional[str]) -> None:
    """Warm one worker process: open its artifact store and resolve
    the scenario registry once, so individual jobs pay neither.

    Also moves garbage collection to chunk boundaries: the warm-up heap
    (modules, scenario registry, codec tables) is frozen out of the
    collector's reach — it is effectively immortal in a worker, and
    scanning it on every generation-2 pass is the single largest fixed
    tax on job execution — and the automatic collector is disabled.
    Jobs allocate in bursts; :func:`execute_wire_chunk_keys` sweeps
    cycles explicitly between chunks, where a pause costs nothing.

    SIGINT is ignored: a Ctrl-C at the terminal belongs to the parent,
    which cancels outstanding chunks and shuts the backend down
    cleanly — workers must not die mid-chunk with tracebacks.
    """
    global _WORKER_STORE, _worker_chunks_since_gc
    _worker_chunks_since_gc = 0
    _WORKER_STORE = ArtifactStore(store_root) if store_root else None
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):  # pragma: no cover - non-main thread
        pass
    from ..scenarios import registry

    registry.registered_scenarios()
    gc.freeze()
    gc.disable()


# Results whose encoded artifact is smaller than this ride the socket
# inline: below it, a store write + parent read + digest check costs
# more than just shipping the bytes.  Bulk artifacts
# (trace record lists, distillation results) sit far above it.
_ENVELOPE_MIN_BYTES = 4096


def _seal(result: Any, key: str, kind: str) -> JobResult:
    """Encode a result, park it in the worker's store, and return the
    envelope.  Small results, results the codec cannot frame, and
    results the store cannot take are returned raw instead (they ride
    the reply frame)."""
    tok = span_begin()
    t0 = time.perf_counter_ns()
    try:
        blob = codec.encode_gz(result)
    except codec.CodecError:
        return JobResult.of(result)
    encode_ns = time.perf_counter_ns() - t0
    span_end(tok, "encode", kind, nbytes=len(blob))
    if len(blob) < _ENVELOPE_MIN_BYTES:
        return JobResult.of(result)
    tok = span_begin()
    try:
        _WORKER_STORE.put_encoded(key, blob, meta={"stage": kind})
    except OSError:
        return JobResult.of(result)
    span_end(tok, "store_write", kind, nbytes=len(blob))
    from .job import ResultEnvelope

    return JobResult.enveloped(ResultEnvelope(
        key=key, digest=codec.content_digest(blob),
        nbytes=len(blob), encode_ns=encode_ns))


def execute_wire_chunk_keys(wire: bytes,
                            telemetry_ctx: Optional[Tuple[str, int]] = None
                            ) -> Tuple[bytes, List[str], int]:
    """Run a chunk of jobs in one round-trip.

    ``wire`` is a pickled list of ``(runner_ref, kind, label, payload,
    key)`` tuples.  Returns ``(wire_out, sealed_keys, njobs)``:
    ``wire_out`` is a pickled ``(results, spans_blob)`` pair — per-item
    :class:`~repro.runtime.job.JobResult` frames aligned with the
    input, plus the chunk's stage spans as one codec frame (or ``None``
    when telemetry is off).  Pickling is done here so the parent can
    count the exact bytes that crossed the process boundary.
    ``sealed_keys`` names every store artifact this chunk parked in the
    worker's store; the done frame carries it so the parent learns
    which node holds each artifact — the index behind lazy ``FETCH`` —
    without unpickling the reply payload.

    ``telemetry_ctx`` is ``(sweep_id, submit_ns)``: its presence turns
    span capture on for this chunk, and ``submit_ns`` (the parent's
    wall clock at submission) yields the queue-wait span — clamped at
    zero, since wall clocks across processes may disagree by more than
    a short queue wait.
    """
    chunk_tok = None
    if telemetry_ctx is not None:
        sweep_id, submit_ns = telemetry_ctx
        capture_begin(sweep_id)
        now = time.time_ns()
        record_point("queue", ts=submit_ns, dur=now - submit_ns)
        chunk_tok = span_begin()
    items: List[Tuple[str, str, str, Any, str]] = pickle.loads(wire)
    out: List[JobResult] = []
    sealed: List[str] = []
    for runner_ref, kind, label, payload, key in items:
        tok = span_begin()
        try:
            runner = resolve_runner(runner_ref)
            result = runner(payload)
        except JobTransportError as exc:
            span_end(tok, kind, label, failed=True)
            out.append(JobResult.failed(str(exc)))
            continue
        span_end(tok, kind, label)
        if _WORKER_STORE is not None:
            job_result = _seal(result, key, kind)
            if job_result.envelope is not None:
                sealed.append(job_result.envelope.key)
            out.append(job_result)
        else:
            out.append(JobResult.of(result))
    spans_blob = None
    if telemetry_ctx is not None:
        span_end(chunk_tok, "chunk", f"{len(items)} job(s)")
        spans_blob = codec.encode(pack_spans(capture_end()))
    wire_out = pickle.dumps((out, spans_blob),
                            protocol=pickle.HIGHEST_PROTOCOL)
    global _worker_chunks_since_gc
    if not gc.isenabled():
        _worker_chunks_since_gc += 1
        if _worker_chunks_since_gc >= _GC_CHUNKS_PER_SWEEP:
            _worker_chunks_since_gc = 0
            gc.collect()
    return wire_out, sealed, len(items)


# ======================================================================
# Wire framing (shared with repro.runtime.worker)
# ======================================================================
# Bumped whenever a frame's shape changes; the parent refuses a hello
# from any other version.
PROTOCOL_VERSION = 3

# A worker's first bytes on every connection are the backend's
# per-start token (handed to it on stdin), read and compared before the
# parent decodes anything else the peer sends.
AUTH_TOKEN_BYTES = 32

_FRAME_HEADER = struct.Struct("<Q")

# Largest frame body recv_frame accepts.  The peer's length word is
# checked against it before any body byte is read, so a forged header
# cannot make the receiver allocate its claimed size.  The largest frame
# the distributed tests and ``bench_distributed.py --quick`` send is
# about 28 KB (a chunk of trial jobs); 64 MiB leaves three orders of
# magnitude for paper-size chunks and store artifacts.
MAX_FRAME_BYTES = 64 * 1024 * 1024


def send_frame(sock: socket.socket, obj: Any) -> int:
    """Pickle ``obj`` and send it length-prefixed; returns frame size."""
    blob = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    sock.sendall(_FRAME_HEADER.pack(len(blob)) + blob)
    return len(blob)


def recv_frame(sock: socket.socket) -> Any:
    """Receive one length-prefixed pickled frame (raises
    :class:`BackendBroken` on a short read — the peer went away — and on
    a length over :data:`MAX_FRAME_BYTES`)."""
    header = _recv_exact(sock, _FRAME_HEADER.size)
    (length,) = _FRAME_HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise BackendBroken(f"frame length {length} exceeds the "
                            f"{MAX_FRAME_BYTES}-byte limit")
    return pickle.loads(_recv_exact(sock, length))


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    chunks = []
    remaining = n
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            raise BackendBroken("socket closed mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)
