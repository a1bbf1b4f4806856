"""Execution backends: where chunks of jobs actually run.

A backend is the *mechanism* under the scheduler: it owns worker
lifecycle (spawn, warm-up, teardown) and moves opaque chunk frames to
workers and back.  Everything above it — chunking, ordering, caching,
retry, result rehydration — lives in :mod:`repro.runtime.scheduler`
and is backend-agnostic, which is what makes every backend produce
byte-identical results.

This module holds the in-machine implementations:

:class:`SerialBackend`
    No workers at all.  The scheduler executes jobs lazily in the
    parent process; this class exists so "serial" is a first-class
    member of the backend matrix rather than a missing pool.
:class:`PoolBackend`
    A warm ``ProcessPoolExecutor``: workers are initialized once per
    process (scenario registry resolved, shared artifact store opened,
    garbage collection frozen and moved to chunk boundaries) and
    reused across phases and subcommands.

The socket-reached backends — the multi-node
:class:`~repro.runtime.remote.RemoteBackend` fabric and its one-host
:class:`~repro.runtime.remote.LoopbackSocketBackend` configuration —
live in :mod:`repro.runtime.remote` and build on the wire framing
(:func:`send_frame` / :func:`recv_frame`) and error taxonomy defined
here.

The worker-side entry point :func:`execute_wire_chunk` is shared by
every remote backend: it decodes a chunk frame, resolves each job's
runner by reference, executes, seals bulk results into the shared
store (envelope data plane), and ships back per-job
:class:`~repro.runtime.job.JobResult` frames plus the chunk's
telemetry spans.  :func:`execute_wire_chunk_keys` is the multi-node
variant that additionally reports which store keys the chunk sealed,
so the parent learns where each artifact lives without opening the
reply payload.
"""

from __future__ import annotations

import gc
import os
import pickle
import signal
import socket
import struct
import time
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
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
    "Backend",
    "BackendBroken",
    "BackendUnavailable",
    "PoolBackend",
    "SerialBackend",
    "execute_wire_chunk",
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
# The shared artifact store envelopes travel through, opened once per
# worker process by the backend's initializer.
_WORKER_STORE: Optional[ArtifactStore] = None

# A worker runs gc.collect() between chunks instead of letting the
# cyclic collector interrupt jobs; past this many chunk executions
# without a sweep it collects unconditionally.
_GC_CHUNKS_PER_SWEEP = 4
_worker_chunks_since_gc = 0


def worker_store() -> Optional[ArtifactStore]:
    """This worker process's shared artifact store (``None`` in the
    parent, or when the backend runs without a store)."""
    return _WORKER_STORE


def _worker_init(store_root: Optional[str]) -> None:
    """Warm one worker process: open the shared artifact store and
    resolve the scenario registry once, so individual jobs pay
    neither.

    Also moves garbage collection to chunk boundaries: the parent's
    heap (modules, scenario registry, codec tables) is frozen out of
    the collector's reach — it is effectively immortal in a forked
    worker, and scanning it on every generation-2 pass is the single
    largest fixed tax on job execution — and the automatic collector
    is disabled.  Jobs allocate in bursts; :func:`execute_wire_chunk`
    sweeps cycles explicitly between chunks, where a pause costs
    nothing.

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


# Results whose encoded artifact is smaller than this ride the backend
# pipe/socket inline: below it, a store write + parent read + digest
# check costs more than just shipping the bytes.  Bulk artifacts
# (trace record lists, distillation results) sit far above it.
_ENVELOPE_MIN_BYTES = 4096


def _seal(result: Any, key: str, kind: str) -> JobResult:
    """Encode a result, park it in the worker's shared store, and
    return the envelope.  Small results, results the codec cannot
    frame, and results the store cannot take are returned raw instead
    (the pipe path for this item)."""
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


def execute_wire_chunk(wire: bytes, envelope: bool,
                       telemetry_ctx: Optional[Tuple[str, int]] = None
                       ) -> bytes:
    """Run a chunk of jobs in one backend round-trip.

    ``wire`` is a pickled list of ``(runner_ref, kind, label, payload,
    key)`` tuples; the return is a pickled ``(results, spans_blob)``
    pair — per-item :class:`~repro.runtime.job.JobResult` frames
    aligned with the input, plus the chunk's stage spans as one codec
    frame (or ``None`` when telemetry is off).  Pickling is done here,
    not by the backend, so the parent can count the exact bytes that
    crossed the process boundary.

    ``telemetry_ctx`` is ``(sweep_id, submit_ns)``: its presence turns
    span capture on for this chunk, and ``submit_ns`` (the parent's
    wall clock at submission) yields the queue-wait span — clamped at
    zero, since wall clocks across processes may disagree by more than
    a short queue wait.
    """
    wire_out, _keys, _njobs = execute_wire_chunk_keys(
        wire, envelope, telemetry_ctx)
    return wire_out


def execute_wire_chunk_keys(wire: bytes, envelope: bool,
                            telemetry_ctx: Optional[Tuple[str, int]] = None
                            ) -> Tuple[bytes, List[str], int]:
    """:func:`execute_wire_chunk` plus provenance: returns ``(wire_out,
    sealed_keys, njobs)`` where ``sealed_keys`` names every store
    artifact this chunk parked in the worker's store.  The multi-node
    done frame carries the extras so the parent learns which node
    holds each artifact — the index behind lazy ``FETCH`` — without
    unpickling the reply payload."""
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
        if envelope and _WORKER_STORE is not None:
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


# ======================================================================
# Backends
# ======================================================================
class Backend:
    """The protocol a scheduler backend implements.

    ``remote`` says whether chunks cross a process boundary (``False``
    only for :class:`SerialBackend`, which the scheduler special-cases
    into lazy in-parent execution).  ``start`` receives the shared
    store root (or ``None`` on the pickle data plane) and must raise
    :class:`BackendUnavailable` if this environment cannot host the
    backend.  ``submit`` takes the opaque chunk frame produced by the
    scheduler and returns a future resolving to the worker's reply
    frame; a dead backend surfaces as :class:`BackendBroken` (or
    ``BrokenProcessPool``) either from ``submit`` or from the future.
    ``shutdown(cancel=True)`` additionally drops chunks that have not
    started (the Ctrl-C path).
    """

    name = "backend"
    remote = True

    def start(self, store_root: Optional[str]) -> None:
        raise NotImplementedError

    def pool_size(self) -> int:
        raise NotImplementedError

    def submit(self, wire: bytes, envelope: bool,
               telemetry_ctx: Optional[Tuple[str, int]]) -> Future:
        raise NotImplementedError

    def shutdown(self, cancel: bool = False) -> None:
        raise NotImplementedError


class SerialBackend(Backend):
    """In-parent execution: no workers, no transport, no pickling.

    The scheduler never calls ``submit`` on it — jobs run lazily on
    first result access via the very same runner functions a worker
    would call, which is what makes serial the reference point of the
    equivalence matrix."""

    name = "serial"
    remote = False

    def start(self, store_root: Optional[str]) -> None:
        pass

    def pool_size(self) -> int:
        return 1

    def submit(self, wire: bytes, envelope: bool,
               telemetry_ctx: Optional[Tuple[str, int]]) -> Future:
        raise BackendUnavailable("serial backend takes no submissions")

    def shutdown(self, cancel: bool = False) -> None:
        pass


class PoolBackend(Backend):
    """The warm GC-frozen ``ProcessPoolExecutor`` (PR-5 lineage).

    ``workers`` is capped at core count + 1: heavy oversubscription
    cannot finish CPU-bound jobs sooner — it only time-slices them,
    which *stretches the longest job* (the sweep's critical path)
    while cheap work drains around it.  One extra worker beyond the
    core count soaks up the slack whenever a sibling blocks on store
    I/O (the ``make -j N+1`` rule).
    """

    name = "pool"
    remote = True

    def __init__(self, workers: int):
        self.workers = max(1, int(workers))
        self._pool: Optional[ProcessPoolExecutor] = None

    def pool_size(self) -> int:
        cores = os.cpu_count() or self.workers
        return max(1, min(self.workers, cores + 1))

    def start(self, store_root: Optional[str]) -> None:
        if self._pool is not None:
            return
        try:
            self._pool = ProcessPoolExecutor(
                max_workers=self.pool_size(),
                initializer=_worker_init, initargs=(store_root,))
        except (OSError, ValueError, NotImplementedError,
                ImportError) as exc:
            raise BackendUnavailable(
                f"pool unavailable: {type(exc).__name__}: {exc}")

    def submit(self, wire: bytes, envelope: bool,
               telemetry_ctx: Optional[Tuple[str, int]]) -> Future:
        if self._pool is None:
            raise BackendBroken("pool backend not started")
        try:
            return self._pool.submit(execute_wire_chunk, wire, envelope,
                                     telemetry_ctx)
        except (BrokenProcessPool, OSError, RuntimeError) as exc:
            raise BackendBroken(
                f"process pool broke: {type(exc).__name__}: {exc}")

    def shutdown(self, cancel: bool = False) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=cancel)
            self._pool = None
