"""Fleet worker: ``python -m repro.runtime.worker``.

Spawned by :class:`~repro.runtime.remote.RemoteBackend` (one process
per worker slot, locally or over SSH), this entry point reads the
backend's authentication token from stdin, dials the parent's listener
back, sends the token, and then speaks protocol v3 (see
:data:`~repro.runtime.backends.PROTOCOL_VERSION`).  The hello frame is
``{"pid", "proto", "node", "role"}``; what follows depends on the
role:

``worker`` (default)
    The execution loop.
    :func:`~repro.runtime.backends._worker_init` opens the node's
    artifact store, warms the scenario registry, freezes the GC and
    ignores SIGINT; then each ``("chunk", id, wire, telemetry_ctx)``
    frame runs through
    :func:`~repro.runtime.backends.execute_wire_chunk_keys` and is
    answered with ``("done", id, ok, payload, sealed_keys, njobs)``.
    While a chunk executes, a heartbeat thread sends ``("hb", id)``
    about once a second so the parent can tell *slow* from *dead*.
``sync``
    The artifact plane.  One per node: serves the HAVE/PUT/FETCH
    frames of :mod:`repro.runtime.sync` against the node's store, and
    skips the scenario warm-up (it never executes jobs).

Shutdown semantics (the part chaos recovery leans on): EOF on the
socket is the parent's clean shutdown signal — exit 0.  SIGTERM means
the *node* is being taken down: an idle worker exits immediately, a
busy one finishes the chunk in hand, flushes its done frame, and only
then exits — either way with status 143 (128+SIGTERM), so a killed
node is distinguishable from a crashed job.  A job that raises is not
a worker death at all: the reply carries ``ok=False`` with the
traceback and the worker lives on.

Runner code is resolved by reference inside the chunk executor, so
this module stays ignorant of what the jobs *are* — the property that
lets the identical entry point run on a different machine.
"""

from __future__ import annotations

import argparse
import os
import signal
import socket
import sys
import threading
import traceback

from .backends import (
    AUTH_TOKEN_BYTES,
    PROTOCOL_VERSION,
    BackendBroken,
    _worker_init,
    execute_wire_chunk_keys,
    recv_frame,
    send_frame,
)
from .sync import (
    SyncError,
    artifacts_frame,
    decode_sync,
    have_frame,
)

EXIT_SIGTERM = 143  # 128 + SIGTERM: "node taken down", not "job crashed"

# While executing a chunk, heartbeat this often.  Far below the
# parent's silence timeout, so a healthy-but-slow chunk never looks
# like a dead worker.
_HEARTBEAT_INTERVAL_S = 1.0


class _Terminated(Exception):
    """SIGTERM arrived while the worker was idle."""


class _TermState:
    """SIGTERM bookkeeping: raise immediately when idle, defer to the
    end of the in-flight chunk (after its done frame is flushed) when
    busy."""

    def __init__(self) -> None:
        self.busy = False
        self.pending = False

    def handler(self, signum, frame) -> None:  # noqa: ARG002
        self.pending = True
        if not self.busy:
            raise _Terminated


class _Heartbeat:
    """Sends ``("hb", chunk_id)`` once a second while a chunk is in
    flight.  Sharing the connection's send lock with the main loop
    keeps heartbeat and done frames from interleaving mid-frame."""

    def __init__(self, conn: socket.socket, send_lock: threading.Lock):
        self._conn = conn
        self._send_lock = send_lock
        self._cond = threading.Condition()
        self._chunk: int | None = None
        self._stop = False
        self._thread = threading.Thread(
            target=self._run, name="repro-worker-hb", daemon=True)
        self._thread.start()

    def begin(self, chunk_id: int) -> None:
        with self._cond:
            self._chunk = chunk_id
            self._cond.notify()

    def end(self) -> None:
        with self._cond:
            self._chunk = None

    def stop(self) -> None:
        with self._cond:
            self._stop = True
            self._cond.notify()

    def _run(self) -> None:
        while True:
            with self._cond:
                while self._chunk is None and not self._stop:
                    self._cond.wait()
                if self._stop:
                    return
                self._cond.wait(timeout=_HEARTBEAT_INTERVAL_S)
                if self._stop:
                    return
                chunk = self._chunk
                if chunk is None:
                    continue
            try:
                with self._send_lock:
                    send_frame(self._conn, ("hb", chunk))
            except OSError:
                return  # connection gone; the main loop notices too


def _connect(host: str, port: int, node: str, role: str,
             token: bytes) -> socket.socket:
    conn = socket.create_connection((host, port))
    try:
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    except OSError:  # pragma: no cover - platform quirk, latency only
        pass
    conn.sendall(token)
    send_frame(conn, {"pid": os.getpid(), "proto": PROTOCOL_VERSION,
                      "node": node, "role": role})
    return conn


def serve(host: str, port: int, store_root: str | None, token: bytes,
          node: str = "", role: str = "worker") -> int:
    if role == "sync":
        return serve_sync(host, port, store_root, token, node)
    # Install the SIGTERM handler before anything observable happens
    # (the hello frame in particular): from the parent's point of view
    # a connected worker is *always* one that exits 143 on SIGTERM.
    term = _TermState()
    try:
        signal.signal(signal.SIGTERM, term.handler)
    except (ValueError, OSError):  # pragma: no cover - non-main thread
        pass
    conn = None
    heartbeat = None
    try:
        _worker_init(store_root or None)
        conn = _connect(host, port, node, "worker", token)
        send_lock = threading.Lock()
        heartbeat = _Heartbeat(conn, send_lock)
        while True:
            try:
                frame = recv_frame(conn)
            except (BackendBroken, OSError):
                return 0  # parent closed the connection: clean shutdown
            if not (isinstance(frame, tuple) and frame
                    and frame[0] == "chunk"):
                return 0
            _tag, chunk_id, wire, telemetry_ctx = frame
            term.busy = True
            heartbeat.begin(chunk_id)
            try:
                try:
                    payload, keys, njobs = execute_wire_chunk_keys(
                        wire, telemetry_ctx)
                    reply = ("done", chunk_id, True, payload, keys, njobs)
                except _Terminated:  # pragma: no cover - tiny race
                    return EXIT_SIGTERM
                except Exception:  # noqa: BLE001 - report, don't die
                    reply = ("done", chunk_id, False,
                             traceback.format_exc(), [], 0)
                heartbeat.end()
                try:
                    with send_lock:
                        send_frame(conn, reply)
                except (OSError, BackendBroken):
                    return 0
            finally:
                heartbeat.end()
                term.busy = False
            if term.pending:
                return EXIT_SIGTERM
    except _Terminated:
        return EXIT_SIGTERM
    finally:
        if heartbeat is not None:
            heartbeat.stop()
        if conn is not None:
            conn.close()


def serve_sync(host: str, port: int, store_root: str | None,
               token: bytes, node: str = "") -> int:
    """The node's artifact-plane endpoint: HAVE/PUT/FETCH against the
    node store.  Every reply op is fixed by the request op, and any
    malformed frame ends the process — the parent treats a broken sync
    channel as a transport failure and re-routes, never guesses."""
    from ..pipeline import ArtifactStore

    term = _TermState()
    try:
        signal.signal(signal.SIGTERM, term.handler)
    except (ValueError, OSError):  # pragma: no cover - non-main thread
        pass
    conn = None
    try:
        store = ArtifactStore(store_root or None)
        conn = _connect(host, port, node, "sync", token)
        while True:
            try:
                frame = recv_frame(conn)
            except (BackendBroken, OSError):
                return 0
            if not (isinstance(frame, tuple) and len(frame) == 2
                    and frame[0] == "sync"):
                return 0
            try:
                op, payload = decode_sync(frame[1])
                if op == "HAVE":
                    held = [k for k in payload if store.raw_get(k)[0]]
                    reply = have_frame(held)
                elif op == "PUT":
                    for key, blob in payload.items():
                        store.put_encoded(key, blob,
                                          meta={"stage": "sync"})
                    reply = artifacts_frame({})
                elif op == "FETCH":
                    blobs = {}
                    for key in payload:
                        found, blob = store.raw_get(key)
                        if found:
                            blobs[key] = blob
                    reply = artifacts_frame(blobs)
                else:
                    return 1
            except (SyncError, OSError):
                return 1
            try:
                send_frame(conn, ("sync", reply))
            except (OSError, BackendBroken):
                return 0
    except _Terminated:
        return EXIT_SIGTERM
    finally:
        if conn is not None:
            conn.close()


def main(argv: list | None = None) -> int:
    parser = argparse.ArgumentParser(prog="repro.runtime.worker")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--store-root", default=None)
    parser.add_argument("--node", default="")
    parser.add_argument("--role", choices=("worker", "sync"),
                        default="worker")
    args = parser.parse_args(argv)
    # The token arrives on stdin, never in argv: other local users can
    # read a process's command line.
    token = sys.stdin.buffer.read(AUTH_TOKEN_BYTES)
    if len(token) != AUTH_TOKEN_BYTES:
        print("repro.runtime.worker: no authentication token on stdin",
              file=sys.stderr)
        return 2
    return serve(args.host, args.port, args.store_root, token,
                 node=args.node, role=args.role)


if __name__ == "__main__":
    sys.exit(main())
