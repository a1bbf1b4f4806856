"""``repro.runtime`` — the unified execution runtime.

One scheduler, one process backend, generic jobs: every bulk workload
in the repo (validation sweeps, invariant checks, golden regeneration,
scenario fuzzing) drives through this package, and all of them produce
byte-identical output for every ``workers`` and ``hosts``.  See
``docs/RUNTIME.md`` for the job lifecycle and the backend.

Layering (lowest first):

``job``
    :class:`Job` / :class:`JobResult` — the unit of work and its wire
    result; runner references; the job-kind registry.
``backends``
    The error taxonomy, wire framing and protocol constants, and the
    worker-side state and chunk executor.
``sync`` / ``hosts``
    The multi-node substrate: FETCH/HAVE artifact-sync frames, and
    host inventory (``--hosts a:4,b:8`` / TOML) with the
    :class:`WorkerLauncher` bootstrap interface.
``remote``
    :class:`RemoteBackend` — the worker processes (work-stealing
    dispatch, token-authenticated connections, heartbeats,
    re-dispatch, fingerprint-keyed artifact sync), as one local
    pseudo-host for ``workers=N`` or the fleet ``hosts`` describes.
``scheduler``
    :class:`Scheduler` — work-stealing chunking, ordering, caching,
    retry, rehydration, interrupt teardown.
``session``
    :class:`RuntimeSession` — per-invocation wiring of pipeline,
    scheduler, progress and run ledger for the CLI.
"""

from .backends import (
    BackendBroken,
    BackendUnavailable,
    execute_wire_chunk_keys,
    worker_store,
)
from .hosts import (
    HostSpec,
    HostsError,
    LocalLauncher,
    SshLauncher,
    WorkerLauncher,
    launcher_for,
    load_hosts_file,
    parse_hosts,
)
from .job import (
    Job,
    JobResult,
    JobTransportError,
    ResultEnvelope,
    TransportFailure,
    register_job_kind,
    registered_job_kinds,
    resolve_runner,
    runner_ref,
)
from .remote import RemoteBackend
from .scheduler import (
    CHUNK_THRESHOLD,
    JobFuture,
    Scheduler,
    default_workers,
    resolve_hosts,
)
from .session import (
    ExecutionConfig,
    RuntimeSession,
    command_ledger_record,
    shared_pipeline,
)
from .sync import (
    SyncError,
    decode_sync,
    encode_sync,
)

__all__ = [
    "BackendBroken",
    "BackendUnavailable",
    "CHUNK_THRESHOLD",
    "ExecutionConfig",
    "HostSpec",
    "HostsError",
    "Job",
    "JobFuture",
    "JobResult",
    "JobTransportError",
    "LocalLauncher",
    "RemoteBackend",
    "ResultEnvelope",
    "RuntimeSession",
    "Scheduler",
    "SshLauncher",
    "SyncError",
    "TransportFailure",
    "WorkerLauncher",
    "command_ledger_record",
    "decode_sync",
    "default_workers",
    "encode_sync",
    "execute_wire_chunk_keys",
    "launcher_for",
    "load_hosts_file",
    "parse_hosts",
    "register_job_kind",
    "registered_job_kinds",
    "resolve_hosts",
    "resolve_runner",
    "runner_ref",
    "shared_pipeline",
    "worker_store",
]
