"""The scheduler: deterministic, order-preserving job execution.

Everything backend-agnostic lives here — the logic that used to be
interleaved with trial code in ``validation/parallel.py``:

* **cache-first submission** — fingerprinted jobs are looked up in a
  :class:`~repro.pipeline.Pipeline` (the caller's cache, else a scratch
  store kept for the scheduler's lifetime) before they are submitted;
  a hit is one existence check and never touches the backend, its
  artifact is decoded on the first ``result()``, and computed results
  are stored as they land;
* **one dispatch queue** — every job that missed the cache goes
  straight into the backend's FIFO queue, one job per round trip,
  longest ``cost_hint`` first (ties keep submission order); workers
  pull the next job as they free up, so the tail balances job by job;
* **ordering guarantees** — futures align index-for-index with the
  submitted batch, and results are read in submission order, never in
  completion order;
* **retry on backend break** — a dead worker fleet drops the
  scheduler to in-process execution of the affected jobs (and every
  later submission) with the reason recorded, never a wrong result;
  a job the backend dropped unrun at shutdown is recomputed in the
  parent if anyone reads it;
* **result rehydration** — envelopes coming back from workers are
  decoded from the memo store (or fetched from the node that sealed
  them) with digest verification, and any integrity problem falls
  back to recomputation;
* **interrupt teardown** — a ``KeyboardInterrupt`` while gathering
  results drops the jobs still queued and shuts the backend down
  cleanly before propagating (the CLI turns it into exit 130).

The determinism contract is inherited from the jobs themselves: for
any worker count, any hosts, and every fallback path, results are
byte-identical to serial execution because every job is executed by
the same pure runner with the same payload, the codec round-trip is
exact, and results are reassembled in submission order.  The only
freedom the workers have is *wall-clock* completion order, which is
never observed.

:class:`Scheduler` exposes the generic surface (``submit_jobs`` /
``map_jobs``); workload-specific executors — e.g.
:class:`repro.validation.parallel.TrialExecutor` — subclass it and add
typed submission methods that build :class:`~repro.runtime.job.Job`
objects.
"""

from __future__ import annotations

import os
import pickle
import shutil
import tempfile
import time
import weakref
from concurrent.futures import CancelledError, Future
from dataclasses import replace
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..obs.registry import MetricsRegistry
from ..obs.telemetry import SweepProgress, SweepTelemetry, unpack_spans
from ..pipeline import ArtifactStore, Pipeline, codec
from .backends import BackendBroken, BackendUnavailable
from .hosts import HostSpec, load_hosts_file, parse_hosts
from .job import Job, JobResult, ResultEnvelope, resolve_runner
from .remote import RemoteBackend

__all__ = [
    "JobFuture",
    "Scheduler",
    "default_workers",
    "resolve_hosts",
]


def default_workers() -> int:
    """Worker count used when the caller does not pin one."""
    return os.cpu_count() or 1


def _local_width(workers: int) -> int:
    """How many local workers ``workers`` starts: at most core count
    + 1.  Oversubscription cannot finish CPU-bound jobs sooner — it
    only time-slices them, which *stretches the longest job* (the
    sweep's critical path) while cheap work drains around it.  One
    worker beyond the core count soaks up the slack whenever a sibling
    blocks on store I/O (the ``make -j N+1`` rule)."""
    return max(1, min(workers, (os.cpu_count() or workers) + 1))


def resolve_hosts(hosts: Union[str, Sequence[HostSpec], None]
                  ) -> Optional[List[HostSpec]]:
    """Normalize a ``hosts`` argument: ``None`` stays ``None``, a list
    of specs passes through, a string is either a TOML hosts-file path
    (ends in ``.toml`` or starts with ``@``) or an inline ``a:4,b:8``
    expression."""
    if hosts is None:
        return None
    if isinstance(hosts, str):
        text = hosts.strip()
        if text.startswith("@"):
            return load_hosts_file(Path(text[1:]))
        if text.endswith(".toml"):
            return load_hosts_file(Path(text))
        return parse_hosts(text)
    return list(hosts)


def _stamp_sweep(payload: Any, sweep_id: str) -> Any:
    """Stamp a sweep id onto a wire payload that wants one (has a
    ``sweep_id`` field currently ``None``).  Generic so any job kind's
    worker-side spans can carry the sweep they belong to."""
    if getattr(payload, "sweep_id", False) is None:
        try:
            return replace(payload, sweep_id=sweep_id)
        except TypeError:
            return payload
    return payload


def run_job_inline(job: Job) -> Any:
    """Execute a job in the current process (the serial / fallback
    path): resolve its runner and apply it to the in-process payload."""
    return resolve_runner(job.runner)(job.payload)


class JobFuture:
    """Result handle for one submitted job.

    In serial mode the job runs lazily on the first ``result()`` call;
    on the workers it decodes the job's reply frame from the backend
    future and — if the backend broke, dropped the job unrun at
    shutdown, the job would not pickle, or an envelope cannot be
    rehydrated — recomputes the job in-process (recording why on the
    scheduler).  Either way ``result()`` returns exactly what
    ``runner(payload)`` returns, so the fallback paths cannot change
    any result.

    A *found* future is a hit: its artifact was found in ``pipeline``'s
    store at submission and is decoded on the first ``result()``.  One
    that no longer decodes is dropped and the job recomputed
    in-process, after ``prepare`` (see :meth:`Scheduler.submit_jobs`)
    completes its payload.  Any other future with a ``pipeline``
    accounts the computed result under the job's fingerprint the
    moment it lands — before the caller can mutate it; so does a found
    one that was recomputed (a miss).  ``store_key``, when set, names
    the shared-store artifact holding this result (callers use it to
    pass bulk inputs to downstream jobs by reference).
    """

    _UNSET = object()

    def __init__(self, job: Job, future: Optional[Future] = None,
                 scheduler: Optional["Scheduler"] = None,
                 pipeline: Optional[Pipeline] = None,
                 store_key: Optional[str] = None, found: bool = False,
                 prepare: Optional[Callable[[Job], Job]] = None):
        self.job = job
        self._future = future
        self._scheduler = scheduler
        self._result = self._UNSET
        self._pipeline = pipeline
        self.store_key = store_key
        self._found = found
        self._prepare = prepare

    def result(self):
        try:
            return self._resolve()
        except KeyboardInterrupt:
            # Ctrl-C while gathering: drop the queued jobs and tear the
            # backend down cleanly before propagating (the CLI maps
            # this to exit 130).
            if self._scheduler is not None:
                self._scheduler.cancel()
            raise

    def _resolve(self):
        if self._result is not self._UNSET:
            return self._result
        sched = self._scheduler
        value = self._UNSET
        stored_remotely = False
        recompute = self._future is not None
        if self._found:
            found, value = self._pipeline.load(self.job.fingerprint,
                                               stage=self.job.kind)
            if found:
                self._result = value
                return value
            # Found at submission, but it no longer decodes (and was
            # dropped): recompute it below, which logs the miss.
            value, recompute = self._UNSET, True
            if self._prepare is not None:
                self.job = self._prepare(self.job)
        item = self._reply() if self._future is not None else None
        if item is None:
            pass
        elif item.failure is not None:
            sched._note_fallback(f"worker transport: {item.failure.reason}")
        elif item.envelope is not None:
            value = self._rehydrate(item.envelope)
            if value is not self._UNSET:
                self.store_key = item.envelope.key
                # The envelope is the stored result only if it landed
                # in this future's pipeline store (not if a cache
                # replaced the scratch store mid-run).
                stored_remotely = (
                    self._pipeline is not None
                    and item.envelope.key == self.job.fingerprint
                    and self._pipeline.store is sched._ipc_store)
        elif item.has_value:
            value = item.value
        if value is self._UNSET:
            telemetry = sched.telemetry
            if telemetry is not None:
                tok = telemetry.begin()
                value = run_job_inline(self.job)
                telemetry.end(tok, self.job.kind, self.job.span_label(),
                              fallback=recompute)
            else:
                value = run_job_inline(self.job)
            if not recompute and sched.progress is not None:
                sched.progress.completed()
        self._result = value
        if self._pipeline is not None:
            if stored_remotely:
                # The worker already wrote the artifact into the
                # pipeline's own store; just account for the miss.
                self._pipeline.record_remote(self.job.fingerprint,
                                             stage=self.job.kind)
            else:
                self._pipeline.store_result(self.job.fingerprint, value,
                                            stage=self.job.kind)
        return self._result

    def _reply(self) -> Optional[JobResult]:
        """Decode the worker's reply frame: the job's
        :class:`JobResult`, with the worker's stage spans merged into
        the sweep timeline.  ``None`` when the backend did not run the
        job: it broke, or shutdown dropped the job from its queue."""
        sched = self._scheduler
        try:
            raw = self._future.result()
            sched.metrics.counter("executor.ipc_bytes_recv").inc(len(raw))
            item, spans_blob = pickle.loads(raw)
        except CancelledError:
            sched._note_fallback("cancelled: the backend shut down with "
                                 "the job still queued")
            return None
        except (BackendBroken, pickle.PickleError, OSError) as exc:
            sched._mark_broken(exc)
            return None
        if spans_blob is not None and sched.telemetry is not None:
            try:
                sched.telemetry.extend(unpack_spans(codec.decode(spans_blob)))
            except codec.CodecError:
                pass  # telemetry loss must never fail a job
        return item

    def _rehydrate(self, env: ResultEnvelope):
        """Decode an envelope's artifact from the memo store; on any
        integrity problem return ``_UNSET`` so the caller recomputes.

        On a ``--hosts`` fleet the parent store starts *empty* — the
        artifact was sealed into the executing node's private store —
        so a miss first goes through the backend's fingerprint-keyed
        ``fetch_artifact`` (FETCH frames, parent-store dedup) before
        falling back to recomputation."""
        sched = self._scheduler
        store = sched._ipc_store if sched is not None else None
        if store is None:
            return self._UNSET
        t0 = time.perf_counter_ns()
        found, blob = store.raw_get(env.key)
        backend = sched._backend
        if not found and backend is not None:
            fetched = backend.fetch_artifact(env.key, env.digest)
            if fetched is not None:
                found, blob = True, fetched
        if not found or codec.content_digest(blob) != env.digest:
            sched._note_fallback(f"envelope {env.key[:12]}...: artifact "
                                 f"missing or digest mismatch")
            return self._UNSET
        try:
            value = codec.decode_gz(blob)
        except codec.CodecError as exc:
            sched._note_fallback(f"envelope {env.key[:12]}...: {exc}")
            return self._UNSET
        elapsed = time.perf_counter_ns() - t0
        metrics = sched.metrics
        metrics.counter("executor.rehydrate_ns").inc(elapsed)
        metrics.counter("executor.envelope_count").inc()
        metrics.counter("executor.artifact_bytes").inc(env.nbytes)
        metrics.counter("executor.encode_ns").inc(env.encode_ns)
        if sched.telemetry is not None:
            sched.telemetry.point("rehydrate", self.job.span_label(),
                                  dur=elapsed, nbytes=env.nbytes)
        return value


class Scheduler:
    """Order-preserving job execution over worker processes.

    Two arguments choose everything.  ``workers=1`` runs every job
    inline, in this process.  ``workers=N`` (``None`` sizes it to the
    machine) starts ``min(N, cores + 1)`` local worker processes — one
    :class:`~repro.runtime.remote.RemoteBackend` pseudo-host that shares
    the memo store below.  ``hosts`` (an ``"a:4,b:8"`` expression, a
    TOML hosts-file path, or a prepared
    :class:`~repro.runtime.hosts.HostSpec` list) runs the fleet it
    describes instead, uncapped, with private node stores and the
    FETCH/HAVE sync plane.  A backend that cannot start (restricted
    sandboxes, no sockets) degrades to inline execution of the very
    same runner calls.  ``submit_jobs`` returns futures aligned
    index-for-index with the batch; ``map_jobs`` reads them in
    submission order regardless of completion order — which is what
    makes parallel runs bit-identical to serial ones.

    Usable as a context manager; the backend is created lazily on the
    first parallel submission and reused across phases and batches so
    worker startup is paid once per run, not once per phase.

    Fingerprinted jobs are looked up at submission time and computed
    results are stored as they land — in ``pipeline`` (the caller's
    cache) when one is attached, else in a scratch store made on first
    use and removed by :meth:`shutdown` — so a job repeated on one
    scheduler runs once.  A hit is only found at submission; its
    artifact is decoded when its future is first read (the scratch
    store's hits still held are decoded before :meth:`shutdown`
    removes it).  Local workers open this same store, so their
    envelope write is the stored result.  Caching cannot change
    results: artifacts are keyed by the same inputs that determine the
    job's output, and cached values round-trip through the binary codec
    so callers get fresh copies.

    Every degradation (broken backend, unpicklable job, job dropped
    unrun at shutdown, unreadable envelope) is counted in
    :attr:`metrics` and the first reason kept
    in :attr:`fallback_reason` — the scheduler never falls back
    silently.
    """

    def __init__(self, workers: Optional[int] = None,
                 pipeline: Optional[Pipeline] = None,
                 hosts: Union[str, Sequence[HostSpec], None] = None):
        self.hosts = resolve_hosts(hosts)
        if self.hosts is not None:
            # The fleet defines the width, uncapped.
            self.workers = sum(h.workers for h in self.hosts)
        else:
            self.workers = _local_width(default_workers() if workers is None
                                        else max(1, int(workers)))
        self.pipeline = pipeline
        self.metrics = MetricsRegistry()
        self.fallback_reason: Optional[str] = None
        # Every distinct fallback reason, in first-seen order (capped);
        # `fallback_reason` keeps only the first for compatibility.
        self.fallback_reasons: List[str] = []
        self.pool_broken = False
        # Sweep-scope hooks: a SweepTelemetry makes workers ship stage
        # spans back with each job; a SweepProgress gets completion
        # events.  Both None by default — the zero-cost path.
        self.telemetry: Optional[SweepTelemetry] = None
        self.progress: Optional[SweepProgress] = None
        self.metrics.add_collector(self._memo_metrics, key="pipeline")
        self._backend: Optional[RemoteBackend] = None
        # workers=1 runs serially — except on a fleet, where even one
        # worker exercises the wire protocol.
        self._serial_fallback = self.workers <= 1 and self.hosts is None
        self._transport_used = "serial"
        # The pipeline over the scratch directory (see _memo), and the
        # store the running backend's workers write envelopes into.
        self._scratch: Optional[Pipeline] = None
        # Hits found in the scratch store, held weakly (one nobody
        # holds will never be read); shutdown decodes them first.
        self._scratch_hits: "weakref.WeakSet[JobFuture]" = weakref.WeakSet()
        self._ipc_store: Optional[ArtifactStore] = None
        self._seq = 0
        self._backend_stats: Optional[Dict[str, Any]] = None

    # -- lifecycle ------------------------------------------------------
    def __enter__(self) -> "Scheduler":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()

    def shutdown(self) -> None:
        self._close_backend()
        self._ipc_store = None
        if self._scratch is not None:
            # Decode the scratch hits someone still holds while their
            # artifacts exist, so they stay readable.
            for future in list(self._scratch_hits):
                future.result()
            shutil.rmtree(self._scratch.store.root, ignore_errors=True)
            self._scratch = None

    def _memo(self) -> Pipeline:
        """The pipeline fingerprinted jobs resolve through: the
        caller's cache, else the scratch store, made on first use."""
        if self.pipeline is not None:
            return self.pipeline
        if self._scratch is None:
            self._scratch = Pipeline(tempfile.mkdtemp(prefix="repro-ipc-"))
        return self._scratch

    def _memo_metrics(self) -> Dict[str, float]:
        """Snapshot-time collector: the memo's hit/miss accounting."""
        memo = self.pipeline if self.pipeline is not None else self._scratch
        return memo.collector()() if memo is not None else {}

    def cancel(self) -> None:
        """Interrupt teardown: stop submitting, drop the jobs still
        queued, and shut the backend down cleanly.  Jobs already
        running in a worker finish (workers ignore SIGINT); a dropped
        job that is read anyway is recomputed in the parent."""
        self._serial_fallback = True
        self._close_backend()

    def _close_backend(self) -> None:
        # cancel=True: every pending job sits in the backend's queue,
        # and a plain shutdown would run them all before its workers
        # reached the stop sentinels.
        backend, self._backend = self._backend, None
        if backend is not None:
            self._backend_stats = backend.stats()
            backend.shutdown(cancel=True)

    def _mark_broken(self, exc: Optional[BaseException] = None) -> None:
        """Drop to serial for every later submission (backend died)."""
        reason = "process pool broke"
        if exc is not None:
            if isinstance(exc, BackendBroken):
                reason = str(exc)
            else:
                reason = f"process pool broke: {type(exc).__name__}: {exc}"
        self.pool_broken = True
        self._note_fallback(reason)
        self._serial_fallback = True
        self._close_backend()

    def _note_fallback(self, reason: str) -> None:
        """Count one in-process fallback; keep every distinct reason."""
        self.metrics.counter("executor.serial_fallbacks").inc()
        if self.fallback_reason is None:
            self.fallback_reason = reason
        if reason not in self.fallback_reasons \
                and len(self.fallback_reasons) < 16:
            self.fallback_reasons.append(reason)
        if self.telemetry is not None:
            self.telemetry.point("fallback", reason)

    @property
    def effective_workers(self) -> int:
        """1 when running serially, else the width of the workers
        started (or to be started)."""
        return 1 if self._serial_fallback else self.workers

    @property
    def transport_used(self) -> str:
        """``"serial"`` until workers carry work, then the backend's
        name."""
        return self._transport_used

    def transport_stats(self) -> Dict[str, Any]:
        """Snapshot of the scheduler's data-plane counters.  The
        backend's own accounting (per-node contribution, redispatches,
        artifact-sync volume) appears under ``"backend"``; the snapshot
        survives backend shutdown."""
        metrics = self.metrics
        backend_stats = self._backend_stats
        if self._backend is not None:
            backend_stats = self._backend.stats()
        stats_dict = {
            "transport": self._transport_used,
            "workers": self.effective_workers,
            "envelope_count":
                metrics.counter("executor.envelope_count").value,
            "ipc_bytes_sent":
                metrics.counter("executor.ipc_bytes_sent").value,
            "ipc_bytes_recv":
                metrics.counter("executor.ipc_bytes_recv").value,
            "artifact_bytes":
                metrics.counter("executor.artifact_bytes").value,
            "encode_ns": metrics.counter("executor.encode_ns").value,
            "rehydrate_ns": metrics.counter("executor.rehydrate_ns").value,
            "dispatch_ns": metrics.counter("executor.dispatch_ns").value,
            "serial_fallbacks":
                metrics.counter("executor.serial_fallbacks").value,
            "fallback_reason": self.fallback_reason,
            "fallback_reasons": list(self.fallback_reasons),
            "pool_broken": self.pool_broken,
        }
        if backend_stats is not None:
            stats_dict["backend"] = backend_stats
        return stats_dict

    # -- execution ------------------------------------------------------
    def submit_job(self, job: Job) -> JobFuture:
        """Queue one job; its result is read with ``.result()``."""
        return self.submit_jobs([job])[0]

    def submit_jobs(self, jobs: Sequence[Job],
                    prepare: Optional[Callable[[Job], Job]] = None
                    ) -> List[JobFuture]:
        """Submit a batch: cache lookups first, then every other job
        onto the backend's queue, longest first.

        ``prepare``, when given, completes a job that has to execute —
        it missed the cache here, or its cached artifact turns out not
        to decode when read — and returns the job to run in its place
        (same fingerprint).  A batch can so leave out inputs that only
        execution needs.

        Submission order affects only wall time (short jobs fill the
        tail of the schedule); the returned futures align
        index-for-index with ``jobs``.
        """
        return self._submit_jobs(list(jobs), prepare)

    def _submit_jobs(self, jobs: List[Job],
                     prepare: Optional[Callable[[Job], Job]] = None
                     ) -> List[JobFuture]:
        if self.progress is not None:
            self.progress.add_total(len(jobs))
        futures: List[Optional[JobFuture]] = [None] * len(jobs)
        pending: List[Tuple[int, Job, Optional[Pipeline]]] = []
        for i, job in enumerate(jobs):
            memo = None
            if job.fingerprint is not None:
                memo = self._memo()
                if memo.find(job.fingerprint, stage=job.kind):
                    skey = (job.fingerprint
                            if memo.store.root is not None else None)
                    future = JobFuture(job, scheduler=self, pipeline=memo,
                                       store_key=skey, found=True,
                                       prepare=prepare)
                    if memo is self._scratch:
                        self._scratch_hits.add(future)
                    futures[i] = future
                    if self.telemetry is not None:
                        self.telemetry.point("cache_hit", job.span_label())
                    if self.progress is not None:
                        self.progress.cache_hit()
                    continue
            if prepare is not None:
                job = prepare(job)
            pending.append((i, job, memo))
        if not pending:
            return futures
        backend = self._ensure_backend()
        if self.progress is not None:
            self.progress.set_workers(self.effective_workers)
        if backend is None:
            for i, job, memo in pending:
                futures[i] = JobFuture(job, scheduler=self, pipeline=memo)
            return futures
        # The backend's queue is FIFO and workers pull from it as they
        # free up, so this (stable) order is the order jobs start in.
        pending.sort(key=lambda entry: -entry[1].cost_hint)
        # This thread's CPU time: the backend's dispatcher threads start
        # sending as soon as a job is queued, and the time this thread
        # waits for them to release the GIL is not dispatch work.
        t0 = time.thread_time_ns()
        for i, job, memo in pending:
            futures[i] = JobFuture(job, self._dispatch(job), scheduler=self,
                                   pipeline=memo)
        self.metrics.counter("executor.dispatch_ns").inc(
            time.thread_time_ns() - t0)
        return futures

    def map_jobs(self, jobs: Sequence[Job]) -> List:
        """Execute all jobs; results align index-for-index with jobs.

        Always routed through :meth:`submit_jobs` (even for one job or
        in serial mode, where futures resolve lazily in order) so cache
        lookups and stores apply uniformly.
        """
        return [f.result() for f in self.submit_jobs(list(jobs))]

    def _dispatch(self, job: Job) -> Optional[Future]:
        """Frame one job and put it on the backend's queue.  ``None``
        runs the job in the parent instead: it would not pickle (not
        fatal), or the backend is gone or refused it (a refusal marks
        the backend broken, so the rest of the batch stays inline)."""
        backend = self._backend
        if backend is None:
            return None
        telemetry = self.telemetry
        payload = job.for_wire()
        if telemetry is not None:
            payload = _stamp_sweep(payload, telemetry.sweep_id)
        # The store key a worker seals a bulk result under.
        key = job.fingerprint
        if key is None:
            key = f"ipc:{self._seq:08d}"
            self._seq += 1
        try:
            blob = pickle.dumps((job.runner, job.kind, job.span_label(),
                                 payload, key),
                                protocol=pickle.HIGHEST_PROTOCOL)
        except (pickle.PickleError, TypeError, AttributeError) as exc:
            self._note_fallback(
                f"spec not picklable: {type(exc).__name__}: {exc}")
            return None
        telemetry_ctx = None
        if telemetry is not None:
            telemetry_ctx = (telemetry.sweep_id, time.time_ns())
        refs = tuple(dict.fromkeys(r for r in job.input_refs if r))
        try:
            future = backend.submit_chunk(blob, telemetry_ctx, refs)
        except (BackendBroken, OSError) as exc:
            self._mark_broken(exc)
            return None
        self.metrics.counter("executor.ipc_bytes_sent").inc(len(blob))
        self._transport_used = backend.name
        future.add_done_callback(self._job_done)
        return future

    def _job_done(self, _future: Future) -> None:
        """Done-callback (runs on a backend thread): report progress."""
        if self.progress is not None:
            self.progress.completed()

    def _make_backend(self) -> RemoteBackend:
        return RemoteBackend(self.hosts, workers=self.workers)

    def _ensure_backend(self) -> Optional[RemoteBackend]:
        if self._serial_fallback:
            return None
        if self._backend is None:
            # Workers seal bulk results into the memo's store under the
            # job's fingerprint (on a fleet, into node stores the parent
            # fetches from).  A memory-only cache has no directory to
            # share; results then ride the reply frames.
            self._ipc_store = self._memo().store
            store_root = (str(self._ipc_store.root)
                          if self._ipc_store.root is not None else None)
            backend = self._make_backend()
            try:
                backend.start(store_root)
            except BackendUnavailable as exc:
                self._note_fallback(str(exc))
                self._serial_fallback = True
                return None
            self._backend = backend
        return self._backend
