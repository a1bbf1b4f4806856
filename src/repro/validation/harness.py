"""Live-vs-modulated validation harness (§4, §5).

For each (scenario, benchmark) pair the paper's protocol is:

1. run four **live trials** of the benchmark over the real (here:
   simulated) WaveLAN network while traversing the scenario;
2. **collect four traces** of the same traversal with the modified ping
   workload, interleaved with the trials;
3. **distill** each trace into a replay trace;
4. run one **modulated trial** of the benchmark over each distilled
   trace on the isolated Ethernet;
5. compare real vs. modulated means against the sum of the standard
   deviations.

The delay-compensation constant is measured once per testbed (§3.3)
and shared by every modulated run.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

from ..analysis.stats import Summary, sigma_distance, within_sigma_sum
from ..apps.andrew import AndrewBenchmark
from ..apps.ftp import FtpClient, FtpServer
from ..apps.nfs import NfsClient, NfsServer
from ..apps.ping import ModifiedPing
from ..apps.synrgen import SynRGenUser
from ..apps.web import WebBrowser, WebServer
from ..core.collection import trace_collection_run
from ..core.compensation import measure_modulation_network
from ..core.distill import DistillationResult, Distiller
from ..core.modulator import install_modulation
from ..core.replay import ReplayTrace
from ..hosts.worlds import LiveWorld, ModulationWorld, SERVER_ADDR
from ..obs import ObsConfig, attach_observability
from ..scenarios.base import Scenario
from ..sim.rng import derive_seed
from ..workloads.webtraces import all_user_traces, object_catalog

BENCH_START = 1.0          # benchmarks start shortly into the traversal
MAX_SIM_TIME = 2400.0      # hard cap on any single trial
RUN_CHUNK = 20.0           # polling granularity while waiting for a trial
TRACE_TRIAL_OFFSET = 100   # trace traversals use distinct trial indices


# ======================================================================
# Benchmark runners
# ======================================================================
class BenchmarkRunner:
    """One of the paper's three benchmarks, harness-pluggable."""

    name: str = "benchmark"
    metrics: tuple = ()

    def cache_token(self) -> Dict[str, Any]:
        """Deterministic identity for pipeline fingerprints.

        Subclasses with constructor parameters that change behaviour
        must extend this with those parameters.
        """
        return {"runner": type(self).__qualname__, "name": self.name}

    def variants(self) -> list:
        """Independent sub-experiments, each run in its own world.

        FTP send and receive are separate live experiments in the paper
        (each gets its own traversal); benchmarks whose metrics come
        from a single run return just themselves.
        """
        return [self]

    def install_servers(self, world, seed: int) -> None:
        raise NotImplementedError

    def client_body(self, world, seed: int,
                    sink: Dict[str, float]) -> Generator[Any, Any, None]:
        """Generator run on the laptop; writes metrics into ``sink``."""
        raise NotImplementedError


class WebRunner(BenchmarkRunner):
    """Figure 6: replaying five users' web reference traces."""

    name = "web"
    metrics = ("elapsed",)

    def __init__(self, workload_seed: int = 42, users: int = 5,
                 requests_per_user: int = 55):
        self.workload_seed = workload_seed
        self.users = users
        self.requests_per_user = requests_per_user
        self.traces = all_user_traces(workload_seed, users=users,
                                      requests=requests_per_user)

    def cache_token(self) -> Dict[str, Any]:
        token = super().cache_token()
        token.update(workload_seed=self.workload_seed, users=self.users,
                     requests_per_user=self.requests_per_user)
        return token

    def install_servers(self, world, seed: int) -> None:
        WebServer(world.server, object_catalog(self.traces)).start()

    def client_body(self, world, seed: int, sink: Dict[str, float]):
        browser = WebBrowser(world.laptop, SERVER_ADDR)
        result = yield from browser.replay(self.traces)
        sink["elapsed"] = result.elapsed


class FtpRunner(BenchmarkRunner):
    """Figure 7: a 10 MB disk-to-disk transfer in each direction.

    Send and receive are *independent experiments* — each variant runs
    in its own world/traversal, as in the paper, which is what lets
    Figure 7 expose live send/recv asymmetry.
    """

    name = "ftp"

    def __init__(self, nbytes: int = 10 * 1024 * 1024,
                 direction: str = "both"):
        self.nbytes = nbytes
        self.direction = direction
        self.metrics = (("send", "recv") if direction == "both"
                        else (direction,))

    def cache_token(self) -> Dict[str, Any]:
        token = super().cache_token()
        token.update(nbytes=self.nbytes, direction=self.direction)
        return token

    def variants(self) -> list:
        if self.direction == "both":
            return [FtpRunner(self.nbytes, "send"),
                    FtpRunner(self.nbytes, "recv")]
        return [self]

    def install_servers(self, world, seed: int) -> None:
        FtpServer(world.server).start()

    def client_body(self, world, seed: int, sink: Dict[str, float]):
        client = FtpClient(world.laptop, SERVER_ADDR)
        result = yield from client.transfer(self.direction, self.nbytes)
        sink[self.direction] = result.elapsed


class AndrewRunner(BenchmarkRunner):
    """Figure 8: the Andrew benchmark over NFS, cold caches."""

    name = "andrew"
    metrics = ("MakeDir", "Copy", "ScanDir", "ReadAll", "Make", "Total")

    def install_servers(self, world, seed: int) -> None:
        server = ensure_nfs_server(world)
        self.tree = AndrewBenchmark.populate_server(server.fs)

    def client_body(self, world, seed: int, sink: Dict[str, float]):
        client = NfsClient(world.laptop, SERVER_ADDR)
        bench = AndrewBenchmark(client, tree=self.tree)
        result = yield from bench.run()
        sink.update(result.phase_times)


def ensure_nfs_server(world) -> NfsServer:
    """One NFS server per world, shared by Andrew and SynRGen traffic."""
    server = getattr(world, "_nfs_server", None)
    if server is None:
        server = NfsServer(world.server)
        server.start()
        world._nfs_server = server
    return server


# ======================================================================
# Cross traffic (Chatterbox)
# ======================================================================
def setup_cross_traffic(world: LiveWorld, seed: int, duration: float) -> None:
    """Start one SynRGen user per interfering laptop.

    Each trial draws its own user intensities: real SynRGen users were
    "bursty" enough that the paper's Chatterbox results carry very
    large standard deviations (§5.5), so the interference level must
    vary visibly between trials, not just within them.
    """
    import random as _random

    from ..apps.synrgen import SynRGenConfig

    if not world.cross_hosts:
        return
    server = ensure_nfs_server(world)
    rng = _random.Random(derive_seed(seed, "cross-intensity"))
    for i, host in enumerate(world.cross_hosts):
        config = SynRGenConfig(
            think_mean=SynRGenConfig.think_mean * rng.uniform(0.25, 3.0),
            compile_pause=SynRGenConfig.compile_pause * rng.uniform(0.6, 1.6),
            burst_files=rng.randint(3, 9),
            mean_file_bytes=int(SynRGenConfig.mean_file_bytes
                                * rng.uniform(0.6, 2.2)),
        )
        SynRGenUser.populate_server(server.fs, user_id=i, seed=seed,
                                    config=config)
        client = NfsClient(host, SERVER_ADDR)
        user = SynRGenUser(host, client, user_id=i,
                           seed=derive_seed(seed, f"user{i}"),
                           config=config)
        host.spawn(user.run(duration), name=f"synrgen{i}")


# ======================================================================
# Trial execution
# ======================================================================
def _run_until_done(world, proc, cap: float = MAX_SIM_TIME) -> None:
    """Advance the world until ``proc`` completes (or the cap hits)."""
    t = world.sim.now
    while proc.alive and t < cap:
        t = min(cap, t + RUN_CHUNK)
        world.run(until=t)
    if proc.error is not None:
        raise proc.error
    if proc.alive:
        raise RuntimeError(
            f"trial did not complete within {cap:.0f} simulated seconds")


def _profiled_run(wobs, world, proc, cap: float = MAX_SIM_TIME):
    """Run the trial body — under :mod:`cProfile` when the trial's
    :class:`~repro.obs.ObsConfig` asks for it.  Returns the profile's
    top rows (see :func:`repro.obs.telemetry.profile_rows`) or ``None``.

    Profiling observes wall clocks only; the simulated event sequence
    is untouched, so profiled metric values match unprofiled ones.
    """
    if wobs is None or not wobs.config.profile:
        _run_until_done(world, proc, cap=cap)
        return None
    import cProfile

    from ..obs.telemetry import profile_rows

    profiler = cProfile.Profile()
    profiler.enable()
    try:
        _run_until_done(world, proc, cap=cap)
    finally:
        profiler.disable()
    return profile_rows(profiler, top=wobs.config.profile_top)


def _delayed(world, gen) -> Generator[Any, Any, None]:
    from ..sim import Timeout

    yield Timeout(BENCH_START)
    yield from gen


def run_live_trial(scenario: Scenario, runner: BenchmarkRunner, seed: int,
                   trial: int,
                   obs: Optional[ObsConfig] = None,
                   world_out: Optional[Dict[str, Any]] = None
                   ) -> Dict[str, Any]:
    """One live benchmark trial over the scenario's WaveLAN world.

    With ``obs`` set, the returned sink carries the trial's metrics
    record under ``"__obs__"`` alongside the benchmark metrics.
    Attaching observability draws no RNG and schedules nothing, so the
    metric values are identical with or without it.

    ``world_out``, when given, receives the finished ``world`` and its
    ``obs`` handle — the post-trial state ``repro.check``'s invariant
    monitors inspect.  (Only for in-process callers: worlds are not
    picklable, so the parallel harness never uses it.)
    """
    world = scenario.make_live_world(seed, trial)
    wobs = attach_observability(world, obs)
    if world_out is not None:
        world_out["world"] = world
        world_out["obs"] = wobs
    setup_cross_traffic(world, derive_seed(seed, f"cross:{trial}"),
                        duration=MAX_SIM_TIME)
    runner.install_servers(world, seed)
    sink: Dict[str, Any] = {}
    proc = world.laptop.spawn(
        _delayed(world, runner.client_body(world, seed, sink)),
        name=f"{runner.name}-live")
    prof = _profiled_run(wobs, world, proc)
    if wobs is not None:
        extra = {"profile": prof} if prof is not None else {}
        sink["__obs__"] = wobs.record(kind="live", scenario=scenario.name,
                                      benchmark=runner.name, seed=seed,
                                      trial=trial, **extra)
    return sink


def collect_trace(scenario: Scenario, seed: int, trial: int,
                  duration: Optional[float] = None,
                  obs: Optional[ObsConfig] = None,
                  obs_out: Optional[Dict[str, Any]] = None,
                  world_out: Optional[Dict[str, Any]] = None,
                  keep: Optional[Callable[[Any], bool]] = None) -> List:
    """One trace-collection traversal; returns the trace records.

    With ``obs`` set and ``obs_out`` given, the traversal's metrics
    record is placed in ``obs_out["record"]``.  ``world_out`` exposes
    the finished world/obs pair for in-process invariant checking.

    ``keep`` projects the trace as it is drained: only the records it
    accepts are kept (by default, all of them).  With
    :meth:`Distiller.reads <repro.core.distill.Distiller.reads>` the
    traversal distills exactly as the full trace does, without holding
    the cross-traffic frames distillation never reads.  The simulation
    is the same either way.

    The caller takes the daemon's records list and the daemon is left
    an empty one: the finished world is a reference cycle that lives
    until a full garbage collection, and the records must not live
    with it once the caller drops them.
    """
    world = scenario.make_live_world(seed, TRACE_TRIAL_OFFSET + trial)
    wobs = attach_observability(world, obs)
    if world_out is not None:
        world_out["world"] = world
        world_out["obs"] = wobs
    setup_cross_traffic(world,
                        derive_seed(seed, f"cross-trace:{trial}"),
                        duration=MAX_SIM_TIME)
    daemon = trace_collection_run(world.laptop, world.radio, keep=keep)
    ping = ModifiedPing(world.laptop, SERVER_ADDR)
    span = duration if duration is not None else scenario.duration
    proc = world.laptop.spawn(ping.run(span), name="ping")
    prof = _profiled_run(wobs, world, proc, cap=span + 30.0)
    world.run(until=world.sim.now + 2.0)  # final daemon drain
    if wobs is not None and obs_out is not None:
        extra = {"profile": prof} if prof is not None else {}
        obs_out["record"] = wobs.record(kind="collect",
                                        scenario=scenario.name,
                                        seed=seed, trial=trial, **extra)
    records, daemon.records = daemon.records, []
    return records


def distill_scenario_trace(records: List, name: str = "",
                           distiller: Optional[Distiller] = None
                           ) -> DistillationResult:
    """Distill collected records (thin wrapper with harness defaults)."""
    return (distiller or Distiller()).distill(records, name=name)


def collect_trace_two_ended(scenario: Scenario, seed: int, trial: int,
                            duration: Optional[float] = None
                            ) -> Tuple[List, List]:
    """One traversal traced at *both* endpoints (§6 extension).

    Requires the synchronized, low-drift clocks the paper lacked, so
    the laptop's simulated clock drift is forced to zero.  Returns
    (mobile_records, remote_records) for
    :class:`repro.core.oneway.OneWayDistiller`, taken from the daemons
    as :func:`collect_trace` takes them.
    """
    world = scenario.make_live_world(seed, TRACE_TRIAL_OFFSET + trial,
                                     laptop_clock_drift=0.0)
    setup_cross_traffic(world,
                        derive_seed(seed, f"cross-trace:{trial}"),
                        duration=MAX_SIM_TIME)
    mobile_daemon = trace_collection_run(world.laptop, world.radio)
    remote_daemon = trace_collection_run(world.server,
                                         world.server.devices[0])
    ping = ModifiedPing(world.laptop, SERVER_ADDR)
    span = duration if duration is not None else scenario.duration
    proc = world.laptop.spawn(ping.run(span), name="ping")
    _run_until_done(world, proc, cap=span + 30.0)
    world.run(until=world.sim.now + 2.0)
    mobile, mobile_daemon.records = mobile_daemon.records, []
    remote, remote_daemon.records = remote_daemon.records, []
    return mobile, remote


def run_modulated_trial(replay: ReplayTrace, runner: BenchmarkRunner,
                        seed: int, trial: int,
                        compensation_vb: float,
                        obs: Optional[ObsConfig] = None,
                        world_out: Optional[Dict[str, Any]] = None
                        ) -> Dict[str, Any]:
    """One modulated benchmark trial on the isolated Ethernet.

    With ``obs`` set, the modulation layer additionally carries a
    fidelity audit, and the sink gains an ``"__obs__"`` metrics record
    including the per-tuple intended-vs-applied delay accounting.
    ``world_out`` additionally exposes the finished world, its ``obs``
    handle and the installed modulation ``layer`` for in-process
    invariant checking.
    """
    world = ModulationWorld(seed=derive_seed(seed, f"mod:{trial}"))
    wobs = attach_observability(world, obs)
    layer = install_modulation(world.laptop, world.laptop_device, replay,
                               world.rngs.stream("modulation"),
                               compensation_vb=compensation_vb, loop=True)
    if wobs is not None:
        wobs.attach_modulation(layer)
    if world_out is not None:
        world_out["world"] = world
        world_out["obs"] = wobs
        world_out["layer"] = layer
    runner.install_servers(world, seed)
    sink: Dict[str, Any] = {}
    proc = world.laptop.spawn(
        _delayed(world, runner.client_body(world, seed, sink)),
        name=f"{runner.name}-mod")
    prof = _profiled_run(wobs, world, proc)
    if wobs is not None:
        extra = {"profile": prof} if prof is not None else {}
        sink["__obs__"] = wobs.record(kind="modulated", replay=replay.name,
                                      benchmark=runner.name, seed=seed,
                                      trial=trial, **extra)
    return sink


def run_ethernet_trial(runner: BenchmarkRunner, seed: int,
                       trial: int,
                       obs: Optional[ObsConfig] = None,
                       world_out: Optional[Dict[str, Any]] = None
                       ) -> Dict[str, Any]:
    """The unmodulated Ethernet baseline (final row of Figures 6-8).

    ``world_out`` exposes the finished world/obs pair, as for
    :func:`run_live_trial`.
    """
    world = ModulationWorld(seed=derive_seed(seed, f"ether:{trial}"))
    wobs = attach_observability(world, obs)
    if world_out is not None:
        world_out["world"] = world
        world_out["obs"] = wobs
    runner.install_servers(world, seed)
    sink: Dict[str, Any] = {}
    proc = world.laptop.spawn(
        _delayed(world, runner.client_body(world, seed, sink)),
        name=f"{runner.name}-ether")
    prof = _profiled_run(wobs, world, proc)
    if wobs is not None:
        extra = {"profile": prof} if prof is not None else {}
        sink["__obs__"] = wobs.record(kind="ethernet",
                                      benchmark=runner.name, seed=seed,
                                      trial=trial, **extra)
    return sink


# ======================================================================
# Full validation of one (scenario, benchmark) pair
# ======================================================================
@dataclass
class MetricComparison:
    """Real vs. modulated for one reported metric."""

    metric: str
    real: Summary
    modulated: Summary

    @property
    def sigma_distance(self) -> float:
        return sigma_distance(self.real, self.modulated)

    @property
    def accurate(self) -> bool:
        return within_sigma_sum(self.real, self.modulated)


class LazySequence(Sequence):
    """A read-only sequence whose entries are loaded when read.

    Built from zero-argument loaders that keep what they load (a job
    future's ``result``), so each entry is loaded at most once however
    often it is read, and never if it is not.  A job future loads from
    its store; after its executor has shut down, from the encoded
    bytes it kept of a scratch-store result in place of the result
    (see :meth:`~repro.runtime.scheduler.Scheduler.shutdown`), so an
    entry read before the shutdown is loaded once more after it, or
    recomputed if its bytes no longer decode.
    """

    def __init__(self, loaders: Iterable[Callable[[], Any]]):
        self._loaders = tuple(loaders)

    def __len__(self) -> int:
        return len(self._loaders)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [load() for load in self._loaders[index]]
        return self._loaders[index]()


@dataclass
class ScenarioValidation:
    """All metrics of one benchmark on one scenario.

    ``distillations`` is read-only; a sweep fills it with a
    :class:`LazySequence` that decodes each distilled traversal on
    first access.
    """

    scenario: str
    benchmark: str
    comparisons: Dict[str, MetricComparison] = field(default_factory=dict)
    distillations: Sequence[DistillationResult] = ()

    def comparison(self, metric: str) -> MetricComparison:
        return self.comparisons[metric]


_COMPENSATION_CACHE: Dict[int, float] = {}


def compensation_vb(seed: int = 1729) -> float:
    """The testbed's measured bottleneck cost (cached: measured once)."""
    if seed not in _COMPENSATION_CACHE:
        _COMPENSATION_CACHE[seed] = measure_modulation_network(seed=seed).vb
    return _COMPENSATION_CACHE[seed]


def validate_scenario(scenario: Scenario, runner: BenchmarkRunner,
                      seed: int = 0, trials: int = 4,
                      distiller: Optional[Distiller] = None,
                      compensation: Optional[float] = None,
                      cache=None) -> ScenarioValidation:
    """The paper's full protocol for one scenario/benchmark pair.

    A thin serial front to :func:`repro.validation.parallel.run_validation`
    (``workers=1``), so the serial, parallel and cached paths are one
    code path; ``cache`` enables the content-addressed artifact store.
    """
    from .parallel import run_validation

    sweep = run_validation(scenario, runner, seed=seed, trials=trials,
                           distiller=distiller, compensation=compensation,
                           workers=1, cache=cache)
    return sweep.validations[0]


def ethernet_baseline(runner: BenchmarkRunner, seed: int = 0,
                      trials: int = 4) -> Dict[str, Summary]:
    """Summaries of the benchmark over the raw modulation Ethernet.

    A thin serial front to
    :func:`repro.validation.parallel.ethernet_baseline_parallel`
    (``workers=1``), as :func:`validate_scenario` is for
    ``run_validation``.
    """
    from .parallel import ethernet_baseline_parallel

    return ethernet_baseline_parallel(runner, seed=seed, trials=trials,
                                      workers=1)
