"""Per-layer time attribution for the end-to-end benchmark.

A :class:`StackSampler` thread wakes about once a millisecond, reads the
main thread's Python stack with ``sys._current_frames()`` and charges
the time since its previous sample to

* a **layer** — the innermost frame whose module is in :data:`LAYERS`
  (stdlib and benchmark frames are skipped, so a ``heapq`` or ``pickle``
  call counts toward the ``repro`` code that made it), and
* a **stage** — the innermost harness function on the stack
  (:func:`stage_codes`).

A sample whose innermost Python frame sits in a blocking wait
(``threading``, ``queue``, ...) is charged to its layer's *wait* time
instead of its self time: on parallel workloads that is the parent
blocked on its workers.

Only the sampled process is seen.  On parallel workloads the model
layers run in worker processes, so their split comes from the serial
workloads, which run the same trial kinds.
"""

from __future__ import annotations

import sys
import threading
import time
from typing import Dict, Optional, Tuple

# Every module of the ``repro`` package, by layer.  The table is
# explicit on purpose: a new module that nobody placed fails
# ``test_every_module_maps_to_one_layer`` instead of silently landing
# in a catch-all bucket.
LAYERS: Dict[str, Tuple[str, ...]] = {
    "engine": ("repro.sim", "repro.sim.engine", "repro.sim.perf",
               "repro.sim.process", "repro.sim.rng"),
    "media": ("repro.net", "repro.net.bridge", "repro.net.device",
              "repro.net.ethernet", "repro.net.link", "repro.net.queue",
              "repro.net.wavelan"),
    "packet": ("repro.net.packet",),
    "ip": ("repro.protocols.ip",),
    "tcp": ("repro.protocols.tcp",),
    "udp_icmp": ("repro.protocols.udp", "repro.protocols.icmp"),
    "rpc_nfs": ("repro.protocols.rpc", "repro.apps.nfs"),
    "apps": ("repro.apps", "repro.apps.adaptive", "repro.apps.andrew",
             "repro.apps.disk", "repro.apps.filesystem", "repro.apps.ftp",
             "repro.apps.ping", "repro.apps.synrgen", "repro.apps.web",
             "repro.workloads", "repro.workloads.andrewtree",
             "repro.workloads.webtraces"),
    "modulation": ("repro.core.modulator", "repro.core.delayline",
                   "repro.core.replay", "repro.hosts.kernel"),
    "collect": ("repro.core.collection",),
    "distill": ("repro.core.distill", "repro.core.oneway"),
    "codec_store": ("repro.pipeline", "repro.pipeline.api",
                    "repro.pipeline.codec", "repro.pipeline.fingerprint",
                    "repro.pipeline.stages", "repro.pipeline.store",
                    "repro.core.traceformat"),
    "runtime": ("repro.runtime", "repro.runtime.backends",
                "repro.runtime.hosts", "repro.runtime.job",
                "repro.runtime.remote", "repro.runtime.scheduler",
                "repro.runtime.session", "repro.runtime.sync",
                "repro.runtime.worker", "repro.validation.parallel"),
    "other": ("repro", "repro.__main__", "repro.cli",
              "repro.analysis", "repro.analysis.filter",
              "repro.analysis.stats", "repro.analysis.tables",
              "repro.analysis.tracestats",
              "repro.check", "repro.check.fuzz", "repro.check.golden",
              "repro.check.invariants", "repro.check.runner",
              "repro.core", "repro.core.compensation", "repro.core.export",
              "repro.core.synthetic",
              "repro.hosts", "repro.hosts.host", "repro.hosts.worlds",
              "repro.obs", "repro.obs.audit", "repro.obs.registry",
              "repro.obs.sinks", "repro.obs.telemetry", "repro.obs.tracer",
              "repro.obs.wiring", "repro.protocols",
              "repro.scenarios", "repro.scenarios.base",
              "repro.scenarios.chatterbox", "repro.scenarios.families",
              "repro.scenarios.flagstaff", "repro.scenarios.generate",
              "repro.scenarios.leo", "repro.scenarios.mobility",
              "repro.scenarios.porter", "repro.scenarios.ran",
              "repro.scenarios.registry", "repro.scenarios.roaming",
              "repro.scenarios.spec", "repro.scenarios.wean",
              "repro.validation", "repro.validation.figures",
              "repro.validation.harness"),
}

LAYER_NAMES = tuple(LAYERS)

STAGE_NAMES = ("collect", "distill", "live", "modulated", "ethernet",
               "compensation", "render")

# Modules whose frames mean "this thread is blocked waiting".
WAIT_MODULES = frozenset({"threading", "queue", "selectors",
                          "multiprocessing.connection",
                          "multiprocessing.queues"})


def module_layers() -> Dict[str, str]:
    """The inverse of :data:`LAYERS`: ``{module: layer}``."""
    return {module: layer for layer, modules in LAYERS.items()
            for module in modules}


def stage_codes() -> Dict[object, str]:
    """``{code object: stage}`` for the harness functions that mark a
    stage of the paper's protocol (imports ``repro``)."""
    from repro.core.distill import Distiller
    from repro.validation import figures, harness, parallel

    functions = {
        "collect": (harness.collect_trace,),
        "distill": (Distiller.distill,),
        "live": (harness.run_live_trial,),
        "modulated": (harness.run_modulated_trial,),
        "ethernet": (harness.run_ethernet_trial,),
        "compensation": (harness.compensation_vb,
                         figures.figure1_compensation),
        "render": (figures.render_benchmark_table,
                   figures.render_andrew_table,
                   figures.Figure1Result.render,
                   figures.ScenarioCharacterization.render,
                   parallel.ValidationSweep.render),
    }
    return {fn.__code__: stage for stage, fns in functions.items()
            for fn in fns}


class Attributor:
    """Maps one stack (its innermost frame) to ``(layer, stage,
    waiting, stage_frame)``.  Works on anything frame-shaped — objects
    with ``f_code``, ``f_globals`` and ``f_back`` — so tests can feed it
    synthetic stacks."""

    def __init__(self, layer_of: Dict[str, str],
                 stage_of: Dict[object, str]):
        self._layer_of = layer_of
        self._stage_of = stage_of

    def attribute(self, frame) -> Tuple[Optional[str], Optional[str],
                                        bool, object]:
        waiting = frame.f_globals.get("__name__") in WAIT_MODULES
        layer = stage = stage_frame = None
        f = frame
        while f is not None and (layer is None or stage is None):
            if layer is None:
                layer = self._layer_of.get(f.f_globals.get("__name__"))
            if stage is None:
                stage = self._stage_of.get(f.f_code)
                if stage is not None:
                    stage_frame = f
            f = f.f_back
        return layer, stage, waiting, stage_frame


class StackSampler:
    """Samples one thread's stack on a timer and folds each sample into
    per-layer and per-stage seconds.

    Each sample is weighted by the time since the previous one, so the
    totals add up to the sampled wall time whatever interval the
    scheduler actually delivered.  A stage *call* is counted each time
    the innermost stage frame changes identity; calls shorter than one
    interval can be missed, which the trial stages (tens of ms and up)
    are not.
    """

    def __init__(self, attributor: Attributor, interval: float = 0.001):
        self.attributor = attributor
        self.interval = interval
        self.total_s = 0.0
        self.samples = 0
        self.attributed_s = 0.0
        self.self_s: Dict[str, float] = {name: 0.0 for name in LAYER_NAMES}
        self.wait_s: Dict[str, float] = {name: 0.0 for name in LAYER_NAMES}
        self.stage_s: Dict[str, float] = {name: 0.0 for name in STAGE_NAMES}
        self.stage_calls: Dict[str, int] = {name: 0 for name in STAGE_NAMES}
        # A strong reference keeps the last stage frame alive, so a new
        # call can never reuse its identity.
        self._stage_frame = None
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._target: Optional[int] = None

    def add(self, frame, dt: float) -> None:
        """Fold one sample of ``frame``'s stack, worth ``dt`` seconds."""
        layer, stage, waiting, stage_frame = \
            self.attributor.attribute(frame)
        self.samples += 1
        self.total_s += dt
        if layer is not None:
            self.attributed_s += dt
            (self.wait_s if waiting else self.self_s)[layer] += dt
        if stage is not None:
            self.stage_s[stage] += dt
            if stage_frame is not self._stage_frame:
                self.stage_calls[stage] += 1
                self._stage_frame = stage_frame

    def start(self) -> None:
        """Begin sampling the calling thread."""
        self._target = threading.get_ident()
        self._stop.clear()
        self._thread = threading.Thread(target=self._run,
                                        name="stack-sampler", daemon=True)
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        self._stage_frame = None

    def _run(self) -> None:
        last = time.perf_counter()
        while not self._stop.is_set():
            time.sleep(self.interval)
            frame = sys._current_frames().get(self._target)
            now = time.perf_counter()
            if frame is not None:
                self.add(frame, now - last)
            last = now
            del frame
