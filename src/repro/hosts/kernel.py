"""Simulated host kernel.

Models the pieces of the paper's customized NetBSD 1.2 kernel that its
accuracy story depends on:

* a **coarse clock**: callouts fire on a 10 ms tick grid (§3.3
  "clock-based interrupt resolution on our hosts is only 10
  milliseconds"), with the modulator's round-to-nearest-tick /
  send-immediately-below-half-a-tick policy available as
  :meth:`schedule_rounded`;
* **pseudo-devices** with open/close/read/write, used by the trace
  collection daemon (§3.1.2) and the replay-trace feeding daemon
  (§3.3);
* a **drifting clock** for trace timestamps — the reason the paper is
  forced into round-trip measurements and the symmetry assumption
  (§3.2.2) is that mobile hosts lacked synchronized clocks.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional

from ..sim import Event, Simulator

DEFAULT_TICK = 0.010  # 10 ms, as on the paper's NetBSD hosts


class PseudoDevice:
    """Base class for /dev-style kernel interfaces."""

    def __init__(self, name: str):
        self.name = name
        self.is_open = False

    def open(self) -> None:
        if self.is_open:
            raise RuntimeError(f"{self.name}: already open")
        self.is_open = True

    def close(self) -> None:
        self.is_open = False

    def read(self, max_records: int = 0) -> list:
        raise NotImplementedError

    def write(self, records: list) -> int:
        raise NotImplementedError


class Kernel:
    """Per-host kernel services: quantized timers, devices, clock."""

    def __init__(self, sim: Simulator, tick_resolution: float = DEFAULT_TICK,
                 clock_drift: float = 0.0, clock_offset: float = 0.0):
        if tick_resolution <= 0:
            raise ValueError("tick resolution must be positive")
        self.sim = sim
        self.tick_resolution = tick_resolution
        self.clock_drift = clock_drift
        self.clock_offset = clock_offset
        self._devices: Dict[str, PseudoDevice] = {}
        self.callouts_fired = 0
        # schedule_rounded policy accounting (modulation-fidelity audit):
        # how often releases fell under the half-tick immediate path vs.
        # landing on the rounded tick grid.
        self.immediate_callouts = 0
        self.rounded_callouts = 0

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------
    def timestamp(self) -> float:
        """The host's own (possibly drifting) clock reading.

        Trace records carry these, not true simulation time — exactly
        the imperfection that forces single-host round-trip timing.
        """
        return self.sim.now * (1.0 + self.clock_drift) + self.clock_offset

    def next_tick_at(self, when: float) -> float:
        """The first tick boundary at or after ``when``."""
        ticks = int(when / self.tick_resolution)
        boundary = ticks * self.tick_resolution
        if boundary < when - 1e-12:
            boundary += self.tick_resolution
        return boundary

    def nearest_tick_at(self, when: float) -> float:
        """The tick boundary closest to ``when``."""
        return round(when / self.tick_resolution) * self.tick_resolution

    # ------------------------------------------------------------------
    # Timers
    # ------------------------------------------------------------------
    def callout(self, delay: float, fn: Callable[..., Any], *args: Any) -> Event:
        """BSD-style callout: fires on the first tick >= now + delay."""
        sim = self.sim
        now = sim._now
        # next_tick_at(now + delay), inline: every TCP timer lands here.
        when = now + delay
        tick = self.tick_resolution
        target = int(when / tick) * tick
        if target < when - 1e-12:
            target += tick
        return sim.schedule_at(target if target >= now else now,
                               self._fire, fn, args)

    def schedule_rounded(self, delay: float, fn: Callable[..., Any],
                         *args: Any) -> None:
        """The modulator's policy (§3.3, *Scheduling Granularity*).

        Round to the closest tick; anything under half a tick from now
        runs immediately, so sparse traffic over fast links is
        under-delayed — the artifact the paper's Andrew/Wean results
        exhibit.  Fire-and-forget: the modulation layer never cancels a
        release, so no :class:`Event` handle is created.
        """
        if delay < self.tick_resolution / 2.0:
            self.immediate_callouts += 1
            self.sim.call_later(0.0, self._fire, fn, args)
            return
        self.rounded_callouts += 1
        target = self.nearest_tick_at(self.sim.now + delay)
        target = max(target, self.sim.now)
        self.sim.call_at(target, self._fire, fn, args)

    def _fire(self, fn: Callable[..., Any], args: tuple) -> None:
        self.callouts_fired += 1
        fn(*args)

    # ------------------------------------------------------------------
    # Pseudo-devices
    # ------------------------------------------------------------------
    def register_device(self, device: PseudoDevice) -> None:
        if device.name in self._devices:
            raise ValueError(f"device {device.name} already registered")
        self._devices[device.name] = device

    def device(self, name: str) -> PseudoDevice:
        try:
            return self._devices[name]
        except KeyError:
            raise KeyError(f"no pseudo-device {name!r}") from None

    def device_names(self) -> list:
        return sorted(self._devices)
