"""The network performance model and replay traces.

§3.2.1: time-varying network behaviour is decomposed into a sequence of
short intervals of invariant behaviour.  Each interval is a *network
quality tuple* ``⟨d, F, Vb, Vr, L⟩``:

* ``d``  — duration of the interval (seconds);
* ``F``  — one-way latency (fixed per-packet cost, seconds);
* ``Vb`` — bottleneck per-byte cost (seconds/byte, the inverse of the
  bottleneck bandwidth);
* ``Vr`` — residual per-byte cost of every other queue on the path;
* ``L``  — probability that a packet is dropped during the interval.

A single packet of size ``s`` therefore experiences a one-way delay of
``F + s·(Vb + Vr)``; back-to-back packets additionally queue behind one
another at the bottleneck for ``s·Vb`` each.

The model is deliberately separable from both the distiller that
produces tuples and the modulator that enforces them (§3.2: "the model
is separable from the methodology").
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Iterable, Iterator, List, Optional, Tuple

from .traceformat import Weakrefable


@dataclass(frozen=True, slots=True)
class QualityTuple(Weakrefable):
    """One interval of invariant network behaviour."""

    d: float    # duration (s)
    F: float    # latency (s)
    Vb: float   # bottleneck per-byte cost (s/byte)
    Vr: float   # residual per-byte cost (s/byte)
    L: float    # loss probability in [0, 1]

    def __post_init__(self) -> None:
        if self.d <= 0:
            raise ValueError(f"duration must be positive, got {self.d}")
        if not 0.0 <= self.L <= 1.0:
            raise ValueError(f"loss probability out of range: {self.L}")

    @property
    def V(self) -> float:
        """Total per-byte cost."""
        return self.Vb + self.Vr

    def one_way_delay(self, size: int) -> float:
        """Model delay for a single packet of ``size`` bytes (Eq. 4)."""
        return self.F + size * self.V

    def bottleneck_bandwidth_bps(self) -> float:
        """The bottleneck bandwidth this tuple implies, in bits/s."""
        if self.Vb <= 0:
            return float("inf")
        return 8.0 / self.Vb

    def scaled(self, bandwidth_factor: float = 1.0,
               latency_factor: float = 1.0) -> "QualityTuple":
        """A derived tuple with scaled bandwidth/latency (synthetics)."""
        return QualityTuple(d=self.d, F=self.F * latency_factor,
                            Vb=self.Vb / bandwidth_factor,
                            Vr=self.Vr / bandwidth_factor, L=self.L)


class ReplayTrace:
    """An ordered list of quality tuples describing a network over time."""

    def __init__(self, tuples: Iterable[QualityTuple], name: str = ""):
        self.tuples: List[QualityTuple] = list(tuples)
        if not self.tuples:
            raise ValueError("a replay trace needs at least one tuple")
        self.name = name
        self._starts: List[float] = []
        t = 0.0
        for tup in self.tuples:
            self._starts.append(t)
            t += tup.d
        self._duration = t

    # ------------------------------------------------------------------
    @property
    def duration(self) -> float:
        """Total duration covered by the trace (seconds)."""
        return self._duration

    def __len__(self) -> int:
        return len(self.tuples)

    def __iter__(self) -> Iterator[QualityTuple]:
        return iter(self.tuples)

    def tuple_at(self, t: float, loop: bool = False) -> QualityTuple:
        """The tuple in effect at time ``t`` from the trace's start.

        With ``loop`` the trace repeats; otherwise times past the end
        hold the final tuple (the daemon "may write a file of tuples
        once ... or loop over the file until interrupted", §3.3).
        """
        if t < 0:
            raise ValueError("negative time")
        if loop and self._duration > 0:
            t = t % self._duration
        if t >= self._duration:
            return self.tuples[-1]
        lo, hi = 0, len(self._starts) - 1
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if self._starts[mid] <= t:
                lo = mid
            else:
                hi = mid - 1
        return self.tuples[lo]

    # ------------------------------------------------------------------
    def mean_latency(self) -> float:
        """Duration-weighted mean of F."""
        return self._weighted(lambda q: q.F)

    def mean_bandwidth_bps(self) -> float:
        """Duration-weighted harmonic view: bandwidth of mean Vb."""
        mean_vb = self._weighted(lambda q: q.Vb)
        return 8.0 / mean_vb if mean_vb > 0 else float("inf")

    def mean_bottleneck_cost(self) -> float:
        """Duration-weighted mean Vb — what delay compensation uses."""
        return self._weighted(lambda q: q.Vb)

    def mean_loss(self) -> float:
        """Duration-weighted mean loss probability."""
        return self._weighted(lambda q: q.L)

    def _weighted(self, key) -> float:
        total = sum(q.d for q in self.tuples)
        return sum(key(q) * q.d for q in self.tuples) / total

    # ------------------------------------------------------------------
    # Serialization (JSON: replay traces are small and humans read them)
    # ------------------------------------------------------------------
    def to_json(self) -> str:
        """Serialize to a human-readable JSON document."""
        return json.dumps({
            "name": self.name,
            "tuples": [asdict(t) for t in self.tuples],
        }, indent=1)

    @classmethod
    def from_json(cls, blob: str) -> "ReplayTrace":
        data = json.loads(blob)
        return cls((QualityTuple(**t) for t in data["tuples"]),
                   name=data.get("name", ""))

    def save(self, path: str) -> None:
        """Write the JSON form to ``path``."""
        with open(path, "w", encoding="utf-8") as f:
            f.write(self.to_json())

    @classmethod
    def load(cls, path: str) -> "ReplayTrace":
        with open(path, "r", encoding="utf-8") as f:
            return cls.from_json(f.read())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ReplayTrace):
            return NotImplemented
        return self.name == other.name and self.tuples == other.tuples

    __hash__ = None  # mutable value type

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<ReplayTrace {self.name!r} {len(self.tuples)} tuples, "
                f"{self._duration:.1f}s>")
