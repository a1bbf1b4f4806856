"""Link-layer bridge (the WavePoint base station).

The paper's infrastructure consists of WavePoint base stations that
"serve as bridges to an Ethernet" (§3.1.1).  :class:`Bridge` is a
two-port learning bridge: it learns which IP addresses live on which
port from source addresses and forwards frames accordingly, flooding
when the destination is unknown.
"""

from __future__ import annotations

from functools import partial
from typing import Dict

from .device import NetworkDevice
from .packet import Packet


class Bridge:
    """A transparent two-port learning bridge."""

    def __init__(self, port_a: NetworkDevice, port_b: NetworkDevice, name: str = "bridge"):
        self.name = name
        self.port_a = port_a
        self.port_b = port_b
        self._table: Dict[str, NetworkDevice] = {}
        self.forwarded = 0
        self.flooded = 0
        port_a.upstream = partial(self._ingress, port_a)
        port_b.upstream = partial(self._ingress, port_b)

    def _ingress(self, port: NetworkDevice, packet: Packet) -> None:
        other = self.port_b if port is self.port_a else self.port_a
        if packet.ip is not None:
            self._table[packet.ip.src] = port
            out = self._table.get(packet.ip.dst)
            if out is port:
                return  # destination is on the ingress side; don't forward
            if out is None:
                self.flooded += 1
        self.forwarded += 1
        other.send(packet)

    def learned_addresses(self) -> Dict[str, str]:
        return {addr: dev.name for addr, dev in self._table.items()}
