"""Prebuilt network worlds.

Two topologies cover the paper's experiments:

* :class:`LiveWorld` — the "real" deployment: a mobile laptop on a
  WaveLAN medium, a WavePoint bridge to an Ethernet, and a wired
  server.  Trace collection and the live benchmark trials run here.
* :class:`ModulationWorld` — the controlled testbed: the same laptop
  and server on an isolated Ethernet, with the modulation layer
  installed in the laptop's stack between IP and the link device.

Addresses follow a fixed plan so experiment code reads naturally:
server ``10.0.0.1``, traced laptop ``10.0.0.2``, cross-traffic laptops
``10.0.0.11`` onward, base station ``10.0.0.254``.
"""

from __future__ import annotations

from typing import List, Optional

from ..net.bridge import Bridge
from ..net.ethernet import EthernetDevice, EthernetSegment
from ..net.wavelan import ChannelProfile, WaveLANDevice, WirelessMedium
from ..sim import RngStreams, Simulator
from .host import Host
from .kernel import DEFAULT_TICK

SERVER_ADDR = "10.0.0.1"
LAPTOP_ADDR = "10.0.0.2"
BASE_ADDR = "10.0.0.254"
CROSS_ADDR_BASE = 10  # cross laptops get 10.0.0.11, 10.0.0.12, ...


def cross_laptop_addr(index: int) -> str:
    """Address of the i-th interfering laptop (Chatterbox)."""
    return f"10.0.0.{CROSS_ADDR_BASE + 1 + index}"


class LiveWorld:
    """Mobile laptop -- WaveLAN -- WavePoint bridge -- Ethernet -- server."""

    def __init__(self, profile: Optional[ChannelProfile] = None, seed: int = 0,
                 cross_laptops: int = 0,
                 cross_profile: Optional[ChannelProfile] = None,
                 tick_resolution: float = DEFAULT_TICK,
                 laptop_clock_drift: float = 2e-5):
        self.sim = Simulator()
        self.rngs = RngStreams(seed)
        self.medium = WirelessMedium(self.sim, self.rngs)
        self.ether = EthernetSegment(self.sim)

        # Traced mobile host.
        self.laptop = Host(self.sim, "laptop", LAPTOP_ADDR,
                           tick_resolution=tick_resolution,
                           clock_drift=laptop_clock_drift)
        self.radio = WaveLANDevice(self.sim, "wl0", LAPTOP_ADDR, profile=profile)
        self.medium.attach(self.radio)
        self.laptop.add_device(self.radio, default=True)

        # WavePoint: radio <-> Ethernet learning bridge.
        ap_radio = WaveLANDevice(self.sim, "ap-wl0", BASE_ADDR, is_base=True)
        ap_eth = EthernetDevice(self.sim, "ap-en0", BASE_ADDR)
        self.medium.attach(ap_radio)
        self.ether.attach(ap_eth)
        self.bridge = Bridge(ap_radio, ap_eth, name="wavepoint")

        # Wired server.
        self.server = Host(self.sim, "server", SERVER_ADDR,
                           tick_resolution=tick_resolution)
        server_eth = EthernetDevice(self.sim, "en0", SERVER_ADDR)
        self.ether.attach(server_eth)
        self.server.add_device(server_eth, default=True)

        # Interfering laptops (Chatterbox's SynRGen stations).
        self.cross_hosts: List[Host] = []
        for i in range(cross_laptops):
            addr = cross_laptop_addr(i)
            host = Host(self.sim, f"cross{i}", addr,
                        tick_resolution=tick_resolution)
            radio = WaveLANDevice(self.sim, f"cwl{i}", addr,
                                  profile=cross_profile or ChannelProfile())
            self.medium.attach(radio)
            host.add_device(radio, default=True)
            self.cross_hosts.append(host)

    def run(self, until: Optional[float] = None) -> None:
        self.sim.run(until=until)


class ModulationWorld:
    """Laptop and server on an isolated Ethernet, ready for modulation.

    The modulation layer itself is installed by
    :func:`repro.core.modulator.install_modulation`; this class only
    provides the clean two-host wired testbed.
    """

    def __init__(self, seed: int = 0, tick_resolution: float = DEFAULT_TICK,
                 ethernet_bandwidth: float = 10e6):
        self.sim = Simulator()
        self.rngs = RngStreams(seed)
        self.ether = EthernetSegment(self.sim, bandwidth_bps=ethernet_bandwidth)

        self.laptop = Host(self.sim, "laptop", LAPTOP_ADDR,
                           tick_resolution=tick_resolution)
        laptop_eth = EthernetDevice(self.sim, "en0", LAPTOP_ADDR)
        self.ether.attach(laptop_eth)
        self.laptop.add_device(laptop_eth, default=True)
        self.laptop_device = laptop_eth

        self.server = Host(self.sim, "server", SERVER_ADDR,
                           tick_resolution=tick_resolution)
        server_eth = EthernetDevice(self.sim, "en1", SERVER_ADDR)
        self.ether.attach(server_eth)
        self.server.add_device(server_eth, default=True)

    def run(self, until: Optional[float] = None) -> None:
        self.sim.run(until=until)
