"""Shared verbs-level fixtures: two devices over one link."""

from __future__ import annotations

from dataclasses import dataclass

import pytest

from repro.common.config import ChannelConfig
from repro.common.units import KiB
from repro.sim.engine import Simulator
from repro.telemetry import Telemetry
from repro.verbs.cq import CompletionQueue
from repro.verbs.device import Device, Fabric


@dataclass
class Wire:
    sim: Simulator
    fabric: Fabric
    a: Device
    b: Device
    channel: ChannelConfig

    def cq(self, name: str = "cq") -> CompletionQueue:
        return CompletionQueue(self.sim, name=name)


def make_wire(
    *,
    drop: float = 0.0,
    jitter: float = 0.0,
    bandwidth_bps: float = 100e9,
    distance_km: float = 10.0,
    mtu: int = 4 * KiB,
    seed: int = 0,
    telemetry: Telemetry | None = None,
) -> Wire:
    sim = Simulator(telemetry=telemetry)
    fabric = Fabric(sim, seed=seed)
    a = fabric.add_device("a")
    b = fabric.add_device("b")
    channel = ChannelConfig(
        bandwidth_bps=bandwidth_bps,
        distance_km=distance_km,
        mtu_bytes=mtu,
        drop_probability=drop,
        jitter_fraction=jitter,
    )
    fabric.connect(a, b, channel)
    return Wire(sim=sim, fabric=fabric, a=a, b=b, channel=channel)


@pytest.fixture
def wire() -> Wire:
    return make_wire()
