"""Small statistics shared by the benchmark parent and its children.

Nothing here imports ``repro``: the parent process stays light and the
tests run without building a scenario.
"""

from __future__ import annotations

import heapq
import os
import statistics
import time

import numpy as np

#: Candidate tail percentiles, highest first.
TAIL_PERCENTILES = (99.99, 99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
#: A tail percentile is only reported with at least this many samples
#: strictly beyond it.
TAIL_MIN_BEYOND = 10
#: Fluid-vs-packet agreement bounds of docs/simulation.md, in percent:
#: Fig 16 cells and fabric goodput both within 1%.
FLUID_BOUND_PCT = 1.0


def tail(values: list[float]) -> tuple[float, float]:
    """``(q, value)``: the highest percentile with >= 10 samples beyond it.

    Falls back to the median when even the median has fewer than 10
    samples above it.
    """
    data = np.asarray(values, dtype=float)
    for q in TAIL_PERCENTILES:
        value = float(np.percentile(data, q))
        if np.count_nonzero(data > value) >= TAIL_MIN_BEYOND:
            return q, value
    return 50.0, float(np.percentile(data, 50.0))


def spread(values: list[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else 0.0


def fluid_errors(fluid: dict, packet: dict) -> dict[str, float]:
    """Percent difference of every fluid cell from its packet-mode twin.

    Cells are ``{part: {name: value}}``; DPA busy fractions are reported,
    not bounded, so they are skipped.
    """
    out = {}
    for label, cells in packet.items():
        for key, ref in cells.items():
            if key == "dpa_busy" or not ref:
                continue
            out[f"{label}.{key}"] = abs(fluid[label][key] - ref) / abs(ref) * 100.0
    return out


class _Event:
    __slots__ = ("time", "callbacks", "value")

    def __init__(self, time: float):
        self.time = time
        self.callbacks = []
        self.value = None


class _Packet:
    __slots__ = ("seq", "length", "flow")

    def __init__(self, seq: int, length: int, flow: int):
        self.seq = seq
        self.length = length
        self.flow = flow


def _process():
    step = 0
    while True:
        step = yield step


def calibration_kernel(steps: int = 60_000, live: int = 50_000) -> int:
    """A fixed pure-Python event loop shaped like the simulator's hot path.

    Heap pops and pushes of ``(time, seq, event)`` tuples, a closure and a
    dict update per dispatch, generator resumes, and a pool of ``live``
    small objects that is constantly replaced, so the working set, the
    allocator and the garbage collector are exercised as in a real run.
    It lives here, outside ``repro``, so no change to the program moves
    it: its duration measures only how fast the host runs this kind of
    code right now.
    """
    heap = []
    bytes_by_flow: dict[int, int] = {}
    pool = [_Packet(i, 4096, i % 97) for i in range(live)]
    procs = [_process() for _ in range(64)]
    for proc in procs:
        next(proc)

    def account(event) -> None:
        pkt = event.value
        bytes_by_flow[pkt.flow] = bytes_by_flow.get(pkt.flow, 0) + pkt.length

    for seq in range(256):
        heapq.heappush(heap, (seq * 1e-6, seq, _Event(seq * 1e-6)))
    seq = 256
    for _ in range(steps):
        now, tag, event = heapq.heappop(heap)
        event.value = pool[tag * 7919 % live]
        event.callbacks.append(lambda ev: account(ev))
        for callback in event.callbacks:
            callback(event)
        procs[tag & 63].send(tag)
        pool[tag * 104729 % live] = _Packet(seq, 4096, tag % 97)
        nxt = _Event(now + (tag * 2654435761 % 1000) * 1e-9)
        heapq.heappush(heap, (nxt.time, seq, nxt))
        seq += 1
    return len(bytes_by_flow)


#: Calibration-kernel seconds that define the reference host speed.
#: Host times are reported in reference seconds: raw seconds scaled by
#: ``REFERENCE_KERNEL_S / kernel seconds`` measured around them.
REFERENCE_KERNEL_S = 0.25


def time_kernel() -> float:
    start = time.perf_counter()
    calibration_kernel()
    return time.perf_counter() - start


def to_reference(seconds: float, kernel_s: float) -> float:
    """Host seconds at the reference speed, given the kernel time around them."""
    return seconds * REFERENCE_KERNEL_S / kernel_s


def calibration() -> dict:
    """Host-noise reading: the calibration kernel and the load average."""
    try:
        load = os.getloadavg()[0]
    except OSError:  # pragma: no cover - platform without loadavg
        load = float("nan")
    return {"kernel_s": time_kernel(), "loadavg_1m": load}
