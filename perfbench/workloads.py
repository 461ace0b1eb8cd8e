"""The four benchmark workloads, built from the public ``repro`` API.

Each ``build_<workload>(seed)`` returns a :class:`Scenario`: one or more
:class:`Part` s, each a fully wired simulator plus the closure that runs
it.  Building draws every input from the seed and touches no heap event;
:meth:`Scenario.run` is the timed section; :meth:`Scenario.outputs`
checks what the simulation delivered and reduces it to the simulated
metrics and a digest.

Message lists are *stratified*: the seed jitters sizes inside fixed
strata with antithetic pairs, so every seed offers the same total bytes
and the host cost of a run does not depend on which seed was drawn.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Callable
from dataclasses import dataclass, field, replace

import numpy as np

from repro.common.config import ChannelConfig, DpaConfig, SdrConfig
from repro.common.errors import ReproError
from repro.common.units import KiB, MiB
from repro.experiments.testbed import SdrTestbed
from repro.fabric.report import per_tenant_reports
from repro.fabric.scenarios import ScaleConfig, submit_schedule
from repro.fabric.service import FabricService, FabricServiceConfig, TenantSpec
from repro.fabric.topology import FabricNetwork, two_tier
from repro.reliability.base import ControlPath
from repro.reliability.ec import EcConfig, EcReceiver, EcSender
from repro.reliability.sampling import (
    SamplingConfig,
    SamplingReceiver,
    SamplingSender,
)
from repro.reliability.sr import SrConfig, SrReceiver, SrSender
from repro.sdr.context import context_create
from repro.sdr.qp import SdrRecvWr, SdrSendWr
from repro.sim.engine import SimConfig, Simulator
from repro.sim.rng import RngStreams
from repro.verbs.cq import CompletionQueue, CqeStatus
from repro.verbs.device import Fabric
from repro.verbs.mr import MemoryRegion
from repro.verbs.qp import RcQp, SendWr
from repro.workloads.openloop import OpenLoopConfig, generate


@dataclass
class Message:
    """One message or flow: what was asked for and what came back."""

    nbytes: int
    posted: float | None = None
    finished: float | None = None
    delivered: bool = False
    verified: bool = False

    @property
    def ok(self) -> bool:
        return self.delivered and self.verified

    @property
    def latency(self) -> float:
        return self.finished - self.posted


@dataclass
class Part:
    """One wired simulator and the closure that drives it to the end."""

    label: str
    sim: Simulator
    #: ``drive(part)`` runs the simulation and fills in the outcome.
    drive: Callable[["Part"], None]
    #: ``verify(part)`` returns the failed checks, after ``drive``.
    verify: Callable[["Part"], list[str]]
    messages: list[Message] = field(default_factory=list)
    #: Simulated seconds the part's traffic took (set by ``drive``).
    elapsed: float = 0.0
    #: Outputs compared against the packet-mode reference (fluid only).
    cells: dict = field(default_factory=dict)
    #: SDR chunk size of the part's messages (None: not an SDR part).
    chunk_bytes: int | None = None


class Scenario:
    """A built workload: parts to run, then outputs to check."""

    def __init__(self, parts: list[Part]):
        self.parts = parts

    def run(self) -> None:
        for part in self.parts:
            part.drive(part)

    def outputs(self) -> dict:
        failures: list[str] = []
        messages: list[Message] = []
        for part in self.parts:
            messages.extend(part.messages)
            failures.extend(f"{part.label}: {msg}" for msg in part.verify(part))
        ok = [m for m in messages if m.ok]
        bad = sum(1 for m in messages if m.delivered and not m.verified)
        if bad:
            failures.append(f"{bad} delivered messages failed verification")
        sim_seconds = sum(p.elapsed for p in self.parts)
        useful = sum(m.nbytes for m in ok)
        data_chunks = sum(
            -(-m.nbytes // p.chunk_bytes)
            for p in self.parts if p.chunk_bytes for m in p.messages if m.ok
        )
        totals = {"packets_offered": 0, "packets_dropped": 0, "cqes_processed": 0,
                  "busy_seconds": 0.0, "segments_sent": 0}
        dpa_capacity = 0.0
        snapshots = {}
        for part in self.parts:
            snap = part.sim.telemetry.metrics.snapshot("")
            snapshots[part.label] = snap
            for key, value in snap.items():
                layer, _, name = key.partition(".")
                name = name.rpartition(".")[2]
                if name in totals and layer in ("net", "dpa", "fabric"):
                    totals[name] += value
                if layer == "dpa" and name == "busy_seconds":
                    dpa_capacity += part.elapsed
        outcome = [
            (m.nbytes, m.ok, None if not m.ok else repr(m.latency))
            for m in messages
        ]
        cells = {p.label: p.cells for p in self.parts if p.cells}
        blob = json.dumps(
            {"metrics": snapshots, "messages": outcome, "cells": cells},
            sort_keys=True, default=repr,
        ).encode()
        return {
            "attempted": len(messages),
            "ok": len(ok),
            "failures": failures,
            "sim_seconds": sim_seconds,
            "useful_bytes": useful,
            "latencies": sorted(m.latency for m in ok),
            "packets": int(totals["packets_offered"]),
            "drops": int(totals["packets_dropped"]),
            "dpa_cqes": int(totals["cqes_processed"]),
            "dpa_busy_frac": (
                totals["busy_seconds"] / dpa_capacity if dpa_capacity else 0.0
            ),
            "fabric_segments": int(totals["segments_sent"]),
            "data_chunks": data_chunks,
            "cells": cells,
            "digest": hashlib.sha256(blob).hexdigest(),
        }


# -- seed-drawn inputs ----------------------------------------------------------


def stratified_sizes(
    rng: np.random.Generator, strata: list[int], per_stratum: int, align: int
) -> list[int]:
    """Sizes jittered inside ``[lo, 2 lo)`` strata with antithetic pairs.

    Each stratum gets ``per_stratum`` sizes at positions ``u``, ``1 - u``
    and then the midpoint, so the total is the same for every seed up to
    ``align`` rounding.  The order is fixed: each stratum's antithetic
    pair back to back, smallest stratum first, then the midpoints.  So the
    seed moves sizes but barely moves the bytes queued ahead of any
    message, which keeps closed-loop latencies comparable across seeds.
    """
    pairs, mids = [], []
    for lo in strata:
        u = float(rng.random())
        sizes = [lo + int(pos * lo) // align * align for pos in (u, 1.0 - u, 0.5)]
        pairs += sizes[: min(per_stratum, 2)]
        mids += sizes[2:per_stratum]
    return pairs + mids


def payload(rng: np.random.Generator, nbytes: int) -> bytes:
    return rng.integers(0, 256, nbytes, dtype=np.uint8).tobytes()


def tally_check(part: Part, delivered: int, failed: int) -> list[str]:
    """The program's own count against the benchmark's verified count.

    ``delivered`` and ``failed`` come from the program (completions,
    protocol counters, flow tickets); they must add up to what was
    attempted, and every delivery must have passed the output checks.
    """
    out = []
    attempted = len(part.messages)
    if delivered + failed != attempted:
        out.append(
            f"delivered {delivered} + failed {failed} != attempted {attempted}"
        )
    ok = sum(1 for m in part.messages if m.ok)
    if ok != delivered:
        out.append(f"program delivered {delivered}, checks passed {ok}")
    return out


# -- fig14_testbed: SDR vs RC closed loop on the 400G testbed --------------------


FIG14_CHANNEL = ChannelConfig(
    bandwidth_bps=400e9, distance_km=0.1, mtu_bytes=4 * KiB
)
FIG14_INFLIGHT = 16


def fig14_sizes(seed: int) -> list[int]:
    """24 sizes over the eight octaves from 64 KiB up to 16 MiB."""
    rng = np.random.default_rng([seed, 14])
    strata = [64 * KiB << i for i in range(8)]
    return stratified_sizes(rng, strata, 3, 4 * KiB)


def sdr_closed_loop(
    label: str,
    sizes: list[int],
    *,
    channel: ChannelConfig,
    sdr: SdrConfig,
    dpa: DpaConfig,
    inflight: int,
    sim_config: SimConfig | None = None,
) -> Part:
    """The ``ib_write_bw`` loop with a per-message size list.

    The server keeps ``inflight`` receives posted and reposts on each full
    bitmap; a message's latency runs from its receive post (when the
    window admits it) to its full bitmap.
    """
    bed = SdrTestbed.build(channel=channel, sdr=sdr, dpa=dpa, sim_config=sim_config)
    sim = bed.sim
    mr = bed.server_ctx.mr_reg(max(sizes), name="server.buf")
    messages = [Message(n) for n in sizes]
    done = sim.event()
    handles = []

    def post(i: int) -> None:
        messages[i].posted = sim.now
        handles.append(
            bed.server_qp.recv_post(SdrRecvWr(mr=mr, length=sizes[i]))
        )

    def server():
        posted = 0
        window = []
        for _ in range(min(inflight, len(sizes))):
            post(posted)
            window.append(handles[-1])
            posted += 1
        for i in range(len(sizes)):
            hdl = window.pop(0)
            yield hdl.wait_all_chunks()
            messages[i].finished = sim.now
            messages[i].delivered = True
            # Full receive bitmap: every chunk and every packet landed.
            messages[i].verified = (
                hdl.chunk_bitmap.all_set() and hdl.packet_bitmap.all_set()
                and hdl.length == sizes[i]
            )
            hdl.complete()
            if posted < len(sizes):
                post(posted)
                window.append(handles[-1])
                posted += 1
        done.succeed(sim.now)

    def client():
        for n in sizes:
            bed.client_qp.send_post(SdrSendWr(length=n))
        return
        yield  # pragma: no cover - generator marker

    sim.process(server())
    sim.process(client())

    def drive(part: Part) -> None:
        sim.run(done)
        part.elapsed = sim.now
        dpa_engine = bed.server_ctx.dpa
        part.cells = {
            "pkt_rate": dpa_engine.cqes_processed / part.elapsed,
            "dpa_busy": dpa_engine.utilization(part.elapsed),
        }

    def verify(part: Part) -> list[str]:
        # SDR reports no failures: a lost message would wedge the loop.
        return tally_check(part, sum(h.completed for h in handles), 0)

    return Part(label, sim, drive, verify, messages, chunk_bytes=sdr.chunk_bytes)


def rc_closed_loop(label: str, sizes: list[int], *, channel: ChannelConfig,
                   inflight: int) -> Part:
    """The RC Write baseline: ``inflight`` writes posted, one more per CQE."""
    sim = Simulator()
    fabric = Fabric(sim, seed=0)
    a = fabric.add_device("client")
    b = fabric.add_device("server")
    fabric.connect(a, b, channel)
    cq_a = CompletionQueue(sim, name="rc.client.cq")
    cq_b = CompletionQueue(sim, name="rc.server.cq")
    qa = RcQp(a, send_cq=cq_a, recv_cq=cq_a)
    qb = RcQp(b, send_cq=cq_b, recv_cq=cq_b)
    qa.connect(qb.info())
    qb.connect(qa.info())
    mr = MemoryRegion(max(sizes), name="server.buf")
    b.reg_mr(mr)
    messages = [Message(n) for n in sizes]
    statuses = []
    done = sim.event()

    def post(i: int) -> None:
        messages[i].posted = sim.now
        qa.post_send(
            SendWr(length=sizes[i], rkey=mr.rkey, remote_offset=0, wr_id=i)
        )

    def driver():
        posted = 0
        for _ in range(min(inflight, len(sizes))):
            post(posted)
            posted += 1
        got = 0
        while got < len(sizes):
            yield cq_a.wait_nonempty()
            for cqe in cq_a.poll(max_entries=len(sizes)):
                statuses.append(cqe.status)
                msg = messages[cqe.wr_id]
                msg.finished = sim.now
                msg.delivered = True
                msg.verified = (
                    cqe.status is CqeStatus.SUCCESS
                    and cqe.byte_len == msg.nbytes
                )
                got += 1
                if posted < len(sizes):
                    post(posted)
                    posted += 1
        done.succeed(sim.now)

    sim.process(driver())

    def drive(part: Part) -> None:
        sim.run(done)
        part.elapsed = sim.now

    def verify(part: Part) -> list[str]:
        good = sum(s is CqeStatus.SUCCESS for s in statuses)
        return tally_check(part, good, len(statuses) - good)

    return Part(label, sim, drive, verify, messages)


def build_fig14_testbed(seed: int) -> Scenario:
    sizes = fig14_sizes(seed)
    sdr = SdrConfig(
        chunk_bytes=64 * KiB,
        max_message_bytes=max(sizes),
        channels=16,
        inflight_messages=FIG14_INFLIGHT,
    )
    return Scenario([
        sdr_closed_loop(
            "sdr", sizes, channel=FIG14_CHANNEL, sdr=sdr,
            dpa=DpaConfig(worker_threads=16), inflight=FIG14_INFLIGHT,
        ),
        rc_closed_loop(
            "rc", sizes, channel=FIG14_CHANNEL, inflight=FIG14_INFLIGHT
        ),
    ])


# -- wan_lossy: SR vs EC vs sampling, payload-carrying, 1% loss -----------------


WAN_CHANNEL = dict(bandwidth_bps=100e9, drop_probability=0.01)
WAN_KM = 1000.0
WAN_PROTOCOLS = ("sr", "ec", "sampling")
WAN_MESSAGES = 16
#: The link's loss stream is part of the scenario, not of the seed: every
#: benchmark seed meets the same drop pattern, so host work and the
#: simulated latencies (which move in whole RTTs per recovery round) stay
#: comparable across seeds.
WAN_LINK_SEED = 0


def wan_inputs(seed: int) -> tuple[list[int], list[bytes], float]:
    """Sizes, payloads and path length of the WAN message list.

    16 sizes of 1 MiB less a seed-drawn sub-MTU trim: every message keeps
    its packet count, and with it the packets the fixed loss stream hits.
    The path is 1000 km give or take a seed-drawn 10 m.  That moves every
    completion by nanoseconds, and now and then moves a timer past a
    packet, which changes which packets the loss stream hits.
    """
    rng = np.random.default_rng([seed, 1000])
    trims = rng.integers(0, 4 * KiB, WAN_MESSAGES)
    sizes = [MiB - int(t) for t in trims]
    distance = WAN_KM + float(rng.uniform(-0.01, 0.01))
    return sizes, [payload(rng, n) for n in sizes], distance


def wan_pair(
    protocol: str, sizes: list[int], payloads: list[bytes], distance_km: float
) -> Part:
    """Serial reliable writes dc-a -> dc-b, byte-compared on arrival."""
    sim = Simulator()
    fabric = Fabric(sim, seed=WAN_LINK_SEED)
    dev_a = fabric.add_device("dc-a")
    dev_b = fabric.add_device("dc-b")
    fabric.connect(
        dev_a, dev_b, ChannelConfig(distance_km=distance_km, **WAN_CHANNEL)
    )
    sdr_cfg = SdrConfig(
        chunk_bytes=64 * KiB,
        max_message_bytes=max(sizes),
        channels=4,
        generations=4,
        inflight_messages=64,
    )
    ctx_a = context_create(dev_a, sdr_config=sdr_cfg, dpa_config=DpaConfig())
    ctx_b = context_create(dev_b, sdr_config=sdr_cfg, dpa_config=DpaConfig())
    qp_a = ctx_a.qp_create()
    qp_b = ctx_b.qp_create()
    qp_a.connect(qp_b.info_get())
    qp_b.connect(qp_a.info_get())
    ctrl_a = ControlPath(ctx_a)
    ctrl_b = ControlPath(ctx_b)
    ctrl_a.connect(ctrl_b.info())
    ctrl_b.connect(ctrl_a.info())
    if protocol == "sr":
        sender = SrSender(qp_a, ctrl_a, SrConfig())
        receiver = SrReceiver(qp_b, ctrl_b, SrConfig())
    elif protocol == "ec":
        cfg = EcConfig(codec="rs")
        sender = EcSender(qp_a, ctrl_a, cfg)
        receiver = EcReceiver(qp_b, ctrl_b, cfg)
    else:
        sender = SamplingSender(qp_a, ctrl_a, SamplingConfig())
        receiver = SamplingReceiver(qp_b, ctrl_b, SamplingConfig())
    buffers = [bytearray(n) for n in sizes]
    mrs = [ctx_b.mr_reg(n, data=buf) for n, buf in zip(sizes, buffers)]
    messages = [Message(n) for n in sizes]
    recv_tickets = []

    def driver():
        for i, n in enumerate(sizes):
            recv_tickets.append(receiver.post_receive(mrs[i], n))
            messages[i].posted = sim.now
            ticket = sender.write(n, payloads[i])
            try:
                yield ticket.done
            except ReproError:
                continue  # clean error completion: counted as missing
            messages[i].finished = sim.now
            messages[i].delivered = not ticket.failed

    done = sim.process(driver())

    def drive(part: Part) -> None:
        sim.run(done)
        part.elapsed = sim.now
        sim.run()  # drain grace-period re-ACK traffic (not in elapsed)
        for msg, buf, data, rt in zip(messages, buffers, payloads, recv_tickets):
            msg.verified = (
                msg.delivered and bytes(buf) == data
                and rt.finish_time is not None
            )

    def verify(part: Part) -> list[str]:
        snap = sim.telemetry.metrics.snapshot(f"{protocol}.dc-a")
        return tally_check(
            part,
            snap[f"{protocol}.dc-a.writes_completed"],
            snap[f"{protocol}.dc-a.writes_failed"],
        )

    return Part(
        protocol, sim, drive, verify, messages, chunk_bytes=sdr_cfg.chunk_bytes
    )


def build_wan_lossy(seed: int) -> Scenario:
    sizes, payloads, distance = wan_inputs(seed)
    return Scenario([
        wan_pair(p, sizes, payloads, distance) for p in WAN_PROTOCOLS
    ])


# -- fabric_scale / fluid_bulk: the two-tier multi-tenant fabric ----------------


FABRIC_SCALE = ScaleConfig(tenants=200, duration=0.03, offered_load_bps=60e9)
FABRIC_BULK = ScaleConfig(
    tenants=200,
    duration=0.02,
    offered_load_bps=120e9,
    mean_message_bytes=8 * MiB,
    max_message_bytes=32 * MiB,
    fluid=True,
)


class PinnedStreams(RngStreams):
    """Open-loop streams with some substreams pinned to a fixed seed.

    The Pareto draw of per-tenant rates fixes which tenants run into
    their quota, and with it the latency tail; with a few dozen bulk
    flows the size draw alone sets the offered bytes.  Drawing those from
    the benchmark seed would make the tail a property of the seed, so
    they come from a fixed stream and the seed draws the rest.
    """

    PINNED_SEED = 0

    def __init__(self, seed: int, pinned: tuple[str, ...]):
        super().__init__(seed)
        self._pinned = pinned
        self._fixed = RngStreams(self.PINNED_SEED)

    def get(self, name: str) -> np.random.Generator:
        if name in self._pinned:
            return self._fixed.get(name)
        return super().get(name)


def fabric_part(
    label: str,
    config: ScaleConfig,
    pinned: tuple[str, ...],
    jitter: float = 0.0,
) -> Part:
    """``scale_scenario`` split into build and run: arrivals are scheduled
    in simulated time here, the run only drains the heap.

    ``pinned`` substreams come from a fixed seed (:class:`PinnedStreams`);
    ``jitter`` > 0 then shifts each arrival by a seed-drawn delay in
    ``[0, jitter)`` seconds.
    """
    topo = two_tier(
        tors=config.tors,
        hosts_per_tor=config.hosts_per_tor,
        host_link=ChannelConfig(
            bandwidth_bps=config.host_bps, distance_km=config.host_km
        ),
        wan_link=ChannelConfig(
            bandwidth_bps=config.wan_bps,
            distance_km=config.wan_km,
            buffer_bytes=4 * MiB,
            ecn_threshold_bytes=1 * MiB,
        ),
    )
    sim = Simulator(config=SimConfig(fluid=config.fluid))
    network = FabricNetwork(sim, topo, seed=config.seed)
    service = FabricService(
        network, config=FabricServiceConfig(cc=config.cc, max_flows_per_qp=256)
    )
    workload = generate(
        OpenLoopConfig(
            tenants=config.tenants,
            duration=config.duration,
            offered_load_bps=config.offered_load_bps,
            mean_message_bytes=config.mean_message_bytes,
            max_message_bytes=config.max_message_bytes,
            rate_skew=config.rate_skew,
        ),
        streams=PinnedStreams(config.seed, pinned),
    )
    if jitter > 0:
        rng = np.random.default_rng([config.seed, 16])
        times = workload.times + rng.uniform(0.0, jitter, len(workload))
        order = np.argsort(times, kind="stable")
        workload = replace(
            workload, times=times[order], tenants=workload.tenants[order],
            sizes=workload.sizes[order],
        )
    hosts = topo.hosts
    names, placement = [], {}
    fair_share = config.offered_load_bps / config.tenants
    for t in range(config.tenants):
        names.append(f"t{t}")
        service.add_tenant(
            TenantSpec(name=f"t{t}", quota_bps=config.quota_headroom * fair_share)
        )
        src = hosts[t % len(hosts)]
        dst = hosts[(t + len(hosts) // 2) % len(hosts)]
        if src == dst:
            dst = hosts[(t + 1) % len(hosts)]
        placement[t] = (src, dst)
    submit_schedule(service, workload, names, placement)

    def drive(part: Part) -> None:
        sim.run()
        part.elapsed = sim.now
        part.messages = [
            Message(
                t.nbytes, posted=t.submitted, finished=t.completed,
                delivered=t.completed is not None and not t.failed,
                verified=t.completed is not None and not t.failed,
            )
            for t in service.flows
        ]
        reports = per_tenant_reports(service, config.duration)
        part.cells = {"goodput_bps": sum(r.goodput_bps for r in reports)}

    def verify(part: Part) -> list[str]:
        failed = sum(t.failed for t in service.flows)
        out = tally_check(part, service.completed_flows, failed)
        if len(service.flows) != len(workload):
            out.append(f"{len(service.flows)} flows for {len(workload)} arrivals")
        for state in service.tenants.values():
            if state.flows_failed == 0 and state.bytes_acked != state.bytes_submitted:
                out.append(
                    f"tenant {state.spec.name} acked {state.bytes_acked} of "
                    f"{state.bytes_submitted} bytes"
                )
        return out

    return Part(label, sim, drive, verify)


#: Tenant rates and arrival instants are pinned; the seed draws sizes.
SCALE_PINNED = ("workload.openloop.weights", "workload.openloop.arrivals")


def build_fabric_scale(seed: int) -> Scenario:
    return Scenario([
        fabric_part(
            "fabric", replace(FABRIC_SCALE, seed=seed), pinned=SCALE_PINNED,
        ),
    ])


#: A few dozen bulk flows: any seed-drawn schedule would set the offered
#: bytes and the tail by itself, so the schedule is pinned and the seed
#: only jitters arrival instants.
BULK_PINNED = (
    "workload.openloop.weights",
    "workload.openloop.arrivals",
    "workload.openloop.sizes",
)
BULK_JITTER = 100e-6

FIG16_THREADS = (4, 16, 64)
FIG16_MTU = 64


def fig16_part(threads: int, *, fluid: bool) -> Part:
    """One Fig 16 cell: 64 B writes, DPA-bound receive path."""
    message = 128 * KiB
    sdr = SdrConfig(
        chunk_bytes=64 * FIG16_MTU,
        max_message_bytes=message,
        mtu_bytes=FIG16_MTU,
        channels=threads,
        inflight_messages=16,
    )
    return sdr_closed_loop(
        f"fig16.t{threads}",
        [message] * 10,
        channel=ChannelConfig(
            bandwidth_bps=400e9, distance_km=0.01, mtu_bytes=FIG16_MTU
        ),
        sdr=sdr,
        dpa=DpaConfig(worker_threads=threads),
        inflight=16,
        sim_config=SimConfig(fluid=fluid),
    )


def build_fluid_bulk(seed: int, *, fluid: bool = True) -> Scenario:
    """The ``--fast-path`` twin; ``fluid=False`` builds the packet reference."""
    parts = [fig16_part(n, fluid=fluid) for n in FIG16_THREADS]
    parts.append(
        fabric_part(
            "fabric", replace(FABRIC_BULK, seed=seed, fluid=fluid),
            pinned=BULK_PINNED, jitter=BULK_JITTER,
        )
    )
    return Scenario(parts)


BUILDERS = {
    "fig14_testbed": build_fig14_testbed,
    "wan_lossy": build_wan_lossy,
    "fabric_scale": build_fabric_scale,
    "fluid_bulk": build_fluid_bulk,
}

