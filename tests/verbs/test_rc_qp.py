"""RC QP: reliable delivery with Go-Back-N over lossy channels."""

import math

import pytest

import repro.experiments.testbed as testbed
from repro.common.config import ChannelConfig
from repro.common.errors import ConfigError
from repro.common.units import KiB, MiB
from repro.sim.engine import Simulator
from repro.telemetry import RingBufferSink, Telemetry
from repro.verbs.mr import MemoryRegion
from repro.verbs.qp import RcQp, SendWr

from tests.verbs.conftest import make_wire


def make_pair(wire, **kw):
    qa = RcQp(wire.a, send_cq=wire.cq("a.s"), recv_cq=wire.cq("a.r"), **kw)
    qb = RcQp(wire.b, send_cq=wire.cq("b.s"), recv_cq=wire.cq("b.r"), **kw)
    qa.connect(qb.info())
    qb.connect(qa.info())
    return qa, qb


class TestLossless:
    def test_write_completes_with_ack(self, wire):
        qa, qb = make_pair(wire)
        buf = bytearray(64 * KiB)
        mr = MemoryRegion(64 * KiB, data=buf)
        wire.b.reg_mr(mr)
        payload = bytes(range(256)) * 256
        qa.post_send(SendWr(length=64 * KiB, rkey=mr.rkey, payload=payload, wr_id=1))
        wire.sim.run()
        assert bytes(buf) == payload
        cqes = qa.send_cq.poll(10)
        assert [c.wr_id for c in cqes] == [1]
        assert qa.retransmissions == 0

    def test_multiple_writes_in_order(self, wire):
        qa, qb = make_pair(wire)
        mr = MemoryRegion(1 * MiB)
        wire.b.reg_mr(mr)
        for i in range(4):
            qa.post_send(SendWr(length=128 * KiB, rkey=mr.rkey, wr_id=i))
        wire.sim.run()
        assert [c.wr_id for c in qa.send_cq.poll(10)] == [0, 1, 2, 3]

    def test_write_with_immediate_delivers_recv_cqe(self, wire):
        qa, qb = make_pair(wire)
        mr = MemoryRegion(64 * KiB)
        wire.b.reg_mr(mr)
        qa.post_send(SendWr(length=32 * KiB, rkey=mr.rkey, immediate=42))
        wire.sim.run()
        cqes = qb.recv_cq.poll(10)
        assert len(cqes) == 1
        assert cqes[0].immediate == 42


class TestLossy:
    @pytest.mark.parametrize("drop", [0.02, 0.1])
    def test_reliable_delivery_under_loss(self, drop):
        wire = make_wire(drop=drop, distance_km=50.0, seed=5)
        qa, qb = make_pair(wire)
        buf = bytearray(256 * KiB)
        mr = MemoryRegion(256 * KiB, data=buf)
        wire.b.reg_mr(mr)
        payload = bytes(i % 251 for i in range(256 * KiB))
        qa.post_send(SendWr(length=256 * KiB, rkey=mr.rkey, payload=payload, wr_id=9))
        wire.sim.run(until=30.0)
        assert bytes(buf) == payload
        assert [c.wr_id for c in qa.send_cq.poll(10)] == [9]
        data_drops = (
            wire.fabric.links[("a", "b")].forward.stats.packets_dropped
        )
        if data_drops:
            assert qa.retransmissions > 0

    def test_nak_triggers_rewind(self):
        wire = make_wire(drop=0.05, distance_km=50.0, seed=7)
        qa, qb = make_pair(wire)
        mr = MemoryRegion(512 * KiB)
        wire.b.reg_mr(mr)
        qa.post_send(SendWr(length=512 * KiB, rkey=mr.rkey, wr_id=0))
        wire.sim.run(until=30.0)
        assert len(qa.send_cq.poll(10)) == 1
        assert qb.naks_sent > 0

    def test_go_back_n_retransmits_more_than_lost(self):
        # GBN's inefficiency: retransmissions exceed actual losses.
        wire = make_wire(drop=0.05, distance_km=100.0, seed=11)
        qa, qb = make_pair(wire)
        mr = MemoryRegion(1 * MiB)
        wire.b.reg_mr(mr)
        qa.post_send(SendWr(length=1 * MiB, rkey=mr.rkey, wr_id=0))
        wire.sim.run(until=60.0)
        assert len(qa.send_cq.poll(10)) == 1
        lost = wire.fabric.links[("a", "b")].forward.stats.packets_dropped
        assert qa.retransmissions >= lost


class TestWindow:
    def test_window_limits_outstanding(self, wire):
        qa, qb = make_pair(wire, window_packets=4)
        mr = MemoryRegion(1 * MiB)
        wire.b.reg_mr(mr)
        qa.post_send(SendWr(length=256 * KiB, rkey=mr.rkey, wr_id=0))
        # After the first scheduling rounds, outstanding <= window.
        wire.sim.run(until=1e-5)
        assert qa._snd_nxt - qa._snd_una <= 4
        wire.sim.run()
        assert len(qa.send_cq.poll(10)) == 1


class TestConfig:
    @pytest.mark.parametrize("rto", [0.0, -1e-3, math.inf, math.nan])
    def test_rejects_non_positive_or_non_finite_rto(self, wire, rto):
        with pytest.raises(ConfigError, match="rto"):
            RcQp(wire.a, send_cq=wire.cq(), recv_cq=wire.cq(), rto=rto)


def _rc_timer_entries(sim) -> int:
    """Heap entries whose callback is an RcQp retransmission timer."""
    n = 0
    for _time, _seq, event in sim._heap:
        for cb in event.callbacks:
            fn = getattr(cb, "__wrapped__", cb)
            if getattr(fn, "__qualname__", "").startswith("RcQp._arm_timer"):
                n += 1
    return n


class TestRetransmissionTimer:
    @pytest.mark.parametrize(
        "message_bytes, n_messages, elapsed",
        [
            (1 * MiB, 8, 0.00016844010666667114),
            (16 * MiB, 4, 0.0013428452266669578),
        ],
    )
    def test_fig14_link_event_diet(
        self, monkeypatch, message_bytes, n_messages, elapsed
    ):
        # The Fig 14 testbed link: heap events per data packet must not grow
        # with transfer length, and the lossless timeline stays exact.
        sims = []

        class Recording(Simulator):
            def __init__(self, **kw):
                super().__init__(**kw)
                sims.append(self)

        monkeypatch.setattr(testbed, "Simulator", Recording)
        mtu = 4 * KiB
        result = testbed.run_rc_throughput(
            message_bytes=message_bytes,
            n_messages=n_messages,
            channel=ChannelConfig(
                bandwidth_bps=400e9, distance_km=0.1, mtu_bytes=mtu
            ),
        )
        (sim,) = sims
        data_packets = n_messages * (message_bytes // mtu)
        # sim._seq counts every heap push of the run.
        assert sim._seq / data_packets <= 2.5
        assert result.elapsed == elapsed

    def test_lossy_rewinds_at_most_once_per_rto(self):
        ring = RingBufferSink()
        wire = make_wire(
            drop=0.1,
            distance_km=50.0,
            seed=5,
            telemetry=Telemetry(trace=True, trace_sinks=[ring]),
        )
        qa, qb = make_pair(wire)
        mr = MemoryRegion(256 * KiB)
        wire.b.reg_mr(mr)
        qa.post_send(SendWr(length=256 * KiB, rkey=mr.rkey, wr_id=0))
        sim = wire.sim
        # Only the sender arms a timer, so the heap holds at most one.
        while sim._heap:
            sim.step()
            assert _rc_timer_entries(sim) <= 1
        assert [c.wr_id for c in qa.send_cq.poll(10)] == [0]
        rewinds = [
            ev for ev in ring.events
            if ev.name == "rto_rewind" and ev.track == qa._track
        ]
        stalled = [
            (prev, cur)
            for prev, cur in zip(rewinds, rewinds[1:])
            if cur.args["snd_una"] == prev.args["snd_una"]
        ]
        assert stalled, "the run must rewind twice without ACK progress"
        rto = qa._effective_rto()
        for prev, cur in stalled:
            assert cur.ts >= prev.ts + rto
