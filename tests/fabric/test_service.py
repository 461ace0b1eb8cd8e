"""FabricService: tenancy, QP pooling, admission, reliability."""

import hashlib
import io

import pytest

from repro.common.config import ChannelConfig
from repro.common.errors import ConfigError
from repro.common.units import KiB
from repro.fabric.service import (
    FabricService,
    FabricServiceConfig,
    TenantSpec,
)
from repro.fabric.chaos import fabric_schedule, install_fabric_faults
from repro.fabric.health import EdgeHealthMonitor
from repro.fabric.report import metrics_digest
from repro.fabric.scenarios import ScaleConfig, scale_scenario
from repro.fabric.topology import FabricNetwork, dumbbell, two_tier
from repro.net.loss import BernoulliLoss, LossModel
from repro.sim.engine import Simulator
from repro.sim.profile import SimProfiler
from repro.telemetry import Telemetry
from repro.telemetry.trace import JsonlSink

HOST = ChannelConfig(bandwidth_bps=25e9, distance_km=0.05)
WAN = ChannelConfig(bandwidth_bps=10e9, distance_km=50.0)


class BlackHole(LossModel):
    """Drops every packet (BernoulliLoss rejects p=1.0)."""

    def drops(self, rng, size_bytes):
        return True


def make_service(service_config=None, *, loss=None, left=2):
    topo = dumbbell(
        left_hosts=left, right_hosts=1, host_link=HOST, bottleneck=WAN
    )
    if loss is not None:
        # Rebuild the bottleneck edges with loss (construction-time knob).
        topo.edges[("torL", "torR")] = topo.edges[("torL", "torR")].__class__(
            "torL", "torR", WAN, loss
        )
    sim = Simulator()
    net = FabricNetwork(sim, topo)
    service = FabricService(net, config=service_config)
    return sim, service


class TestTenancy:
    def test_register_and_duplicate(self):
        sim, service = make_service()
        service.add_tenant(TenantSpec(name="a", quota_bps=1e9))
        with pytest.raises(ConfigError):
            service.add_tenant(TenantSpec(name="a"))
        with pytest.raises(ConfigError):
            service.submit("nobody", "hL0", "hR0", 4096)

    def test_spec_validation(self):
        with pytest.raises(ConfigError):
            TenantSpec(name="")
        with pytest.raises(ConfigError):
            TenantSpec(name="a", quota_bps=0.0)
        with pytest.raises(ConfigError):
            TenantSpec(name="a", burst_bytes=0)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            FabricServiceConfig(cc="bogus")
        with pytest.raises(ConfigError):
            FabricServiceConfig(qp_pool_per_pair=0)
        with pytest.raises(ConfigError):
            FabricServiceConfig(segment_bytes=0)
        with pytest.raises(ConfigError):
            FabricServiceConfig(max_attempts=0)


class TestFlows:
    def test_single_flow_completes(self):
        sim, service = make_service()
        service.add_tenant(TenantSpec(name="a"))
        ticket = service.submit("a", "hL0", "hR0", 256 * KiB)
        sim.run()
        assert ticket.completed is not None
        assert not ticket.failed
        assert ticket.span > service.net.path_rtt("hL0", "hR0")
        state = service.tenant("a")
        assert state.bytes_acked == 256 * KiB
        assert state.flows_completed == 1

    def test_submit_at_future_time(self):
        sim, service = make_service()
        service.add_tenant(TenantSpec(name="a"))
        ticket = service.submit("a", "hL0", "hR0", 4096, at=1e-3)
        sim.run()
        assert ticket.submitted == 1e-3
        assert ticket.started >= 1e-3
        with pytest.raises(ConfigError):
            service.submit("a", "hL0", "hR0", 4096, at=-1.0)
        with pytest.raises(ConfigError):
            service.submit("a", "hL0", "hR0", 0)

    def test_metrics_accounting(self):
        sim, service = make_service()
        service.add_tenant(TenantSpec(name="a"))
        for _ in range(3):
            service.submit("a", "hL0", "hR0", 64 * KiB)
        sim.run()
        m = sim.telemetry.metrics
        assert m.value("fabric.flows_submitted") == 3
        assert m.value("fabric.flows_completed") == 3
        assert m.value("fabric.bytes_acked") == 3 * 64 * KiB
        assert m.value("fabric.segments_sent") >= 3 * 2  # 64K / 32K segs
        assert m.value("fabric.qps_in_use") == 0  # all released

    def test_quota_throttles_noncompliant_tenant(self):
        # A non-compliant tenant ignores cc but cannot ignore its bucket:
        # 20 x 64 KiB at a 1 Gbit/s quota needs ~10 ms, far above the
        # unthrottled drain time.
        cfg = FabricServiceConfig(cc="none")
        sim, service = make_service(cfg)
        service.add_tenant(
            TenantSpec(name="hog", quota_bps=1e9, compliant=False)
        )
        for _ in range(20):
            service.submit("hog", "hL0", "hR0", 64 * KiB)
        sim.run()
        offered_bits = 20 * 64 * KiB * 8
        assert sim.now >= offered_bits / 1e9 * 0.8
        assert service.tenant("hog").flows_completed == 20

    def test_unenforced_quota_is_ignored(self):
        cfg = FabricServiceConfig(cc="none", enforce_quotas=False)
        sim, service = make_service(cfg)
        service.add_tenant(
            TenantSpec(name="hog", quota_bps=1e9, compliant=False)
        )
        for _ in range(20):
            service.submit("hog", "hL0", "hR0", 64 * KiB)
        sim.run()
        # Only line rates bound the drain now: well under the quota time.
        offered_bits = 20 * 64 * KiB * 8
        assert sim.now < offered_bits / 1e9 * 0.8


class TestQpPool:
    def test_pool_bounds_concurrency(self):
        cfg = FabricServiceConfig(
            cc="none", qp_pool_per_pair=1, max_flows_per_qp=2
        )
        sim, service = make_service(cfg)
        service.add_tenant(TenantSpec(name="a"))
        tickets = [
            service.submit("a", "hL0", "hR0", 32 * KiB) for _ in range(6)
        ]
        sim.run()
        assert all(t.completed is not None for t in tickets)
        m = sim.telemetry.metrics
        # 6 flows through 2 slots: at least 4 had to wait for the pool.
        assert m.value("fabric.qp_pool_waits") >= 4
        assert m.value("fabric.qp_pool_wait_seconds") > 0

    def test_pool_wide_enough_never_waits(self):
        cfg = FabricServiceConfig(
            cc="none", qp_pool_per_pair=2, max_flows_per_qp=8
        )
        sim, service = make_service(cfg)
        service.add_tenant(TenantSpec(name="a"))
        for _ in range(6):
            service.submit("a", "hL0", "hR0", 32 * KiB)
        sim.run()
        assert sim.telemetry.metrics.value("fabric.qp_pool_waits") == 0


class TestReliability:
    def test_loss_recovered_by_rto(self):
        sim, service = make_service(loss=BernoulliLoss(0.2))
        service.add_tenant(TenantSpec(name="a"))
        tickets = [
            service.submit("a", "hL0", "hR0", 128 * KiB) for _ in range(8)
        ]
        sim.run()
        assert all(t.completed is not None for t in tickets)
        m = sim.telemetry.metrics
        assert m.value("fabric.segments_retransmitted") > 0
        assert service.tenant("a").bytes_acked == 8 * 128 * KiB

    def test_hopeless_loss_fails_cleanly(self):
        sim, service = make_service(
            FabricServiceConfig(max_attempts=3), loss=BlackHole()
        )
        service.add_tenant(TenantSpec(name="a"))
        ticket = service.submit("a", "hL0", "hR0", 4096)
        sim.run()  # must drain: bounded attempts, clean failure
        assert ticket.failed
        assert ticket.completed is None
        assert service.tenant("a").flows_failed == 1
        assert sim.telemetry.metrics.value("fabric.flows_failed") == 1

    def test_ecn_echo_reaches_controller(self):
        # Tight ECN threshold at the bottleneck + an unpaced compliant
        # burst (cc="none"): the 25G uplink overruns the 10G bottleneck,
        # the backlog crosses the mark threshold, and the echoed CE bits
        # must reach the service's signal path.
        topo = dumbbell(
            left_hosts=1,
            right_hosts=1,
            host_link=HOST,
            bottleneck=ChannelConfig(
                bandwidth_bps=10e9, distance_km=50.0,
                ecn_threshold_bytes=32 * KiB,
            ),
        )
        sim = Simulator()
        service = FabricService(
            FabricNetwork(sim, topo), config=FabricServiceConfig(cc="none")
        )
        service.add_tenant(TenantSpec(name="a"))
        for _ in range(8):
            service.submit("a", "hL0", "hR0", 128 * KiB)
        sim.run()
        assert sim.telemetry.metrics.value("fabric.ecn_echoes") > 0


class TestDeterminism:
    def run_digest(self, seed):
        from repro.fabric.report import metrics_digest

        topo = dumbbell(
            left_hosts=2, right_hosts=1, host_link=HOST, bottleneck=WAN
        )
        sim = Simulator()
        net = FabricNetwork(sim, topo, seed=seed)
        service = FabricService(net)
        service.add_tenant(TenantSpec(name="a", quota_bps=5e9))
        service.add_tenant(TenantSpec(name="b", quota_bps=5e9))
        for i in range(40):
            service.submit(
                "a" if i % 2 == 0 else "b",
                "hL0" if i % 2 == 0 else "hL1",
                "hR0",
                (16 + (i * 7) % 64) * KiB,
                at=i * 20e-6,
            )
        sim.run()
        return metrics_digest(sim.telemetry.metrics)

    def test_same_seed_byte_identical_metrics(self):
        assert self.run_digest(0) == self.run_digest(0)

    def test_seed_changes_nothing_without_randomness(self):
        # This scenario has no loss/jitter, so metrics must not depend on
        # the seed at all -- catching accidental RNG coupling.
        assert self.run_digest(0) == self.run_digest(1)

def traced_sim():
    buf = io.StringIO()
    sim = Simulator(
        telemetry=Telemetry(trace=True, trace_sinks=[JsonlSink(buf)])
    )
    return sim, buf


def fingerprint(sim, buf):
    """(sha256 of the JSONL trace, ``fabric.*`` metrics digest)."""
    trace = hashlib.sha256(buf.getvalue().encode()).hexdigest()
    return trace, metrics_digest(sim.telemetry.metrics)


class TestFlowLifecycle:
    """Packet-mode flows run as callback chains: route poll, QP-pool
    admission, per-segment pump, finish on ``ticket.done``.

    The pinned fingerprints were recorded with the earlier generator
    lifecycle; the callback chain must reproduce its event order exactly.
    """

    def test_event_budget_per_flow(self):
        # A lossless fabric of mostly single-segment flows: submit, start,
        # per-hop deliveries, ACK and RTO, with no per-flow boot or
        # completion event on top (the generator lifecycle spent 10.92).
        profiler = SimProfiler()
        result = scale_scenario(
            ScaleConfig(
                tenants=200, duration=0.003, offered_load_bps=60e9, seed=1
            ),
            telemetry=Telemetry(profiler=profiler),
        )
        assert result.messages >= 1000
        assert result.completed == result.messages
        # sim._seq counts every heap push of the run.
        assert profiler.sim._seq / result.messages <= 9.0
        categories = [c["category"] for c in profiler.report()["categories"]]
        assert not any("_run_flow" in c for c in categories), categories

    def test_qp_pool_saturation_pinned(self):
        sim, buf = traced_sim()
        topo = dumbbell(
            left_hosts=2, right_hosts=1, host_link=HOST, bottleneck=WAN
        )
        service = FabricService(
            FabricNetwork(sim, topo),
            config=FabricServiceConfig(qp_pool_per_pair=1, max_flows_per_qp=1),
        )
        service.add_tenant(TenantSpec(name="a"))
        for i in range(12):
            service.submit(
                "a", f"hL{i % 2}", "hR0", (24 + 40 * (i % 3)) * KiB,
                at=i * 5e-6,
            )
        sim.run()
        assert sim.telemetry.metrics.value("fabric.qp_pool_waits") == 10
        assert service.completed_flows == 12
        assert fingerprint(sim, buf) == (
            "d43d5cdc5380311289014a0da91219097a0a6f985f74d8af0bc1beff6b19a517",
            "5f34a13b4bdc2cdbad4015b41134acb998619fc454dbfccff24aaa1ac422acd9",
        )

    def test_admission_stalls_pinned(self):
        sim, buf = traced_sim()
        topo = dumbbell(
            left_hosts=2, right_hosts=1, host_link=HOST, bottleneck=WAN
        )
        service = FabricService(FabricNetwork(sim, topo))
        # Both quotas sit far below the tenants' offered load.
        service.add_tenant(
            TenantSpec(name="slow", quota_bps=2e9, burst_bytes=32 * KiB)
        )
        service.add_tenant(
            TenantSpec(name="hog", quota_bps=1e9, compliant=False)
        )
        for i in range(10):
            service.submit(
                "slow", "hL0", "hR0", (48 + 16 * (i % 4)) * KiB, at=i * 10e-6
            )
            service.submit("hog", "hL1", "hR0", 96 * KiB, at=i * 10e-6 + 3e-6)
        sim.run()
        assert sim.telemetry.metrics.value("fabric.admission_stalls") == 51
        assert service.completed_flows == 20
        assert fingerprint(sim, buf) == (
            "37ff29330f6733134cac8265072437ab69b23efaf54a0aeef8766215bdc467bb",
            "acd3e3c375689301243e9293a07fd6c70f9a48d4d9399505ae543509433f08fe",
        )

    def test_partition_failures_pinned(self):
        # Every WAN core crashes: flows already running fail mid-flow on
        # the no-route clock; flows on pairs first used during the
        # partition fail at admission.  A one-QP pool makes the instant
        # each flow releases its slot observable.
        sim, buf = traced_sim()
        topo = two_tier(
            tors=4,
            hosts_per_tor=1,
            host_link=HOST,
            wan_link=ChannelConfig(
                bandwidth_bps=10e9, distance_km=100.0,
                buffer_bytes=512 * KiB, ecn_threshold_bytes=128 * KiB,
            ),
            wan_routers=2,
        )
        network = FabricNetwork(sim, topo, seed=3)
        rtt = network.path_rtt("h0-0", "h2-0")
        EdgeHealthMonitor(network)
        service = FabricService(
            network,
            config=FabricServiceConfig(
                partition_deadline=4 * rtt, qp_pool_per_pair=1,
                max_flows_per_qp=2,
            ),
        )
        install_fabric_faults(
            network, fabric_schedule("fabric_partition", rtt=rtt)
        )
        service.add_tenant(TenantSpec(name="a"))
        service.add_tenant(TenantSpec(name="q", quota_bps=0.5e9))
        hosts = topo.hosts
        for i in range(8):
            service.submit("a", hosts[0], hosts[2], 256 * KiB, at=i * rtt)
            service.submit(
                "q", hosts[1], hosts[3], 192 * KiB, at=i * rtt + rtt / 3
            )
        late = [(2, 0), (2, 1), (3, 0), (3, 1), (0, 3), (1, 2), (0, 1), (2, 3)]
        for i, (src, dst) in enumerate(late):
            service.submit(
                "a", hosts[src], hosts[dst], 64 * KiB, at=(20 + 8 * i) * rtt
            )
        sim.run()
        errors = [str(t.error) for t in service.flows if t.error is not None]
        at_admission = sum("at admission" in e for e in errors)
        assert (at_admission, len(errors) - at_admission) == (2, 14)
        assert fingerprint(sim, buf) == (
            "90ad10663714431a59d9bd487fc31afb59e1c46c4b37605abc9ffb3ba382bbd4",
            "69bd1c17918f0d9f9b82398fc2979a867b0cb760724c6acfe62c7fa516327cd1",
        )
