"""Tests of the benchmark's own machinery.

Run from the repository root::

    PYTHONPATH=src:perfbench python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import layertrace
import stats
from layertrace import SpanRecorder, Tracer, layer_of_module
from repro.sim.engine import Simulator

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)


class FakeClock:
    """A clock that returns the scripted readings in order."""

    def __init__(self, *readings: float):
        self.readings = list(readings)

    def __call__(self) -> float:
        return self.readings.pop(0)


def self_by_name(rec: SpanRecorder, since: float = float("-inf")) -> dict:
    name, parent, start, end, index = rec.arrays(since)
    per = layertrace.span_self_times(
        name, parent, start, end, index, len(rec.names)
    )
    return {n: float(s) for n, s in zip(rec.names, per)}


class TestSelfTime:
    def test_nested_and_sibling_spans(self):
        # A [0, 10) holds B [1, 3) and C [4, 5); B holds D [1.5, 2.5).
        rec = SpanRecorder(FakeClock(0, 1, 1.5, 2.5, 3, 4, 5, 10))
        a, b, c, d = (rec.intern(n, "x") for n in "ABCD")
        ia = rec.open(a)
        ib = rec.open(b)
        idd = rec.open(d)
        rec.close(idd)
        rec.close(ib)
        ic = rec.open(c)
        rec.close(ic)
        rec.close(ia)
        got = self_by_name(rec)
        assert got == pytest.approx({"A": 7.0, "B": 1.0, "C": 1.0, "D": 1.0})
        assert rec.root_seconds() == pytest.approx(10.0)
        # Self times partition the root span exactly.
        assert sum(got.values()) == pytest.approx(10.0)

    def test_sibling_roots_and_layer_rollup(self):
        # verbs [0, 2), then verbs [2, 4) holding net [3, 3.5).
        rec = SpanRecorder(FakeClock(0, 2, 2, 3, 3.5, 4))
        net = rec.intern("net:Channel.transmit", "net")
        verbs = rec.intern("verbs:UcQp.post_send", "verbs")
        i = rec.open(verbs)
        rec.close(i)
        i = rec.open(verbs)
        j = rec.open(net)
        rec.close(j)
        rec.close(i)
        assert rec.self_times() == pytest.approx({"verbs": 3.5, "net": 0.5})
        assert rec.counts() == {"net:Channel.transmit": 1, "verbs:UcQp.post_send": 2}

    def test_since_drops_earlier_spans(self):
        rec = SpanRecorder(FakeClock(0, 1, 5, 6))
        a = rec.intern("A", "x")
        rec.close(rec.open(a))
        rec.close(rec.open(a))
        assert self_by_name(rec, since=5) == pytest.approx({"A": 1.0})


class TestTail:
    def test_needs_ten_samples_beyond(self):
        values = list(range(1, 49))  # 48 samples: p90 leaves 5, p75 leaves 12
        q, value = stats.tail(values)
        assert q == 75.0
        assert value == pytest.approx(np.percentile(values, 75))

    def test_exactly_ten_beyond_qualifies(self):
        values = list(range(1, 42))  # 41 samples: p75 = 31, ten above it
        assert stats.tail(values)[0] == 75.0

    def test_large_sample_reaches_p999(self):
        values = list(range(20_000))
        assert stats.tail(values)[0] == 99.9

    def test_small_sample_falls_back_to_median(self):
        values = [1.0] * 6 + [2.0] * 6
        assert stats.tail(values) == (50.0, 1.5)


class TestRollup:
    @pytest.mark.parametrize("module, layer", [
        ("repro.sim.engine", "sim.engine"),
        ("repro.sim.fluid", "sim.fluid"),
        ("repro.sim.rng", "sim.engine"),
        ("repro.verbs.qp", "verbs"),
        ("repro.reliability.sr", "reliability"),
        ("repro.fabric.service", "fabric"),
        ("workloads", "app"),
        ("repro", "app"),
    ])
    def test_layer_of_module(self, module, layer):
        assert layer_of_module(module) == layer

    def test_dispatch_charged_to_owning_package(self):
        from repro.cc.controller import StaticRateController
        from repro.cc.pacer import TokenBucketGroup

        tracer = Tracer()
        tracer.install()
        try:
            sim = Simulator()
            bucket = TokenBucketGroup(sim, StaticRateController(8e9))
            # An engine callback defined here is "app"; the bucket call
            # it makes is a child span charged to cc.
            sim.call_in(1.0, lambda: bucket.reserve(1000))
            loser = sim.timeout(5.0)
            sim.any_of([sim.timeout(2.0), loser])
            sim.run()
        finally:
            tracer.uninstall()
        layers = dict(zip(tracer.recorder.names, tracer.recorder.layers))
        counts = tracer.recorder.counts()
        assert counts["cc:TokenBucketGroup.reserve"] == 1
        assert layers["cc:TokenBucketGroup.reserve"] == "cc"
        app = [n for n in layers if n.startswith("test_perfbench:")]
        assert app and all(layers[n] == "app" for n in app)
        assert layers["repro.sim.engine:Simulator.any_of"] == "sim.engine"
        # Four dispatches: the callback, the winning timeout, the gate
        # itself (nobody waits on it) and the losing timeout, whose any_of
        # arm finds the gate already fired.  The last two are dead.
        assert tracer.events == 4
        assert tracer.dead_events == 2


class TestNoWrappersInTimedRuns:
    def test_install_and_uninstall(self):
        assert layertrace.installed() == []
        tracer = Tracer()
        tracer.install()
        try:
            names = layertrace.installed()
            assert "Channel.transmit" in names
            assert "Simulator.step" in names
            assert len(names) == len(layertrace.ENTRY_POINTS) + 2
        finally:
            tracer.uninstall()
        assert layertrace.installed() == []

    def test_timed_child_reports_no_wrappers(self):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [os.path.join(ROOT, "src"), BENCH]))
        proc = subprocess.run(
            [sys.executable, os.path.join(BENCH, "child.py"), "--mode", "timed",
             "--workload", "fluid_bulk", "--seed", "3", "--budget", "0"],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout.strip().splitlines()[-1])
        assert report["wrappers"] == []
        assert len(report["walls"]) == 1
        out = report["outputs"][0]
        assert out["failures"] == []
        assert out["ok"] == out["attempted"] > 0
        assert report["setup_s"] >= report["import_s"] > 0


class TestStats:
    def test_spread_is_iqr_over_median(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0]
        q1, med, q3 = __import__("statistics").quantiles(values, n=4)
        assert stats.spread(values) == pytest.approx((q3 - q1) / med)

    def test_fluid_errors_skip_busy_fraction(self):
        packet = {"fig16.t4": {"pkt_rate": 100.0, "dpa_busy": 0.5}}
        fluid = {"fig16.t4": {"pkt_rate": 101.0, "dpa_busy": 0.9}}
        assert stats.fluid_errors(fluid, packet) == pytest.approx(
            {"fig16.t4.pkt_rate": 1.0}
        )
