"""The repository benchmark: host cost of four paper regimes.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload fig14_testbed --seed 1 --seconds 15 --trace 0

Every sample runs in a fresh single-threaded interpreter
(``perfbench/child.py``); this parent only spawns, checks and reduces.

* ``--trace 0`` prints the end-to-end metrics: median host seconds of
  the timed simulation section over every iteration of every child,
  median set-up seconds over the children, and the simulated guards.
* ``--trace 1`` prints the per-layer split from one traced child, next
  to an untraced child of the same seed whose simulated outputs it must
  reproduce exactly.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  A failed output check makes
``correct`` false and the exit code 1; a checkout without ``src/repro``
exits 2 without a result.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from stats import (  # noqa: E402
    FLUID_BOUND_PCT,
    REFERENCE_KERNEL_S,
    calibration,
    fluid_errors,
    tail,
)

WORKLOADS = ("fig14_testbed", "wan_lossy", "fabric_scale", "fluid_bulk")
#: Children per timed run; ``setup_s`` is their median.
TIMED_CHILDREN = 3
#: Later performance claims must also hold on this seed.
HELD_OUT_SEED = 97
#: Every child must end before this many seconds into the run.
RUN_DEADLINE_S = 170
STARTED = time.monotonic()
SPAN_DIR = os.path.join(ROOT, ".perfbench")

#: Per-layer metrics: name -> unit (the order they are printed in).
PER_LAYER = {
    "sim.engine.events": "count",
    "sim.engine.events_per_pkt": "ev/pkt",
    "sim.engine.dead_events": "count",
    "sim.engine.self_s": "s",
    "sim.fluid.self_s": "s",
    "sim.fluid.segments": "count",
    "sim.fluid.bytes_frac": "frac",
    "fluid_err_pct": "%",
    "verbs.self_s": "s",
    "verbs.rc_timer_events": "count",
    "net.self_s": "s",
    "net.pkts": "pkt",
    "net.drops": "pkt",
    "sdr.self_s": "s",
    "sdr.calls": "count",
    "dpa.self_s": "s",
    "dpa.cqes": "count",
    "dpa.busy_frac": "frac",
    "reliability.self_s": "s",
    "reliability.retx_chunks": "count",
    "reliability.ctrl_msgs": "count",
    "reliability.useful_frac": "frac",
    "ec.self_s": "s",
    "ec.coded_bytes": "B",
    "cc.self_s": "s",
    "cc.reserve_calls": "count",
    "fabric.self_s": "s",
    "fabric.flows": "count",
    "fabric.segments": "count",
    "telemetry.self_s": "s",
    "setup.import_s": "s",
    "setup.build_s": "s",
    "trace.overhead_s": "s",
}

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "sim_pkts_per_s": "pkt/s",
    "peak_rss_mb": "MB",
    "success_frac": "frac",
    "sim_goodput_gbps": "Gb/s",
    "sim_msg_p50_ms": "ms",
    "sim_msg_tail_ms": "ms",
}

FLUID_SPANS = (
    "net:Channel.fluid_admit", "net:Channel.fluid_admit_chain",
    "net:Channel.fluid_admit_one", "net:Channel.fluid_transmit_one",
)
SDR_CALLS = (
    "sdr:SdrQp.send_post", "sdr:SdrQp.send_stream_start",
    "sdr:SdrQp.send_stream_continue", "sdr:SdrQp.recv_post",
)
CC_CALLS = (
    "cc:Pacer.reserve", "cc:Pacer.reserve_batch",
    "cc:TokenBucketGroup.reserve", "cc:TokenBucketGroup.reserve_batch",
)


class ChildFailed(RuntimeError):
    pass


def spawn(mode: str, workload: str, seed: int, **extra) -> dict:
    """Run one child to completion and return its JSON report."""
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join([os.path.join(ROOT, "src"), HERE]),
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    cmd = [
        sys.executable, os.path.join(HERE, "child.py"), "--mode", mode,
        "--workload", workload, "--seed", str(seed),
    ]
    for key, value in extra.items():
        cmd += [f"--{key}", str(value)]
    cmd += ["--spawned", repr(time.monotonic())]
    proc = subprocess.run(
        cmd, env=env, cwd=ROOT, capture_output=True, text=True,
        timeout=max(1.0, STARTED + RUN_DEADLINE_S - time.monotonic()),
    )
    if proc.returncode != 0:
        raise ChildFailed(
            f"{mode} child for {workload} exited {proc.returncode}:\n"
            + proc.stderr[-2000:]
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


# -- output checks ---------------------------------------------------------------


class Checks:
    """Collects failed checks; every message or flow is counted once."""

    def __init__(self):
        self.failures: list[str] = []
        self.attempted = 0
        self.ok = 0

    def fail(self, message: str) -> None:
        self.failures.append(message)

    def iteration(self, out: dict, where: str, extra_ok: bool = True) -> None:
        """Count one iteration's messages; a failed check voids its successes."""
        self.attempted += out["attempted"]
        for message in out["failures"]:
            self.fail(f"{where}: {message}")
        if extra_ok and not out["failures"]:
            self.ok += out["ok"]

    def digests(self, outputs: list[dict], where: str) -> None:
        seen = {out["digest"] for out in outputs}
        if len(seen) != 1:
            self.fail(f"{where}: {len(seen)} different metric digests for one seed")

    def fluid(self, out: dict, ref: dict | None, where: str) -> tuple[bool, float]:
        if ref is None:
            return True, 0.0
        errors = fluid_errors(out["cells"], ref["cells"])
        worst = max(errors.values())
        for cell, err in errors.items():
            if err > FLUID_BOUND_PCT:
                self.fail(f"{where}: fluid {cell} off packet mode by {err:.3f}%")
        return worst <= FLUID_BOUND_PCT, worst

    @property
    def correct(self) -> bool:
        return not self.failures


# -- the two kinds of run ---------------------------------------------------------


def end_to_end(workload: str, seed: int, seconds: float, checks: Checks) -> dict:
    ref = None
    if workload == "fluid_bulk":
        ref = spawn("reference", workload, seed)["outputs"]
    budget = seconds / TIMED_CHILDREN
    children = [
        spawn("timed", workload, seed, budget=budget)
        for _ in range(TIMED_CHILDREN)
    ]
    walls, ref_walls, kernels, outputs = [], [], [], []
    for i, child in enumerate(children):
        if child["wrappers"]:
            checks.fail(f"timed child {i} carried wrappers: {child['wrappers']}")
        walls += child["walls"]
        ref_walls += child["ref_walls"]
        kernels += child["kernels"]
        for j, out in enumerate(child["outputs"]):
            fluid_ok, _worst = checks.fluid(out, ref, f"child {i} iter {j}")
            checks.iteration(out, f"child {i} iter {j}", fluid_ok)
            outputs.append(out)
    checks.digests(outputs, workload)
    first = outputs[0]
    wall = statistics.median(ref_walls)
    q, tail_value = tail(first["latencies"])
    print(
        f"info: {len(walls)} timed samples over {TIMED_CHILDREN} children; "
        f"raw host seconds median {statistics.median(walls):.4f} "
        f"(min {min(walls):.4f}, max {max(walls):.4f}); raw setup seconds "
        f"median {statistics.median(c['setup_s'] for c in children):.4f}"
    )
    print(
        f"info: calibration kernel around the samples: min {min(kernels):.4f} s, "
        f"max {max(kernels):.4f} s, reference {REFERENCE_KERNEL_S} s; "
        f"tail percentile p{q:g} of {len(first['latencies'])} samples"
    )
    return {
        "wall_s": wall,
        "setup_s": statistics.median(c["setup_ref_s"] for c in children),
        "sim_pkts_per_s": first["packets"] / wall,
        "peak_rss_mb": max(c["peak_rss_mb"] for c in children),
        "success_frac": checks.ok / checks.attempted,
        "sim_goodput_gbps": first["useful_bytes"] * 8 / first["sim_seconds"] / 1e9,
        "sim_msg_p50_ms": statistics.median(first["latencies"]) * 1e3,
        "sim_msg_tail_ms": tail_value * 1e3,
    }


def per_layer(workload: str, seed: int, seconds: float, checks: Checks) -> dict:
    ref = None
    if workload == "fluid_bulk":
        ref = spawn("reference", workload, seed)["outputs"]
    plain = spawn("timed", workload, seed, budget=seconds / 2)
    os.makedirs(SPAN_DIR, exist_ok=True)
    spans_path = os.path.join(SPAN_DIR, f"spans-{workload}.npz")
    traced = spawn("traced", workload, seed, spans=spans_path)
    if plain["wrappers"]:
        checks.fail(f"untraced child carried wrappers: {plain['wrappers']}")
    for j, out in enumerate(plain["outputs"]):
        checks.iteration(out, f"untraced iter {j}", checks.fluid(out, ref, "untraced")[0])
    out = traced["outputs"]
    fluid_ok, worst = checks.fluid(out, ref, "traced")
    checks.iteration(out, "traced", fluid_ok)
    checks.digests(plain["outputs"] + [out], f"{workload} traced vs untraced")
    layers, spans, counts = traced["layers"], traced["spans"], traced["counts"]
    packets = out["packets"]
    fluid_bytes = counts.get("fluid.bytes", 0)
    wire_bytes = fluid_bytes + counts.get("net.packet_bytes", 0)
    chunks_sent = counts.get("sdr.chunks_sent", 0)
    print(
        f"info: traced run kept {traced['nspans']} spans "
        f"(written to {os.path.relpath(spans_path, ROOT)})"
    )
    return {
        "sim.engine.events": traced["events"],
        "sim.engine.events_per_pkt": traced["events"] / packets,
        "sim.engine.dead_events": traced["dead_events"],
        "sim.engine.self_s": layers.get("sim.engine", 0.0),
        "sim.fluid.self_s": layers.get("sim.fluid", 0.0),
        "sim.fluid.segments": sum(spans.get(n, 0) for n in FLUID_SPANS),
        "sim.fluid.bytes_frac": fluid_bytes / wire_bytes if wire_bytes else 0.0,
        "fluid_err_pct": worst,
        "verbs.self_s": layers.get("verbs", 0.0),
        "verbs.rc_timer_events": spans.get("repro.verbs.qp:RcQp._arm_timer", 0),
        "net.self_s": layers.get("net", 0.0),
        "net.pkts": packets,
        "net.drops": out["drops"],
        "sdr.self_s": layers.get("sdr", 0.0),
        "sdr.calls": sum(spans.get(n, 0) for n in SDR_CALLS),
        "dpa.self_s": layers.get("dpa", 0.0),
        "dpa.cqes": out["dpa_cqes"],
        "dpa.busy_frac": out["dpa_busy_frac"],
        "reliability.self_s": layers.get("reliability", 0.0),
        "reliability.retx_chunks": counts.get("reliability.retx_chunks", 0),
        "reliability.ctrl_msgs": spans.get("reliability:ControlPath.send", 0),
        "reliability.useful_frac": (
            out["data_chunks"] / chunks_sent if chunks_sent else 0.0
        ),
        "ec.self_s": layers.get("ec", 0.0),
        "ec.coded_bytes": counts.get("ec.coded_bytes", 0),
        "cc.self_s": layers.get("cc", 0.0),
        "cc.reserve_calls": sum(spans.get(n, 0) for n in CC_CALLS),
        "fabric.self_s": layers.get("fabric", 0.0),
        "fabric.flows": spans.get("fabric:FabricService.submit", 0),
        "fabric.segments": out["fabric_segments"],
        "telemetry.self_s": layers.get("telemetry", 0.0),
        "setup.import_s": plain["import_s"],
        "setup.build_s": plain["build_s"],
        "trace.overhead_s": traced["wall"] - statistics.median(plain["walls"]),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"error: no src/repro under {ROOT}; run from a full checkout",
              file=sys.stderr)
        return 2

    before = calibration()
    checks = Checks()
    try:
        if args.trace:
            metrics, units = per_layer(args.workload, args.seed, args.seconds, checks), PER_LAYER
        else:
            metrics, units = end_to_end(args.workload, args.seed, args.seconds, checks), END_TO_END
    except (ChildFailed, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    after = calibration()
    print(
        f"info: host noise: calibration kernel {before['kernel_s']:.4f} s -> "
        f"{after['kernel_s']:.4f} s, loadavg_1m {before['loadavg_1m']:.2f} -> "
        f"{after['loadavg_1m']:.2f} (informational); held-out seed {HELD_OUT_SEED}"
    )
    for failure in checks.failures:
        print(f"check failed: {failure}")
    for name, unit in units.items():
        print(f"{name} {metrics[name]:.6g} {unit}")
    print(json.dumps({
        "correct": checks.correct,
        "attempted": checks.attempted,
        "failed": checks.attempted - checks.ok,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0 if checks.correct else 1


if __name__ == "__main__":
    sys.exit(main())
