"""One benchmark process: import, build, run, check, report one JSON line.

Started by ``run.py`` in a fresh interpreter per sample.  Modes:

* ``timed`` -- no wrappers.  Runs, checks and rebuilds the workload
  until about ``--budget`` host seconds have passed (at least once);
  each run of the simulation is one timed sample.  The calibration
  kernel runs after the build and then after every block of at least
  ``BLOCK_S`` timed seconds; a sample is scaled to the reference host
  speed by the mean of the two readings around its block.
* ``traced`` -- installs :mod:`layertrace` before the build, runs once and
  reports the per-layer split.
* ``reference`` -- the packet-mode twin of ``fluid_bulk``, untimed.

``--spawned`` is the parent's ``time.monotonic()`` just before it
started this process (the clock is system-wide), so ``setup_s`` covers
interpreter start, imports and scenario build, up to the first heap
event.
"""

from __future__ import annotations

import time

ENTERED = time.monotonic()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

#: Shortest stretch of timed work between two calibration readings.
BLOCK_S = 1.0


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed(workload: str, seed: int, budget: float, spawned: float) -> dict:
    import workloads
    import layertrace
    from stats import time_kernel, to_reference

    imported = time.monotonic()
    # Read the kernel while no scenario is alive, so its objects never
    # add to the scenario's peak memory.
    kernels = [time_kernel()]
    build = workloads.BUILDERS[workload]
    build_start = time.monotonic()
    scenario = build(seed)
    built = time.monotonic()
    setup = imported - spawned + built - build_start
    walls, ref_walls, outputs, block = [], [], [], []
    loop_start = time.perf_counter()
    while True:
        iteration_start = time.perf_counter()
        gc.collect()
        start = time.perf_counter()
        scenario.run()
        block.append(time.perf_counter() - start)
        outputs.append(scenario.outputs())
        scenario = None
        now = time.perf_counter()
        # Stop at the iteration that ends closest to the budget.
        done = now - loop_start + (now - iteration_start) / 2 >= budget
        if done or sum(block) >= BLOCK_S:
            kernels.append(time_kernel())
            speed = statistics.mean(kernels[-2:])
            walls += block
            ref_walls += [to_reference(w, speed) for w in block]
            block = []
        if done:
            break
        scenario = build(seed)
    return {
        "setup_s": setup,
        "setup_ref_s": to_reference(setup, kernels[0]),
        "import_s": imported - spawned,
        "build_s": built - build_start,
        "walls": walls,
        "ref_walls": ref_walls,
        "kernels": kernels,
        "outputs": outputs,
        "wrappers": layertrace.installed(),
        "peak_rss_mb": _peak_rss_mb(),
    }


def traced(workload: str, seed: int, spans_path: str | None) -> dict:
    import workloads
    import layertrace

    tracer = layertrace.Tracer()
    tracer.install()
    scenario = workloads.BUILDERS[workload](seed)
    gc.collect()
    rec = tracer.recorder
    start = rec.clock()
    events0, dead0 = tracer.events, tracer.dead_events
    scenario.run()
    wall = rec.clock() - start
    layers = rec.self_times(since=start)
    # Time outside every span (heap pops, loop overhead) is the engine's.
    outside = wall - rec.root_seconds(since=start)
    layers["sim.engine"] = layers.get("sim.engine", 0.0) + outside
    out = scenario.outputs()
    tracer.uninstall()
    if spans_path:
        rec.dump(spans_path)
    return {
        "wall": wall,
        "layers": layers,
        "events": tracer.events - events0,
        "dead_events": tracer.dead_events - dead0,
        "spans": rec.counts(),
        "counts": tracer.counts,
        "nspans": len(rec),
        "outputs": out,
        "peak_rss_mb": _peak_rss_mb(),
    }


def reference(workload: str, seed: int) -> dict:
    import workloads

    scenario = workloads.BUILDERS[workload](seed, fluid=False)
    scenario.run()
    return {"outputs": scenario.outputs()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mode", choices=("timed", "traced", "reference"),
                        required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--budget", type=float, default=0.0)
    parser.add_argument("--spawned", type=float, default=ENTERED)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)
    if args.mode == "timed":
        result = timed(args.workload, args.seed, args.budget, args.spawned)
    elif args.mode == "traced":
        result = traced(args.workload, args.seed, args.spans)
    else:
        result = reference(args.workload, args.seed)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
