"""Per-layer host-time attribution for one traced benchmark run.

Installed only in the traced run, before the scenario is built; the
timed runs carry none of this (:func:`installed` is how they prove it).

* Every engine dispatch is a *root span*, charged to the ``repro.<pkg>``
  that owns the callback (the :class:`~repro.sim.profile.SimProfiler`
  rollup, via the public ``Simulator.attach_profiler`` hook).
* *Child spans* wrap the public cross-layer entry points listed in
  :data:`ENTRY_POINTS`, so time a reliability handler spends inside
  ``sdr``, ``verbs`` or ``net`` is charged to those layers.
* Self time of a span is its duration minus the part its children
  cover; a layer's self time is the sum over its spans.

Spans live in flat arrays (name id, start, end, parent, message id) and
are written out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array

import numpy as np

from repro.sim.engine import Simulator
from repro.sim.profile import SimProfiler

def layer_of_module(module: str) -> str:
    """``repro.<pkg>.*`` -> ``<pkg>``; ``repro.sim`` splits engine/fluid.

    Code outside ``repro`` (the benchmark's own drivers) is ``app``.
    """
    parts = module.split(".")
    if parts[0] != "repro" or len(parts) < 2:
        return "app"
    if parts[1] == "sim":
        return "sim.fluid" if parts[2:3] == ["fluid"] else "sim.engine"
    return parts[1]


class SpanRecorder:
    """Open/close spans on a stack; keep them in compact arrays."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.layers: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.msg = array("q")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]

    def intern(self, name: str, layer: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.layers.append(layer)
        return nid

    def open(self, nid: int, msg: int = -1) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self.stack[-1])
        self.msg.append(msg)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(self.clock())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = self.clock()
        self.stack.pop()

    def __len__(self) -> int:
        return len(self.name)

    # -- reduction --------------------------------------------------------------

    def arrays(self, since: float = float("-inf")):
        """(name, parent, start, end) of spans that start at or after ``since``."""
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        keep = start >= since
        return name[keep], parent[keep], start[keep], end[keep], np.flatnonzero(keep)

    def self_times(self, since: float = float("-inf")) -> dict[str, float]:
        """Self seconds per layer over the spans that start at ``since``."""
        name, parent, start, end, index = self.arrays(since)
        per_name = span_self_times(name, parent, start, end, index, len(self.names))
        out: dict[str, float] = {}
        for nid, seconds in enumerate(per_name):
            layer = self.layers[nid]
            out[layer] = out.get(layer, 0.0) + float(seconds)
        return out

    def root_seconds(self, since: float = float("-inf")) -> float:
        """Total duration of root spans (engine dispatches)."""
        _name, parent, start, end, _index = self.arrays(since)
        roots = parent < 0
        return float((end[roots] - start[roots]).sum())

    def counts(self) -> dict[str, int]:
        name = np.frombuffer(self.name, dtype=np.int32)
        hist = np.bincount(name, minlength=len(self.names))
        return {n: int(c) for n, c in zip(self.names, hist)}

    def dump(self, path: str) -> None:
        """Write every span as ``.npz`` arrays plus the name/layer tables."""
        np.savez(
            path,
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            msg=np.frombuffer(self.msg, dtype=np.int64),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            names=np.array(self.names),
            layers=np.array(self.layers),
        )


def span_self_times(name, parent, start, end, index, nnames: int) -> np.ndarray:
    """Self seconds per name id: duration minus the children's durations.

    ``index`` (sorted) holds each span's position in the full recording,
    which is what ``parent`` refers to; a child whose parent was filtered
    out has nobody to subtract from.
    """
    dur = end - start
    nested = np.flatnonzero(parent >= 0)
    slot = np.searchsorted(index, parent[nested])
    found = slot < len(index)
    found[found] = index[slot[found]] == parent[nested][found]
    child = np.bincount(
        slot[found], weights=dur[nested][found], minlength=len(dur)
    )
    return np.bincount(name, weights=dur - child, minlength=nnames)


# -- root spans: engine dispatch ----------------------------------------------------


def _dead(cb) -> bool:
    """An ``any_of``/``all_of`` arm whose gate already fired does nothing."""
    code = getattr(cb, "__code__", None)
    if code is None or code.co_name != "_done" or "gate" not in code.co_freevars:
        return False
    gate = cb.__closure__[code.co_freevars.index("gate")].cell_contents
    return gate.triggered


class SpanProfiler(SimProfiler):
    """Engine hook: one root span per dispatched callback.

    Keeps :class:`SimProfiler`'s callback -> ``module:qualname`` rollup;
    the span name is that category and its layer the category's package.
    One instance serves every simulator of a run (``bind`` does not reset).
    """

    def __init__(self, recorder: SpanRecorder):
        super().__init__(clock=recorder.clock)
        self.recorder = recorder
        self._ids: dict = {}

    def bind(self, sim) -> None:
        self.sim = sim

    def call(self, cb, event) -> None:
        key = self._key(cb)
        nid = self._ids.get(key)
        if nid is None:
            nid = self._ids[key] = self.recorder.intern(
                key, layer_of_module(key.split(":", 1)[0])
            )
        rec = self.recorder
        idx = rec.open(nid)
        try:
            cb(event)
        finally:
            rec.close(idx)


# -- child spans: cross-layer entry points ---------------------------------------


#: (module, class, method, counter) -> span ``<layer>:<Class.method>``.
#: ``counter(args, kwargs)`` returns ``{count name: amount}`` at the call.
ENTRY_POINTS = [
    ("repro.net.channel", "Channel", "transmit",
     lambda a, k: {"net.packet_bytes": a[1].length}),
    ("repro.net.channel", "Channel", "fluid_admit",
     lambda a, k: {"fluid.bytes": int(a[1].sum())}),
    ("repro.net.channel", "Channel", "fluid_admit_chain",
     lambda a, k: {"fluid.bytes": int(a[1].sum())}),
    ("repro.net.channel", "Channel", "fluid_admit_one",
     lambda a, k: {"fluid.bytes": int(a[1])}),
    ("repro.net.channel", "Channel", "fluid_transmit_one",
     lambda a, k: {"fluid.bytes": a[1].length}),
    ("repro.verbs.qp", "UcQp", "post_send", None),
    ("repro.verbs.qp", "UdQp", "post_send", None),
    ("repro.verbs.qp", "UdQp", "post_send_to", None),
    ("repro.verbs.qp", "RcQp", "post_send", None),
    ("repro.verbs.qp", "UcQp", "on_packet", None),
    ("repro.verbs.qp", "UdQp", "on_packet", None),
    ("repro.verbs.qp", "RcQp", "on_packet", None),
    ("repro.verbs.cq", "CompletionQueue", "push", None),
    ("repro.verbs.cq", "CompletionQueue", "poll", None),
    ("repro.sdr.qp", "SdrQp", "send_post",
     lambda a, k: {"sdr.chunks_sent": a[0]._nchunks(a[1].length)}),
    ("repro.sdr.qp", "SdrQp", "send_stream_start", None),
    ("repro.sdr.qp", "SdrQp", "send_stream_continue", lambda a, k: _stream(a, k)),
    ("repro.sdr.qp", "SdrQp", "recv_post", None),
    # The DPA worker's per-CQE upcall into SDR: without it the bitmap
    # bookkeeping would be charged to ``dpa``.
    ("repro.sdr.qp", "SdrQp", "_process_data_cqe", None),
    ("repro.ec.codec", "ErasureCode", "encode",
     lambda a, k: {"ec.coded_bytes": a[1].nbytes}),
    ("repro.ec.codec", "ErasureCode", "decode",
     lambda a, k: {"ec.coded_bytes": sum(c.nbytes for c in a[1].values())}),
    ("repro.cc.pacer", "Pacer", "reserve", None),
    ("repro.cc.pacer", "Pacer", "reserve_batch", None),
    ("repro.cc.pacer", "TokenBucketGroup", "reserve", None),
    ("repro.cc.pacer", "TokenBucketGroup", "reserve_batch", None),
    ("repro.fabric.service", "FabricService", "submit", None),
    ("repro.sim.fluid", "FluidSolver", "try_inject", None),
    ("repro.reliability.base", "ControlPath", "send", None),
    ("repro.telemetry.metrics", "Counter", "inc", None),
    ("repro.telemetry.metrics", "Gauge", "set", None),
    ("repro.telemetry.metrics", "Gauge", "add", None),
    ("repro.telemetry.metrics", "Histogram", "observe", None),
]


def _stream(args, kwargs) -> dict[str, int]:
    qp, _hdl, _offset, length = args[:4]
    attempt = kwargs.get("attempt", args[5] if len(args) > 5 else 0)
    chunks = -(-length // qp.config.chunk_bytes)
    out = {"sdr.chunks_sent": chunks}
    if attempt > 0:
        out["reliability.retx_chunks"] = chunks
    return out


def _message_id(args) -> int:
    """The message a call belongs to, where its argument carries one."""
    for arg in args[1:2]:
        seq = getattr(arg, "msg_seq", None)
        if seq is None:
            seq = getattr(arg, "seq", None)
        if isinstance(seq, int):
            return seq
    return -1


class Tracer:
    """Install / remove every wrapper of one traced run."""

    def __init__(self, clock=time.perf_counter):
        self.recorder = SpanRecorder(clock)
        self.profiler = SpanProfiler(self.recorder)
        self.counts: dict[str, int] = {}
        self.events = 0
        self.dead_events = 0
        self._saved: list[tuple[type, str, object]] = []

    def install(self) -> None:
        for module, cls_name, meth, counter in ENTRY_POINTS:
            cls = getattr(importlib.import_module(module), cls_name)
            layer = layer_of_module(module)
            nid = self.recorder.intern(f"{layer}:{cls_name}.{meth}", layer)
            self._patch(cls, meth, self._span(cls.__dict__[meth], nid, counter))
        self._patch(Simulator, "step", self._step(Simulator.step))
        self._patch(Simulator, "__init__", self._init(Simulator.__init__))

    def uninstall(self) -> None:
        while self._saved:
            cls, name, orig = self._saved.pop()
            setattr(cls, name, orig)

    def _patch(self, cls, name, wrapper) -> None:
        self._saved.append((cls, name, cls.__dict__[name]))
        wrapper._perfbench_span = True
        setattr(cls, name, wrapper)

    def _span(self, fn, nid, counter):
        rec = self.recorder
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if counter is not None:
                for key, amount in counter(args, kwargs).items():
                    counts[key] = counts.get(key, 0) + amount
            idx = rec.open(nid, _message_id(args))
            try:
                return fn(*args, **kwargs)
            finally:
                rec.close(idx)

        return wrapper

    def _step(self, step):
        tracer = self

        @functools.wraps(step)
        def wrapper(sim):
            heap = sim._heap
            if heap:
                callbacks = heap[0][2].callbacks
                if all(_dead(cb) for cb in callbacks):
                    tracer.dead_events += 1
            tracer.events += 1
            step(sim)

        return wrapper

    def _init(self, init):
        profiler = self.profiler

        @functools.wraps(init)
        def wrapper(sim, *args, **kwargs):
            init(sim, *args, **kwargs)
            sim.attach_profiler(profiler)

        return wrapper


def installed() -> list[str]:
    """Names of every entry point currently carrying a benchmark wrapper."""
    out = []
    targets = [(m, c, f) for m, c, f, _ in ENTRY_POINTS]
    targets += [("repro.sim.engine", "Simulator", "step"),
                ("repro.sim.engine", "Simulator", "__init__")]
    for module, cls_name, meth in targets:
        cls = getattr(importlib.import_module(module), cls_name)
        if getattr(cls.__dict__[meth], "_perfbench_span", False):
            out.append(f"{cls_name}.{meth}")
    return out
