"""Deterministic discrete-event simulation engine.

The kernel is intentionally minimal: an event heap keyed by
``(time, sequence)`` (sequence breaks ties deterministically), one-shot
:class:`Event` futures, and generator-based :class:`Process` coroutines.
Plain timed callbacks (:meth:`Simulator.call_at` / :meth:`Simulator.call_in`)
skip the future entirely: their heap entry holds just the function and
its arguments.

Typical protocol code::

    def sender(sim: Simulator, qp):
        yield sim.timeout(0.001)          # wait 1 simulated millisecond
        qp.post_send(...)
        ack = yield qp.ack_event           # wait for an Event
        ...

    sim = Simulator()
    sim.process(sender(sim, qp))
    sim.run()
"""

from __future__ import annotations

import heapq
from collections.abc import Callable, Generator
from dataclasses import dataclass
from typing import Any

from repro.common.errors import ReproError
from repro.telemetry import Telemetry


class SimulationError(ReproError):
    """The simulation reached an inconsistent state (e.g. deadlock)."""


@dataclass(frozen=True)
class SimConfig:
    """Engine-level feature switches shared by every component of a run.

    ``fluid`` opts into the hybrid fluid/packet fast path
    (:mod:`repro.sim.fluid`): steady bulk transfers advance as vectorized
    rate segments instead of per-packet heap events.  Packet mode
    (``fluid=False``) is the default and keeps same-seed traces
    byte-identical; components that cannot model a transfer fluidly fall
    back to packet mode per segment.
    """

    fluid: bool = False


class Event:
    """A one-shot future that fires at most once with a value or an error.

    Callbacks appended to :attr:`callbacks` run when the event is processed
    by the simulator loop.  Processes waiting on the event are resumed with
    the event's value (or have the error thrown into them).
    """

    __slots__ = ("sim", "callbacks", "_value", "_error", "_state")

    _PENDING, _TRIGGERED, _PROCESSED = 0, 1, 2

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.callbacks: list[Callable[[Event], None]] = []
        self._value: Any = None
        self._error: BaseException | None = None
        self._state = Event._PENDING

    @property
    def triggered(self) -> bool:
        return self._state >= Event._TRIGGERED

    @property
    def processed(self) -> bool:
        return self._state == Event._PROCESSED

    @property
    def ok(self) -> bool:
        return self.triggered and self._error is None

    @property
    def value(self) -> Any:
        if not self.triggered:
            raise SimulationError("event value read before trigger")
        if self._error is not None:
            raise self._error
        return self._value

    def succeed(self, value: Any = None, delay: float = 0.0) -> "Event":
        """Schedule this event to fire successfully after ``delay``."""
        if self.triggered:
            raise SimulationError("event already triggered")
        self._state = Event._TRIGGERED
        self._value = value
        self.sim._schedule(self, delay)
        return self

    def fail(self, error: BaseException, delay: float = 0.0) -> "Event":
        """Schedule this event to fire with an error after ``delay``."""
        if self.triggered:
            raise SimulationError("event already triggered")
        self._state = Event._TRIGGERED
        self._error = error
        self.sim._schedule(self, delay)
        return self


class Interrupt(ReproError):
    """Raised inside a process that another process interrupted.

    Used by the reliability layers to cancel pending retransmission timers
    when an ACK arrives.
    """

    def __init__(self, cause: Any = None):
        super().__init__(f"process interrupted: {cause!r}")
        self.cause = cause


class Process(Event):
    """A running generator coroutine; also an Event that fires on return."""

    __slots__ = ("_gen", "_waiting_on")

    def __init__(self, sim: "Simulator", gen: Generator[Event, Any, Any]):
        super().__init__(sim)
        self._gen = gen
        self._waiting_on: Event | None = None
        # Bootstrap: resume the generator at time now.
        boot = Event(sim)
        boot.callbacks.append(self._resume)
        boot.succeed(None)

    @property
    def is_alive(self) -> bool:
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if self.triggered:
            return
        target = self._waiting_on
        if target is not None and not target.processed:
            # Detach from the event we were waiting on (it may already be
            # scheduled -- e.g. a pending timeout -- but has not yet been
            # dispatched) and resume the process with the Interrupt instead.
            try:
                target.callbacks.remove(self._resume)
            except ValueError:  # pragma: no cover - defensive
                pass
            kick = Event(self.sim)
            kick.callbacks.append(self._resume)
            kick.fail(Interrupt(cause))
        # If the event was already dispatched, the interrupt lost the race:
        # the process resumes normally, matching SimPy semantics.

    def _resume(self, event: Event) -> None:
        self._waiting_on = None
        try:
            if event._error is not None:
                nxt = self._gen.throw(event._error)
            else:
                nxt = self._gen.send(event._value)
        except StopIteration as stop:
            super().succeed(stop.value)
            return
        except Interrupt as exc:
            # An un-handled interrupt terminates the process quietly.
            super().fail(exc)
            return
        if not isinstance(nxt, Event):
            raise SimulationError(
                f"process yielded {type(nxt).__name__}, expected Event"
            )
        if nxt.processed:
            # Already fired and dispatched: resume immediately via a fresh
            # event so ordering stays heap-driven.
            relay = Event(self.sim)
            relay.callbacks.append(self._resume)
            if nxt._error is not None:
                relay.fail(nxt._error)
            else:
                relay.succeed(nxt._value)
        else:
            nxt.callbacks.append(self._resume)
        self._waiting_on = nxt


class _Call:
    """Bare heap entry of :meth:`Simulator.call_at`: a function and its
    arguments.

    No future, callback list or adapter is allocated; :meth:`Simulator.step`
    calls ``fn(*args)`` directly.  :attr:`callbacks` is a read-only view for
    heap inspectors that expect every entry to carry one.
    """

    __slots__ = ("fn", "args")

    def __init__(self, fn: Callable[..., None], args: tuple):
        self.fn = fn
        self.args = args

    @property
    def callbacks(self) -> list[Callable[..., None]]:
        return [self.fn]


class Simulator:
    """Event loop with a simulated clock starting at ``t = 0`` seconds.

    Every simulator carries a :class:`~repro.telemetry.Telemetry` facade
    (``sim.telemetry``): components register metrics and emit trace events
    through it, stamped with this simulator's clock.  Pass a pre-configured
    facade to enable tracing or disable metrics for a run.
    """

    def __init__(
        self,
        *,
        telemetry: Telemetry | None = None,
        config: SimConfig | None = None,
    ):
        self.config = config if config is not None else SimConfig()
        self._now = 0.0
        self._heap: list[tuple[float, int, Event | _Call]] = []
        self._seq = 0
        #: Optional lazy windowed sampler / wall-clock profiler hooks.
        #: Disarmed cost is one attribute load per step; neither may
        #: schedule events or draw RNG (determinism invariant).
        self._sampler = None
        self._profiler = None
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self.telemetry.bind(self)
        if self.telemetry.timeseries is not None:
            self.attach_sampler(self.telemetry.timeseries)
        if self.telemetry.profiler is not None:
            self.attach_profiler(self.telemetry.profiler)

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    # -- instrumentation hooks -------------------------------------------------

    def attach_sampler(self, sampler) -> None:
        """Arm a :class:`~repro.telemetry.timeseries.TimeseriesSampler`.

        The sampler's windows are closed lazily from :meth:`step` right
        after the clock advances and *before* the event's callbacks run,
        so a window ending at boundary ``B`` reflects state as of the
        last event before ``B``.  Event-free and RNG-free by contract.
        """
        if self._sampler is not None and self._sampler is not sampler:
            raise SimulationError("a timeseries sampler is already attached")
        sampler.bind(self)
        self._sampler = sampler

    def attach_profiler(self, profiler) -> None:
        """Arm a :class:`~repro.sim.profile.SimProfiler` on dispatch."""
        if self._profiler is not None and self._profiler is not profiler:
            raise SimulationError("a profiler is already attached")
        profiler.bind(self)
        self._profiler = profiler

    # -- event creation -------------------------------------------------------

    def event(self) -> Event:
        """A fresh pending event, to be triggered by user code."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Event:
        """An event that fires ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        ev = Event(self)
        ev.succeed(value, delay=delay)
        return ev

    def process(self, gen: Generator[Event, Any, Any]) -> Process:
        """Start a generator as a concurrent process."""
        return Process(self, gen)

    def call_at(self, time: float, fn: Callable[..., None], *args: Any) -> None:
        """Run ``fn(*args)`` at absolute simulated ``time``.

        The entry lands at ``now + (time - now)``, which can differ from
        ``time`` by one ulp: that rounding is part of every recorded trace.
        Passing arguments instead of closing over them allocates no
        closure cells, which the garbage collector would otherwise keep
        scanning while thousands of timers are pending.
        """
        now = self._now
        if time < now:
            raise SimulationError(f"cannot schedule in the past: {time} < {now}")
        heapq.heappush(
            self._heap, (now + (time - now), self._seq, _Call(fn, args))
        )
        self._seq += 1

    def call_in(self, delay: float, fn: Callable[..., None], *args: Any) -> None:
        """Run ``fn(*args)`` after ``delay`` simulated seconds."""
        self.call_at(self._now + delay, fn, *args)

    def all_of(self, events: list[Event]) -> Event:
        """An event that fires once every event in ``events`` has fired."""
        gate = Event(self)
        if not events:
            gate.succeed([])
            return gate
        remaining = {"n": len(events)}

        def _arm(ev: Event) -> None:
            def _done(e: Event) -> None:
                if gate.triggered:
                    return
                if e._error is not None:
                    gate.fail(e._error)
                    return
                remaining["n"] -= 1
                if remaining["n"] == 0:
                    gate.succeed([x._value for x in events])

            if ev.processed:
                _done(ev)
            else:
                ev.callbacks.append(_done)

        for ev in events:
            _arm(ev)
        return gate

    def any_of(self, events: list[Event]) -> Event:
        """An event that fires when the first of ``events`` fires."""
        gate = Event(self)
        if not events:
            raise SimulationError("any_of requires at least one event")

        def _done(e: Event) -> None:
            if gate.triggered:
                return
            if e._error is not None:
                gate.fail(e._error)
            else:
                gate.succeed(e._value)

        for ev in events:
            if ev.processed:
                _done(ev)
            else:
                ev.callbacks.append(_done)
        return gate

    # -- scheduling / running --------------------------------------------------

    def _schedule(self, event: Event, delay: float) -> None:
        heapq.heappush(self._heap, (self._now + delay, self._seq, event))
        self._seq += 1

    def step(self) -> None:
        """Process the single next event."""
        if not self._heap:
            raise SimulationError("no scheduled events")
        time, _seq, event = heapq.heappop(self._heap)
        self._now = time
        sampler = self._sampler
        if sampler is not None and time >= sampler.next_deadline:
            sampler.poll(time)
        profiler = self._profiler
        if type(event) is _Call:
            fn, args = event.fn, event.args
            if profiler is None:
                fn(*args)
            else:
                # Expose the real target so SimProfiler charges the call to
                # the scheduling component, not to this adapter.
                cb = lambda _ev: fn(*args)  # noqa: E731
                cb.__wrapped__ = fn
                profiler.call(cb, event)
            return
        event._state = Event._PROCESSED
        callbacks, event.callbacks = event.callbacks, []
        if profiler is None:
            for cb in callbacks:
                cb(event)
        else:
            for cb in callbacks:
                profiler.call(cb, event)

    def run(self, until: float | Event | None = None) -> Any:
        """Run until the heap drains, a deadline passes, or an event fires.

        ``until`` may be ``None`` (drain), a float (absolute simulated time)
        or an :class:`Event` (run until it is processed; returns its value).
        """
        if isinstance(until, Event):
            target = until
            while not target.processed:
                if not self._heap:
                    raise SimulationError(
                        "deadlock: event loop drained before target event fired"
                    )
                self.step()
            return target.value
        deadline = float("inf") if until is None else float(until)
        if deadline < self._now:
            raise SimulationError(f"deadline {deadline} is in the past")
        while self._heap and self._heap[0][0] <= deadline:
            self.step()
        if until is not None:
            self._now = deadline
        if self._sampler is not None:
            # Close any windows the final inter-event gap left open (the
            # lazy poll only runs when a *later* event crosses a boundary).
            self._sampler.poll(self._now)
        return None
