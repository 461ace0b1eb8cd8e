"""Discrete-event engine semantics."""

import pytest

from repro.sim.engine import Interrupt, Simulator
from repro.sim.engine import SimulationError


class TestClockAndTimeouts:
    def test_time_starts_at_zero(self):
        assert Simulator().now == 0.0

    def test_timeout_advances_clock(self):
        sim = Simulator()
        ev = sim.timeout(1.5)
        sim.run(ev)
        assert sim.now == pytest.approx(1.5)

    def test_run_until_time(self):
        sim = Simulator()
        fired = []
        sim.call_in(1.0, lambda: fired.append(1))
        sim.call_in(3.0, lambda: fired.append(3))
        sim.run(until=2.0)
        assert fired == [1]
        assert sim.now == 2.0
        sim.run()
        assert fired == [1, 3]

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().timeout(-1.0)

    def test_call_at_past_rejected(self):
        sim = Simulator()
        sim.run(sim.timeout(5.0))
        with pytest.raises(SimulationError):
            sim.call_at(1.0, lambda: None)

    def test_same_time_events_fire_in_order(self):
        sim = Simulator()
        order = []
        for i in range(5):
            sim.call_at(1.0, lambda i=i: order.append(i))
        sim.run()
        assert order == [0, 1, 2, 3, 4]


class TestEvents:
    def test_value_propagation(self):
        sim = Simulator()
        ev = sim.event()
        ev.succeed("payload", delay=0.5)
        assert sim.run(ev) == "payload"

    def test_double_trigger_rejected(self):
        sim = Simulator()
        ev = sim.event()
        ev.succeed(1)
        with pytest.raises(SimulationError):
            ev.succeed(2)

    def test_value_before_trigger_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            _ = sim.event().value

    def test_failure_raises_at_reader(self):
        sim = Simulator()
        ev = sim.event()
        ev.fail(RuntimeError("boom"))
        with pytest.raises(RuntimeError):
            sim.run(ev)

    def test_run_until_event_deadlock_detected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.run(sim.event())  # never triggered, heap empty


class TestCombinators:
    def test_all_of(self):
        sim = Simulator()
        evs = [sim.timeout(t, value=t) for t in (0.3, 0.1, 0.2)]
        gate = sim.all_of(evs)
        values = sim.run(gate)
        assert values == [0.3, 0.1, 0.2]
        assert sim.now == pytest.approx(0.3)

    def test_all_of_empty(self):
        sim = Simulator()
        assert sim.run(sim.all_of([])) == []

    def test_any_of_fires_on_first(self):
        sim = Simulator()
        gate = sim.any_of([sim.timeout(0.5, "slow"), sim.timeout(0.1, "fast")])
        assert sim.run(gate) == "fast"
        assert sim.now == pytest.approx(0.1)

    def test_any_of_empty_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().any_of([])

    def test_any_of_with_already_processed_event(self):
        sim = Simulator()
        done = sim.timeout(0.1)
        sim.run(done)
        gate = sim.any_of([done, sim.timeout(5.0)])
        assert gate.triggered


class TestProcesses:
    def test_sequential_timeouts(self):
        sim = Simulator()
        trace = []

        def proc():
            yield sim.timeout(1.0)
            trace.append(sim.now)
            yield sim.timeout(2.0)
            trace.append(sim.now)
            return "done"

        p = sim.process(proc())
        assert sim.run(p) == "done"
        assert trace == [pytest.approx(1.0), pytest.approx(3.0)]

    def test_process_waits_on_event(self):
        sim = Simulator()
        gate = sim.event()
        got = []

        def waiter():
            value = yield gate
            got.append(value)

        sim.process(waiter())
        sim.call_in(2.0, lambda: gate.succeed("go"))
        sim.run()
        assert got == ["go"]

    def test_process_is_event(self):
        sim = Simulator()

        def inner():
            yield sim.timeout(1.0)
            return 42

        def outer():
            value = yield sim.process(inner())
            return value + 1

        assert sim.run(sim.process(outer())) == 43

    def test_interrupt_cancels_wait(self):
        sim = Simulator()
        trace = []

        def sleeper():
            try:
                yield sim.timeout(100.0)
                trace.append("overslept")
            except Interrupt as exc:
                trace.append(("interrupted", exc.cause, sim.now))

        p = sim.process(sleeper())
        sim.call_in(1.0, lambda: p.interrupt("alarm"))
        sim.run()
        assert trace == [("interrupted", "alarm", pytest.approx(1.0))]

    def test_interrupt_after_completion_is_noop(self):
        sim = Simulator()

        def quick():
            yield sim.timeout(0.1)

        p = sim.process(quick())
        sim.run()
        p.interrupt("late")  # must not raise

    def test_yielding_non_event_rejected(self):
        sim = Simulator()

        def bad():
            yield 42

        sim.process(bad())
        with pytest.raises(SimulationError):
            sim.run()

    def test_exception_in_process_propagates_to_waiter(self):
        sim = Simulator()

        def failing():
            yield sim.timeout(0.1)
            raise ValueError("inner")

        p = sim.process(failing())
        with pytest.raises(ValueError):
            sim.run(p)

    def test_yield_already_processed_event(self):
        sim = Simulator()
        pre = sim.timeout(0.1, value="early")
        sim.run(pre)

        def proc():
            value = yield pre
            return value

        assert sim.run(sim.process(proc())) == "early"


class TestCallEntries:
    def test_mixed_same_instant_entries_fire_in_scheduling_order(self):
        sim = Simulator()
        order = []
        sim.call_at(1.0, lambda: order.append("call_at"))
        sim.timeout(1.0).callbacks.append(lambda _ev: order.append("timeout"))
        ev = sim.event()
        ev.callbacks.append(lambda _ev: order.append("succeed"))
        ev.succeed(delay=1.0)
        sim.call_in(1.0, lambda: order.append("call_in"))
        sim.timeout(1.0).callbacks.append(lambda _ev: order.append("timeout2"))
        sim.run()
        assert order == ["call_at", "timeout", "succeed", "call_in", "timeout2"]

    def test_call_at_lands_on_now_plus_difference(self):
        # The entry is keyed now + (time - now), one ulp off the requested
        # float for this pair; recorded traces depend on that rounding.
        now, time = 0.00632017984288742, 0.027494046385096487
        sim = Simulator()
        seen = []
        sim.call_at(now, lambda: sim.call_at(time, lambda: seen.append(sim.now)))
        sim.run()
        assert seen == [0.02749404638509649]
        assert seen[0] != time

    def test_pending_entry_exposes_scheduled_fn(self):
        sim = Simulator()

        def fn(*args):
            pass

        sim.call_at(1.0, fn)
        sim.call_in(2.0, fn, "arg")
        assert [entry.callbacks for _t, _s, entry in sim._heap] == [[fn], [fn]]

    def test_arguments_are_passed_at_dispatch(self):
        sim = Simulator()
        seen = []
        sim.call_at(1.0, lambda *args: seen.append(args), 1, "two")
        sim.call_in(2.0, lambda *args: seen.append(args))
        sim.run()
        assert seen == [(1, "two"), ()]

    def test_call_at_and_call_in_return_none(self):
        sim = Simulator()
        assert sim.call_at(1.0, lambda: None) is None
        assert sim.call_in(1.0, lambda: None) is None

    def test_call_in_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().call_in(-1.0, lambda: None)
