"""Tests for the discrete-event engine."""

import pytest

from repro.simkit.engine import SimulationEngine, SimulationError
from repro.simkit.events import Event, EventCancelled


class TestScheduling:
    def test_events_fire_in_time_order(self, engine):
        order = []
        engine.schedule(5.0, order.append, "b")
        engine.schedule(1.0, order.append, "a")
        engine.schedule(9.0, order.append, "c")
        engine.run()
        assert order == ["a", "b", "c"]

    def test_same_time_events_fire_in_schedule_order(self, engine):
        order = []
        for tag in "abcde":
            engine.schedule(3.0, order.append, tag)
        engine.run()
        assert order == list("abcde")

    def test_priority_breaks_ties_before_sequence(self, engine):
        order = []
        engine.schedule(1.0, order.append, "late", priority=1)
        engine.schedule(1.0, order.append, "early", priority=-1)
        engine.schedule(1.0, order.append, "mid", priority=0)
        engine.run()
        assert order == ["early", "mid", "late"]

    def test_clock_advances_to_event_time(self, engine):
        seen = []
        engine.schedule(42.5, lambda: seen.append(engine.now))
        engine.run()
        assert seen == [42.5]
        assert engine.now == 42.5

    def test_schedule_at_absolute_time(self, engine):
        seen = []
        engine.schedule_at(10.0, seen.append, 1)
        engine.run()
        assert seen == [1]

    def test_negative_delay_rejected(self, engine):
        with pytest.raises(SimulationError):
            engine.schedule(-1.0, lambda: None)

    def test_scheduling_in_the_past_rejected(self, engine):
        engine.schedule(5.0, lambda: None)
        engine.run()
        with pytest.raises(SimulationError):
            engine.schedule_at(1.0, lambda: None)

    def test_scheduling_at_nan_rejected(self, engine):
        # a NaN event would never be popped: ``heap[0][0] == now`` is False
        nan = float("nan")
        with pytest.raises(SimulationError):
            engine.schedule_at(nan, lambda: None)
        with pytest.raises(SimulationError):
            engine.schedule(nan, lambda: None)
        with pytest.raises(SimulationError):
            engine.schedule_batch([(1.0, print, ()), (nan, print, ())])
        assert engine.pending_events == 0

    def test_events_scheduled_during_run_are_executed(self, engine):
        order = []

        def first():
            order.append("first")
            engine.schedule(1.0, order.append, "second")

        engine.schedule(1.0, first)
        engine.run()
        assert order == ["first", "second"]


class TestHorizon:
    def test_run_until_stops_before_later_events(self, engine):
        seen = []
        engine.schedule(1.0, seen.append, "a")
        engine.schedule(10.0, seen.append, "b")
        engine.run(until=5.0)
        assert seen == ["a"]
        assert engine.now == 5.0
        assert engine.pending_events == 1

    def test_event_exactly_at_horizon_fires(self, engine):
        seen = []
        engine.schedule(5.0, seen.append, "x")
        engine.run(until=5.0)
        assert seen == ["x"]

    def test_run_is_resumable(self, engine):
        seen = []
        engine.schedule(1.0, seen.append, 1)
        engine.schedule(10.0, seen.append, 2)
        engine.run(until=5.0)
        engine.run()
        assert seen == [1, 2]

    def test_clock_advances_to_horizon_when_no_events(self, engine):
        engine.run(until=100.0)
        assert engine.now == 100.0


class TestCancellation:
    def test_cancelled_event_does_not_fire(self, engine):
        seen = []
        event = engine.schedule(1.0, seen.append, "x")
        engine.cancel(event)
        engine.run()
        assert seen == []

    def test_cancel_is_idempotent(self, engine):
        event = engine.schedule(1.0, lambda: None)
        event.cancel()
        event.cancel()
        engine.run()

    def test_firing_a_cancelled_event_raises(self):
        event = Event(0.0, 0, 0, lambda: None)
        event.cancel()
        with pytest.raises(EventCancelled):
            event.fire()

    def test_peek_time_skips_cancelled(self, engine):
        e1 = engine.schedule(1.0, lambda: None)
        engine.schedule(2.0, lambda: None)
        e1.cancel()
        assert engine.peek_time() == 2.0


class TestSafety:
    def test_max_events_guard(self):
        engine = SimulationEngine(max_events=10)

        def rearm():
            engine.schedule(1.0, rearm)

        engine.schedule(1.0, rearm)
        with pytest.raises(SimulationError):
            engine.run()

    def test_executed_event_count(self, engine):
        for _ in range(5):
            engine.schedule(1.0, lambda: None)
        engine.run()
        assert engine.executed_events == 5

    def test_step_returns_false_when_empty(self, engine):
        assert engine.step() is False

    def test_reentrant_run_rejected(self, engine):
        def nested():
            engine.run()

        engine.schedule(1.0, nested)
        with pytest.raises(SimulationError):
            engine.run()


class TestDeterminism:
    def test_two_identical_runs_produce_identical_traces(self):
        def run_once():
            engine = SimulationEngine()
            log = []
            for i in range(100):
                engine.schedule((i * 7919) % 13 + 0.5, log.append, i)
            engine.run()
            return log

        assert run_once() == run_once()


class TestHeapCompaction:
    """Lazily-cancelled events must not accumulate without bound."""

    def test_cancel_heavy_timer_churn_keeps_heap_bounded(self):
        from repro.simkit.engine import COMPACT_MIN_HEAP, SimulationEngine
        from repro.simkit.timers import PeriodicTimer

        engine = SimulationEngine()
        churn = 20_000
        # Start and immediately stop timers whose next tick is far in the
        # future: every stop leaves one cancelled entry deep in the heap,
        # which lazy pop-time discarding alone would never reach.
        for _ in range(churn):
            timer = PeriodicTimer(engine, 1e6, lambda: None)
            timer.start()
            timer.stop()
        assert engine.compactions > 0
        # Bounded: compaction caps slack at the ratio threshold instead of
        # letting all `churn` cancelled entries pile up.
        assert engine.pending_events < churn / 2
        assert engine.pending_events <= 2 * COMPACT_MIN_HEAP + 2

    def test_compaction_preserves_execution_order(self):
        from repro.simkit.engine import SimulationEngine

        engine = SimulationEngine()
        fired = []
        events = [
            engine.schedule_at(float(t), fired.append, t) for t in range(3000)
        ]
        for e in events[::2]:  # cancel every other one -> ratio > 0.5
            engine.cancel(e)
        for e in events[1::4]:
            engine.cancel(e)
        assert engine.compactions > 0
        engine.run()
        expected = [t for t in range(3000) if t % 2 and (t - 1) % 4]
        assert fired == expected

    def test_direct_cancel_pops_do_not_drain_the_slack_counter(self):
        """PR 6: events cancelled via Event.cancel() directly are invisible
        to the slack counter; popping them must not *decrement* it either,
        or near-term direct cancellations eat the decrements belonging to
        engine-counted entries deep in the heap and compaction never fires.
        """
        from repro.simkit.engine import COMPACT_MIN_HEAP, SimulationEngine

        engine = SimulationEngine()
        # counted slack far in the future, just under the compaction ratio;
        # a live guard event at 1e8 keeps the cancelled block off the heap
        # top so lazy pop-time discovery cannot legitimately reach it
        engine.schedule_at(1e8, lambda: None)
        n_far = COMPACT_MIN_HEAP + 200
        far = [engine.schedule_at(1e9, lambda: None) for _ in range(n_far)]
        for e in far[: n_far // 2]:
            engine.cancel(e)
        assert engine.compactions == 0
        # near-term events cancelled *directly*: the run loop discovers
        # them lazily; with the drift bug each pop decremented the counter
        near = [engine.schedule_at(float(t), lambda: None) for t in range(600)]
        for e in near:
            e.cancel()
        engine.run(until=700.0)
        assert engine._cancelled_pending == n_far // 2
        # one more counted cancellation crosses the ratio -> compaction
        for e in far[n_far // 2 : n_far // 2 + 2]:
            engine.cancel(e)
        assert engine.compactions > 0
        # only cancellations issued *after* the compaction remain counted
        assert engine._cancelled_pending <= 1

    def test_thresholds_are_constructor_configurable(self):
        """PR 7: per-engine compaction thresholds, no module monkeypatching."""
        from repro.simkit.engine import SimulationEngine

        # tiny thresholds: even a 10-event heap with 2 cancellations
        # (ratio 0.2 > 0.1) compacts immediately
        engine = SimulationEngine(compact_min_heap=4, compact_slack_ratio=0.1)
        events = [engine.schedule_at(float(t), lambda: None) for t in range(10)]
        engine.cancel(events[0])
        engine.cancel(events[1])
        assert engine.compactions == 1
        assert engine.pending_events == 8

        # a huge min-heap threshold suppresses compaction entirely
        lazy = SimulationEngine(compact_min_heap=10**9)
        events = [lazy.schedule_at(float(t), lambda: None) for t in range(10)]
        for e in events:
            lazy.cancel(e)
        assert lazy.compactions == 0
        assert lazy.pending_events == 10

    def test_threshold_validation(self):
        import pytest

        from repro.simkit.engine import SimulationEngine

        with pytest.raises(ValueError):
            SimulationEngine(compact_min_heap=-1)
        with pytest.raises(ValueError):
            SimulationEngine(compact_slack_ratio=0.0)
        with pytest.raises(ValueError):
            SimulationEngine(compact_slack_ratio=1.5)

    def test_default_thresholds_still_fire_compaction(self):
        """The defaults must keep compacting (the satellite's regression pin):
        churn past COMPACT_MIN_HEAP with >50% cancelled entries compacts."""
        from repro.simkit.engine import COMPACT_MIN_HEAP, SimulationEngine

        engine = SimulationEngine()
        n = 2 * COMPACT_MIN_HEAP + 10
        events = [engine.schedule_at(1e9 + t, lambda: None) for t in range(n)]
        for e in events[: n // 2 + 5]:
            engine.cancel(e)
        assert engine.compactions > 0


class TestFastForward:
    """The fluid tier's clock jump: safe only over provably empty windows."""

    def test_moves_clock_without_executing(self, engine):
        fired = []
        engine.schedule_at(100.0, fired.append, 1)
        engine.fast_forward(50.0)
        assert engine.now == 50.0
        assert fired == []
        assert engine.executed_events == 0
        engine.run(until=150.0)
        assert fired == [1]

    def test_refuses_to_jump_over_live_event(self, engine):
        import pytest

        from repro.simkit.engine import SimulationError

        engine.schedule_at(10.0, lambda: None)
        with pytest.raises(SimulationError):
            engine.fast_forward(10.0)  # at the event: run() would fire it
        with pytest.raises(SimulationError):
            engine.fast_forward(20.0)  # past it

    def test_jump_over_cancelled_event_is_fine(self, engine):
        event = engine.schedule_at(10.0, lambda: None)
        engine.cancel(event)
        engine.fast_forward(20.0)
        assert engine.now == 20.0

    def test_refuses_backwards_jump(self, engine):
        import pytest

        from repro.simkit.engine import SimulationError

        engine.schedule_at(5.0, lambda: None)
        engine.run()
        assert engine.now == 5.0
        with pytest.raises(SimulationError):
            engine.fast_forward(1.0)

    def test_scheduling_resumes_from_jumped_clock(self, engine):
        import pytest

        from repro.simkit.engine import SimulationError

        engine.fast_forward(100.0)
        with pytest.raises(SimulationError):
            engine.schedule_at(50.0, lambda: None)
        event = engine.schedule(10.0, lambda: None)
        assert event.time == 110.0


class TestDispose:
    """A finished world's engine drops its pending events' callables and
    refuses further work."""

    def test_detaches_every_pending_event(self, engine):
        owner = []
        live = engine.schedule_at(5.0, owner.append, "live")
        dead = engine.schedule_at(6.0, owner.append, "dead")
        engine.cancel(dead)
        engine.dispose()
        assert engine.pending_events == 0
        for event in (live, dead):
            assert event.fn is None and event.args == ()
        assert owner == []

    @pytest.mark.parametrize(
        "call", ["run", "step", "advance_before", "fast_forward",
                 "snapshot_world"],
    )
    def test_refuses_work_naming_the_disposal(self, engine, call):
        from repro.simkit.snapshot import snapshot_world

        engine.schedule_at(5.0, lambda: None)
        engine.run(until=2.0)
        engine.dispose()
        ops = {
            "run": lambda: engine.run(until=10.0),
            "step": engine.step,
            "advance_before": lambda: engine.advance_before(10.0),
            "fast_forward": lambda: engine.fast_forward(10.0),
            "snapshot_world": lambda: snapshot_world(engine, engine),
        }
        with pytest.raises(SimulationError, match="disposed at t=2.0"):
            ops[call]()
        assert engine.now == 2.0
