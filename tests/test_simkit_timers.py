"""Tests for periodic timers."""

import pytest

from repro.simkit.timers import PeriodicTimer


class TestPeriodicTimer:
    def test_fires_every_interval(self, engine):
        ticks = []
        PeriodicTimer(engine, 60.0, lambda: ticks.append(engine.now)).start()
        engine.run(until=300.0)
        assert ticks == [60.0, 120.0, 180.0, 240.0, 300.0]

    def test_first_fire_is_one_interval_after_start(self, engine):
        ticks = []
        PeriodicTimer(engine, 10.0, lambda: ticks.append(engine.now)).start()
        engine.run(until=9.0)
        assert ticks == []

    def test_stop_prevents_future_fires(self, engine):
        ticks = []
        timer = PeriodicTimer(engine, 10.0, lambda: ticks.append(engine.now))
        timer.start()
        engine.schedule(25.0, timer.stop)
        engine.run(until=100.0)
        assert ticks == [10.0, 20.0]

    def test_callback_may_stop_its_own_timer(self, engine):
        timer = PeriodicTimer(engine, 5.0, lambda: timer.stop())
        timer.start()
        engine.run(until=100.0)
        assert timer.fire_count == 1
        assert not timer.active

    def test_fire_count(self, engine):
        timer = PeriodicTimer(engine, 1.0, lambda: None)
        timer.start()
        engine.run(until=7.5)
        assert timer.fire_count == 7

    def test_double_start_rejected(self, engine):
        timer = PeriodicTimer(engine, 1.0, lambda: None)
        timer.start()
        with pytest.raises(RuntimeError):
            timer.start()

    def test_start_after_stop_rejected(self, engine):
        # stop() drops the callback (it would tie the timer's owner into a
        # reference cycle), so a restart must refuse, not tick into None
        ticks = []
        timer = PeriodicTimer(engine, 1.0, ticks.append, "tick")
        timer.start()
        engine.run(until=2.0)
        timer.stop()
        with pytest.raises(RuntimeError, match="stopped"):
            timer.start()
        engine.run(until=5.0)
        assert ticks == ["tick", "tick"]
        assert not timer.active

    def test_nonpositive_interval_rejected(self, engine):
        with pytest.raises(ValueError):
            PeriodicTimer(engine, 0.0, lambda: None)

    def test_args_are_passed(self, engine):
        seen = []
        PeriodicTimer(engine, 1.0, seen.append, "payload").start()
        engine.run(until=2.0)
        assert seen == ["payload", "payload"]


class TestGridTicksAndDrift:
    """PR 3: the n-th tick is epoch + n*interval, never an accumulated sum."""

    def test_no_float_drift_over_1e5_ticks(self, engine):
        # 0.1 is not exactly representable: accumulating t += 0.1 drifts by
        # ~1e-7 per 1e5 ticks, while the grid form stays exact to 1 ulp.
        interval = 0.1
        times = []
        timer = PeriodicTimer(engine, interval, lambda: times.append(engine.now))
        timer.start()
        n = 100_000
        engine.run(until=n * interval)
        assert timer.fire_count == n
        for k in (1, 10, 9_999, 50_000, n - 1):
            expected = (k + 1) * interval
            assert abs(times[k] - expected) <= abs(expected) * 1e-15, (
                f"tick {k}: {times[k]!r} drifted from {expected!r}"
            )

    def test_epoch_anchors_to_start_time(self, engine):
        ticks = []
        engine.schedule_at(
            7.0, lambda: PeriodicTimer(engine, 10.0, lambda: ticks.append(engine.now)).start()
        )
        engine.run(until=40.0)
        assert ticks == [17.0, 27.0, 37.0]


class TestSuspendResume:
    """PR 3: idle-gap fast-forward — suspended timers skip quiet stretches
    but every tick that fires lands on the original grid instants."""

    def test_suspend_stops_firing(self, engine):
        ticks = []
        timer = PeriodicTimer(engine, 10.0, lambda: ticks.append(engine.now))
        timer.start()
        engine.schedule_at(25.0, timer.suspend)
        engine.run(until=100.0)
        assert ticks == [10.0, 20.0]
        assert timer.suspended and not timer.active

    def test_resume_rejoins_the_original_grid(self, engine):
        ticks = []
        timer = PeriodicTimer(engine, 10.0, lambda: ticks.append(engine.now))
        timer.start()
        engine.schedule_at(25.0, timer.suspend)
        engine.schedule_at(73.5, timer.resume)
        engine.run(until=100.0)
        # ticks at 30..70 skipped; resumption continues on the 10 s grid
        assert ticks == [10.0, 20.0, 80.0, 90.0, 100.0]

    def test_resume_within_same_interval_loses_nothing(self, engine):
        ticks = []
        timer = PeriodicTimer(engine, 10.0, lambda: ticks.append(engine.now))
        timer.start()
        engine.schedule_at(20.5, timer.suspend)
        engine.schedule_at(24.0, timer.resume)  # before the armed tick at 30
        engine.run(until=50.0)
        assert ticks == [10.0, 20.0, 30.0, 40.0, 50.0]

    def test_resume_on_grid_instant_fires_that_tick_by_default(self, engine):
        ticks = []
        timer = PeriodicTimer(engine, 10.0, lambda: ticks.append(engine.now))
        timer.start()
        engine.schedule_at(15.0, timer.suspend)
        engine.schedule_at(40.0, timer.resume)  # exactly a lapsed grid slot
        engine.run(until=60.0)
        assert ticks == [10.0, 40.0, 50.0, 60.0]

    def test_resume_on_grid_instant_exclusive_variant(self, engine):
        ticks = []
        timer = PeriodicTimer(engine, 10.0, lambda: ticks.append(engine.now))
        timer.start()
        engine.schedule_at(15.0, timer.suspend)
        engine.schedule_at(40.0, lambda: timer.resume(include_now=False))
        engine.run(until=60.0)
        assert ticks == [10.0, 50.0, 60.0]

    def test_fire_count_excludes_suspended_stretch(self, engine):
        timer = PeriodicTimer(engine, 1.0, lambda: None)
        timer.start()
        engine.schedule_at(3.5, timer.suspend)
        engine.schedule_at(97.2, timer.resume)
        engine.run(until=100.0)
        assert timer.fire_count == 3 + 3  # t=1..3 then t=98..100

    def test_suspend_resume_is_idempotent(self, engine):
        timer = PeriodicTimer(engine, 5.0, lambda: None)
        timer.start()
        timer.suspend()
        timer.suspend()
        timer.resume()
        timer.resume()
        engine.run(until=10.0)
        assert timer.fire_count == 2

    def test_stop_while_suspended(self, engine):
        timer = PeriodicTimer(engine, 5.0, lambda: None)
        timer.start()
        engine.schedule_at(7.0, timer.suspend)
        engine.schedule_at(8.0, timer.stop)
        engine.run(until=50.0)
        assert timer.fire_count == 1
        assert not timer.active and not timer.suspended


class TestResumeFloatKnifeEdge:
    """PR 6: the resume() boundary must survive float error in either
    direction.  ``(now - epoch) / interval`` can land just above the true
    tick index when the waker sits exactly on an unfired grid instant; the
    old ``ceil`` then skipped the tick that must still fire at ``now``.
    The grid instants themselves are always the *product* form
    ``epoch + n*interval`` (what ``_arm`` schedules), so the tests build
    ``now`` the same way.
    """

    # concrete (epoch, interval, m) triples where the quotient floats just
    # above the integer m although epoch + m*interval == now exactly
    KNIFE_EDGES = [
        (134364.2441124012, 0.3, 33434),
        (117918.70367106106, 0.7, 61900),
        (651592.972722763, 7.7, 12304),
        (22322.111021323864, 0.025, 1208),
        (939167.0189485865, 0.025, 30552),
    ]

    def _resume_at_grid_instant(self, epoch, interval, m, include_now):
        from repro.simkit.engine import SimulationEngine

        engine = SimulationEngine(start_time=epoch)
        fires = []
        timer = PeriodicTimer(engine, interval, lambda: fires.append(engine.now))
        timer.start()
        timer.suspend()
        target = epoch + m * interval
        engine.schedule_at(target, timer.resume, include_now)
        engine.run(until=target)
        return fires, target, timer

    @pytest.mark.parametrize("epoch,interval,m", KNIFE_EDGES)
    def test_waker_on_unfired_grid_instant_fires_that_tick(
        self, epoch, interval, m
    ):
        fires, target, _ = self._resume_at_grid_instant(
            epoch, interval, m, include_now=True
        )
        assert fires == [target]

    @pytest.mark.parametrize("epoch,interval,m", KNIFE_EDGES)
    def test_exclusive_waker_on_grid_instant_stays_strictly_after(
        self, epoch, interval, m
    ):
        fires, target, timer = self._resume_at_grid_instant(
            epoch, interval, m, include_now=False
        )
        assert fires == []
        assert timer._epoch + timer._n * timer.interval > target

    def test_resume_grid_boundary_hypothesis(self):
        from hypothesis import given, settings
        from hypothesis import strategies as st

        @settings(max_examples=300, deadline=None)
        @given(
            epoch=st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
            interval=st.sampled_from(
                [0.025, 0.1, 0.3, 1 / 3, 0.7, 2.5, 3.0, 7.7, 60.0, 3600.0]
            ),
            m=st.integers(min_value=2, max_value=100_000),
            include_now=st.booleans(),
        )
        def check(epoch, interval, m, include_now):
            fires, target, timer = self._resume_at_grid_instant(
                epoch, interval, m, include_now
            )
            if include_now:
                # the boundary tick at `now` must fire, and nothing earlier
                assert fires == [target]
            else:
                # strictly after: nothing fires by `target`, and the armed
                # tick is the first grid instant past it
                assert fires == []
                next_t = timer._epoch + timer._n * timer.interval
                assert next_t > target
                assert timer._epoch + (timer._n - 1) * timer.interval <= target

        check()
