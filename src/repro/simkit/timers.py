"""Timers built on the simulation engine.

:class:`PeriodicTimer` wraps the raw engine API for the paper's scan loops
("the HTC server scans jobs in queue per minute", "a MTC server scans jobs
in queue per three seconds") and the hourly idle-resource checks registered
after each dynamic request.

Periodic ticks live on a fixed grid: the n-th firing happens at exactly
``epoch + n*interval`` (``epoch`` = the clock at :meth:`PeriodicTimer.start`)
rather than at an accumulated ``t += interval`` sum, so a two-week run of
10^5 ticks carries no float drift.  The grid is also what makes
:meth:`PeriodicTimer.suspend` / :meth:`PeriodicTimer.resume` exact: a timer
suspended through an idle stretch resumes on the *same* tick instants it
would have fired on anyway — skipping the no-op wakeups is invisible to the
simulation.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Optional

from repro.simkit.engine import SimulationEngine
from repro.simkit.events import Event


class PeriodicTimer:
    """Fires ``fn(*args)`` every ``interval`` seconds until stopped.

    The first firing happens ``interval`` seconds after :meth:`start` (not
    immediately), matching how the paper's servers begin scanning after the
    runtime environment starts.  Re-arming happens *before* the callback so
    the callback may safely call :meth:`stop`.

    A started timer can also be *suspended*: the pending tick is cancelled
    and nothing fires until :meth:`resume`, which re-arms on the first grid
    instant strictly after the current clock.  Because ticks are grid-pinned,
    every tick that does fire lands on the exact instant it would have
    without the suspension — only the skipped (idle) wakeups disappear.
    ``fire_count`` counts executed ticks, so a suspended stretch contributes
    zero.
    """

    def __init__(
        self,
        engine: SimulationEngine,
        interval: float,
        fn: Callable[..., Any],
        *args: Any,
        priority: int = 0,
        silent_suspend: bool = False,
    ) -> None:
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval!r}")
        self._engine = engine
        self.interval = float(interval)
        self._fn = fn
        self._args = args
        self._priority = priority
        self._silent_suspend = silent_suspend
        self._event: Optional[Event] = None
        self._epoch = 0.0  # clock at start(); tick n fires at epoch + n*interval
        self._n = 0  # index of the last armed-or-fired tick
        self._started = False
        self._suspended = False
        self.fire_count = 0

    @property
    def active(self) -> bool:
        return (
            not self._suspended
            and self._event is not None
            and not self._event.cancelled
        )

    @property
    def suspended(self) -> bool:
        """True while started but idling between :meth:`suspend`/:meth:`resume`."""
        return self._suspended

    def start(self) -> "PeriodicTimer":
        # Guard on _started, not active: a suspended timer is inactive but
        # still owns its grid (and possibly a pending ghost tick), and
        # restarting it would interleave two tick streams.
        if self._started:
            raise RuntimeError("timer already started")
        if self._fn is None:
            raise RuntimeError(
                "timer was stopped: stop() dropped its callback, so it "
                "cannot start again (build a new timer)"
            )
        self._started = True
        self._suspended = False
        self._epoch = self._engine.now
        self._n = 0
        self._arm(1)
        return self

    def stop(self) -> None:
        """Stop for good: cancel the armed tick and drop the callback.

        The callback is usually a bound method of the timer's owner, which
        in turn holds the timer; dropping it breaks that reference cycle,
        so a stopped timer cannot :meth:`start` again.
        """
        self._started = False
        self._suspended = False
        self._fn = None
        self._args = ()
        if self._event is not None:
            self._engine.cancel(self._event)
            self._event = None

    # ------------------------------------------------------------------ #
    # idle-gap fast-forward
    # ------------------------------------------------------------------ #
    def suspend(self) -> None:
        """Pause ticking; a no-op unless the timer is started.

        Lazy: the already-armed grid tick stays in the heap and lapses as a
        silent *ghost* (no callback, no re-arm) if still suspended when it
        comes up.  Suspend/resume cycles shorter than one interval — the
        overwhelmingly common case under bursty arrivals — therefore cost
        no heap traffic at all, and the grid itself is untouched:
        :meth:`resume` continues on the original instants.

        A timer built with ``silent_suspend=True`` ghosts differently: the
        lapsing tick silently *re-arms* the next grid slot instead of
        dropping out of the heap.  The event stream (instants, priorities
        and sequence-number allocations) then stays literally identical to
        the un-suspended run — only the callback is skipped — so same-
        instant ordering against any other event is exact by construction.
        That is the right trade for long-interval timers (the hourly
        release checks): their un-suspended tick is armed a full interval
        ahead, and no re-armed event can reproduce that heap position
        after the slot is lost.  Short-cadence timers (the scans) keep the
        cheaper lapsing ghost, whose 60 s arming window admits the seq
        argument in :meth:`resume`.
        """
        if self._started:
            self._suspended = True

    def resume(self, include_now: bool = True) -> None:
        """Re-arm on the next grid instant at-or-after the current clock.

        ``include_now`` decides the boundary case where the clock sits
        exactly on a grid instant that has not fired yet.  A waker whose
        event was scheduled *before* the tick would have been armed (an
        hourly release check, a pre-scheduled arrival) runs ahead of the
        pending tick in the un-suspended execution, so the tick must still
        fire at ``now`` (``include_now=True``, the default).  A waker
        scheduled *after* the arming point (a job-completion event) runs
        behind it, so replaying the tick at ``now`` would let the scan see
        state the un-suspended scan could not — those wakers pass
        ``include_now=False`` and the timer continues strictly after.
        Either way, a tick that already fired at ``now`` is never repeated.

        A ``silent_suspend`` timer always still owns its armed slot, so
        resuming it is just the flag flip: the pending tick fires at its
        original heap position.
        """
        if not self._started or not self._suspended:
            return
        self._suspended = False
        if self._event is not None:
            # The armed tick has not lapsed yet: it carries its original
            # scheduling order, so letting it fire reproduces the
            # un-suspended execution exactly.  Nothing to do.
            return
        now = self._engine.now
        k = (now - self._epoch) / self.interval
        n = int(math.ceil(k)) if include_now else int(math.floor(k)) + 1
        # Float-edge guards, symmetric in both directions: the quotient k
        # can land on either side of the true tick index, so the candidate
        # is corrected against the *product* form (epoch + n*interval, the
        # exact instant ticks actually fire at) rather than trusted.  The
        # downward guard covers the knife-edge where a waker lands exactly
        # on an unfired grid instant but k sits just above the integer, so
        # ceil alone would skip the tick that must still fire at ``now``.
        threshold_ok = (
            (lambda t: t >= now) if include_now else (lambda t: t > now)
        )
        while n - 1 > self._n and threshold_ok(self._epoch + (n - 1) * self.interval):
            n -= 1
        if n <= self._n:
            n = self._n + 1
        while self._epoch + n * self.interval < now:
            n += 1
        if not include_now:
            while self._epoch + n * self.interval <= now:
                n += 1
        self._arm(n)

    # ------------------------------------------------------------------ #
    def _arm(self, n: int) -> None:
        self._n = n
        self._event = self._engine.schedule_at(
            self._epoch + n * self.interval, self._tick, priority=self._priority
        )

    def _tick(self) -> None:
        if self._suspended:
            if self._silent_suspend:
                # silent slot: re-arm exactly where the un-suspended tick
                # would have, skip only the callback (see suspend())
                self._arm(self._n + 1)
            else:
                self._event = None  # ghost: the grid slot lapses silently
            return
        self._arm(self._n + 1)
        self.fire_count += 1
        self._fn(*self._args)
