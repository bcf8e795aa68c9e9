"""The discrete-event simulation engine.

A :class:`SimulationEngine` owns the virtual clock and a binary heap of
pending :class:`~repro.simkit.events.Event` objects.  Components schedule
callbacks with :meth:`SimulationEngine.schedule` (relative delay) or
:meth:`SimulationEngine.schedule_at` (absolute time) and the engine executes
them in deterministic ``(time, priority, seq)`` order.

Design notes
------------
* Cancelled events stay in the heap and are discarded lazily when popped;
  this keeps :meth:`cancel` O(1) at the cost of some heap slack.  When the
  slack grows pathological (cancel-heavy timer churn) the engine compacts:
  once more than :data:`COMPACT_MIN_HEAP` events are pending and cancelled
  entries exceed :data:`COMPACT_SLACK_RATIO` of the heap, the heap is
  rebuilt without them — O(n), amortized O(1) per cancellation.
* The engine never advances past ``horizon`` when one is given to
  :meth:`run`, and it is resumable: calling :meth:`run` again continues from
  where the previous call stopped.
* There is no wall-clock coupling anywhere; time is just a float in seconds.
* A finished world is freed by :meth:`dispose`: pending events are the
  edges that tie a world's components into reference cycles (an event
  holds a bound method of its owner, and owners keep handles on their
  pending events), so dropping their callables lets the world die by
  reference counting instead of waiting for the cyclic collector.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Optional

from repro.simkit.events import Event


class SimulationError(RuntimeError):
    """Raised for invalid engine operations (e.g. scheduling in the past)."""


#: Compaction triggers only above this heap size (small heaps drain fast
#: enough that lazy discarding is already optimal).
COMPACT_MIN_HEAP = 1024
#: ... and only when cancelled entries exceed this fraction of the heap.
COMPACT_SLACK_RATIO = 0.5


class SimulationEngine:
    """A deterministic discrete-event executor.

    Parameters
    ----------
    start_time:
        Initial value of the simulation clock, in seconds.
    max_events:
        Safety valve: :meth:`run` raises :class:`SimulationError` after
        executing this many events, which turns accidental infinite
        event loops into clean test failures.
    compact_min_heap, compact_slack_ratio:
        Heap-compaction thresholds; the module-level defaults
        (:data:`COMPACT_MIN_HEAP`, :data:`COMPACT_SLACK_RATIO`) suit
        every in-tree workload, but cancel-heavy custom components can
        tune them per engine instead of monkeypatching the module.
    """

    def __init__(
        self,
        start_time: float = 0.0,
        max_events: int = 200_000_000,
        compact_min_heap: int = COMPACT_MIN_HEAP,
        compact_slack_ratio: float = COMPACT_SLACK_RATIO,
    ) -> None:
        if compact_min_heap < 0:
            raise ValueError(
                f"compact_min_heap must be >= 0, got {compact_min_heap}"
            )
        if not 0.0 < compact_slack_ratio <= 1.0:
            raise ValueError(
                f"compact_slack_ratio must be in (0, 1], got {compact_slack_ratio}"
            )
        self._now = float(start_time)
        self._heap: list[Event] = []
        self._seq = 0
        self._executed = 0
        self._max_events = int(max_events)
        self._running = False
        self._cancelled_pending = 0  # cancelled-but-unpopped heap entries
        self._compact_min_heap = int(compact_min_heap)
        self._compact_slack_ratio = float(compact_slack_ratio)
        self.compactions = 0
        self._disposed = False

    # ------------------------------------------------------------------ #
    # clock
    # ------------------------------------------------------------------ #
    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def executed_events(self) -> int:
        """Number of events executed so far (cancelled pops excluded)."""
        return self._executed

    @property
    def pending_events(self) -> int:
        """Number of events in the heap, including cancelled ones."""
        return len(self._heap)

    # ------------------------------------------------------------------ #
    # scheduling
    # ------------------------------------------------------------------ #
    def schedule(
        self,
        delay: float,
        fn: Callable[..., Any],
        *args: Any,
        priority: int = 0,
    ) -> Event:
        """Schedule ``fn(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        return self.schedule_at(self._now + delay, fn, *args, priority=priority)

    def schedule_at(
        self,
        time: float,
        fn: Callable[..., Any],
        *args: Any,
        priority: int = 0,
    ) -> Event:
        """Schedule ``fn(*args)`` at absolute simulation time ``time``."""
        if not time >= self._now:  # NaN fails too
            raise SimulationError(
                f"cannot schedule at t={time} (clock is already at {self._now})"
            )
        seq = self._seq
        self._seq = seq + 1
        event = Event(time, priority, seq, fn, args)
        # The heap stores (time, priority, seq, event): comparisons stay in
        # C-level tuple code (seq is unique, so the event is never compared),
        # which is the difference between the heap dominating a two-week
        # sweep and disappearing from its profile.
        heapq.heappush(self._heap, (time, priority, seq, event))
        return event

    def schedule_batch(
        self,
        items: "list[tuple[float, Callable[..., Any], tuple[Any, ...]]]",
        priority: int = 0,
    ) -> list[Event]:
        """Schedule many ``(time, fn, args)`` callbacks in one pass.

        Equivalent to calling :meth:`schedule_at` per item (same seq
        assignment, hence identical tie-breaking and execution order), but
        loads the heap with one ``extend`` + ``heapify`` — O(n) instead of
        O(n log n) pushes — which is how whole workload traces are injected.
        """
        now = self._now
        seq = self._seq
        entries = []
        events = []
        for time, fn, args in items:
            if not time >= now:  # NaN fails too
                raise SimulationError(
                    f"cannot schedule at t={time} (clock is already at {now})"
                )
            event = Event(time, priority, seq, fn, args)
            entries.append((event.time, priority, seq, event))
            events.append(event)
            seq += 1
        self._seq = seq
        self._heap.extend(entries)
        heapq.heapify(self._heap)
        return events

    def cancel(self, event: Event) -> None:
        """Cancel a pending event (lazy removal, amortized O(1)).

        Calling ``event.cancel()`` directly is also valid (the engine skips
        the entry when popped) but bypasses the slack accounting that
        triggers heap compaction, so prefer this method for events that may
        sit far in the future.
        """
        if not event._cancelled:
            # 2 = "counted into the slack": pops decrement the counter only
            # for these entries.  Direct Event.cancel() sets True, and the
            # pop paths leave the counter alone for those — they were never
            # counted in, so decrementing would drain the counter while
            # counted slack still sits deep in the heap and compaction
            # would never fire (the accounting drift fixed in PR 6).
            event._cancelled = 2
            self._cancelled_pending += 1
            self._maybe_compact()

    def _maybe_compact(self) -> None:
        """Rebuild the heap without cancelled entries when slack dominates."""
        heap = self._heap
        if (
            len(heap) > self._compact_min_heap
            and self._cancelled_pending > self._compact_slack_ratio * len(heap)
        ):
            live = [entry for entry in heap if not entry[3].cancelled]
            heapq.heapify(live)
            self._heap = live
            self._cancelled_pending = 0
            self.compactions += 1

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #
    def peek_time(self) -> Optional[float]:
        """Time of the next live event, or None if the heap is empty."""
        self._drop_cancelled()
        return self._heap[0][0] if self._heap else None

    def step(self) -> bool:
        """Execute the next live event. Returns False if none remain."""
        if self._disposed:
            raise self._disposed_error()
        self._drop_cancelled()
        if not self._heap:
            return False
        event = heapq.heappop(self._heap)[3]
        self._now = event.time
        self._executed += 1
        if self._executed > self._max_events:
            raise SimulationError(
                f"exceeded max_events={self._max_events}; likely a runaway timer"
            )
        event.fire()
        return True

    def advance_before(self, time: float) -> int:
        """Execute every pending event strictly before ``time``.

        Stops on the exact pre-event-batch boundary: after this returns,
        the next live event (if any) fires at or after ``time``, with no
        float-epsilon games.  The clock is left on the last executed
        event, not on ``time`` — a subsequent :meth:`run` therefore
        replays exactly the tail an uninterrupted run would have executed,
        which is what makes mid-run snapshots byte-identical to cold runs.
        Returns the number of events executed.
        """
        if self._disposed:
            raise self._disposed_error()
        n = 0
        while True:
            next_time = self.peek_time()
            if next_time is None or next_time >= time:
                return n
            self.step()
            n += 1

    def fast_forward(self, time: float) -> None:
        """Jump the clock to ``time`` without executing anything.

        The fluid tier's mode switch: after a quiescent window's state
        evolution has been applied in closed form, the clock moves to the
        window boundary in O(1).  Safety: the jump must not step over any
        live event — every pending event must be scheduled strictly
        *after* ``time`` (events exactly at ``time`` would have executed
        in ``run(until=time)``, so skipping them would diverge) — and the
        engine must be outside :meth:`run`.
        """
        if self._disposed:
            raise self._disposed_error()
        if self._running:
            raise SimulationError("cannot fast-forward while running")
        time = float(time)
        if time < self._now:
            raise SimulationError(
                f"cannot fast-forward to t={time} (clock is already at "
                f"{self._now})"
            )
        next_time = self.peek_time()
        if next_time is not None and next_time <= time:
            raise SimulationError(
                f"cannot fast-forward to t={time} over a live event at "
                f"t={next_time}"
            )
        self._now = time

    def run(self, until: Optional[float] = None) -> float:
        """Run until the heap drains or the clock would pass ``until``.

        Events scheduled exactly at ``until`` are executed.  Returns the
        final clock value (``until`` if a horizon was given and reached).
        """
        if self._disposed:
            raise self._disposed_error()
        if self._running:
            raise SimulationError("engine is not reentrant")
        self._running = True
        # Hand-inlined peek/pop/fire loop: this is the innermost loop of
        # every simulation, and the method-call version costs ~25% more.
        heap = self._heap
        max_events = self._max_events
        pop = heapq.heappop
        executed = self._executed
        try:
            while True:
                while heap and heap[0][3]._cancelled:
                    if pop(heap)[3]._cancelled == 2:
                        self._cancelled_pending -= 1
                if not heap:
                    break
                now = heap[0][0]
                if until is not None and now > until:
                    break
                # Coalesce the whole same-timestamp batch: events at one
                # instant share the horizon check and the clock write, so
                # burst arrivals / simultaneous completions cost one pass.
                self._now = now
                while heap and heap[0][0] == now:
                    event = pop(heap)[3]
                    if event._cancelled:
                        if event._cancelled == 2:
                            self._cancelled_pending -= 1
                        continue
                    executed += 1
                    if executed > max_events:
                        self._executed = executed
                        raise SimulationError(
                            f"exceeded max_events={max_events}; "
                            f"likely a runaway timer"
                        )
                    event.fn(*event.args)
                    if heap is not self._heap:
                        heap = self._heap  # compaction swapped the list
        finally:
            self._executed = executed
            self._running = False
        if until is not None and self._now < until:
            self._now = float(until)
        return self._now

    # ------------------------------------------------------------------ #
    # teardown
    # ------------------------------------------------------------------ #
    def dispose(self) -> None:
        """Free a finished world: drop every pending event's callable.

        Pending events are the edges that close a world's reference
        cycles: each holds a bound method (or arguments) of the component
        that scheduled it, and the components keep handles on their own
        pending events (arrival maps, finish-event tables).  Detaching the
        callable and arguments of every event still on the heap, cancelled
        or not, and dropping the heap breaks those cycles wherever the
        event objects sit, so once the world's teardown methods have
        dropped their own callbacks the whole world is freed by reference
        counting.  Afterwards :meth:`run`, :meth:`step`,
        :meth:`advance_before`, :meth:`fast_forward` and world snapshots
        refuse the engine; scheduling is not checked (it is the per-event
        path), the world's owner refuses it instead.  Idempotent.
        """
        for entry in self._heap:
            event = entry[3]
            event.fn = None
            event.args = ()
        self._heap = []
        self._cancelled_pending = 0
        self._disposed = True

    def _disposed_error(self) -> SimulationError:
        return SimulationError(
            f"the engine was disposed at t={self._now}: its world has "
            f"finished and its pending events were dropped"
        )

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _drop_cancelled(self) -> None:
        heap = self._heap
        while heap and heap[0][3]._cancelled:
            # Lazily-discovered cancellations: only entries counted in by
            # SimulationEngine.cancel (marked 2) decrement the slack; events
            # cancelled via Event.cancel() directly were never counted, so
            # popping them must not eat a counted entry's decrement.
            if heapq.heappop(heap)[3]._cancelled == 2:
                self._cancelled_pending -= 1

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<SimulationEngine t={self._now:.3f} pending={len(self._heap)} "
            f"executed={self._executed}>"
        )
