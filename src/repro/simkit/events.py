"""Event objects for the simulation engine.

Events are comparable by ``(time, priority, seq)`` so that the engine's heap
pops them in chronological order, with ties broken first by an explicit
priority (lower runs earlier) and then by scheduling order.  The secondary
sequence key makes simulations deterministic: two events scheduled for the
same instant always fire in the order they were scheduled.
"""

from __future__ import annotations

from typing import Any, Callable


class EventCancelled(RuntimeError):
    """Raised when an operation is attempted on a cancelled event."""


class Event:
    """A single scheduled callback.

    Instances are created by :meth:`repro.simkit.engine.SimulationEngine.schedule`
    and friends; user code normally only keeps them around to call
    :meth:`cancel`.

    Attributes
    ----------
    time:
        Absolute simulation time at which the callback fires.
    priority:
        Tie-break rank for events at the same time; lower fires first.
    seq:
        Monotonically increasing scheduling sequence number (final tie-break).
    fn:
        The callback. Called as ``fn(*args)``; ``None`` once the engine
        was disposed (:meth:`~repro.simkit.engine.SimulationEngine.dispose`).
    """

    __slots__ = ("time", "priority", "seq", "fn", "args", "_cancelled")

    def __init__(
        self,
        time: float,
        priority: int,
        seq: int,
        fn: Callable[..., Any],
        args: tuple[Any, ...] = (),
    ) -> None:
        # No defensive float()/int() coercion: construction happens a
        # couple hundred thousand times per two-week sweep and the engine
        # only ever passes numbers (heap keys compare ints/floats fine).
        self.time = time
        self.priority = priority
        self.seq = seq
        self.fn = fn
        self.args = args
        self._cancelled = False

    @property
    def cancelled(self) -> bool:
        """True once :meth:`cancel` has been called."""
        return bool(self._cancelled)

    def cancel(self) -> None:
        """Mark the event so the engine skips it. Idempotent.

        ``_cancelled`` is tri-state: ``False`` (pending), ``True``
        (cancelled directly, invisible to the engine's slack counter) or
        ``2`` (cancelled through ``SimulationEngine.cancel``, counted into
        the compaction slack).  Both truthy states read as cancelled; only
        counted entries may decrement the slack counter when popped,
        otherwise direct cancellations would drain it and suppress
        compaction while counted slack still sits deep in the heap.
        """
        if not self._cancelled:
            self._cancelled = True

    def fire(self) -> None:
        """Invoke the callback. Raises :class:`EventCancelled` if cancelled."""
        if self._cancelled:
            raise EventCancelled(f"event at t={self.time} was cancelled")
        self.fn(*self.args)

    def sort_key(self) -> tuple[float, int, int]:
        return (self.time, self.priority, self.seq)

    def __lt__(self, other: "Event") -> bool:
        # The engine's heap holds (time, priority, seq, event) tuples, so
        # this is off the hot path; it exists for direct Event sorting.
        return self.sort_key() < other.sort_key()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "cancelled" if self._cancelled else "pending"
        name = getattr(self.fn, "__qualname__", repr(self.fn))
        return f"<Event t={self.time:.3f} p={self.priority} {name} ({state})>"
