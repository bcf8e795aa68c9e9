"""Scheduler interface.

A scheduler is a pure policy object: given the queue (in arrival order),
the number of free nodes and the currently running jobs, it returns which
queued jobs to start *now*.  All state (queue membership, resource counts)
lives in the runtime-environment server, which makes policies trivially
testable and swappable.
"""

from __future__ import annotations

import abc
from typing import NamedTuple, Sequence

from repro.scheduling.queue import JobQueue
from repro.workloads.job import Job


class RunningJob(NamedTuple):
    """What a scheduler may know about a running job.

    A named tuple rather than a (frozen) dataclass: one is allocated per
    job start, and tuple construction is measurably cheaper than a frozen
    dataclass's ``object.__setattr__`` path on the dispatch hot loop.
    """

    job: Job
    finish_time: float

    @property
    def size(self) -> int:
        return self.job.size


class Scheduler(abc.ABC):
    """Decides which queued jobs start now."""

    name: str = "abstract"

    #: True when :meth:`select` is a pure function of (queued, free_nodes,
    #: running) — i.e. it neither reads ``now`` nor keeps state across
    #: calls.  Servers use this to skip provably no-op scans while nothing
    #: changes (idle-gap fast-forward); time-aware policies (backfilling
    #: reservations move with the clock) must leave it False.
    time_independent: bool = False

    @abc.abstractmethod
    def select(
        self,
        now: float,
        queued: JobQueue,
        free_nodes: int,
        running: Sequence[RunningJob] = (),
    ) -> list[Job]:
        """Return the queued jobs to start at ``now``.

        ``queued`` is the server's :class:`~repro.scheduling.queue.JobQueue`
        itself: iterate it for arrival order (``len()`` works too), copy it
        with ``list()`` for positional access, and never mutate it — the
        server removes the picks as it starts them.

        Implementations must never select more aggregate width than
        ``free_nodes`` and must preserve queue membership (no duplicates).
        """

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__}>"
