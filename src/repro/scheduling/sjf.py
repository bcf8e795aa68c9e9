"""Shortest-job-first scheduling (an ablation beyond the paper).

SJF greedily starts the shortest queued jobs that fit.  It minimizes mean
wait time on a single machine and is the classic foil to arrival-order
policies: comparing it against first-fit on the fixed-size systems shows
how much of the throughput story is scheduling (almost none — consumption
is fixed by the machine size) versus resizing (the paper's whole effect).

Ties break by arrival order so the policy stays deterministic.  Wide long
jobs *can* starve under pure SJF — ``max_skip`` bounds that: once a queued
job has been jumped by later arrivals more than ``max_skip`` times, no job
behind it may start before it does (SJF with aging).
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.scheduling.base import RunningJob, Scheduler
from repro.workloads.job import Job


class SjfScheduler(Scheduler):
    """Shortest-job-first with optional aging.

    Parameters
    ----------
    max_skip:
        How many times a queued job may be jumped by later arrivals before
        it becomes a barrier (``None`` = never, pure SJF).
    """

    name = "sjf"

    def __init__(self, max_skip: Optional[int] = None) -> None:
        if max_skip is not None and max_skip < 0:
            raise ValueError("max_skip must be >= 0 or None")
        self.max_skip = max_skip
        self._skips: dict[int, int] = {}
        # pure SJF never reads the clock; the aging variant counts skips
        # per select call, so skipping scans would change its decisions
        self.time_independent = max_skip is None

    def select(
        self,
        now: float,
        queued: Sequence[Job],
        free_nodes: int,
        running: Sequence[RunningJob] = (),
    ) -> list[Job]:
        if not queued or free_nodes <= 0:
            return []
        queued = list(queued)  # positional access; servers pass their JobQueue

        barrier_pos: Optional[int] = None
        if self.max_skip is not None:
            for pos, job in enumerate(queued):
                if self._skips.get(job.job_id, 0) > self.max_skip:
                    barrier_pos = pos
                    break

        order = sorted(range(len(queued)), key=lambda i: (queued[i].runtime, i))
        picked_pos: set[int] = set()
        remaining = free_nodes
        for pos in order:
            job = queued[pos]
            if (
                barrier_pos is not None
                and pos > barrier_pos
                and barrier_pos not in picked_pos
            ):
                continue  # nothing may jump the aged barrier job
            if job.size <= remaining:
                picked_pos.add(pos)
                remaining -= job.size
            if remaining <= 0:
                break

        if self.max_skip is not None:
            self._update_skips(queued, picked_pos)
        return [queued[pos] for pos in sorted(picked_pos)]

    def _update_skips(self, queued: Sequence[Job], picked_pos: set[int]) -> None:
        """A job is 'skipped' when some later arrival started and it didn't."""
        last_started = max(picked_pos, default=-1)
        for pos, job in enumerate(queued):
            if pos in picked_pos:
                self._skips.pop(job.job_id, None)
            elif pos < last_started:
                self._skips[job.job_id] = self._skips.get(job.job_id, 0) + 1
