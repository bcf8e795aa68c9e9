"""First-fit scheduling (the paper's HTC policy).

Section 4.4: "The first-fit scheduling algorithm scans all the queued jobs
in the order of job arrival and chooses the first job, whose resources
requirement can be met by the system, to execute."

The dispatcher calls :meth:`select` repeatedly (after every arrival,
completion or resource change), so picking greedily until nothing fits is
equivalent to the paper's one-at-a-time formulation but needs fewer passes.

The picks come from :meth:`JobQueue.first_fit
<repro.scheduling.queue.JobQueue.first_fit>`.  A short queue is walked in
arrival order.  A long backlog is answered from the queue's per-width
FIFO buckets: the next pick is the earliest arrival among the bucket
heads no wider than the nodes still free.  Both give the same jobs in the
same order, because the free width only shrinks within a call, so every
job the walk passes over still does not fit when a later one is taken.
"""

from __future__ import annotations

from typing import Sequence

from repro.scheduling.base import RunningJob, Scheduler
from repro.scheduling.queue import JobQueue
from repro.workloads.job import Job


class FirstFitScheduler(Scheduler):
    """Greedy first-fit over the queue in arrival order."""

    name = "first-fit"
    time_independent = True

    def select(
        self,
        now: float,
        queued: JobQueue,
        free_nodes: int,
        running: Sequence[RunningJob] = (),
    ) -> list[Job]:
        return queued.first_fit(free_nodes)
