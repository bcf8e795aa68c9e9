"""The job queue shared by every runtime-environment server.

Keeps arrival order, supports O(1) membership checks, and provides the two
demand aggregates the paper's resource-management policy needs (§3.2.2.1):

* ``total_demand`` — "the accumulated resource demands of all jobs in the
  queue" (numerator of the ratio of obtaining resources);
* ``biggest_demand`` — "the resource demand of the present biggest job in
  the queue" (the DR2 trigger).

It also answers the paper's HTC scheduling question itself
(:meth:`JobQueue.first_fit`), from a per-width index over the same jobs.
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.workloads.job import Job


class JobQueue:
    """FIFO of queued jobs with demand aggregates and a first-fit index.

    Backed by an insertion-ordered dict keyed on ``job_id``: dispatch
    removes jobs from the *middle* of the arrival order (first-fit skips
    a too-wide head), which a dict does in O(1) where a list would scan.

    Beside it sits one FIFO bucket per job width, ``size -> {job_id:
    seq}``, where ``seq`` counts pushes: a bucket is its width's jobs in
    arrival order, and the earliest arrival among several buckets is the
    head with the smallest ``seq``.  A requeued job (remove, then push)
    takes a fresh ``seq`` at the tail of both orders.  The buckets' keys
    give the smallest and biggest queued widths without a scan, and
    :meth:`first_fit` reads heads instead of walking a long backlog.
    """

    def __init__(self) -> None:
        self._jobs: dict[int, Job] = {}
        # Incremental aggregates: the policy reads both once per scan
        # (tens of thousands of scans per two-week run), so they must not
        # rescan the queue.
        self._total_demand = 0
        self._buckets: dict[int, dict[int, int]] = {}
        self._biggest = 0
        self._seq = 0

    def __len__(self) -> int:
        return len(self._jobs)

    def __iter__(self) -> Iterator[Job]:
        return iter(self._jobs.values())

    def __contains__(self, job: Job) -> bool:
        return job.job_id in self._jobs

    @property
    def jobs(self) -> list[Job]:
        """The queue in arrival order (a copy; safe to mutate)."""
        return list(self._jobs.values())

    def push(self, job: Job) -> None:
        job_id = job.job_id
        if job_id in self._jobs:
            raise ValueError(f"job {job_id} already queued")
        self._jobs[job_id] = job
        size = job.size
        self._total_demand += size
        bucket = self._buckets.get(size)
        if bucket is None:
            bucket = self._buckets[size] = {}
            if size > self._biggest:
                self._biggest = size
        self._seq += 1
        bucket[job_id] = self._seq

    def remove(self, job: Job) -> None:
        job_id = job.job_id
        if job_id not in self._jobs:
            raise ValueError(f"job {job_id} not in queue")
        del self._jobs[job_id]
        size = job.size
        self._total_demand -= size
        bucket = self._buckets[size]
        del bucket[job_id]
        if not bucket:
            del self._buckets[size]
            if size == self._biggest:
                self._biggest = max(self._buckets, default=0)

    def head(self) -> Optional[Job]:
        return next(iter(self._jobs.values()), None)

    # ------------------------------------------------------------------ #
    # first-fit (§4.4)
    # ------------------------------------------------------------------ #
    def first_fit(self, free_nodes: int) -> list[Job]:
        """The jobs first-fit starts on ``free_nodes`` idle nodes, in order.

        Equal to walking the queue in arrival order and taking each job
        that fits in what the earlier picks left.  The queue is not
        changed: the server removes the picks as it starts them.

        A queue of at most four jobs per distinct width is walked.  A
        longer one is answered from the bucket heads: the next pick is
        the earliest-arrival head among the buckets no wider than the
        width left.  That is the walk's next pick, because the width left
        only shrinks within a call, so every job the walk would pass over
        on the way (an earlier arrival of another width) still does not
        fit; and a bucket too wide once stays too wide for the call.
        """
        jobs = self._jobs
        buckets = self._buckets
        picked: list[Job] = []
        remaining = free_nodes
        if len(jobs) <= 4 * len(buckets):
            for job in jobs.values():
                if job.size <= remaining:
                    picked.append(job)
                    remaining -= job.size
                    if remaining <= 0:
                        break
            return picked
        # (seq, size, job_id) of each fitting bucket's earliest job not
        # yet picked; seqs are unique, so min() never compares past them.
        heads = []
        for size, bucket in buckets.items():
            if size <= remaining:
                for job_id, seq in bucket.items():
                    heads.append((seq, size, job_id))
                    break
        cursors: dict[int, Iterator[tuple[int, int]]] = {}
        while heads:
            head = min(heads)
            _, size, job_id = head
            picked.append(jobs[job_id])
            remaining -= size
            if remaining <= 0:
                break
            heads = [h for h in heads if h[1] <= remaining and h is not head]
            if size <= remaining:  # the picked bucket's next job is its head
                cursor = cursors.get(size)
                if cursor is None:
                    cursor = cursors[size] = iter(buckets[size].items())
                    next(cursor)
                for job_id, seq in cursor:
                    heads.append((seq, size, job_id))
                    break
        return picked

    # ------------------------------------------------------------------ #
    # policy aggregates (§3.2.2.1)
    # ------------------------------------------------------------------ #
    @property
    def total_demand(self) -> int:
        """Accumulated resource demand of all queued jobs, in nodes."""
        return self._total_demand

    @property
    def biggest_demand(self) -> int:
        """Width of the widest queued job (0 when empty)."""
        return self._biggest

    @property
    def smallest_demand(self) -> int:
        """Width of the narrowest queued job (0 when empty).

        The minimum over the width buckets, O(distinct sizes) rather than
        O(jobs): dispatch uses it to prove that a backlogged scan cannot
        start anything (``idle < smallest``) without asking the scheduler.
        """
        return min(self._buckets, default=0)
