"""First-fit from the queue's width buckets equals the arrival-order walk.

:func:`walk_first_fit` is the paper's §4.4 first-fit as a plain loop over
the queue in arrival order.  It is the oracle for
:meth:`JobQueue.first_fit` twice over: at the queue level, under random
interleavings of every queue mutation a server makes, and at the server
level, where whole DCS and DawningCloud runs must give the same payloads
and the same per-job start and finish times with either scheduler.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.policies import ResourceManagementPolicy
from repro.experiments.config import nasa_bundle
from repro.experiments.perfscale import build_uniform_trace
from repro.reliability.failures import ExponentialFailures
from repro.scheduling.base import Scheduler
from repro.scheduling.queue import JobQueue
from repro.systems.dsp_runner import DawningCloudHtcLiveRun
from repro.systems.fixed import FixedLiveRun
from tests.conftest import make_job

HOUR = 3600.0


def walk_first_fit(queued, free_nodes):
    """First-fit by walking the queue in arrival order (the oracle)."""
    picked = []
    remaining = free_nodes
    for job in queued:
        if job.size <= remaining:
            picked.append(job)
            remaining -= job.size
        if remaining <= 0:
            break
    return picked


def answered_by_index(queue) -> bool:
    """Whether ``first_fit`` reads bucket heads (else it walks)."""
    return len(queue) > 4 * len({job.size for job in queue})


# --------------------------------------------------------------------- #
# queue level
# --------------------------------------------------------------------- #
#: one width (Montage tasks), a few (NASA iPSC's eight powers of two)
#: and many (the uniform perfscale traces' 1..64)
SIZE_POOLS = {
    "one": [1],
    "few": [1, 2, 4, 8, 16, 32, 64, 128],
    "many": list(range(1, 65)),
}

OPS = ("push", "remove", "requeue", "dispatch")


@pytest.mark.parametrize("pool", sorted(SIZE_POOLS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_first_fit_matches_walk_under_queue_mutations(pool, data):
    sizes = SIZE_POOLS[pool]
    widest = max(sizes)
    ids = itertools.count(1)
    queue = JobQueue()
    paths = set()

    def push(size):
        queue.push(make_job(next(ids), size=size))

    def check():
        arrival = list(queue)
        state = (queue.total_demand, queue.biggest_demand, queue.smallest_demand)
        sizes_now = [job.size for job in arrival]
        assert state == (
            sum(sizes_now), max(sizes_now, default=0), min(sizes_now, default=0)
        )
        if arrival:
            paths.add("index" if answered_by_index(queue) else "walk")
        for free in range(-1, 3 * widest + 1):
            assert queue.first_fit(free) == walk_first_fit(arrival, free)
        # first_fit is pure: the server removes the picks itself
        assert list(queue) == arrival
        assert (
            queue.total_demand, queue.biggest_demand, queue.smallest_demand
        ) == state

    # a backlog long enough that the buckets answer
    backlog = data.draw(st.lists(st.sampled_from(sizes), min_size=1, max_size=40))
    backlog += [backlog[0]] * (4 * len(set(backlog)) + 1 - len(backlog))
    for size in backlog:
        push(size)
    check()

    for op in data.draw(st.lists(st.sampled_from(OPS), max_size=12)):
        jobs = list(queue)
        if op == "push" or not jobs:
            for size in data.draw(
                st.lists(st.sampled_from(sizes), min_size=1, max_size=8)
            ):
                push(size)
        elif op == "remove":  # another policy started a mid-queue job
            queue.remove(data.draw(st.sampled_from(jobs)))
        elif op == "requeue":  # kill_running: back to the tail
            job = data.draw(st.sampled_from(jobs))
            queue.remove(job)
            queue.push(job)
        else:  # dispatch: REServer._start removes what select picked
            free = data.draw(st.integers(min_value=1, max_value=3 * widest))
            for job in queue.first_fit(free):
                queue.remove(job)
        check()

    # drain from the head until a walk answers a non-empty queue
    while answered_by_index(queue):
        queue.remove(queue.head())
    if not len(queue):
        push(sizes[-1])
    check()
    assert paths == {"index", "walk"}


# --------------------------------------------------------------------- #
# server level
# --------------------------------------------------------------------- #
class WalkFirstFitScheduler(Scheduler):
    """First-fit by walking a copy of the queue: the server-level oracle."""

    name = "first-fit-walk"
    time_independent = True

    def __init__(self) -> None:
        self.longest_queue = 0

    def select(self, now, queued, free_nodes, running=()):
        jobs = list(queued)
        self.longest_queue = max(self.longest_queue, len(jobs))
        return walk_first_fit(jobs, free_nodes)


def _server(live):
    if hasattr(live, "cloud"):
        return live.cloud.tre(live.name).server
    return live.server


def _outcome(live):
    """Payload plus every job's (start, finish) once the run completes."""
    live.complete()
    server = _server(live)
    jobs = [
        *server.completed,
        *(entry.job for entry in server.running.values()),
        *server.queue,
    ]
    times = sorted((j.job_id, j.start_time, j.finish_time) for j in jobs)
    return live.finish().to_payload(), times


def _failures():
    return ExponentialFailures(mtbf_s=100 * HOUR, mttr_s=HOUR)


def _dcs(bundle, failures, walk=None):
    live = FixedLiveRun(bundle, "DCS", failures=failures, seed=4, kernel="off")
    if walk is not None:
        live.server.scheduler = walk
    return live


def _dawningcloud(bundle, failures, walk=None):
    return DawningCloudHtcLiveRun(
        bundle, ResourceManagementPolicy.for_htc(40, 1.2), capacity=420,
        failures=failures, seed=4, scheduler=walk,
    )


@pytest.mark.slow
@pytest.mark.parametrize("with_failures", [False, True])
@pytest.mark.parametrize("build", [_dcs, _dawningcloud], ids=["dcs", "dawningcloud"])
def test_nasa_runs_match_the_walk(build, with_failures):
    failures = _failures() if with_failures else None
    indexed = _outcome(build(nasa_bundle(), failures))
    walked = _outcome(build(nasa_bundle(), failures, WalkFirstFitScheduler()))
    assert indexed == walked
    if with_failures:
        assert indexed[0]["reliability"]["requeues"] > 0


@pytest.mark.slow
def test_overloaded_dcs_backlog_matches_the_walk():
    """A queue in the thousands, where the bucket heads do the picking."""
    def bundle():  # offered load above the machine, as in serve-session
        return build_uniform_trace(3, 4096, 12_000, 7 * 24 * HOUR)

    walk = WalkFirstFitScheduler()
    assert _outcome(_dcs(bundle(), None)) == _outcome(_dcs(bundle(), None, walk))
    # widths are 1..64, so any queue past 4 × 64 jobs was indexed
    assert walk.longest_queue >= 2000
