"""Tests for the job queue and scheduling policies."""

import pytest

from repro.scheduling.backfill import EasyBackfillScheduler
from repro.scheduling.base import RunningJob
from repro.scheduling.fcfs import FcfsScheduler
from repro.scheduling.firstfit import FirstFitScheduler
from repro.scheduling.queue import JobQueue
from tests.conftest import make_job, queue_of


class TestJobQueue:
    def test_fifo_order(self):
        q = JobQueue()
        for i in (3, 1, 2):
            q.push(make_job(i))
        assert [j.job_id for j in q.jobs] == [3, 1, 2]

    def test_duplicate_push_rejected(self):
        q = JobQueue()
        job = make_job(1)
        q.push(job)
        with pytest.raises(ValueError):
            q.push(job)

    def test_remove(self):
        q = JobQueue()
        a, b = make_job(1), make_job(2)
        q.push(a)
        q.push(b)
        q.remove(a)
        assert [j.job_id for j in q.jobs] == [2]
        with pytest.raises(ValueError):
            q.remove(a)

    def test_demand_aggregates(self):
        q = JobQueue()
        q.push(make_job(1, size=4))
        q.push(make_job(2, size=9))
        assert q.total_demand == 13
        assert q.biggest_demand == 9

    def test_empty_aggregates(self):
        q = JobQueue()
        assert q.total_demand == 0
        assert q.biggest_demand == 0
        assert q.head() is None

    def test_membership(self):
        q = JobQueue()
        job = make_job(1)
        q.push(job)
        assert job in q


class TestFirstFit:
    def test_skips_wide_head(self):
        """§4.4: picks the first job whose requirement can be met."""
        sched = FirstFitScheduler()
        queued = queue_of([make_job(1, size=10), make_job(2, size=3)])
        picked = sched.select(0.0, queued, free_nodes=4)
        assert [j.job_id for j in picked] == [2]

    def test_greedy_packs_in_arrival_order(self):
        sched = FirstFitScheduler()
        queued = queue_of(
            [make_job(i, size=s) for i, s in ((1, 2), (2, 2), (3, 2))]
        )
        picked = sched.select(0.0, queued, free_nodes=5)
        assert [j.job_id for j in picked] == [1, 2]

    def test_never_exceeds_free_nodes(self):
        sched = FirstFitScheduler()
        queued = queue_of([make_job(i, size=3) for i in range(1, 10)])
        picked = sched.select(0.0, queued, free_nodes=7)
        assert sum(j.size for j in picked) <= 7

    def test_zero_free_nodes(self):
        sched = FirstFitScheduler()
        assert sched.select(0.0, queue_of([make_job(1)]), free_nodes=0) == []


class TestFcfs:
    def test_blocks_behind_wide_head(self):
        sched = FcfsScheduler()
        queued = [make_job(1, size=10), make_job(2, size=1)]
        assert sched.select(0.0, queued, free_nodes=4) == []

    def test_starts_prefix_that_fits(self):
        sched = FcfsScheduler()
        queued = [make_job(i, size=s) for i, s in ((1, 2), (2, 3), (3, 4))]
        picked = sched.select(0.0, queued, free_nodes=5)
        assert [j.job_id for j in picked] == [1, 2]

    def test_equivalent_to_firstfit_for_unit_jobs(self):
        queued = [make_job(i, size=1) for i in range(1, 8)]
        ff = FirstFitScheduler().select(0.0, queue_of(queued), free_nodes=4)
        fc = FcfsScheduler().select(0.0, queued, free_nodes=4)
        assert [j.job_id for j in ff] == [j.job_id for j in fc]


class TestEasyBackfill:
    def test_behaves_like_fcfs_when_everything_fits(self):
        sched = EasyBackfillScheduler()
        queued = [make_job(1, size=2), make_job(2, size=2)]
        picked = sched.select(0.0, queued, free_nodes=8)
        assert [j.job_id for j in picked] == [1, 2]

    def test_backfills_short_job_that_ends_before_shadow(self):
        sched = EasyBackfillScheduler()
        running = [RunningJob(make_job(99, size=6), finish_time=1000.0)]
        queued = [
            make_job(1, size=8, runtime=500),  # head, needs 8, only 4 free
            make_job(2, size=2, runtime=500),  # ends at 500 < shadow 1000
        ]
        picked = sched.select(0.0, queued, free_nodes=4, running=running)
        assert [j.job_id for j in picked] == [2]

    def test_rejects_backfill_that_would_delay_head(self):
        sched = EasyBackfillScheduler()
        running = [RunningJob(make_job(99, size=6), finish_time=1000.0)]
        queued = [
            make_job(1, size=8, runtime=500),
            # runs past the shadow AND exceeds the spare capacity (10-8=2)
            make_job(2, size=3, runtime=2000),
        ]
        picked = sched.select(0.0, queued, free_nodes=4, running=running)
        assert picked == []

    def test_allows_long_backfill_in_spare_capacity(self):
        sched = EasyBackfillScheduler()
        running = [RunningJob(make_job(99, size=6), finish_time=1000.0)]
        queued = [
            make_job(1, size=7, runtime=500),  # shadow frees 6 + 3 idle -> spare 2
            make_job(2, size=2, runtime=9999),  # fits inside the spare 2
        ]
        picked = sched.select(0.0, queued, free_nodes=3, running=running)
        assert [j.job_id for j in picked] == [2]

    def test_conservative_when_head_can_never_run(self):
        sched = EasyBackfillScheduler()
        queued = [make_job(1, size=100), make_job(2, size=1, runtime=10)]
        picked = sched.select(0.0, queued, free_nodes=4, running=[])
        assert picked == []
