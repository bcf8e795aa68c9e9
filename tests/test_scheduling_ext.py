"""Tests for the extension schedulers (SJF, conservative backfill,
weighted fair share) and the scheduler registry/override plumbing."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.registry import default_components
from repro.scheduling import SCHEDULER_REGISTRY


def build_scheduler(name):
    return default_components().create("scheduler", name)
from repro.scheduling.base import RunningJob
from repro.scheduling.conservative import ConservativeBackfillScheduler
from repro.scheduling.fairshare import WeightedFairShareScheduler
from repro.scheduling.firstfit import FirstFitScheduler
from repro.scheduling.queue import JobQueue
from repro.scheduling.sjf import SjfScheduler
from repro.workloads.job import Job
from tests.conftest import queue_of


def J(jid, size, runtime, user=0, submit=0.0):
    return Job(job_id=jid, submit_time=submit, size=size, runtime=runtime,
               user_id=user)


def mark_queued(jobs):
    for j in jobs:
        j.mark_queued(j.submit_time)
    return jobs


# --------------------------------------------------------------------- #
# registry
# --------------------------------------------------------------------- #
class TestRegistry:
    def test_all_names_construct(self):
        for name in SCHEDULER_REGISTRY:
            sched = build_scheduler(name)
            assert sched.select(0.0, JobQueue(), 16) == []

    def test_unknown_name(self):
        with pytest.raises(KeyError, match="unknown scheduler"):
            build_scheduler("round-robin")


# --------------------------------------------------------------------- #
# SJF
# --------------------------------------------------------------------- #
class TestSjf:
    def test_prefers_shortest(self):
        q = mark_queued([J(1, 4, 1000.0), J(2, 4, 10.0), J(3, 4, 100.0)])
        picked = SjfScheduler().select(0.0, q, 4)
        assert [j.job_id for j in picked] == [2]

    def test_packs_in_runtime_order(self):
        q = mark_queued([J(1, 2, 500.0), J(2, 2, 5.0), J(3, 2, 50.0)])
        picked = SjfScheduler().select(0.0, q, 4)
        assert {j.job_id for j in picked} == {2, 3}

    def test_tie_breaks_by_arrival(self):
        q = mark_queued([J(1, 4, 10.0), J(2, 4, 10.0)])
        picked = SjfScheduler().select(0.0, q, 4)
        assert [j.job_id for j in picked] == [1]

    def test_aging_barrier_blocks_later_jobs(self):
        sched = SjfScheduler(max_skip=1)
        wide_long = J(1, 8, 1000.0)
        q = mark_queued([wide_long, J(2, 2, 1.0), J(3, 2, 1.0), J(4, 2, 1.0)])
        # free=2: job 1 never fits; shorter jobs jump it repeatedly
        first = sched.select(0.0, q, 2)
        assert first and first[0].job_id != 1
        q2 = [j for j in q if j not in first]
        second = sched.select(1.0, q2, 2)
        assert second and second[0].job_id != 1
        q3 = [j for j in q2 if j not in second]
        # job 1 now exceeded max_skip=1: nothing behind it may start
        third = sched.select(2.0, q3, 2)
        assert third == []

    def test_pure_sjf_never_blocks(self):
        sched = SjfScheduler()  # no aging
        q = mark_queued([J(1, 8, 1000.0), J(2, 2, 1.0)])
        for t in range(5):
            assert sched.select(float(t), q, 2) == [q[1]]

    def test_max_skip_validation(self):
        with pytest.raises(ValueError):
            SjfScheduler(max_skip=-1)


# --------------------------------------------------------------------- #
# conservative backfill
# --------------------------------------------------------------------- #
class TestConservative:
    def test_plain_start_when_everything_fits(self):
        q = mark_queued([J(1, 2, 10.0), J(2, 2, 10.0)])
        picked = ConservativeBackfillScheduler().select(0.0, q, 8)
        assert {j.job_id for j in picked} == {1, 2}

    def test_backfills_without_delaying_reservations(self):
        # running job frees 4 nodes at t=100; head needs 6 (reserved @100);
        # a 2-node 50s job fits now and ends before 100 -> backfill it
        running = [RunningJob(J(99, 4, 100.0), finish_time=100.0)]
        q = mark_queued([J(1, 6, 100.0), J(2, 2, 50.0)])
        picked = ConservativeBackfillScheduler().select(0.0, q, 4, running)
        assert [j.job_id for j in picked] == [2]

    def test_does_not_backfill_job_that_would_delay_head(self):
        running = [RunningJob(J(99, 4, 100.0), finish_time=100.0)]
        q = mark_queued([J(1, 6, 100.0), J(2, 4, 500.0)])
        # job 2 fits now (4 free) but would hold 4 nodes past t=100,
        # leaving only 4 free for the 6-wide head -> must not start
        picked = ConservativeBackfillScheduler().select(0.0, q, 4, running)
        assert picked == []

    def test_protects_second_reservation_too(self):
        # EASY would start job 3 (it doesn't delay the head); conservative
        # also checks job 2's reservation.
        running = [RunningJob(J(99, 4, 100.0), finish_time=100.0)]
        q = mark_queued([
            J(1, 8, 10.0),    # head: reserved at t=100 (needs all 8)
            J(2, 4, 10.0),    # reserved at t=110
            J(3, 4, 200.0),   # fits now, but would run past t=110
        ])
        picked = ConservativeBackfillScheduler().select(0.0, q, 4, running)
        assert 3 not in {j.job_id for j in picked}

    def test_empty_inputs(self):
        s = ConservativeBackfillScheduler()
        assert s.select(0.0, [], 8) == []
        assert s.select(0.0, mark_queued([J(1, 2, 5.0)]), 0) == []


# --------------------------------------------------------------------- #
# weighted fair share
# --------------------------------------------------------------------- #
class TestFairShare:
    def test_single_user_degrades_to_fcfs(self):
        q = mark_queued([J(1, 2, 10.0, user=7), J(2, 2, 10.0, user=7)])
        picked = WeightedFairShareScheduler().select(0.0, q, 2)
        assert [j.job_id for j in picked] == [1]

    def test_equal_weights_alternate_users(self):
        q = mark_queued([
            J(1, 2, 10.0, user=1), J(2, 2, 10.0, user=1),
            J(3, 2, 10.0, user=2), J(4, 2, 10.0, user=2),
        ])
        picked = WeightedFairShareScheduler().select(0.0, q, 4)
        users = [j.user_id for j in picked]
        assert users == [1, 2] or users == [2, 1]

    def test_weights_bias_allocation(self):
        sched = WeightedFairShareScheduler(weights={1: 3.0, 2: 1.0})
        q = mark_queued([
            J(1, 2, 10.0, user=1), J(2, 2, 10.0, user=1), J(3, 2, 10.0, user=1),
            J(4, 2, 10.0, user=2), J(5, 2, 10.0, user=2), J(6, 2, 10.0, user=2),
        ])
        picked = sched.select(0.0, q, 8)
        share = {u: sum(j.size for j in picked if j.user_id == u) for u in (1, 2)}
        assert share[1] == 6 and share[2] == 2  # 3:1 split of 8 nodes

    def test_running_occupancy_counts_against_user(self):
        running = [RunningJob(J(99, 6, 100.0, user=1), finish_time=100.0)]
        q = mark_queued([J(1, 2, 10.0, user=1), J(2, 2, 10.0, user=2)])
        picked = WeightedFairShareScheduler().select(0.0, q, 2, running)
        assert [j.user_id for j in picked] == [2]

    def test_work_conserving_when_heads_blocked(self):
        # user 2's head is too wide, but a later job of user 1 fits
        q = mark_queued([J(1, 8, 10.0, user=2), J(2, 2, 10.0, user=1)])
        picked = WeightedFairShareScheduler().select(0.0, q, 4)
        assert [j.job_id for j in picked] == [2]

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            WeightedFairShareScheduler(weights={1: 0.0})
        with pytest.raises(ValueError):
            WeightedFairShareScheduler(default_weight=-1)


# --------------------------------------------------------------------- #
# property-based invariants for every scheduler
# --------------------------------------------------------------------- #
job_lists = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=32),     # size
        st.floats(min_value=1.0, max_value=1e4),    # runtime
        st.integers(min_value=0, max_value=4),      # user
    ),
    min_size=0,
    max_size=25,
)


@settings(max_examples=60, deadline=None)
@given(jobs=job_lists, free=st.integers(min_value=0, max_value=64))
@pytest.mark.parametrize("name", sorted(SCHEDULER_REGISTRY))
def test_scheduler_invariants(name, jobs, free):
    queued = queue_of(mark_queued([
        J(i, size, runtime, user) for i, (size, runtime, user) in enumerate(jobs)
    ]))
    picked = build_scheduler(name).select(0.0, queued, free)
    # 1. no duplicates, all picks came from the queue
    ids = [j.job_id for j in picked]
    assert len(ids) == len(set(ids))
    assert set(ids) <= {j.job_id for j in queued}
    # 2. aggregate width within the free nodes
    assert sum(j.size for j in picked) <= free
    # 3. determinism: same inputs -> same picks
    again = build_scheduler(name).select(0.0, queued, free)
    assert [j.job_id for j in again] == ids


def test_scheduler_override_threads_through_dawningcloud():
    """RuntimeEnvironmentSpec.scheduler_factory reaches the REServer."""
    from repro.core.dawningcloud import DawningCloud
    from repro.core.policies import ResourceManagementPolicy

    cloud = DawningCloud(capacity=64)
    cloud.add_htc_provider(
        "lab",
        ResourceManagementPolicy.for_htc(8, 1.5),
        scheduler_factory=SjfScheduler,
    )
    cloud.run(until=1.0)
    assert isinstance(cloud.tre("lab").server.scheduler, SjfScheduler)
    assert cloud.tre("lab").spec.default_scheduler().name == "sjf"


def test_default_scheduler_unchanged_without_override():
    from repro.core.policies import ResourceManagementPolicy
    from repro.core.tre import RuntimeEnvironmentSpec

    spec = RuntimeEnvironmentSpec(
        provider="x", kind="htc", policy=ResourceManagementPolicy.for_htc()
    )
    assert isinstance(spec.default_scheduler(), FirstFitScheduler)
