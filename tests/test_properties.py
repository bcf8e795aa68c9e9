"""Property-based tests (hypothesis) on core data structures and invariants."""


import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.lease import HOUR, LeaseLedger
from repro.metrics.timeseries import UsageRecorder
from repro.scheduling.backfill import EasyBackfillScheduler
from repro.scheduling.base import RunningJob
from repro.scheduling.fcfs import FcfsScheduler
from repro.scheduling.firstfit import FirstFitScheduler
from repro.workloads.job import hour_ceil
from repro.workloads.swf import parse_swf, write_swf
from repro.workloads.workflowgen import layered_random
from tests.conftest import make_job, make_trace, queue_of

# ---------------------------------------------------------------------- #
# strategies
# ---------------------------------------------------------------------- #
job_lists = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=32),  # size
        st.floats(min_value=1.0, max_value=50_000.0, allow_nan=False),  # runtime
    ),
    min_size=1,
    max_size=30,
).map(
    lambda specs: [
        make_job(i + 1, submit=0.0, size=s, runtime=r)
        for i, (s, r) in enumerate(specs)
    ]
)


class TestHourCeilProperties:
    @given(st.floats(min_value=0.0, max_value=1e7, allow_nan=False))
    def test_bounds(self, seconds):
        units = hour_ceil(seconds)
        assert units >= 1
        assert units * HOUR >= seconds
        assert (units - 1) * HOUR < seconds or units == 1

    @given(st.integers(min_value=1, max_value=10_000))
    def test_exact_hours_not_inflated(self, hours):
        assert hour_ceil(hours * HOUR) == hours


class TestLeaseProperties:
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=100),  # nodes
                st.floats(min_value=0.0, max_value=1e6, allow_nan=False),  # open
                st.floats(min_value=0.0, max_value=1e6, allow_nan=False),  # length
            ),
            min_size=1,
            max_size=20,
        )
    )
    def test_charge_bounds(self, spans):
        """charge is >= exact usage and < exact + one unit per node."""
        ledger = LeaseLedger()
        exact_units = 0.0
        slack_units = 0
        for n, t0, length in spans:
            lease = ledger.open_lease("c", n, t0)
            ledger.close_lease(lease, t0 + length)
            exact_units += n * length / HOUR
            slack_units += n
        charged = ledger.charged_units_total("c")
        assert charged >= exact_units - 1e-6
        assert charged < exact_units + slack_units + 1e-6

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=50),
                st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
            ),
            min_size=1,
            max_size=15,
        )
    )
    def test_open_nodes_matches_sum(self, opens):
        ledger = LeaseLedger()
        for n, t in opens:
            ledger.open_lease("c", n, t)
        assert ledger.open_nodes("c") == sum(n for n, _ in opens)


class TestSchedulerProperties:
    @given(job_lists, st.integers(min_value=0, max_value=64))
    def test_firstfit_never_overcommits(self, jobs, free):
        picked = FirstFitScheduler().select(0.0, queue_of(jobs), free)
        assert sum(j.size for j in picked) <= free

    @given(job_lists, st.integers(min_value=0, max_value=64))
    def test_fcfs_picks_a_prefix_of_fitting_jobs(self, jobs, free):
        picked = FcfsScheduler().select(0.0, jobs, free)
        assert picked == jobs[: len(picked)]
        assert sum(j.size for j in picked) <= free

    @given(job_lists, st.integers(min_value=0, max_value=64))
    def test_fcfs_subset_of_firstfit(self, jobs, free):
        ff = {j.job_id for j in FirstFitScheduler().select(0.0, queue_of(jobs), free)}
        fc = {j.job_id for j in FcfsScheduler().select(0.0, jobs, free)}
        assert fc <= ff

    @given(job_lists, st.integers(min_value=0, max_value=64))
    def test_firstfit_no_duplicates(self, jobs, free):
        picked = FirstFitScheduler().select(0.0, queue_of(jobs), free)
        ids = [j.job_id for j in picked]
        assert len(ids) == len(set(ids))

    @given(
        job_lists,
        st.integers(min_value=0, max_value=64),
        st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=16),
                st.floats(min_value=1.0, max_value=1e5, allow_nan=False),
            ),
            max_size=10,
        ),
    )
    def test_backfill_never_overcommits(self, jobs, free, running_specs):
        running = [
            RunningJob(make_job(1000 + i, size=s, runtime=1.0), finish_time=f)
            for i, (s, f) in enumerate(running_specs)
        ]
        picked = EasyBackfillScheduler().select(0.0, jobs, free, running)
        assert sum(j.size for j in picked) <= free


class TestUsageRecorderProperties:
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=10 * HOUR, allow_nan=False),
                st.integers(min_value=1, max_value=50),
                st.floats(min_value=1.0, max_value=5 * HOUR, allow_nan=False),
            ),
            min_size=1,
            max_size=25,
        )
    )
    def test_peak_bounds_integral(self, spans):
        """integral <= peak × horizon; peak <= sum of all deltas."""
        rec = UsageRecorder()
        horizon = 16 * HOUR
        for start, n, length in spans:
            rec.record(start, n)
            rec.record(min(start + length, horizon), -n)
        integral = rec.integral_node_seconds(horizon)
        peak = rec.peak(horizon)
        assert integral <= peak * horizon + 1e-6
        assert peak <= sum(n for _, n, _ in spans)


class TestWorkflowGenProperties:
    @given(
        st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=5),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=25, deadline=None)
    def test_layered_random_always_valid_dag(self, widths, seed):
        wf = layered_random(widths, seed=seed)
        assert nx.is_directed_acyclic_graph(wf.graph)
        assert wf.level_widths() == widths
        assert wf.critical_path_length() <= wf.total_work() + 1e-9


class TestSwfRoundTripProperties:
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=16),  # size
                st.integers(min_value=1, max_value=100_000),  # runtime s
                st.integers(min_value=0, max_value=1_000_000),  # submit s
            ),
            min_size=1,
            max_size=20,
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_roundtrip_preserves_schedule_fields(self, specs):
        jobs = [
            make_job(i + 1, submit=float(sub), size=s, runtime=float(r))
            for i, (s, r, sub) in enumerate(specs)
        ]
        trace = make_trace(jobs, nodes=16, duration=2_000_000.0)
        parsed = parse_swf(write_swf(trace))
        assert len(parsed) == len(trace)
        for a, b in zip(trace, parsed):
            assert (a.job_id, a.size) == (b.job_id, b.size)
            assert b.runtime == pytest.approx(a.runtime, abs=0.5)
            assert b.submit_time == pytest.approx(a.submit_time, abs=0.5)
