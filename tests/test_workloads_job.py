"""Tests for the job/trace data model."""

import numpy as np
import pytest

from repro.workloads.job import (
    JobState,
    Trace,
    TraceArrays,
    hour_ceil,
    validate_dependencies,
)
from tests.conftest import HOUR, make_job, make_trace


class TestJob:
    def test_work_is_size_times_runtime(self):
        assert make_job(1, size=4, runtime=100).work == 400

    def test_invalid_size_rejected(self):
        with pytest.raises(ValueError):
            make_job(1, size=0)

    def test_negative_runtime_rejected(self):
        with pytest.raises(ValueError):
            make_job(1, runtime=-1)

    def test_negative_submit_rejected(self):
        with pytest.raises(ValueError):
            make_job(1, submit=-5)

    @pytest.mark.parametrize("field", ["submit", "runtime"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_times_rejected(self, field, value):
        # a NaN runtime once scheduled its finish event at NaN, which the
        # engine's run loop never pops
        with pytest.raises(ValueError, match="job 7: .* must be finite"):
            make_job(7, **{field: value})

    @pytest.mark.parametrize("column", ["submit", "runtime"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0])
    def test_columns_reject_non_finite_times_naming_the_job(
        self, column, value
    ):
        arrays = TraceArrays(
            job_id=np.array([4, 5, 6]),
            submit=np.array([0.0, 60.0, 120.0]),
            size=np.array([1, 1, 1]),
            runtime=np.array([60.0, 60.0, 60.0]),
        )
        getattr(arrays, column)[1] = value
        with pytest.raises(ValueError, match="job 5: .* must be finite"):
            arrays.validate()

    def test_lifecycle_happy_path(self):
        job = make_job(1, submit=10, runtime=50)
        job.mark_queued(10)
        job.mark_running(30)
        job.mark_completed(80)
        assert job.state is JobState.COMPLETED
        assert job.wait_time == 20
        assert job.finish_time == 80

    def test_cannot_run_before_queued(self):
        job = make_job(1)
        with pytest.raises(RuntimeError):
            job.mark_running(0)

    def test_cannot_complete_before_running(self):
        job = make_job(1)
        job.mark_queued(0)
        with pytest.raises(RuntimeError):
            job.mark_completed(1)

    def test_workflow_task_flag(self):
        assert make_job(1, workflow_id=3).is_workflow_task
        assert not make_job(1).is_workflow_task


class TestHourCeil:
    def test_rounds_up(self):
        assert hour_ceil(3601) == 2

    def test_exact_hours_not_inflated(self):
        assert hour_ceil(7200) == 2

    def test_minimum_one_unit(self):
        assert hour_ceil(0) == 1
        assert hour_ceil(1) == 1

    def test_custom_unit(self):
        assert hour_ceil(90, unit=60) == 2

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            hour_ceil(-1)


class TestTrace:
    def test_jobs_sorted_by_submit_time(self):
        jobs = [make_job(1, submit=100), make_job(2, submit=50)]
        trace = make_trace(jobs)
        assert [j.job_id for j in trace] == [2, 1]

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError):
            make_trace([make_job(1), make_job(1)])

    def test_oversized_job_rejected(self):
        with pytest.raises(ValueError):
            make_trace([make_job(1, size=32)], nodes=16)

    @pytest.mark.parametrize(
        "duration", [float("nan"), float("inf"), 0.0, -1.0]
    )
    def test_duration_must_be_positive_and_finite(self, duration):
        # a NaN duration becomes a run's horizon, which the engine's
        # run(until=...) loop never reaches
        expected = "duration must be positive and finite"
        with pytest.raises(ValueError, match=expected):
            make_trace([make_job(1)], duration=duration)
        with pytest.raises(ValueError, match=expected):
            Trace.from_arrays(
                "t", shuffled_columns(), machine_nodes=16, duration=duration
            )

    def test_utilization(self):
        trace = make_trace([make_job(1, size=8, runtime=3600)], nodes=16,
                           duration=3600)
        assert trace.utilization == pytest.approx(0.5)

    def test_total_work(self, small_trace):
        assert small_trace.total_work == sum(j.work for j in small_trace)

    def test_copy_is_independent(self, small_trace):
        clone = small_trace.copy()
        clone.jobs[0].mark_queued(0)
        assert small_trace.jobs[0].state is JobState.PENDING

    def test_subset_rebases_times(self, small_trace):
        sub = small_trace.subset(1000, 5000)
        assert all(0 <= j.submit_time < 4000 for j in sub)

    def test_job_by_id(self, small_trace):
        assert small_trace.job_by_id(5).job_id == 5
        with pytest.raises(KeyError):
            small_trace.job_by_id(999)

    def test_max_size(self, small_trace):
        assert small_trace.max_size == 16


def shuffled_columns() -> TraceArrays:
    """Rows in random order, with tied submit times."""
    rng = np.random.default_rng(5)
    n = 50
    return TraceArrays(
        job_id=rng.permutation(n),
        submit=rng.integers(0, 10, n).astype(np.float64) * 60.0,
        size=rng.integers(1, 16, n),
        runtime=rng.uniform(60.0, 600.0, n),
    )


def shuffled_trace() -> Trace:
    return Trace.from_arrays(
        "shuffled", shuffled_columns(), machine_nodes=16, duration=HOUR
    )


class TestTraceColumns:
    def test_from_arrays_orders_rows_by_submit_then_id(self):
        given = shuffled_columns()
        arrays = shuffled_trace().arrays
        keys = list(zip(arrays.submit.tolist(), arrays.job_id.tolist()))
        assert keys == sorted(keys)
        # whole rows moved: every job kept its own submit time
        assert {j: s for s, j in keys} == dict(
            zip(given.job_id.tolist(), given.submit.tolist())
        )

    @pytest.mark.parametrize("built_from", ["arrays", "jobs"])
    def test_copy_shares_the_columns_as_they_are(self, built_from, small_trace):
        trace = shuffled_trace() if built_from == "arrays" else small_trace
        assert trace.copy().arrays is trace.arrays

    @pytest.mark.parametrize("built_from", ["arrays", "jobs"])
    def test_copy_materializes_fresh_jobs(self, built_from, small_trace):
        trace = shuffled_trace() if built_from == "arrays" else small_trace
        clone = trace.copy()
        assert [j.job_id for j in clone] == [j.job_id for j in trace]
        assert all(a is not b for a, b in zip(clone.jobs, trace.jobs))
        assert all(j.state is JobState.PENDING for j in clone)


class TestValidateDependencies:
    def test_unknown_dependency_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            validate_dependencies([make_job(1, deps=(99,))])

    def test_cycle_rejected(self):
        jobs = [make_job(1, deps=(2,)), make_job(2, deps=(1,))]
        with pytest.raises(ValueError, match="cycle"):
            validate_dependencies(jobs)

    def test_valid_dag_accepted(self):
        jobs = [make_job(1), make_job(2, deps=(1,)), make_job(3, deps=(1, 2))]
        validate_dependencies(jobs)

    def test_self_dependency_rejected(self):
        with pytest.raises(ValueError, match="cycle"):
            validate_dependencies([make_job(1, deps=(1,))])

    @pytest.mark.parametrize("same_object", [True, False])
    def test_duplicate_ids_rejected_before_cycle_check(self, same_object):
        first = make_job(1)
        second = first if same_object else make_job(1, runtime=5)
        with pytest.raises(ValueError, match="duplicate job id 1$"):
            validate_dependencies([first, second])

    def test_duplicate_dependency_ids_accepted(self):
        validate_dependencies([make_job(1), make_job(2, deps=(1, 1))])
