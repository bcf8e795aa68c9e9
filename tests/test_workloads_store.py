"""Tests for the process-wide trace store and columnar round-trips (PR 3)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.workloads.archive import ARCHIVE
from repro.workloads.job import Job, JobState, Trace, TraceArrays
from repro.workloads.montage import MontageSpec, generate_montage
from repro.workloads.store import TraceStore, montage_workflow, paper_trace, prewarm
from repro.workloads.traces import (
    NASA_IPSC,
    SDSC_BLUE,
    generate_htc_trace,
    generate_nasa_ipsc,
    generate_sdsc_blue,
)
from repro.workloads.workflowgen import bag_of_tasks, chain, fork_join, layered_random


def jobs_equal(a: Job, b: Job) -> bool:
    return (
        a.job_id == b.job_id
        and a.submit_time == b.submit_time
        and a.size == b.size
        and a.runtime == b.runtime
        and a.user_id == b.user_id
        and a.task_type == b.task_type
        and a.workflow_id == b.workflow_id
        and a.dependencies == b.dependencies
    )


class TestStoreKeying:
    def test_miss_then_hit(self):
        store = TraceStore()
        calls = []

        def build():
            calls.append(1)
            return generate_htc_trace(NASA_IPSC, 0)

        t1 = store.trace("htc-trace", NASA_IPSC, 0, build)
        t2 = store.trace("htc-trace", NASA_IPSC, 0, build)
        assert len(calls) == 1
        assert store.hits == 1 and store.misses == 1
        assert len(t1) == len(t2)

    def test_distinct_seeds_are_distinct_entries(self):
        store = TraceStore()
        store.trace("htc-trace", NASA_IPSC, 0, lambda: generate_htc_trace(NASA_IPSC, 0))
        store.trace("htc-trace", NASA_IPSC, 1, lambda: generate_htc_trace(NASA_IPSC, 1))
        assert len(store) == 2 and store.hits == 0

    def test_distinct_specs_are_distinct_entries(self):
        store = TraceStore()
        store.trace("htc-trace", NASA_IPSC, 0, lambda: generate_htc_trace(NASA_IPSC, 0))
        store.trace("htc-trace", SDSC_BLUE, 0, lambda: generate_htc_trace(SDSC_BLUE, 0))
        assert len(store) == 2 and store.hits == 0

    def test_equal_spec_values_share_one_entry(self):
        """Content keying: two spec *objects* with equal fields, one entry."""
        store = TraceStore()
        spec_a = MontageSpec()
        spec_b = MontageSpec()
        assert spec_a is not spec_b
        store.workflow("m", spec_a, 0, lambda: generate_montage(spec_a, 0))
        store.workflow("m", spec_b, 0, lambda: generate_montage(spec_b, 0))
        assert len(store) == 1 and store.hits == 1

    def test_handles_share_columns_but_not_mutable_state(self):
        store = TraceStore()
        build = lambda: generate_htc_trace(NASA_IPSC, 0)  # noqa: E731
        t1 = store.trace("htc-trace", NASA_IPSC, 0, build)
        t2 = store.trace("htc-trace", NASA_IPSC, 0, build)
        assert t1.arrays is t2.arrays  # shared immutable columns
        t1.jobs[0].mark_queued(0.0)
        assert t2.jobs[0].state is JobState.PENDING  # fresh jobs per handle

    def test_montage_submit_time_is_part_of_the_key(self):
        wf0 = montage_workflow(seed=0, submit_time=0.0)
        wf1 = montage_workflow(seed=0, submit_time=3600.0)
        assert wf0.submit_time == 0.0 and wf1.submit_time == 3600.0
        assert wf0.tasks[0].submit_time != wf1.tasks[0].submit_time

    def test_prewarm_is_idempotent(self):
        n1 = prewarm(["nasa-ipsc", "montage"], seed=0)
        n2 = prewarm(["nasa-ipsc", "montage"], seed=0)
        assert n2 == n1

    def test_unknown_trace_name_rejected(self):
        with pytest.raises(ValueError, match="unknown trace"):
            paper_trace("no-such-machine", 0)


class TestStoreIdentity:
    """Store-backed generation must be indistinguishable from direct."""

    def test_paper_trace_equals_direct_generation(self):
        via_store = paper_trace("nasa-ipsc", 0)
        direct = generate_htc_trace(NASA_IPSC, 0)
        assert len(via_store) == len(direct)
        assert all(jobs_equal(a, b) for a, b in zip(via_store.jobs, direct.jobs))

    def test_montage_equals_direct_generation(self):
        via_store = montage_workflow(seed=0)
        direct = generate_montage(MontageSpec(), seed=0)
        assert all(jobs_equal(a, b) for a, b in zip(via_store.tasks, direct.tasks))


@pytest.mark.slow
class TestCrossWorkerIdentity:
    """workers=4 (prewarmed, forked) and workers=1 are byte-identical."""

    def test_parallel_equals_serial_for_prewarmed_sweeps(self, tmp_path):
        from repro.experiments.cache import canonical_json
        from repro.experiments.orchestrator import Orchestrator, payloads

        names = ["fig10-sweep-nasa", "table2-nasa", "table4-montage"]
        serial = Orchestrator(workers=1, seed=0).run(names=names)
        parallel = Orchestrator(workers=4, seed=0).run(names=names)
        assert canonical_json(payloads(serial)) == canonical_json(payloads(parallel))


class TestTraceArraysRoundTrip:
    """TraceArrays ↔ Job equality on every built-in generator."""

    @pytest.mark.parametrize("name", sorted(ARCHIVE))
    def test_archive_traces_round_trip(self, name):
        trace = generate_htc_trace(ARCHIVE[name], seed=2)
        rebuilt = TraceArrays.from_jobs(trace.jobs).to_jobs()
        assert all(jobs_equal(a, b) for a, b in zip(trace.jobs, rebuilt))

    def test_paper_generators_round_trip(self):
        for trace in (generate_nasa_ipsc(1), generate_sdsc_blue(1)):
            rebuilt = trace.arrays.to_jobs()
            assert all(jobs_equal(a, b) for a, b in zip(trace.jobs, rebuilt))

    @pytest.mark.parametrize("factory", [
        lambda: generate_montage(MontageSpec(n_images=20, n_diffs=60), seed=3).tasks,
        lambda: bag_of_tasks(40, seed=3).tasks,
        lambda: chain(25, seed=3).tasks,
        lambda: fork_join(30, seed=3).tasks,
        lambda: layered_random((5, 8, 3), seed=3).tasks,
    ])
    def test_workflow_generators_round_trip(self, factory):
        tasks = factory()
        rebuilt = TraceArrays.from_jobs(tasks).to_jobs()
        assert all(jobs_equal(a, b) for a, b in zip(tasks, rebuilt))

    def test_mixed_workflow_ids_survive_round_trip_and_copy(self):
        jobs = [
            Job(job_id=1, submit_time=0.0, size=1, runtime=5.0, workflow_id=1),
            Job(job_id=2, submit_time=1.0, size=1, runtime=5.0, workflow_id=2),
            Job(job_id=3, submit_time=2.0, size=1, runtime=5.0),  # no workflow
        ]
        rebuilt = TraceArrays.from_jobs(jobs).to_jobs()
        assert [j.workflow_id for j in rebuilt] == [1, 2, None]
        trace = Trace("mixed", jobs, machine_nodes=4, duration=100.0)
        assert [j.workflow_id for j in trace.copy().jobs] == [1, 2, None]
        sub = trace.subset(0.5, 2.5)
        assert [j.workflow_id for j in sub.jobs] == [2, None]

    def test_round_trip_preserves_dependency_tuples(self):
        wf = generate_montage(MontageSpec(n_images=10, n_diffs=30), seed=0)
        arrays = TraceArrays.from_jobs(wf.tasks)
        assert arrays.has_dependencies
        rebuilt = arrays.to_jobs()
        for a, b in zip(wf.tasks, rebuilt):
            assert a.dependencies == b.dependencies
            assert isinstance(b.dependencies, tuple)

    def test_materialized_jobs_are_pristine(self):
        trace = generate_nasa_ipsc(0)
        job = trace.jobs[0]
        job.mark_queued(0.0)
        fresh = trace.copy().jobs[0]
        assert fresh.state is JobState.PENDING
        assert fresh.start_time is None and fresh.finish_time is None

    def test_vectorized_aggregates_match_python(self):
        trace = generate_sdsc_blue(0)
        jobs = trace.jobs
        assert trace.max_size == max(j.size for j in jobs)
        assert trace.total_work == pytest.approx(sum(j.work for j in jobs), rel=1e-12)

    def test_subset_vectorized(self):
        trace = generate_nasa_ipsc(0)
        sub = trace.subset(3600.0, 7200.0)
        expected = [j for j in trace.jobs if 3600.0 <= j.submit_time < 7200.0]
        assert len(sub) == len(expected)
        assert all(
            a.job_id == b.job_id
            and a.submit_time == pytest.approx(b.submit_time - 3600.0)
            for a, b in zip(sub.jobs, expected)
        )

    def test_validate_rejects_bad_columns(self):
        with pytest.raises(ValueError, match="size"):
            Trace.from_arrays(
                "bad",
                TraceArrays(
                    job_id=np.array([1]),
                    submit=np.array([0.0]),
                    size=np.array([0]),
                    runtime=np.array([1.0]),
                ),
                machine_nodes=4,
                duration=10.0,
            )
        with pytest.raises(ValueError, match="duplicate"):
            Trace.from_arrays(
                "bad",
                TraceArrays(
                    job_id=np.array([1, 1]),
                    submit=np.array([0.0, 1.0]),
                    size=np.array([1, 1]),
                    runtime=np.array([1.0, 1.0]),
                ),
                machine_nodes=4,
                duration=10.0,
            )
        # adjacent neither in row order nor after the (submit, id) sort
        with pytest.raises(ValueError, match="duplicate"):
            Trace.from_arrays(
                "bad",
                TraceArrays(
                    job_id=np.array([3, 1, 3]),
                    submit=np.array([0.0, 1.0, 2.0]),
                    size=np.array([1, 1, 1]),
                    runtime=np.array([1.0, 1.0, 1.0]),
                ),
                machine_nodes=4,
                duration=10.0,
            )
        descending = Trace.from_arrays(
            "ok",
            TraceArrays(
                job_id=np.array([9, 5, 2, 0]),
                submit=np.array([0.0, 1.0, 2.0, 3.0]),
                size=np.array([1, 1, 1, 1]),
                runtime=np.array([1.0, 1.0, 1.0, 1.0]),
            ),
            machine_nodes=4,
            duration=10.0,
        )
        assert descending.arrays.job_id.tolist() == [9, 5, 2, 0]
        with pytest.raises(ValueError, match="exceed machine"):
            Trace.from_arrays(
                "bad",
                TraceArrays(
                    job_id=np.array([1]),
                    submit=np.array([0.0]),
                    size=np.array([9]),
                    runtime=np.array([1.0]),
                ),
                machine_nodes=4,
                duration=10.0,
            )
