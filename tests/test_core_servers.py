"""Tests for the runtime-environment server (queue + dispatch)."""

import random

import pytest

from repro.core.servers import REServer
from repro.reliability.failures import ExponentialFailures
from repro.scheduling.fcfs import FcfsScheduler
from repro.scheduling.firstfit import FirstFitScheduler
from repro.systems.base import WorkloadBundle
from repro.systems.fixed import FixedLiveRun
from repro.workloads.job import JobState
from repro.workloads.workflow import Workflow
from tests.conftest import make_job, make_trace


def make_server(engine, nodes=8, scheduler=None, scan=60.0, name="tre"):
    server = REServer(engine, name, scheduler or FirstFitScheduler(), scan)
    if nodes:
        server.add_nodes(nodes)
    return server


class TestResourceAccounting:
    def test_add_remove_nodes(self, engine):
        server = make_server(engine, nodes=8)
        assert server.owned == 8 and server.idle == 8
        server.remove_nodes(3)
        assert server.owned == 5

    def test_cannot_remove_busy_nodes(self, engine):
        server = make_server(engine, nodes=4)
        server.submit_job(make_job(1, size=4, runtime=600))
        engine.run(until=60.0)  # first scan dispatches
        assert server.used == 4
        with pytest.raises(ValueError):
            server.remove_nodes(1)

    def test_usage_recorder_tracks_owned(self, engine):
        server = make_server(engine, nodes=8)
        engine.run(until=10.0)
        server.remove_nodes(8)
        assert server.usage.current_level() == 0


class TestHtcExecution:
    def test_job_runs_and_completes(self, engine):
        server = make_server(engine, nodes=8)
        job = make_job(1, size=4, runtime=100)
        server.submit_job(job)
        engine.run(until=300.0)
        assert job.state is JobState.COMPLETED
        # dispatched at the first scan (60s), so finish = 160
        assert job.finish_time == pytest.approx(160.0)

    def test_dispatch_happens_at_scan_granularity(self, engine):
        server = make_server(engine, nodes=8, scan=60.0)
        job = make_job(1, submit=61.0, size=1, runtime=10)
        engine.schedule_at(job.submit_time, server.submit_job, job)
        engine.run(until=300.0)
        assert job.start_time == pytest.approx(120.0)

    def test_capacity_respected(self, engine):
        server = make_server(engine, nodes=4)
        a = make_job(1, size=3, runtime=600)
        b = make_job(2, size=3, runtime=600)
        server.submit_job(a)
        server.submit_job(b)
        engine.run(until=120.0)
        assert a.state is JobState.RUNNING
        assert b.state is JobState.QUEUED

    def test_queued_job_starts_after_capacity_frees(self, engine):
        server = make_server(engine, nodes=4)
        a = make_job(1, size=3, runtime=100)
        b = make_job(2, size=3, runtime=100)
        server.submit_job(a)
        server.submit_job(b)
        engine.run(until=600.0)
        assert b.state is JobState.COMPLETED
        assert b.start_time >= a.finish_time

    def test_completed_by_horizon(self, engine):
        server = make_server(engine, nodes=8)
        server.submit_job(make_job(1, size=1, runtime=100))
        server.submit_job(make_job(2, size=1, runtime=9000))
        engine.run(until=3600.0)
        assert server.completed_count == 1
        assert server.completed_by(3600.0) == 1

    def test_first_fit_lets_small_job_pass_wide_head(self, engine):
        server = make_server(engine, nodes=4)
        wide = make_job(1, size=8, runtime=100)  # wider than owned
        narrow = make_job(2, size=2, runtime=100)
        server.submit_job(wide)
        server.submit_job(narrow)
        engine.run(until=300.0)
        assert narrow.state is JobState.COMPLETED
        assert wide.state is JobState.QUEUED


class TestMtcExecution:
    def _diamond(self):
        tasks = [
            make_job(1, runtime=30, workflow_id=1),
            make_job(2, runtime=30, deps=(1,), workflow_id=1),
            make_job(3, runtime=30, deps=(1,), workflow_id=1),
            make_job(4, runtime=30, deps=(2, 3), workflow_id=1),
        ]
        return Workflow(1, tasks)

    def test_workflow_runs_in_dependency_order(self, engine):
        server = make_server(engine, nodes=4, scheduler=FcfsScheduler(), scan=3.0)
        wf = self._diamond()
        server.submit_workflow(wf)
        engine.run(until=600.0)
        assert wf.completed()
        t = {i: wf.task(i) for i in (1, 2, 3, 4)}
        assert t[2].start_time >= t[1].finish_time
        assert t[4].start_time >= max(t[2].finish_time, t[3].finish_time)

    def test_only_ready_tasks_enter_queue(self, engine):
        server = make_server(engine, nodes=4, scheduler=FcfsScheduler(), scan=3.0)
        wf = self._diamond()
        server.submit_workflow(wf)
        assert server.queue.total_demand == 1  # only the entry task

    def test_workflow_complete_hook_fires_once(self, engine):
        server = make_server(engine, nodes=4, scheduler=FcfsScheduler(), scan=3.0)
        done = []
        server.on_workflow_complete.append(lambda wf: done.append(wf.workflow_id))
        server.submit_workflow(self._diamond())
        engine.run(until=600.0)
        assert done == [1]

    def test_makespan(self, engine):
        server = make_server(engine, nodes=4, scheduler=FcfsScheduler(), scan=3.0)
        wf = self._diamond()
        server.submit_workflow(wf)
        engine.run(until=600.0)
        assert server.makespan() == pytest.approx(
            max(t.finish_time for t in wf.tasks), abs=1e-6
        )


class TestStop:
    def test_stop_halts_scanning_and_releases_usage(self, engine):
        server = make_server(engine, nodes=8)
        job = make_job(1, size=2, runtime=600)
        server.submit_job(job)
        engine.run(until=60.0)
        server.stop()
        engine.run(until=7200.0)
        assert job.state is JobState.RUNNING  # finish event suppressed
        assert server.usage.current_level() == 0

    def test_submissions_after_stop_ignored(self, engine):
        server = make_server(engine, nodes=8)
        server.stop()
        server.submit_job(make_job(1))
        assert server.submitted_jobs == 0


class TestCompletedBy:
    """``completed_by`` bisects the completion log by finish time."""

    @pytest.mark.parametrize("with_failures", [False, True])
    def test_equals_the_linear_count(self, with_failures):
        # whole-minute submits and runtimes on the one-minute scan grid:
        # many completions share an instant
        jobs = [
            make_job(i, submit=60.0 * (i % 9), size=1 + i % 3,
                     runtime=600.0 * (1 + i % 4))
            for i in range(1, 120)
        ]
        bundle = WorkloadBundle.from_trace(
            "t", make_trace(jobs, nodes=16, duration=8 * 3600.0)
        )
        failures = (
            ExponentialFailures(mtbf_s=20 * 3600.0, mttr_s=600.0)
            if with_failures else None
        )
        live = FixedLiveRun(bundle, "DCS", failures=failures, seed=2,
                            kernel="off")
        live.complete()
        server = live.server
        if with_failures:
            assert server.fault.stats.requeues > 0
        finishes = [job.finish_time for job in server.completed]
        assert finishes == sorted(finishes)
        assert len(set(finishes)) < len(finishes)  # ties of equal finishes

        rng = random.Random(7)
        horizons = [
            0.0, finishes[0] - 1.0, finishes[-1], finishes[-1] + 1.0,
            *finishes,
            *(rng.uniform(0.0, 1.1 * finishes[-1]) for _ in range(200)),
        ]
        for horizon in horizons:
            assert server.completed_by(horizon) == sum(
                1 for job in server.completed if job.finish_time <= horizon
            )
