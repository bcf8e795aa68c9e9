"""Shared fixtures and builders for the test suite."""

from __future__ import annotations

import pytest

from repro.scheduling.queue import JobQueue
from repro.simkit.engine import SimulationEngine
from repro.workloads.job import Job, Trace
from repro.workloads.workflow import Workflow

HOUR = 3600.0


def make_job(
    job_id: int,
    submit: float = 0.0,
    size: int = 1,
    runtime: float = 60.0,
    deps: tuple[int, ...] = (),
    workflow_id: int | None = None,
    user_id: int = 0,
    task_type: str = "batch",
) -> Job:
    """Terse job builder used across the suite."""
    return Job(
        job_id=job_id,
        submit_time=submit,
        size=size,
        runtime=runtime,
        user_id=user_id,
        task_type=task_type,
        workflow_id=workflow_id,
        dependencies=deps,
    )


def queue_of(jobs) -> JobQueue:
    """A :class:`JobQueue` holding ``jobs`` in the given (arrival) order,
    as a server hands it to ``Scheduler.select``."""
    queue = JobQueue()
    for job in jobs:
        queue.push(job)
    return queue


def make_trace(
    jobs: list[Job], nodes: int = 16, duration: float = 4 * HOUR, name: str = "t"
) -> Trace:
    return Trace(name, jobs, machine_nodes=nodes, duration=duration)


@pytest.fixture
def engine() -> SimulationEngine:
    return SimulationEngine()


@pytest.fixture
def small_trace() -> Trace:
    """Ten mixed jobs over two hours on a 16-node machine."""
    jobs = [
        make_job(1, submit=0.0, size=4, runtime=1800),
        make_job(2, submit=60.0, size=2, runtime=600),
        make_job(3, submit=120.0, size=8, runtime=3600),
        make_job(4, submit=300.0, size=1, runtime=120),
        make_job(5, submit=900.0, size=16, runtime=1200),
        make_job(6, submit=1800.0, size=4, runtime=2400),
        make_job(7, submit=3600.0, size=2, runtime=300),
        make_job(8, submit=4000.0, size=6, runtime=1800),
        make_job(9, submit=5400.0, size=3, runtime=900),
        make_job(10, submit=6000.0, size=1, runtime=60),
    ]
    return make_trace(jobs)


@pytest.fixture
def diamond_workflow() -> Workflow:
    """A 4-task diamond: 1 -> (2, 3) -> 4."""
    tasks = [
        make_job(1, runtime=100, workflow_id=7),
        make_job(2, runtime=200, deps=(1,), workflow_id=7),
        make_job(3, runtime=50, deps=(1,), workflow_id=7),
        make_job(4, runtime=100, deps=(2, 3), workflow_id=7),
    ]
    return Workflow(7, tasks, name="diamond")
