"""How a world snapshot writes jobs and completion logs.

``tests/test_snapshot_branching.py`` pins what restored worlds *do*
(byte-identical continuations, a pickle fork equal to a deepcopy fork,
exactly the completed jobs shared).  These fast tests pin the forms
:mod:`repro.simkit.snapshot` writes itself, on worlds small enough for
every push:

* **fields**: an open job restores as a new object with every field
  equal, and the rebuild function takes exactly ``Job``'s fields, so a
  new field cannot be dropped silently;
* **logs**: a restore builds a fresh completion log holding the very
  entries the live log held at the snapshot instant (a system's jobs, a
  service's per-completion metrics), whatever the live run or another
  branch appends later;
* **plain loads**: ``pickle.loads`` of snapshot bytes says to restore
  through ``EngineSnapshot.restore``;
* **no cycle**: with the cyclic collector off, a restored world's root
  is freed by reference counting once dropped, so no restore hook is
  bound to the unpickler (whose memo holds every restored object).
"""

from __future__ import annotations

import dataclasses
import gc
import inspect
import pickle
import weakref

import pytest

from conftest import make_job, make_trace
from repro.api.spec import ServiceSpec
from repro.serving import build_service
from repro.simkit.engine import SimulationEngine
from repro.simkit.snapshot import snapshot_world
from repro.systems.base import WorkloadBundle
from repro.systems.drp import DrpHtcLiveRun, DrpMtcLiveRun, DrpPooledLiveRun
from repro.systems.fixed import FixedLiveRun
from repro.workloads.job import (
    CompletionLog,
    Job,
    job_fields,
    job_from_fields,
)
from repro.workloads.workflowgen import fork_join

FIELD_NAMES = [f.name for f in dataclasses.fields(Job)]


class Root:
    """A world root owned by the tests: an engine plus whatever hangs on it."""

    def __init__(self, engine: SimulationEngine, **parts) -> None:
        self.engine = engine
        self.__dict__.update(parts)


def _distinct_job(base: int) -> Job:
    """A job whose facts differ from the defaults and from one another."""
    return Job(
        job_id=base, submit_time=base + 1.5, size=base + 2,
        runtime=base + 3.5, user_id=base + 4, task_type=f"type-{base + 5}",
        workflow_id=base + 6, dependencies=(base + 7, base + 8),
    )


def _job_in(state: str) -> Job:
    job = _distinct_job({"pending": 10, "queued": 20, "running": 30,
                         "requeued": 40, "completed": 50}[state])
    if state == "pending":
        return job
    job.mark_queued(job.submit_time)
    if state == "queued":
        return job
    job.mark_running(job.submit_time + 9.25)
    if state == "requeued":
        job.mark_requeued(job.submit_time + 10.75)
    elif state == "completed":
        job.mark_completed(job.submit_time + 11.25)
    return job


def test_the_field_form_is_every_job_field_in_order():
    assert list(inspect.signature(job_from_fields).parameters) == FIELD_NAMES
    job = _job_in("completed")  # start and finish times set, all distinct
    assert job_fields(job) == tuple(getattr(job, name) for name in FIELD_NAMES)
    rebuilt = job_from_fields(*job_fields(job))
    assert rebuilt is not job
    assert vars(rebuilt) == vars(job)


@pytest.mark.parametrize("state", ["pending", "queued", "running", "requeued"])
def test_an_open_job_restores_as_a_new_job_with_equal_fields(state):
    job = _job_in(state)
    # reached twice: restored as one object
    world = Root(SimulationEngine(), jobs=[job], by_id={job.job_id: job})
    restored = snapshot_world(world).restore()
    copy = restored.jobs[0]
    assert copy is not job
    assert type(copy) is Job
    assert vars(copy) == vars(job)
    assert restored.by_id[job.job_id] is copy


# --------------------------------------------------------------------- #
# completion logs
# --------------------------------------------------------------------- #
def _htc_bundle() -> WorkloadBundle:
    jobs = [
        make_job(i, submit=300.0 * i, size=2 + i % 3, runtime=900.0)
        for i in range(1, 9)
    ]
    return WorkloadBundle.from_trace("t", make_trace(jobs))


def _mtc_bundle() -> WorkloadBundle:
    return WorkloadBundle.from_workflow(
        "wf", fork_join(width=6, mean_runtime=40.0, seed=2)
    )


class ServiceRun:
    """A service driven like a live run: each move ends in a metrics read,
    which folds the new completions into the service's metric logs."""

    def __init__(self, service) -> None:
        self.service = service
        self.engine = service.engine

    def advance_before(self, time: float) -> None:
        self.service.advance_to(time)
        self.service.metrics()

    def snapshot(self):
        return snapshot_world(self)

    def complete(self) -> None:
        self.advance_before(self.service.horizon)


def _service_run() -> ServiceRun:
    service = build_service(ServiceSpec.from_dict({
        "name": "t", "system": "dcs", "machine_nodes": 16,
        "horizon_s": 4 * 3600.0,
    }))
    service.submit_batch(_htc_bundle().trace)
    return ServiceRun(service)


#: every owner of a completion log: (build, the log, a snapshot instant
#: after some but not all completions)
LOG_OWNERS = {
    "reserver": (lambda: FixedLiveRun(_htc_bundle(), "DCS"),
                 lambda live: live.server.completed, 2400.0),
    "drp-htc": (lambda: DrpHtcLiveRun(_htc_bundle()),
                lambda live: live.state.completed, 2400.0),
    "drp-pooled": (lambda: DrpPooledLiveRun(_htc_bundle()),
                   lambda live: live.state.completed, 2400.0),
    "drp-mtc": (lambda: DrpMtcLiveRun(_mtc_bundle()),
                lambda live: live.pool.completed, 75.0),
    "service-finish-times": (_service_run,
                             lambda run: run.service._finish_times, 2400.0),
    "service-work-done": (_service_run,
                          lambda run: run.service._work_done, 2400.0),
    "service-slo-ok": (_service_run,
                       lambda run: run.service._slo_ok, 2400.0),
}


def _same_jobs(log, jobs) -> bool:
    return len(log) == len(jobs) and all(a is b for a, b in zip(log, jobs))


@pytest.mark.parametrize("owner", list(LOG_OWNERS))
def test_a_restore_builds_a_fresh_log_of_the_snapshot_instant(owner):
    build, log_of, instant = LOG_OWNERS[owner]
    live = build()
    live.advance_before(instant)
    at_snapshot = list(log_of(live))
    snapshot = live.snapshot()
    live.complete()  # the live run completes more jobs after the snapshot
    assert 0 < len(at_snapshot) < len(log_of(live))

    branch = snapshot.restore()
    log = log_of(branch)
    assert type(log) is CompletionLog
    assert log is not log_of(live)
    assert _same_jobs(log, at_snapshot)

    branch.complete()  # the branch appends to its own log...
    assert len(log) > len(at_snapshot)
    # ...and a second restore still starts from the snapshot instant
    again = log_of(snapshot.restore())
    assert again is not log
    assert _same_jobs(again, at_snapshot)


@pytest.mark.parametrize("part", ["shared-job", "log"])
def test_plain_pickle_loads_says_to_restore_through_the_snapshot(part):
    done = _job_in("completed")
    world = Root(SimulationEngine(), **(
        {"jobs": [done]} if part == "shared-job"
        else {"log": CompletionLog([done])}
    ))
    snapshot = snapshot_world(world)
    with pytest.raises(pickle.UnpicklingError,
                       match=r"EngineSnapshot\.restore\(\)"):
        pickle.loads(snapshot._data)


def test_a_restored_root_is_freed_by_reference_counting():
    live = FixedLiveRun(_htc_bundle(), "DCS")
    live.advance_before(2400.0)
    # completed jobs in the server's log and, for a shared reference,
    # outside it: the restore resolves both names through find_class
    done = list(live.server.completed)
    snapshot = snapshot_world(Root(live.engine, live=live, done=done))
    assert snapshot._shared and snapshot._logs
    enabled = gc.isenabled()
    gc.disable()
    try:
        restored = snapshot.restore()
        assert _same_jobs(restored.live.server.completed, done)
        alive = weakref.ref(restored)
        del restored
        assert alive() is None
    finally:
        if enabled:
            gc.enable()
