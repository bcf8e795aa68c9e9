"""Snapshot/restore/fork byte-identity (the PR 6 tentpole).

Three layers of guarantees, mirroring ``test_differential_emulator.py``'s
differential style:

* **property**: ``restore(snapshot(live))`` then ``run()`` is
  byte-identical — per-job completion times, billed consumption and the
  reliability payload — to an uninterrupted run, across every runner
  family, with and without a failure model, snapshotting at arbitrary
  hypothesis-chosen instants, and before a late workflow's TRE exists;
* **differential**: a pickle fork equals a ``copy.deepcopy`` fork (the
  serializer it replaced) taken at the same instant;
* **sharing**: the jobs COMPLETED at the snapshot instant are the same
  objects in the original and in every restored branch, and stay frozen
  while all of them run on; every other job is a copy;
* **alias guard**: closures anywhere in the world, on the heap or not,
  are rejected at snapshot time.
"""

from __future__ import annotations

import copy
import io
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_job, make_trace
from repro.core.policies import ResourceManagementPolicy
from repro.experiments.config import nasa_bundle
from repro.provisioning.runner import PooledQueueLiveRun
from repro.reliability.failures import ExponentialFailures
from repro.scheduling.firstfit import FirstFitScheduler
from repro.scheduling.sjf import SjfScheduler
from repro.simkit.snapshot import SnapshotAliasError
from repro.systems.base import WorkloadBundle
from repro.systems.drp import DrpHtcLiveRun, DrpMtcLiveRun, DrpPooledLiveRun
from repro.systems.dsp_runner import (
    DawningCloudHtcLiveRun,
    DawningCloudMtcLiveRun,
)
from repro.systems.fixed import FixedLiveRun
from repro.workloads.job import Job, JobState
from repro.workloads.workflowgen import fork_join

HOUR = 3600.0

#: whole-simulation tests: excluded from the fast tier
pytestmark = pytest.mark.slow


def _htc_bundle() -> WorkloadBundle:
    jobs = [
        make_job(1, submit=0.0, size=4, runtime=1800),
        make_job(2, submit=60.0, size=2, runtime=600),
        make_job(3, submit=120.0, size=8, runtime=3600),
        make_job(4, submit=900.0, size=16, runtime=1200),
        make_job(5, submit=1800.0, size=4, runtime=2400),
        make_job(6, submit=4000.0, size=6, runtime=1800),
        make_job(7, submit=5400.0, size=3, runtime=900),
    ]
    return WorkloadBundle.from_trace("t", make_trace(jobs))


def _mtc_bundle() -> WorkloadBundle:
    return WorkloadBundle.from_workflow(
        "wf", fork_join(width=6, mean_runtime=40.0, seed=2)
    )


def _failures() -> ExponentialFailures:
    return ExponentialFailures(mtbf_s=2 * HOUR, mttr_s=600.0)


# one builder per runner family: (name, kind, accepts_failures, build)
BUILDERS = [
    ("dcs", "htc", True,
     lambda b, f: FixedLiveRun(b, "DCS", failures=f, seed=3)),
    ("ssp", "htc", True,
     lambda b, f: FixedLiveRun(b, "SSP", failures=f, seed=3)),
    ("drp-htc", "htc", True,
     lambda b, f: DrpHtcLiveRun(b, failures=f, seed=3)),
    ("drp-pooled", "htc", False,
     lambda b, f: DrpPooledLiveRun(b)),
    ("dawningcloud-htc", "htc", True,
     lambda b, f: DawningCloudHtcLiveRun(
         b, ResourceManagementPolicy.for_htc(8, 1.5), capacity=64,
         failures=f, seed=3)),
    ("pooled-queue", "htc", True,
     lambda b, f: PooledQueueLiveRun(
         b, FirstFitScheduler(), failures=f, seed=3)),
    ("dawningcloud-mtc", "mtc", True,
     lambda b, f: DawningCloudMtcLiveRun(
         b, ResourceManagementPolicy.for_mtc(4, 8.0), capacity=64,
         failures=f, seed=3)),
    ("drp-mtc", "mtc", False,
     lambda b, f: DrpMtcLiveRun(b)),
]

CASES = [
    (name, kind, build, with_failures)
    for name, kind, accepts, build in BUILDERS
    for with_failures in ([False, True] if accepts else [False])
]


def _job_finish_times(live) -> list[tuple[int, float]]:
    """Per-job completion instants, however the runner stores them."""
    if hasattr(live, "cloud"):
        completed = live.cloud.tre(live.name).server.completed
    elif hasattr(live, "server"):
        completed = live.server.completed
    elif hasattr(live, "state"):
        completed = live.state.completed
    else:
        completed = live.pool.completed
    return sorted((j.job_id, j.finish_time) for j in completed)


def _finalize(live) -> tuple:
    live.complete()
    times = _job_finish_times(live)
    payload = live.finish().to_payload()
    return payload, times, live.engine.now


@pytest.mark.parametrize(
    "name,kind,build,with_failures",
    CASES,
    ids=[f"{n}{'-failures' if w else ''}" for n, _, _, w in CASES],
)
@settings(max_examples=5, deadline=None)
@given(fraction=st.floats(min_value=0.05, max_value=0.95))
def test_restore_then_run_is_byte_identical(name, kind, build, with_failures,
                                            fraction):
    bundle = _htc_bundle() if kind == "htc" else _mtc_bundle()
    failures = _failures() if with_failures else None

    cold = _finalize(build(bundle, failures))
    # MTC runs end at workflow completion, not the horizon guard, so the
    # snapshot instant is chosen inside the *observed* run span.
    span = cold[2] if kind == "mtc" else float(bundle.horizon)

    live = build(bundle, failures)
    live.advance_before(fraction * span)
    snapshot = live.snapshot(label=name)
    restored = snapshot.restore()

    # the interrupted original and the restored branch both finish
    # exactly like the run that was never touched
    assert _finalize(live) == cold
    assert _finalize(restored) == cold


@pytest.mark.parametrize("with_failures", [False, True],
                         ids=["plain", "failures"])
def test_snapshot_before_the_tre_exists(with_failures):
    """A workflow submitted at 1 h: at 1800 s its TRE's creation (and the
    injector's attachment) are still events on the heap, so the snapshot
    carries them, and the original and two restores all finish like the
    run that was never touched."""
    bundle = WorkloadBundle.from_workflow(
        "late-wf",
        fork_join(width=6, mean_runtime=40.0, seed=2, submit_time=HOUR),
    )
    failures = _failures() if with_failures else None

    def build():
        return DawningCloudMtcLiveRun(
            bundle, ResourceManagementPolicy.for_mtc(4, 8.0), capacity=64,
            failures=failures, seed=3,
        )

    cold = _finalize(build())
    live = build()
    live.advance_before(1800.0)
    with pytest.raises(KeyError):
        live.cloud.tre(live.name)
    snapshot = live.snapshot()
    branches = [snapshot.restore(), snapshot.restore()]
    for world in (live, *branches):
        assert _finalize(world) == cold


def test_fork_branches_are_disjoint():
    bundle = _htc_bundle()
    live = DawningCloudHtcLiveRun(
        bundle, ResourceManagementPolicy.for_htc(8, 1.5), capacity=64
    )
    live.advance_before(900.0)
    branch = live.fork()
    # running the branch first must not perturb the original
    branch_result = _finalize(branch)
    original_result = _finalize(live)
    assert branch_result == original_result


def test_snapshot_rejects_closures_in_heap():
    bundle = _htc_bundle()
    live = DawningCloudHtcLiveRun(
        bundle, ResourceManagementPolicy.for_htc(8, 1.5), capacity=64
    )
    leak = []
    live.engine.schedule(60.0, lambda: leak.append(1))
    with pytest.raises(SnapshotAliasError):
        live.snapshot()


def test_snapshot_rejects_closures_anywhere_in_the_world():
    live = DawningCloudHtcLiveRun(
        _htc_bundle(), ResourceManagementPolicy.for_htc(8, 1.5), capacity=64
    )
    leak = []
    live.on_done = lambda: leak.append(1)  # world state, not a heap event
    with pytest.raises(SnapshotAliasError, match="lambda"):
        live.snapshot()
    with pytest.raises(SnapshotAliasError, match="lambda"):
        live.fork()


def test_fork_scheduler_factory_returns_the_forks_scheduler():
    live = DawningCloudHtcLiveRun(
        _htc_bundle(), ResourceManagementPolicy.for_htc(8, 1.5),
        capacity=64, scheduler=SjfScheduler(),
    )
    live.advance_before(900.0)
    branch = live.fork()
    for world in (live, branch):
        tre = world.cloud.tre(world.name)
        assert tre.spec.scheduler_factory() is tre.server.scheduler
    assert (
        branch.cloud.tre(branch.name).server.scheduler
        is not live.cloud.tre(live.name).server.scheduler
    )


# --------------------------------------------------------------------- #
# oracle: a pickle fork == a deepcopy fork
# --------------------------------------------------------------------- #
#: DCS and SSP again, on the hybrid core
HYBRID_FAMILIES = [
    ("dcs-hybrid", "htc", True,
     lambda b, f: FixedLiveRun(b, "DCS", failures=f, seed=3, kernel="numpy")),
    ("ssp-hybrid", "htc", True,
     lambda b, f: FixedLiveRun(b, "SSP", failures=f, seed=3, kernel="numpy")),
]

ORACLE_CASES = CASES + [
    (name, kind, build, with_failures)
    for name, kind, _accepts, build in HYBRID_FAMILIES
    for with_failures in (False, True)
]


def _bundle_and_span(kind, build, failures) -> tuple:
    """The small bundle of ``kind`` and the span to pick instants in."""
    bundle = _htc_bundle() if kind == "htc" else _mtc_bundle()
    if kind == "htc":
        return bundle, float(bundle.horizon)
    # MTC runs end at workflow completion: use the observed run span
    return bundle, _finalize(build(bundle, failures))[2]


@pytest.mark.parametrize(
    "name,kind,build,with_failures",
    ORACLE_CASES,
    ids=[f"{n}{'-failures' if w else ''}" for n, _, _, w in ORACLE_CASES],
)
@settings(max_examples=5, deadline=None)
@given(fraction=st.floats(min_value=0.05, max_value=0.95))
def test_pickle_fork_equals_deepcopy_fork(name, kind, build, with_failures,
                                          fraction):
    failures = _failures() if with_failures else None
    bundle, span = _bundle_and_span(kind, build, failures)
    live = build(bundle, failures)
    live.advance_before(fraction * span)
    reference = copy.deepcopy(live)
    branch = live.fork()
    expected = _finalize(reference)
    assert _finalize(branch) == expected
    # the original runs on after its branch, untouched by it
    assert _finalize(live) == expected


# --------------------------------------------------------------------- #
# sharing: completed jobs are passed by reference, and stay frozen
# --------------------------------------------------------------------- #
def _jobs_in(world) -> dict[int, Job]:
    """Every job reachable from ``world``, keyed by ``id()``."""
    found: dict[int, Job] = {}

    class Walker(pickle.Pickler):
        def persistent_id(self, obj):
            if type(obj) is Job:
                found[id(obj)] = obj
            return None

    Walker(io.BytesIO(), protocol=5).dump(world)
    return found


def _execution(jobs) -> dict[int, tuple]:
    return {
        key: (job.state, job.start_time, job.finish_time)
        for key, job in jobs.items()
    }


#: the small bundles, plus NASA for the HTC families (DRP with failures
#: is left out on NASA: its provision log makes that world take ~50 s)
SHARING_CASES = [
    (name, kind, build, with_failures, "small")
    for name, kind, build, with_failures in CASES
] + [
    (name, kind, build, with_failures, "nasa")
    for name, kind, build, with_failures in CASES
    if kind == "htc" and not (name == "drp-htc" and with_failures)
]


@pytest.mark.parametrize(
    "name,kind,build,with_failures,workload",
    SHARING_CASES,
    ids=[f"{n}{'-failures' if w else ''}-{b}"
         for n, _, _, w, b in SHARING_CASES],
)
def test_branches_share_exactly_the_completed_jobs(name, kind, build,
                                                   with_failures, workload):
    failures = _failures() if with_failures else None
    if workload == "nasa":
        bundle = nasa_bundle(0)
        span = float(bundle.horizon)
    else:
        bundle, span = _bundle_and_span(kind, build, failures)
    live = build(bundle, failures)
    live.advance_before(0.5 * span)

    before = _jobs_in(live)
    completed = {
        key: job for key, job in before.items()
        if job.state is JobState.COMPLETED
    }
    frozen = _execution(completed)
    assert completed, "pick an instant after the first completion"

    snapshot = live.snapshot()
    branches = [snapshot.restore(), snapshot.restore()]
    for branch in branches:
        # completed jobs are the very same objects; queued, running and
        # pending ones are the branch's own copies
        assert _jobs_in(branch).keys() & before.keys() == completed.keys()

    for world in (live, *branches):
        world.complete()
        world.finish()
    assert _execution(completed) == frozen
