"""Snapshot/restore/fork byte-identity (the PR 6 tentpole).

Three layers of guarantees, mirroring ``test_differential_emulator.py``'s
differential style:

* **property**: ``restore(snapshot(live))`` then ``run()`` is
  byte-identical — per-job completion times, billed consumption and the
  reliability payload — to an uninterrupted run, across every runner
  family, with and without a failure model, snapshotting at arbitrary
  hypothesis-chosen instants;
* **differential**: prefix-shared sweeps (`share_prefix=True`) equal cold
  sweeps point for point, at the run_experiment and ``Simulation.fork()``
  levels, for B×R grids and for every scheduler ref; and a pickle fork
  equals a ``copy.deepcopy`` fork (the serializer it replaced) taken at
  the same instant;
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
from repro.api.run import (
    RETARGETABLE_SWEEP_PATHS,
    SHARED_PREFIX_MIN_FRACTION,
    Simulation,
    _resolve_share,
    branch_instant,
    fork_experiment_branches,
    materialize_workload,
    run_experiment,
    sweep_prefix_shareable,
)
from repro.api.spec import ExperimentSpec
from repro.core.policies import ResourceManagementPolicy
from repro.experiments.ablations import workload_ref_for_bundle
from repro.experiments.cache import NullCache
from repro.experiments.config import nasa_bundle
from repro.provisioning.runner import PooledQueueLiveRun
from repro.reliability.failures import ExponentialFailures
from repro.scheduling.firstfit import FirstFitScheduler
from repro.scheduling.sjf import SjfScheduler
from repro.simkit.snapshot import SnapshotAliasError
from repro.systems.base import LiveRun, WorkloadBundle
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


# --------------------------------------------------------------------- #
# differential: prefix-shared sweeps == cold sweeps
# --------------------------------------------------------------------- #
def _branched_equals_cold(spec: dict) -> None:
    es = ExperimentSpec.from_dict(spec)
    cold = [r.to_dict() for r in run_experiment(es, 0, share_prefix=False)]
    warm = [r.to_dict() for r in run_experiment(es, 0, share_prefix=True)]
    assert warm == cold


def test_htc_sweep_branched_equals_cold():
    _branched_equals_cold({
        "name": "htc-grid",
        "workloads": [workload_ref_for_bundle(_htc_bundle())],
        "systems": [{"runner": "dawningcloud",
                     "policy": {"name": "paper-htc"},
                     "params": {"capacity": 64}}],
        "sweep": {"policy.params.initial_nodes": [4, 8],
                  "policy.params.threshold_ratio": [1.0, 1.5, 2.0]},
    })


def test_mtc_sweep_branched_equals_cold():
    _branched_equals_cold({
        "name": "mtc-grid",
        "workloads": [{"generator": "fork-join",
                       "params": {"width": 6, "mean_runtime": 40.0}}],
        "systems": [{"runner": "dawningcloud",
                     "policy": {"name": "paper-mtc"},
                     "params": {"capacity": 64}}],
        "sweep": {"policy.params.initial_nodes": [2, 4],
                  "policy.params.threshold_ratio": [4.0, 8.0]},
    })


def _late_trace_spec(scheduler: str) -> dict:
    """60 jobs whose first arrival lands 40% into a 24 h horizon, so
    ``share_prefix="auto"`` branches."""
    start = 9.6 * HOUR
    return {
        "name": "late-trace",
        "workloads": [{"generator": "inline-trace", "params": {
            "name": "late", "machine_nodes": 32, "duration": 24 * HOUR,
            "jobs": [[i, start + 90.0 * i, 1 + i % 8, 1800.0 + 600.0 * (i % 5)]
                     for i in range(1, 61)],
        }}],
        "systems": [{"runner": "dawningcloud",
                     "policy": {"name": "paper-htc",
                                "params": {"initial_nodes": 4}},
                     "scheduler": scheduler,
                     "params": {"capacity": 40}}],
        "sweep": {"policy.params.threshold_ratio": [1.0, 1.5, 2.0]},
    }


@pytest.mark.parametrize(
    "scheduler", ["first-fit", "sjf", "easy-backfill", "fcfs"]
)
def test_auto_shared_branches_keep_the_scheduler(scheduler):
    spec = ExperimentSpec.from_dict(_late_trace_spec(scheduler))
    bundle = materialize_workload(spec.workloads[0])
    assert _resolve_share("auto", bundle)
    cold = [r.to_dict() for r in run_experiment(spec, 0, share_prefix=False)]
    auto = [r.to_dict() for r in run_experiment(spec, 0)]
    assert auto == cold


def test_scheduler_sweep_splits_the_grid_into_groups():
    spec = _late_trace_spec("first-fit")
    spec["sweep"]["scheduler"] = ["sjf", {"name": "easy-backfill"}]
    _branched_equals_cold(spec)


def test_grid_warms_up_once_per_b_and_forks_per_r(monkeypatch):
    counts = {"warm-ups": 0, "forks": 0}
    advance, fork = LiveRun.advance_before, LiveRun.fork

    def counted_advance(self, time):
        counts["warm-ups"] += 1
        return advance(self, time)

    def counted_fork(self):
        counts["forks"] += 1
        return fork(self)

    monkeypatch.setattr(LiveRun, "advance_before", counted_advance)
    monkeypatch.setattr(LiveRun, "fork", counted_fork)
    spec = _late_trace_spec("first-fit")
    spec["sweep"]["policy.params.initial_nodes"] = [4, 8]
    branches = fork_experiment_branches(ExperimentSpec.from_dict(spec))
    assert len(branches) == 6
    assert counts == {"warm-ups": 2, "forks": 4}
    assert [b.point["policy.params.initial_nodes"] for b in branches] == [
        4, 4, 4, 8, 8, 8,
    ]


def _sweep_spec() -> dict:
    return {
        "name": "branch-diff",
        "workloads": [{"generator": "fork-join",
                       "params": {"width": 5, "mean_runtime": 30.0}}],
        "systems": [{"runner": "dawningcloud",
                     "policy": {"name": "paper-mtc",
                                "params": {"initial_nodes": 3}},
                     "params": {"capacity": 64}}],
        "seeds": [0, 1],
        "sweep": {"policy.params.threshold_ratio": [4.0, 8.0, 12.0]},
    }


def test_run_experiment_branched_equals_cold():
    spec = ExperimentSpec.from_dict(_sweep_spec())
    cold = [r.to_dict() for r in run_experiment(spec, 0, share_prefix=False)]
    warm = [r.to_dict() for r in run_experiment(spec, 0, share_prefix=True)]
    assert warm == cold


def test_simulation_fork_branches_equal_cold_points():
    spec = _sweep_spec()
    cold = run_experiment(
        ExperimentSpec.from_dict(spec), 0, share_prefix=False
    )
    sim = Simulation(spec, seed=0, cache=NullCache())
    branches = sim.fork()
    assert [b.point for b in branches] == [
        r.point for r in cold if r.seed == 0
    ]
    forked = [b.run().to_payload() for b in branches]
    assert forked == [dict(r.metrics) for r in cold if r.seed == 0]


# --------------------------------------------------------------------- #
# detection and the profitability guard
# --------------------------------------------------------------------- #
def test_generator_touching_sweeps_are_not_shareable():
    spec = _sweep_spec()
    spec["sweep"]["workload.params.width"] = [3, 5]
    es = ExperimentSpec.from_dict(spec)
    with pytest.raises(ValueError, match="workload.params.width"):
        fork_experiment_branches(es)


def test_build_shaping_sweeps_are_not_shareable():
    spec = _sweep_spec()
    spec["sweep"] = {"policy.params.initial_nodes": [2, 4]}
    assert "policy.params.initial_nodes" not in RETARGETABLE_SWEEP_PATHS
    assert not sweep_prefix_shareable(ExperimentSpec.from_dict(spec))


def test_auto_guard_shares_only_long_prefixes():
    early = _htc_bundle()  # first submission at t=0
    assert _resolve_share("auto", early) is False

    late_jobs = [
        make_job(1, submit=2 * HOUR, size=4, runtime=1800),
        make_job(2, submit=2 * HOUR + 60, size=2, runtime=600),
    ]
    late = WorkloadBundle.from_trace("late", make_trace(late_jobs))
    assert branch_instant(late) / late.horizon >= SHARED_PREFIX_MIN_FRACTION
    assert _resolve_share("auto", late) is True
    # and the forced modes ignore the guard entirely
    assert _resolve_share(True, early) is True
    assert _resolve_share(False, late) is False
