"""The DRP system: direct resource provision (§4.1, Figure 7).

Each end user leases resources directly from the resource provider (as
with raw EC2); there is no runtime environment and no queue — "all jobs run
immediately without queuing" (§4.4) — and leases are billed per started
hour.

* **HTC**: each job is one lease of ``size`` nodes held for the job's
  runtime, so the billed cost is ``Σ size × ceil(runtime/1h)`` — the
  hour-rounding penalty that makes DRP *more* expensive than DCS for the
  short-job NASA trace (Table 2's -25.8%).
* **MTC**: the workflow's end user keeps a pool of leased nodes.  A ready
  task grabs an idle leased node before leasing a new one, and idle nodes
  are returned at the hourly check (manual management mimicking what a
  cost-aware user does under hourly billing).  For Montage this makes the
  cost equal the widest ready level — the paper's 662 node-hours against
  166 for DawningCloud (Table 4, the 74.9% saving).

Since the provisioning-kernel refactor the lease handling itself lives in
:mod:`repro.provisioning.policies` — the HTC runner is
:class:`~repro.provisioning.policies.PerJobLease`, the MTC user pool and
the pooling ablations are :class:`~repro.provisioning.policies.PooledLease`
under different bucket keys — and every runner takes a pluggable
:class:`~repro.provisioning.billing.BillingMeter`.
"""

from __future__ import annotations

from typing import Optional, TYPE_CHECKING

from repro.cluster.lease import Lease
from repro.cluster.provision import ResourceProvisionService
from repro.metrics.results import ProviderMetrics
from repro.metrics.timeseries import UsageRecorder
from repro.provisioning.billing import BillingMeter
from repro.provisioning.policies import PerJobLease, PooledLease
from repro.simkit.engine import SimulationEngine
from repro.systems.base import LiveRun, WorkloadBundle, run_until
from repro.systems.emulator import JobEmulator
from repro.workloads.job import CompletionLog, Job
from repro.workloads.workflow import Workflow

if TYPE_CHECKING:  # pragma: no cover - reliability is an optional layer
    from repro.reliability.failures import FailureModel

#: The cloud is effectively unbounded from a single tenant's perspective.
DEFAULT_DRP_CAPACITY = 1_000_000


class _DrpHtcRun:
    """One HTC trace through DRP: lease per job, no queue.

    With a failure model, each running job is exposed to per-node
    failures: the job's TTF is the minimum of one draw per occupied node
    (from the job's private RNG stream, ``failure:drp:job<id>`` — the
    same determinism argument as the slot streams).  A failed job's
    lease closes immediately (the dead instance stops billing), the end
    user re-leases healthy nodes on the spot — repair time is the
    *provider's* problem at cloud scale — and the job restarts from its
    last checkpoint (everything, without one).
    """

    def __init__(
        self,
        engine: SimulationEngine,
        name: str,
        capacity: int,
        meter: Optional[BillingMeter] = None,
        failures: Optional["FailureModel"] = None,
        seed: int = 0,
    ) -> None:
        self.engine = engine
        self.name = name
        self.provision = ResourceProvisionService(capacity, meter=meter)
        self.usage = UsageRecorder(name)
        self.leasing = PerJobLease(engine, self.provision, name, self.usage)
        self.completed = CompletionLog()
        self.submitted = 0
        self.failures = failures
        self.stats = None
        if failures is not None:
            from repro.reliability.stats import ReliabilityStats
            from repro.simkit.rng import RandomStreams

            self.stats = ReliabilityStats()
            self._streams = RandomStreams(seed)

    def submit(self, job: Job) -> None:
        self.submitted += 1
        job.mark_queued(self.engine.now)
        job.mark_running(self.engine.now)
        if self.failures is None:
            lease = self.leasing.acquire(job.size)
            self.engine.schedule(job.runtime, self._finish, job, lease)
        else:
            self._start_segment(job, job.runtime)

    def _finish(
        self, job: Job, lease: Lease, segment_work: Optional[float] = None
    ) -> None:
        self.leasing.release(lease)
        job.mark_completed(self.engine.now)
        self.completed.append(job)
        if segment_work is not None:
            # mirror the server path (REServer._finish): the successful
            # segment's checkpoint writes count as waste *at completion*,
            # so a segment still in flight at the horizon adds nothing
            self.stats.record_write_overhead(
                job.size, self.failures.checkpoint, segment_work
            )

    # -------------------------------------------------------------- #
    # failure-exposed execution
    # -------------------------------------------------------------- #
    def _job_ttf(self, job: Job) -> float:
        """The job's time-to-failure: first of its nodes to die."""
        rng = self._streams.stream(f"failure:drp:job{job.job_id}")
        return min(self.failures.draw_ttf(rng) for _ in range(job.size))

    def _start_segment(self, job: Job, remaining: float) -> None:
        checkpoint = self.failures.checkpoint
        wall = (
            checkpoint.segment_wall(remaining)
            if checkpoint is not None
            else remaining
        )
        lease = self.leasing.acquire(job.size)
        ttf = self._job_ttf(job)
        if ttf >= wall:
            self.engine.schedule(wall, self._finish, job, lease, remaining)
        else:
            self.engine.schedule(
                ttf, self._fail_segment, job, lease, remaining, ttf
            )

    def _fail_segment(
        self, job: Job, lease: Lease, remaining: float, elapsed: float
    ) -> None:
        from repro.reliability.checkpoint import collapse_progress

        self.leasing.release(lease)  # the dead instance stops billing
        self.stats.failures += 1
        self.stats.repairs += 1  # the user replaces the instance instantly
        after, recovered, wasted_wall = collapse_progress(
            self.failures.checkpoint, remaining, elapsed
        )
        self.stats.record_kill(job.size, recovered, wasted_wall)
        self._start_segment(job, after)


class _DrpMtcUserPool:
    """The MTC end user's manually managed lease pool."""

    def __init__(
        self,
        engine: SimulationEngine,
        name: str,
        capacity: int,
        meter: Optional[BillingMeter] = None,
    ) -> None:
        self.engine = engine
        self.name = name
        self.provision = ResourceProvisionService(capacity, meter=meter)
        self.usage = UsageRecorder(name)
        self.pool = PooledLease(engine, self.provision, name, self.usage)
        self.completed = CompletionLog()
        self.submitted = 0
        self.workflow: Optional[Workflow] = None

    # -------------------------------------------------------------- #
    def submit(self, workflow: Workflow) -> None:
        self.workflow = workflow
        self.submitted += len(workflow.tasks)
        for task in workflow.release():
            self._start(task)

    def _start(self, task: Job) -> None:
        lease = self.pool.acquire(task.size)
        task.mark_queued(self.engine.now)
        task.mark_running(self.engine.now)
        self.engine.schedule(task.runtime, self._finish, task, lease)

    def _finish(self, task: Job, lease: Lease) -> None:
        self.pool.release(lease)
        task.mark_completed(self.engine.now)
        self.completed.append(task)
        assert self.workflow is not None
        for ready in self.workflow.release(task):
            self._start(ready)
        if self.workflow.completed():
            self.teardown()

    def teardown(self) -> None:
        """Workflow done: the user returns every leased node."""
        self.pool.teardown()


def _check_drp_failure_model(failures: Optional["FailureModel"]) -> None:
    if failures is not None:
        from repro.reliability.failures import TraceDrivenFailures

        if isinstance(failures, TraceDrivenFailures):
            raise ValueError(
                "DRP failure injection draws per-job TTFs and cannot replay "
                "a trace-driven (slot, fail_t, repair_t) model; use a "
                "distributional model, or run the trace through a "
                "server-attached system (dcs/ssp/dawningcloud)"
            )


class DrpHtcLiveRun(LiveRun):
    """One HTC trace through DRP, built/loaded but not yet run."""

    def __init__(
        self,
        bundle: WorkloadBundle,
        capacity: int = DEFAULT_DRP_CAPACITY,
        meter: Optional[BillingMeter] = None,
        failures: Optional["FailureModel"] = None,
        seed: int = 0,
    ) -> None:
        _check_drp_failure_model(failures)
        engine = self.engine = SimulationEngine()
        trace = bundle.materialize_trace()
        self.name = bundle.name
        self.state = _DrpHtcRun(engine, bundle.name, capacity, meter=meter,
                                failures=failures, seed=seed)
        JobEmulator(engine).submit_trace(trace, self.state.submit)
        self.submitted = len(trace)
        self.horizon = float(bundle.horizon)  # type: ignore[arg-type]

    def complete(self) -> None:
        self.engine.run(until=self.horizon)

    def finish(self) -> ProviderMetrics:
        run, horizon = self.state, self.horizon
        run.provision.shutdown_client(self.name, self.engine.now)  # bill stragglers
        completed = sum(
            1 for j in run.completed if (j.finish_time or 0.0) <= horizon
        )
        reliability = None
        if run.stats is not None:
            from repro.reliability.stats import completed_goodput_node_seconds

            run.stats.finalize(
                horizon,
                completed_goodput_node_seconds(run.completed, horizon),
            )
            reliability = run.stats.to_payload()
        return ProviderMetrics(
            provider=self.name,
            system="DRP",
            workload=self.name,
            resource_consumption=run.provision.consumption_node_hours(self.name),
            completed_jobs=completed,
            submitted_jobs=self.submitted,
            tasks_per_second=None,
            makespan_s=None,
            adjusted_nodes=run.provision.adjusted_node_count(self.name),
            peak_nodes=run.usage.peak(horizon),
            usage=run.usage,
            reliability=reliability,
        )


class DrpMtcLiveRun(LiveRun):
    """One MTC workflow through DRP, built/loaded but not yet run."""

    def __init__(
        self,
        bundle: WorkloadBundle,
        capacity: int = DEFAULT_DRP_CAPACITY,
        meter: Optional[BillingMeter] = None,
        failures: Optional["FailureModel"] = None,
        seed: int = 0,
    ) -> None:
        _check_drp_failure_model(failures)
        if failures is not None:
            raise ValueError(
                "DRP failure injection is HTC-only (the MTC user pool has "
                "no requeue path); model MTC failures through DawningCloud"
            )
        engine = self.engine = SimulationEngine()
        workflow = self.workflow = bundle.materialize_workflow()
        self.name = bundle.name
        self.pool = _DrpMtcUserPool(engine, bundle.name, capacity, meter=meter)
        JobEmulator(engine).submit_workflow(workflow, self.pool.submit)
        self.horizon = float(bundle.horizon)  # type: ignore[arg-type]

    def complete(self) -> None:
        run_until(self.engine, self.workflow.completed, hard_limit=self.horizon)

    def finish(self) -> ProviderMetrics:
        pool, workflow = self.pool, self.workflow
        pool.teardown()
        completed = len(pool.completed)
        finish = max(t.finish_time for t in workflow.tasks)  # type: ignore[type-var]
        makespan = finish - workflow.submit_time
        return ProviderMetrics(
            provider=self.name,
            system="DRP",
            workload=self.name,
            resource_consumption=pool.provision.consumption_node_hours(self.name),
            completed_jobs=completed,
            submitted_jobs=len(workflow.tasks),
            tasks_per_second=completed / makespan if makespan > 0 else None,
            makespan_s=makespan,
            adjusted_nodes=pool.provision.adjusted_node_count(self.name),
            peak_nodes=pool.usage.peak(self.engine.now),
            usage=pool.usage,
            reliability=None,
        )


def run_drp(
    bundle: WorkloadBundle,
    capacity: int = DEFAULT_DRP_CAPACITY,
    meter: Optional[BillingMeter] = None,
    failures: Optional["FailureModel"] = None,
    seed: int = 0,
) -> ProviderMetrics:
    """Run one bundle through the DRP system."""
    _check_drp_failure_model(failures)
    cls = DrpHtcLiveRun if bundle.kind == "htc" else DrpMtcLiveRun
    return cls(
        bundle, capacity=capacity, meter=meter, failures=failures, seed=seed
    ).run()


class _DrpPooledHtcRun:
    """A cost-aware HTC end user community: per-user node-pool reuse.

    The paper's DRP charges one fresh lease per job, which is what makes
    short-job traces (NASA) *more* expensive than owning (Table 2's
    -25.8%).  The obvious user-side optimization under hourly billing is
    to keep paid-for nodes and pack the next job onto them.  This run
    models that with a :class:`PooledLease` keyed per end user: a job
    first drains its user's idle bucket, and idle leases are returned at
    the next hourly check — the same manual strategy as the MTC pool, but
    per end user, because DRP has no cross-user runtime environment.

    The gap that remains against DawningCloud is therefore exactly the
    value of *sharing*: a queue over one elastic pool spanning all users.
    """

    def __init__(
        self,
        engine: SimulationEngine,
        name: str,
        capacity: int,
        shared: bool = False,
        meter: Optional[BillingMeter] = None,
    ) -> None:
        self.engine = engine
        self.name = name
        self.shared = shared
        self.provision = ResourceProvisionService(capacity, meter=meter)
        self.usage = UsageRecorder(name)
        self.pool = PooledLease(engine, self.provision, name, self.usage)
        self.completed = CompletionLog()
        self.submitted = 0

    def _key(self, job: Job) -> tuple[int, int]:
        # shared: one community bucket per size (cross-user reuse, the
        # strongest manual strategy DRP allows); else per end user
        return (0 if self.shared else job.user_id, job.size)

    def submit(self, job: Job) -> None:
        self.submitted += 1
        lease = self.pool.acquire(job.size, key=self._key(job))
        job.mark_queued(self.engine.now)
        job.mark_running(self.engine.now)
        self.engine.schedule(job.runtime, self._finish, job, lease)

    def _finish(self, job: Job, lease: Lease) -> None:
        self.pool.release(lease)
        job.mark_completed(self.engine.now)
        self.completed.append(job)

    def teardown(self) -> None:
        self.pool.teardown()


class DrpPooledLiveRun(LiveRun):
    """The pooled-DRP HTC ablation, built/loaded but not yet run."""

    def __init__(
        self,
        bundle: WorkloadBundle,
        capacity: int = DEFAULT_DRP_CAPACITY,
        shared: bool = False,
        meter: Optional[BillingMeter] = None,
    ) -> None:
        if bundle.kind != "htc":
            raise ValueError("pooled DRP is an HTC ablation")
        engine = self.engine = SimulationEngine()
        trace = bundle.materialize_trace()
        self.name = bundle.name
        self.shared = shared
        self.state = _DrpPooledHtcRun(engine, bundle.name, capacity,
                                      shared=shared, meter=meter)
        JobEmulator(engine).submit_trace(trace, self.state.submit)
        self.submitted = len(trace)
        self.horizon = float(bundle.horizon)  # type: ignore[arg-type]

    def complete(self) -> None:
        self.engine.run(until=self.horizon)

    def finish(self) -> ProviderMetrics:
        run, horizon = self.state, self.horizon
        run.teardown()
        run.provision.shutdown_client(self.name, self.engine.now)
        completed = sum(
            1 for j in run.completed if (j.finish_time or 0.0) <= horizon
        )
        return ProviderMetrics(
            provider=self.name,
            system="DRP-shared-pool" if self.shared else "DRP-pooled",
            workload=self.name,
            resource_consumption=run.provision.consumption_node_hours(self.name),
            completed_jobs=completed,
            submitted_jobs=self.submitted,
            tasks_per_second=None,
            makespan_s=None,
            adjusted_nodes=run.provision.adjusted_node_count(self.name),
            peak_nodes=run.usage.peak(horizon),
            usage=run.usage,
        )
