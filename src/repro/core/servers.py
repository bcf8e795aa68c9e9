"""Runtime-environment servers.

A :class:`REServer` is the paper's "HTC server"/"MTC server": it accepts
submissions, keeps the job queue, dispatches jobs onto the nodes its TRE
currently owns, and tracks completion metrics.  Resource *resizing* is not
its business — that is attached separately by
:class:`repro.provisioning.policies.ConsolidatedAllocation` (DawningCloud) or
fixed once at startup (DCS/SSP), which is exactly the paper's separation
between the server and the resource provision service.

Dispatching happens inside the periodic scan (per minute for HTC, per
three seconds for MTC, §3.2.2) — the cadence at which the emulated servers
load jobs — and at job-completion instants for workflow tasks' readiness
bookkeeping.

Idle-gap fast-forward: two-week traces contain long quiet stretches in
which every scan is a provable no-op (nothing queued, nothing to resize),
yet the scan timer used to wake the engine 60×/hour through all of them.
The server now *suspends* its scan timer after a scan that did nothing and
re-arms it — on the same grid instants, see
:class:`~repro.simkit.timers.PeriodicTimer` — as soon as its observable
state changes (a submission, a completion, a resource grant/withdrawal).
Suspension is gated so results stay bit-identical: it requires every
attached resize hook to be quiescence-safe (pure and inert at zero demand;
stateful policies such as the EWMA predictor clear
:attr:`REServer.idle_scan_suspend`), and scans with a non-empty queue are
only skipped when the scheduler declares itself time-independent
(backfilling policies re-evaluate reservations against the clock, so they
keep their cadence).

Scope of the guarantee: exact for workloads whose event times are in
general position (every built-in generator draws continuous runtimes).
Integer-runtime traces (real SWF replays) can produce the one residual
corner — two completions at the same grid instant whose start times
straddle the previous instant (see :meth:`REServer._finish`) — where
dispatch may shift by one scan interval relative to the un-suspended
execution.  Replays that need exactness under that tie pattern can set
``server.idle_scan_suspend = False`` to keep the full cadence.

The server counts *ready* tasks only in its queue: the MTC server parses
the workflow and releases a task to the scheduler once its dependencies
completed, so "jobs in queue" (the policy's demand input) are tasks that
could run now, matching §3.1.1's description of dependency-driven job flow.
"""

from __future__ import annotations

from bisect import bisect_right
from operator import attrgetter
from typing import TYPE_CHECKING, Callable, Optional

from repro.metrics.timeseries import UsageRecorder
from repro.scheduling.base import RunningJob, Scheduler
from repro.scheduling.queue import JobQueue
from repro.simkit.engine import SimulationEngine
from repro.simkit.events import Event
from repro.simkit.timers import PeriodicTimer
from repro.workloads.job import CompletionLog, Job
from repro.workloads.workflow import Workflow

if TYPE_CHECKING:  # pragma: no cover - reliability is an optional layer
    from repro.reliability.checkpoint import CheckpointPolicy
    from repro.reliability.stats import ReliabilityStats


class FaultToleranceState:
    """Per-server bookkeeping that exists only when failures are modelled.

    The no-failure fast path never allocates one of these: ``REServer``
    keeps a single ``self._fault is None`` check on its job start/finish
    paths (asserted in ``benchmarks/perf_smoke.py``), so runs without a
    failure model execute exactly the pre-reliability event sequence.

    Kill/requeue/waste counters live on one shared
    :class:`~repro.reliability.stats.ReliabilityStats` (the injector
    passes its own), so the server-attached and DRP accounting paths use
    the same primitives and cannot drift.
    """

    __slots__ = ("checkpoint", "stats", "remaining", "finish_events")

    def __init__(
        self,
        checkpoint: Optional["CheckpointPolicy"] = None,
        stats: Optional["ReliabilityStats"] = None,
    ) -> None:
        if stats is None:
            from repro.reliability.stats import ReliabilityStats

            stats = ReliabilityStats()
        self.checkpoint = checkpoint
        self.stats = stats
        #: job_id -> remaining useful work (absent = never interrupted)
        self.remaining: dict[int, float] = {}
        #: job_id -> the pending completion event (cancellable on kill)
        self.finish_events: dict[int, Event] = {}


class REServer:
    """Queue + dispatch engine for one runtime environment.

    Parameters
    ----------
    engine:
        Shared simulation engine.
    name:
        Client name used in leases/metrics (the service provider).
    scheduler:
        Scheduling policy (first-fit for HTC, FCFS for MTC per §4.4).
    scan_interval_s:
        Dispatch/scan cadence. The attached resource manager (if any)
        piggybacks its resize decision on the same scan, mirroring the
        paper's server loop.
    """

    def __init__(
        self,
        engine: SimulationEngine,
        name: str,
        scheduler: Scheduler,
        scan_interval_s: float,
    ) -> None:
        self.engine = engine
        self.name = name
        self.scheduler = scheduler
        self.queue = JobQueue()
        self.running: dict[int, RunningJob] = {}
        self.usage = UsageRecorder(name)
        self._owned = 0
        self.used = 0
        self.submitted_jobs = 0
        #: completion log, appended at ``engine.now`` by ``_finish`` (and in
        #: finish order by the fluid tier's replay), so it is in
        #: non-decreasing ``finish_time`` order: ``completed_by`` bisects it
        self.completed = CompletionLog()
        self._workflows: list[Workflow] = []
        self._wf_of_task: dict[int, Workflow] = {}
        #: called at every scan, before dispatch (resize hook); a truthy
        #: return value marks the scan as having *acted* (issued a request)
        self.pre_dispatch_hooks: list[Callable[[], object]] = []
        #: called when a workflow finishes (TRE destruction hook)
        self.on_workflow_complete: list[Callable[[Workflow], None]] = []
        #: called whenever ``idle`` grows (a grant, a completion, a kill) —
        #: the wake signal for consumers with their own suspended cadence
        #: (the hourly release checks)
        self.idle_increase_hooks: list[Callable[[], None]] = []
        #: idle-gap fast-forward master switch: hooks that are not
        #: quiescence-safe (stateful policies) clear this at attach time
        self.idle_scan_suspend = True
        #: fault-tolerance bookkeeping; None = failure machinery fully off
        self._fault: Optional[FaultToleranceState] = None
        self._sched_time_independent = bool(
            getattr(scheduler, "time_independent", False)
        )
        self._scan_timer = PeriodicTimer(engine, scan_interval_s, self._scan)
        self._scan_timer.start()
        self._stopped = False

    # ------------------------------------------------------------------ #
    # resources
    # ------------------------------------------------------------------ #
    @property
    def owned(self) -> int:
        """Nodes currently owned by this runtime environment."""
        return self._owned

    @property
    def idle(self) -> int:
        return self._owned - self.used

    def add_nodes(self, n: int) -> None:
        """Grow the owned pool by ``n`` (grant arrived)."""
        if n <= 0:
            raise ValueError("must add a positive number of nodes")
        self._owned += n
        self.usage.record(self.engine.now, n)
        self._wake_scan()
        for hook in self.idle_increase_hooks:
            hook()

    def remove_nodes(self, n: int) -> None:
        """Shrink the owned pool by ``n`` idle nodes."""
        if n <= 0:
            raise ValueError("must remove a positive number of nodes")
        if n > self.idle:
            raise ValueError(
                f"{self.name}: cannot remove {n} nodes, only {self.idle} idle"
            )
        self._owned -= n
        self.usage.record(self.engine.now, -n)
        self._wake_scan()

    # ------------------------------------------------------------------ #
    # fault tolerance (active only when a failure model is configured)
    # ------------------------------------------------------------------ #
    @property
    def fault(self) -> Optional[FaultToleranceState]:
        """The fault-tolerance state, or None on the no-failure fast path."""
        return self._fault

    def enable_fault_tolerance(
        self,
        checkpoint: Optional["CheckpointPolicy"] = None,
        stats: Optional["ReliabilityStats"] = None,
    ) -> FaultToleranceState:
        """Switch on kill/requeue (and optionally checkpoint-restart).

        Called once by the failure injector; from here on job completions
        carry cancellable events so a node failure can preempt them.  Jobs
        already running (a failure model attached mid-run, as a what-if
        does) started on the no-failure path, which keeps no handle on
        their finish events: one scan of the heap adopts them.
        """
        if self._fault is None:
            fault = self._fault = FaultToleranceState(checkpoint, stats)
            if self.running:
                finish = self._finish
                for entry in self.engine._heap:
                    event = entry[3]
                    if event.fn == finish:
                        fault.finish_events[event.args[0].job_id] = event
        return self._fault

    def fail_nodes(self, n: int) -> None:
        """Lose ``n`` owned nodes to failures (they must be idle).

        The injector kills victims first (:meth:`kill_running`), so by
        the time the node count drops the failed nodes carry no work.
        """
        if n <= 0:
            raise ValueError("must fail a positive number of nodes")
        if n > self.idle:
            raise RuntimeError(
                f"{self.name}: cannot fail {n} nodes, only {self.idle} idle "
                f"(kill the victims first)"
            )
        self._owned -= n
        self.usage.record(self.engine.now, -n)

    def kill_running(self, job: Job) -> tuple[float, float]:
        """A node failure kills ``job``: cancel, account, requeue.

        The job's progress collapses to its last finished checkpoint
        (everything without a checkpoint policy), it re-enters the queue
        at the tail, and a later scan restarts it on the surviving
        nodes.  Returns ``(elapsed_wall_s, recovered_work_s)``.
        """
        from repro.reliability.checkpoint import collapse_progress

        fault = self._fault
        if fault is None:
            raise RuntimeError(
                f"{self.name}: fault tolerance not enabled; cannot kill jobs"
            )
        if job.job_id not in self.running:
            raise KeyError(f"job {job.job_id} is not running on {self.name}")
        del self.running[job.job_id]
        self.engine.cancel(fault.finish_events.pop(job.job_id))
        self.used -= job.size
        now = self.engine.now
        elapsed = now - (job.start_time or 0.0)
        before = fault.remaining.get(job.job_id, job.runtime)
        after, recovered, wasted_wall = collapse_progress(
            fault.checkpoint, before, elapsed
        )
        fault.remaining[job.job_id] = after
        fault.stats.record_kill(job.size, recovered, wasted_wall)
        job.mark_requeued(now)
        self.queue.push(job)
        self._wake_scan()
        for hook in self.idle_increase_hooks:
            hook()
        return elapsed, recovered

    # ------------------------------------------------------------------ #
    # submission
    # ------------------------------------------------------------------ #
    def submit_job(self, job: Job) -> None:
        """HTC entry point: one independent batch job."""
        if self._stopped:
            return
        self.submitted_jobs += 1
        job.mark_queued(self.engine.now)
        self.queue.push(job)
        self._wake_scan()

    def submit_workflow(self, workflow: Workflow) -> None:
        """MTC entry point: parse the workflow, release ready tasks.

        Mirrors §3.1.2: "the MTC server needs to parse the workflow
        description model ... and then submit a set of jobs with
        dependencies to the MTC scheduler".
        """
        if self._stopped:
            return
        self._workflows.append(workflow)
        for task in workflow.tasks:
            self._wf_of_task[task.job_id] = workflow
        self.submitted_jobs += len(workflow.tasks)
        for task in workflow.release():
            task.mark_queued(self.engine.now)
            self.queue.push(task)
        self._wake_scan()

    # ------------------------------------------------------------------ #
    # scan loop (dispatch cadence)
    # ------------------------------------------------------------------ #
    def _scan(self) -> None:
        # Policy first, then dispatch: the resize rule sees the queue as it
        # accumulated since the last scan and a granted request is used in
        # the same scan.  (This order reproduces the paper's Montage story:
        # at the first scan the 166 ready projections are all still queued,
        # so DR1 = 166 - B and the TRE "adjusts the resources size of the RE
        # to the configurations of the RE in the DCS/SSP system", §4.5.2.)
        acted = False
        for hook in self.pre_dispatch_hooks:
            if hook():
                acted = True
        started = self.dispatch()
        if not self.idle_scan_suspend:
            return
        # Fast-forward whenever the *next* scan is provably a no-op given
        # frozen state: an empty queue makes it one outright (quiescence-
        # safe hooks are inert at zero demand, dispatch has nothing to
        # pick), and a non-empty queue does too when this scan changed
        # nothing and the scheduler's decision cannot move with the clock.
        # Any submission, completion or resource change re-arms the grid.
        if not self.queue._jobs:
            self._scan_timer.suspend()
        elif not acted and not started and self._sched_time_independent:
            self._scan_timer.suspend()

    def _wake_scan(self, include_now: bool = True) -> None:
        """Observable state changed: resume the scan cadence if idling.

        With an empty queue a scan stays a no-op (quiescence-safe hooks are
        inert at zero demand), so only a non-empty queue needs the wakeup.
        ``include_now`` follows :meth:`PeriodicTimer.resume`: wakers whose
        events pre-date the would-be tick arming (arrivals, release checks)
        let a boundary tick fire at the current instant; completion events
        are scheduled after it and push to the next instant.
        """
        timer = self._scan_timer
        if timer._suspended and self.queue._jobs:
            timer.resume(include_now)

    def dispatch(self) -> int:
        """Start whatever the scheduling policy picks; returns the count."""
        queue = self.queue
        if not queue._jobs:
            return 0
        idle = self._owned - self.used
        if idle <= 0:
            return 0  # nothing can start; spare the scheduler the call
        if idle < queue.smallest_demand:
            # No queued job fits, so no legal scheduler can start one
            # (nothing may exceed the free width): skip the policy call
            # every backlogged scan would otherwise pay.
            return 0
        picked = self.scheduler.select(
            self.engine.now,
            queue,
            idle,
            self.running.values(),
        )
        for job in picked:
            self._start(job)
        return len(picked)

    def _start(self, job: Job) -> None:
        if job.size > self.idle:
            raise RuntimeError(
                f"{self.name}: scheduler over-selected (job {job.job_id} needs "
                f"{job.size}, idle {self.idle})"
            )
        self.queue.remove(job)
        self.used += job.size
        now = self.engine.now
        job.mark_running(now)
        fault = self._fault
        if fault is None:
            finish_time = now + job.runtime
            self.running[job.job_id] = RunningJob(job, finish_time)
            self.engine.schedule_at(finish_time, self._finish, job)
            return
        # fault-tolerant start: resume the remaining work (full runtime on
        # a first attempt), stretched by the checkpoint-write overhead
        work = fault.remaining.get(job.job_id, job.runtime)
        wall = (
            fault.checkpoint.segment_wall(work)
            if fault.checkpoint is not None
            else work
        )
        finish_time = now + wall
        self.running[job.job_id] = RunningJob(job, finish_time)
        fault.finish_events[job.job_id] = self.engine.schedule_at(
            finish_time, self._finish, job
        )

    def _finish(self, job: Job) -> None:
        if self._stopped:
            return
        del self.running[job.job_id]
        self.used -= job.size
        fault = self._fault
        if fault is not None:
            fault.finish_events.pop(job.job_id, None)
            # the successful segment's checkpoint writes are paid node
            # time with no application progress: count them as waste
            work = fault.remaining.pop(job.job_id, job.runtime)
            fault.stats.record_write_overhead(job.size, fault.checkpoint, work)
        job.mark_completed(self.engine.now)
        self.completed.append(job)
        workflow = self._wf_of_task.get(job.job_id)
        if workflow is not None:
            now = self.engine.now
            for task in workflow.release(job):
                task.mark_queued(now)
                self.queue.push(task)
            if workflow.completed():
                for hook in list(self.on_workflow_complete):
                    hook(workflow)
        # Boundary semantics for a completion landing exactly on a grid
        # instant T: the finish event was scheduled when the job started.
        # A job started before T - interval was scheduled before the tick
        # at T would have been armed (during the tick at T - interval), so
        # in the un-suspended execution the completion runs first and the
        # scan at T must still fire (include_now).  A job started *at*
        # T - interval scheduled its finish after that arming (re-arm
        # precedes dispatch), so the scan at T ran first and must not be
        # replayed.  (Residual corner: two completions at one grid instant
        # straddling that threshold can still shift dispatch by one scan —
        # unreachable with continuous runtimes, possible only in
        # integer-runtime SWF replays.)
        started_at = job.start_time or 0.0
        self._wake_scan(
            include_now=(self.engine.now - started_at) > self._scan_timer.interval
        )
        for hook in self.idle_increase_hooks:
            hook()

    # ------------------------------------------------------------------ #
    # teardown / metrics
    # ------------------------------------------------------------------ #
    def stop(self) -> None:
        """Stop scanning and ignore further events (TRE destroyed).

        Also drops every registered hook: hooks are bound methods of the
        components that hold this server (the resize policy, the cloud),
        so keeping them would tie a finished world into reference cycles.
        """
        self._stopped = True
        self._scan_timer.stop()
        self.pre_dispatch_hooks.clear()
        self.on_workflow_complete.clear()
        self.idle_increase_hooks.clear()
        if self._owned:
            self.usage.record(self.engine.now, -self._owned)
            self._owned = 0
            self.used = 0

    @property
    def completed_count(self) -> int:
        return len(self.completed)

    def completed_by(self, horizon: float) -> int:
        """Jobs completed at or before ``horizon`` (the Tables 2-3 metric)."""
        return bisect_right(
            self.completed, horizon, key=attrgetter("finish_time")
        )

    def makespan(self) -> Optional[float]:
        """Span from first submission to last completion (MTC metric)."""
        if not self.completed:
            return None
        start = min(j.submit_time for j in self.completed)
        end = max(j.finish_time for j in self.completed)  # type: ignore[type-var]
        return end - start

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<REServer {self.name!r} owned={self._owned} used={self.used} "
            f"queued={len(self.queue)} done={len(self.completed)}>"
        )
