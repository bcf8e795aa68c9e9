"""The long-lived simulation service: ingest, advance, fork, finish.

A :class:`SimulationService` owns one built-but-unrun
:class:`~repro.systems.base.LiveRun` whose workload starts *empty*:
every job arrives later through :meth:`~SimulationService.submit` or
:meth:`~SimulationService.submit_batch`, which schedule arrival events
on the live engine.  The service is therefore just more world state
riding on the engine — which is the whole design: a what-if query (see
:mod:`repro.serving.whatif`) takes one
:func:`~repro.simkit.snapshot.snapshot_world` snapshot with the service
as the world root and restores its branches from it, so pending-arrival
events, ingest counters and rolling metric cursors all branch
consistently.

Admission control
-----------------
Ingest is bounded and monotonic:

* a job whose ``submit_time`` lies before the engine clock is rejected
  with :class:`AdmissionError` (the past already happened — admitting it
  would raise inside the engine anyway, later and less clearly);
* a job whose ``submit_time`` lies past the service horizon is rejected
  (the machine will not exist to run it);
* a job whose id collides with a still-pending arrival is rejected
  (pending ids key the cancellation map what-if load deltas use);
* once ``max_pending`` arrivals are in flight, further ingest raises
  :class:`BackPressureError` until :meth:`advance_to` drains some —
  back-pressure, not silent buffering.

Batches are admitted atomically: one bad job (or a batch that would
overflow ``max_pending``) rejects the whole batch before any of it is
scheduled.

Snapshot consistency
--------------------
All service methods run *between* engine callbacks (the engine is never
left mid-event), so every metric read and every snapshot observes a
world on an event boundary — the same guarantee
:func:`~repro.simkit.snapshot.snapshot_world` enforces by refusing a
running engine.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Optional, Sequence, Union

from repro.api.spec import ServiceSpec
from repro.workloads.job import CompletionLog, Job, Trace, TraceArrays

if TYPE_CHECKING:  # pragma: no cover
    from repro.simkit.snapshot import EngineSnapshot

#: Base for service-allocated job ids (what-if load clones); far above
#: any real trace id so clones never collide with operator-submitted ids.
CLONE_ID_BASE = 10**9


class AdmissionError(ValueError):
    """Ingest rejected a job: stale timestamp, duplicate id, past horizon."""


class BackPressureError(AdmissionError):
    """Ingest rejected a job: too many arrivals already in flight."""


class ServiceClosedError(RuntimeError):
    """The service was shut down; no further operations are possible."""


class SimulationService:
    """One live simulated system, served incrementally.

    Built via :func:`build_service` (from a :class:`ServiceSpec`) or
    directly from any HTC :class:`~repro.systems.base.LiveRun` that has
    not executed events yet.  MTC live runs are refused: a workflow is
    submitted whole, which contradicts streaming ingest.
    """

    def __init__(
        self,
        live,
        *,
        name: str = "service",
        window_s: float = 3600.0,
        slo_wait_s: float = 3600.0,
        max_pending: int = 100_000,
        seed: int = 0,
        machine_nodes: Optional[int] = None,
    ) -> None:
        if getattr(live, "workflow", None) is not None or (
            getattr(live, "kind", "htc") == "mtc"
        ):
            raise ValueError(
                "SimulationService needs an HTC live run (streaming job "
                "ingest); MTC workflows are submitted whole"
            )
        if window_s <= 0:
            raise ValueError("window_s must be positive")
        if max_pending <= 0:
            raise ValueError("max_pending must be positive")
        self.live = live
        self.engine = live.engine
        self.name = name
        self.window_s = float(window_s)
        self.slo_wait_s = float(slo_wait_s)
        self.max_pending = int(max_pending)
        self.seed = int(seed)
        #: the fixed-system scale what-if deltas size themselves to
        #: (failure slot sets, reserved-meter defaults)
        if machine_nodes is None:
            machine_nodes = getattr(live, "nodes", None)
        if machine_nodes is None:
            raise ValueError(
                "machine_nodes is required for live runs that do not "
                "carry a fixed size (DawningCloud)"
            )
        self.machine_nodes = int(machine_nodes)
        # Every serving op is event-granular (ingest, partial advances,
        # snapshots), so a hybrid live run gives up its fluid option once,
        # here: its boot trace goes onto the heap before anything else.
        if hasattr(live, "_ensure_exact_mode"):
            live._ensure_exact_mode()
        #: still-pending arrivals: job_id -> (job, arrival event)
        self._pending_map: dict[int, tuple[Job, object]] = {}
        self.ingested = 0
        self.rejected = 0
        self.cancelled = 0
        self._clone_seq = 0
        self._closed = False
        # rolling-metrics cursor over the server's completion log
        # (extended incrementally; see repro.serving.metrics); the
        # per-completion entries are append-only and immutable, so
        # snapshots carry them by reference like the log itself
        self._metrics_cursor = 0
        self._finish_times = CompletionLog()  # floats
        self._work_done = CompletionLog()  # floats
        self._slo_ok = CompletionLog()  # bools

    # ------------------------------------------------------------------ #
    @property
    def now(self) -> float:
        return self.engine.now

    @property
    def horizon(self) -> float:
        return float(self.live.horizon)

    @property
    def pending_arrivals(self) -> int:
        return len(self._pending_map)

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def server(self):
        """The runtime-environment server jobs land on (fixed or TRE)."""
        live = self.live
        if hasattr(live, "server"):
            return live.server
        return live.cloud.tre(live.name).server

    # ------------------------------------------------------------------ #
    # ingest
    # ------------------------------------------------------------------ #
    def _admit(self, job: Job) -> None:
        now = self.engine.now
        if job.submit_time < now:
            self.rejected += 1
            raise AdmissionError(
                f"job {job.job_id} arrives at t={job.submit_time}, clock is "
                f"already at t={now}; ingest is monotonic"
            )
        if job.submit_time > self.horizon:
            self.rejected += 1
            raise AdmissionError(
                f"job {job.job_id} arrives at t={job.submit_time}, past the "
                f"service horizon t={self.horizon}"
            )
        if job.job_id in self._pending_map:
            self.rejected += 1
            raise AdmissionError(
                f"job id {job.job_id} is already pending arrival"
            )

    def submit(self, job: Job) -> None:
        """Admit one job; its arrival fires at ``job.submit_time``."""
        self._check_open()
        if len(self._pending_map) >= self.max_pending:
            self.rejected += 1
            raise BackPressureError(
                f"{len(self._pending_map)} arrivals already in flight "
                f"(max_pending={self.max_pending}); advance the service "
                f"before submitting more"
            )
        self._admit(job)
        event = self.engine.schedule_at(job.submit_time, self._arrive, job)
        self._pending_map[job.job_id] = (job, event)
        self.ingested += 1

    def submit_batch(
        self, jobs: Union[TraceArrays, Trace, Sequence[Job], Iterable[Job]]
    ) -> int:
        """Atomically admit a batch (columnar or job objects).

        Validates every job before scheduling any, then bulk-loads the
        arrival events through the engine's O(n) ``schedule_batch``.
        Returns the number of jobs admitted.
        """
        self._check_open()
        if isinstance(jobs, Trace):
            batch = list(jobs.jobs)
        elif isinstance(jobs, TraceArrays):
            batch = jobs.to_jobs()
        else:
            batch = list(jobs)
        if not batch:
            return 0
        if len(self._pending_map) + len(batch) > self.max_pending:
            self.rejected += len(batch)
            raise BackPressureError(
                f"batch of {len(batch)} would put "
                f"{len(self._pending_map) + len(batch)} arrivals in flight "
                f"(max_pending={self.max_pending})"
            )
        seen: set[int] = set()
        for job in batch:
            self._admit(job)
            if job.job_id in seen:
                self.rejected += 1
                raise AdmissionError(
                    f"batch contains job id {job.job_id} twice"
                )
            seen.add(job.job_id)
        entries = [(job.submit_time, self._arrive, (job,)) for job in batch]
        events = self.engine.schedule_batch(entries)
        for job, event in zip(batch, events):
            self._pending_map[job.job_id] = (job, event)
        self.ingested += len(batch)
        return len(batch)

    def _arrive(self, job: Job) -> None:
        """Arrival event body: hand the job to the live system's server.

        A bound method on the service (not a closure) so pending
        arrivals pickle with the world into snapshots.
        """
        self._pending_map.pop(job.job_id, None)
        live = self.live
        if hasattr(live, "submitted"):
            # fixed live runs count submissions themselves (their boot
            # trace was empty, so every real submission happens here)
            live.submitted += 1
        self.server.submit_job(job)

    def cancel_pending(self, job_id: int) -> bool:
        """Withdraw a not-yet-fired arrival (what-if load shedding)."""
        self._check_open()
        entry = self._pending_map.pop(job_id, None)
        if entry is None:
            return False
        self.engine.cancel(entry[1])
        self.cancelled += 1
        return True

    def pending_jobs(self) -> list[Job]:
        """Still-pending arrivals, in deterministic (time, id) order."""
        return sorted(
            (job for job, _event in self._pending_map.values()),
            key=lambda j: (j.submit_time, j.job_id),
        )

    def next_clone_id(self) -> int:
        """A fresh service-owned job id (what-if load clones)."""
        self._clone_seq += 1
        return CLONE_ID_BASE + self._clone_seq

    # ------------------------------------------------------------------ #
    # time and state
    # ------------------------------------------------------------------ #
    def advance_to(self, time: float) -> int:
        """Execute everything up to and including ``time``; returns the
        number of events executed.  Resumable and monotonic."""
        self._check_open()
        if time < self.engine.now:
            raise ValueError(
                f"cannot advance to t={time}; clock is already at "
                f"t={self.engine.now}"
            )
        if time > self.horizon:
            raise ValueError(
                f"cannot advance to t={time}, past the service horizon "
                f"t={self.horizon}; shutdown() ends the service"
            )
        before = self.engine.executed_events
        self.engine.run(until=time)
        return self.engine.executed_events - before

    def metrics(self) -> dict:
        """Rolling metrics over the trailing window (see serving.metrics)."""
        self._check_open()
        from repro.serving.metrics import collect_rolling

        return collect_rolling(self)

    def snapshot(self) -> "EngineSnapshot":
        """Freeze the whole service world; each ``restore()`` is a branch.

        Pickles *the service* as the world root — counters,
        pending-arrival map and metric cursors branch together with the
        engine.  Branches share the jobs already completed, and each
        restore starts a fresh completion log of them instead of
        unpickling the log job by job (see :mod:`repro.simkit.snapshot`),
        so a snapshot costs the open state, not the session's history.
        """
        self._check_open()
        from repro.simkit.snapshot import snapshot_world

        return snapshot_world(self, self.engine)

    def fork(self) -> "SimulationService":
        """One branch of the whole service world: ``snapshot().restore()``."""
        return self.snapshot().restore()

    def shutdown(self, drain: bool = True) -> dict:
        """End the service and return the final metrics payload.

        ``drain=True`` (default) completes the run to the service
        horizon first — every admitted job gets its chance to finish;
        ``drain=False`` stops the world at the current instant (the
        horizon clamps to *now*, so billing, completions and peaks all
        cut at the same time, and pending arrivals are discarded).
        Either way the engine is disposed once the payload is priced.
        """
        self._check_open()
        if drain:
            self.live.complete()
        else:
            self.live.horizon = self.engine.now
            for job_id in [*self._pending_map]:
                self.cancel_pending(job_id)
            self.live.complete()
        self._closed = True
        payload = self.live.finish().to_payload()
        # the finished world frees itself by reference counting (see
        # SimulationEngine.dispose): arrivals still pending past the
        # horizon no longer tie the service to its engine
        self.engine.dispose()
        return payload

    def _check_open(self) -> None:
        if self._closed:
            raise ServiceClosedError(f"service {self.name!r} is shut down")


#: The runners a service can host: the fixed DCS/SSP machines and the
#: DawningCloud TRE, the live runs the metrics and what-if layers read.
SERVED_RUNNERS = ("dawningcloud", "dcs", "ssp")


def build_service(spec: ServiceSpec, seed: int = 0) -> SimulationService:
    """Boot a :class:`SimulationService` from a declarative spec.

    Materializes an *empty* HTC bundle (``machine_nodes`` wide, alive to
    ``horizon_s``) and builds the spec's system over it via
    :func:`repro.api.run.build_live_system` — same component resolution
    as batch runs, but nothing executed yet; runners outside
    :data:`SERVED_RUNNERS` are refused before anything is built.  The
    engine kernel is whatever the system spec says; the service forces
    exact mode at boot (every serving op is event-granular), and since
    the boot trace is empty the fluid fast-path has nothing to win
    anyway.
    """
    from repro.api.run import build_live_system
    from repro.systems.base import WorkloadBundle

    if spec.system.runner not in SERVED_RUNNERS:
        raise ValueError(
            f"runner {spec.system.runner!r} cannot be served; served "
            f"runners: {list(SERVED_RUNNERS)}"
        )
    trace = Trace(
        spec.name, [],
        machine_nodes=spec.machine_nodes,
        duration=spec.horizon_s,
    )
    bundle = WorkloadBundle(kind="htc", name=spec.name, trace=trace)
    live = build_live_system(spec.system, bundle, seed=seed)
    return SimulationService(
        live,
        name=spec.name,
        window_s=spec.window_s,
        slo_wait_s=spec.slo_wait_s,
        max_pending=spec.max_pending,
        seed=seed,
        machine_nodes=spec.machine_nodes,
    )
