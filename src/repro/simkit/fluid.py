"""The fluid tier: flow through quiescent loaded time in closed form.

PR 3's idle-gap fast-forward skips *empty* time — scan ticks that
provably do nothing.  This module generalizes it to *loaded* time: for a
fixed-machine HTC run (DCS/SSP) whose whole horizon is one provably
homogeneous window — no scheduling decision can differ from "dispatch
every queued job at the first scan tick after it arrives" — the entire
event evolution has a closed form, computed by the column operations in
:mod:`repro.simkit.kernel` and applied here in one step:

* every job's start is the first grid tick at or after its submission
  (:func:`~repro.simkit.kernel.grid_starts` — bit-identical to the
  timer's product form), its finish is ``start + runtime`` (the same
  float64 add the server performs);
* :class:`~repro.metrics.timeseries.UsageRecorder` integrals and
  :class:`~repro.provisioning.billing.BillingMeter` accruals need no
  correction at all, because a fixed machine's ownership level is
  constant between startup and teardown — the engine clock simply jumps
  (:meth:`~repro.simkit.engine.SimulationEngine.fast_forward`) and the
  boundary events bill exactly as in the exact run;
* the run re-enters exact event mode at the horizon: with
  ``materialize=True`` the world state (job objects, server queue and
  running table, completion list, counters) is reconstructed exactly as
  the exact engine would have left it, so finalization — including
  reliability finalization with zero in-window failures — reads an
  indistinguishable world.

Eligibility is conservative (:func:`fluid_ineligible_reason`): the run
must be fresh, the scheduler time-independent with idle-scan suspension
on, no hooks attached, any failure injector's earliest possible failure
strictly beyond the horizon with no checkpoint policy stretching walls,
and the peak node demand — computed with starts-before-finishes tie
breaking, an overestimate — must fit the machine, so no queueing decision
ever arises (:func:`~repro.simkit.kernel.demand_fits` decides that from
a linear-time upper bound and sorts the events only when the bound does
not clear the machine).  Anything else returns a reason and the caller
falls back to the exact engine (the deferred trace is injected with
identical event sequence numbers, so the fallback is byte-identical to a
never-hybrid run).  MTC/workflow runs, elastic (DawningCloud/DRP)
systems, contended traces and in-window failures are all served by the
exact engine.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.simkit.kernel import KernelSpec, demand_fits, grid_starts

if TYPE_CHECKING:  # pragma: no cover
    from repro.systems.fixed import FixedLiveRun

#: Process-wide counters, for probes and benchmarks (not part of any
#: payload): how often the fluid tier engaged vs fell back to exact mode.
STATS = {"applied": 0, "fallbacks": 0}


def fluid_ineligible_reason(run: "FixedLiveRun") -> Optional[str]:
    """Why this run must use the exact engine, or None if fluid is safe."""
    server = run.server
    if run.kind != "htc":
        return "MTC/workflow runs use the exact engine"
    if run.engine.executed_events or run.engine.now != 0.0:
        return "events already executed (not a fresh run)"
    if getattr(run, "_deferred_trace", None) is None:
        return "workload already injected into the event heap"
    if run._emulator.speedup != 1.0:
        return "emulator speedup rescales submission times"
    if not server._sched_time_independent:
        return "scheduler is time-dependent (clock-reading decisions)"
    if not server.idle_scan_suspend:
        return "idle-scan suspension disabled (stateful hook attached)"
    if (
        server.pre_dispatch_hooks
        or server.idle_increase_hooks
        or server.on_workflow_complete
    ):
        return "server has attached hooks (elastic resizing / consumers)"
    if server._stopped or len(server.queue) or server.running:
        return "server already carries live state"
    if server.owned <= 0:
        return "server owns no nodes"
    if run.injector is not None:
        fault = server.fault
        if fault is not None and fault.checkpoint is not None:
            return "checkpoint policy stretches job wall times"
        bound = run.injector.earliest_failure_bound()
        if not bound > run.horizon:
            return "a failure can fire within the horizon"
    return None


def try_fluid_run(run: "FixedLiveRun") -> bool:
    """Attempt the closed-form evolution of a deferred fixed HTC run.

    Returns True when the fluid tier applied (the run is advanced to its
    horizon and carries exact-equivalent state); False when any gate
    failed — the caller then injects the deferred workload and runs the
    exact engine.  Only structural state is touched on False, and
    ``run.fluid_decline_reason`` names the gate that refused.
    """
    reason = fluid_ineligible_reason(run)
    if reason is not None:
        return _decline(run, reason)

    trace = run._deferred_trace
    spec: KernelSpec = run._kernel
    server = run.server
    timer = server._scan_timer
    horizon = run.horizon
    nodes = server.owned

    arrays = trace.arrays
    submit = arrays.submit
    sizes = arrays.size
    runtimes = arrays.runtime
    n = len(submit)
    if n and int(sizes.max()) > nodes:
        return _decline(run, "a job is wider than the machine")

    starts = grid_starts(submit, timer.interval, timer._epoch)
    finishes = starts + runtimes
    if not demand_fits(starts, finishes, sizes, nodes):
        return _decline(run, "peak node demand exceeds the machine")

    if spec.materialize or run.injector is not None:
        # Full fidelity: reconstruct the exact engine's world at the
        # horizon (reliability finalization walks server.completed, so an
        # armed injector always takes this path).
        _apply_materialized(run, trace, starts, finishes, horizon)
    else:
        _apply_columnar(run, submit, finishes, horizon)

    # Exit the window: drop the armed scan tick, jump the clock to the
    # horizon (only strictly-later events — armed failure clocks — may
    # remain in the heap), and bring time-accruing provisioning state to
    # the boundary.  server.stop()/teardown() in finish() then execute at
    # exactly the instant the exact run would have reached.
    timer.stop()
    run.engine.fast_forward(horizon)
    if run.provision is not None:
        run.provision.fast_forward(horizon)
    run.fluid_applied = True
    STATS["applied"] += 1
    return True


def _decline(run: "FixedLiveRun", reason: str) -> bool:
    run.fluid_decline_reason = reason
    STATS["fallbacks"] += 1
    return False


def _apply_materialized(
    run: "FixedLiveRun",
    trace,
    starts: np.ndarray,
    finishes: np.ndarray,
    horizon: float,
) -> None:
    """Reconstruct full job-object state as of the horizon.

    ``run(until=horizon)`` executes events scheduled exactly *at* the
    horizon, so every boundary below is inclusive: a job is COMPLETED iff
    ``finish <= horizon``, RUNNING iff ``start <= horizon < finish``,
    QUEUED iff ``submit <= horizon < start``, and untouched (PENDING)
    otherwise.
    """
    from repro.scheduling.base import RunningJob

    server = run.server
    jobs = trace.jobs  # trace order == submission order == queue order
    submitted = 0
    start_list = starts.tolist()
    finish_list = finishes.tolist()
    n = len(jobs)

    # Arrival replay, in trace order: the queue's insertion order for
    # jobs still waiting at the horizon is their arrival order.
    for i, job in enumerate(jobs):
        if job.submit_time > horizon:
            continue
        submitted += 1
        job.mark_queued(job.submit_time)
        if start_list[i] > horizon:
            server.queue.push(job)
    # Dispatch replay, in (start tick, trace index) order — the order the
    # scans started jobs, which the running table's insertion preserves.
    dispatch_order = np.lexsort((np.arange(n), starts))
    for i in dispatch_order.tolist():
        start = start_list[i]
        if start > horizon:
            continue
        job = jobs[i]
        job.mark_running(start)
        if finish_list[i] > horizon:
            server.running[job.job_id] = RunningJob(job, finish_list[i])
            server.used += job.size
    # Completion replay, in finish-event order (finish, start, trace
    # index): starts order the seqs of simultaneous finishes, trace order
    # breaks exact ties (same-instant dispatches were queued in trace
    # order).
    completion_order = np.lexsort((np.arange(n), starts, finishes))
    completed = server.completed
    for i in completion_order.tolist():
        if finish_list[i] <= horizon:
            jobs[i].mark_completed(finish_list[i])
            completed.append(jobs[i])
    server.submitted_jobs = submitted
    run.submitted = len(trace)


def _apply_columnar(
    run: "FixedLiveRun",
    submit: np.ndarray,
    finishes: np.ndarray,
    horizon: float,
) -> None:
    """Aggregate-only evolution: no per-job Python objects are created.

    The scale path (``materialize=False``): only the counters the fixed
    runners' finalization reads are produced.  ``FixedLiveRun.finish``
    consumes ``_fluid_summary`` instead of walking ``server.completed``.
    """
    run.server.submitted_jobs = int(np.count_nonzero(submit <= horizon))
    run.submitted = int(len(submit))
    run._fluid_summary = {
        "completed": int(np.count_nonzero(finishes <= horizon)),
    }
