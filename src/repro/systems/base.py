"""Workload bundles: what one service provider brings to the cloud.

A :class:`WorkloadBundle` is either an HTC trace or an MTC workflow plus
the context every runner needs (nominal horizon, the fixed configuration a
DCS/SSP system would buy).  Bundles hand out *fresh copies* of their
workload (:meth:`WorkloadBundle.materialize`) because jobs carry mutable
execution state and each system must replay from a clean slate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Optional, TYPE_CHECKING

from repro.workloads.job import Trace
from repro.workloads.workflow import Workflow

HOUR = 3600.0

#: MTC horizon safety factor: runners stop at workflow *completion*, so the
#: horizon is only a runaway guard.  A workflow can never take longer than
#: ``critical_path + total_work`` on one node; the critical path is padded
#: ``×10`` so pathological schedules (a starved one-node TRE executing the
#: chain serially, schedulers that hold tasks for whole scan intervals)
#: still finish inside the guard rather than tripping it.
MTC_HORIZON_CP_FACTOR = 10.0


@dataclass
class WorkloadBundle:
    """One service provider's workload and its fixed-system configuration."""

    name: str
    kind: Literal["htc", "mtc"]
    trace: Optional[Trace] = None
    workflow: Optional[Workflow] = None
    fixed_nodes: Optional[int] = None
    horizon: Optional[float] = None

    def __post_init__(self) -> None:
        # Error messages name the bundle and kind: bundles are routinely
        # built from declarative specs, where "needs a trace" without a
        # culprit is undebuggable.
        if self.kind == "htc":
            if self.trace is None or self.workflow is not None:
                raise ValueError(
                    f"bundle {self.name!r} (kind 'htc') needs a trace and "
                    f"no workflow; got trace={self.trace!r}, "
                    f"workflow={self.workflow!r}"
                )
            if self.fixed_nodes is None:
                # §4.4: DCS/SSP sized to the trace's maximal requirement,
                # which equals the recorded machine size for both traces.
                self.fixed_nodes = self.trace.machine_nodes
            if self.horizon is None:
                self.horizon = self.trace.duration
        elif self.kind == "mtc":
            if self.workflow is None or self.trace is not None:
                raise ValueError(
                    f"bundle {self.name!r} (kind 'mtc') needs a workflow "
                    f"and no trace; got workflow={self.workflow!r}, "
                    f"trace={self.trace!r}"
                )
            if self.fixed_nodes is None:
                # §4.4: "the accumulated resource demand in most of the
                # running time" — the width of the workflow's steady level
                # (166 for Montage: the projection/background stages).
                self.fixed_nodes = len(self.workflow.levels()[0])
            if self.horizon is None:
                cp = self.workflow.critical_path_length()
                work = self.workflow.total_work()
                self.horizon = (
                    self.workflow.submit_time
                    + MTC_HORIZON_CP_FACTOR * cp
                    + work
                )
        else:
            raise ValueError(
                f"bundle {self.name!r}: kind must be 'htc' or 'mtc', "
                f"got {self.kind!r}"
            )
        if self.fixed_nodes is not None and self.fixed_nodes <= 0:
            raise ValueError(
                f"bundle {self.name!r} (kind {self.kind!r}): fixed_nodes "
                f"must be positive, got {self.fixed_nodes}"
            )

    # ------------------------------------------------------------------ #
    def materialize_trace(self) -> Trace:
        if self.trace is None:
            raise ValueError(f"bundle {self.name!r} is not an HTC bundle")
        return self.trace.copy()

    def materialize_workflow(self) -> Workflow:
        if self.workflow is None:
            raise ValueError(f"bundle {self.name!r} is not an MTC bundle")
        return self.workflow.clone()

    @property
    def n_jobs(self) -> int:
        if self.kind == "htc":
            return len(self.trace)  # type: ignore[arg-type]
        return len(self.workflow.tasks)  # type: ignore[union-attr]

    @staticmethod
    def from_trace(name: str, trace: Trace) -> "WorkloadBundle":
        return WorkloadBundle(name=name, kind="htc", trace=trace)

    @staticmethod
    def from_workflow(
        name: str, workflow: Workflow, fixed_nodes: Optional[int] = None
    ) -> "WorkloadBundle":
        return WorkloadBundle(
            name=name, kind="mtc", workflow=workflow, fixed_nodes=fixed_nodes
        )


class LiveRun:
    """A built-but-unfinished simulation: advance, snapshot, fork, finish.

    Every system runner now splits into *build* (the subclass constructor:
    engine, servers, injected workload — no events executed), *advance*
    (:meth:`complete`, or :meth:`advance_before` for a partial run),
    and *finalize* (:meth:`finish`, which tears down and prices the run
    into metrics).  :meth:`snapshot` freezes the whole world mid-run;
    restoring the snapshot yields another LiveRun that continues
    byte-identically to a run that was never interrupted.
    """

    engine: "SimulationEngine"

    def advance_before(self, time: float) -> int:
        """Execute every event strictly before ``time`` (exact boundary)."""
        return self.engine.advance_before(time)

    def fast_forward(self, time: float) -> None:
        """Jump the clock to ``time`` without executing events.

        Delegates to :meth:`SimulationEngine.fast_forward` (which refuses
        to step over live events); the fluid tier uses this to exit a
        closed-form window at its boundary.
        """
        self.engine.fast_forward(time)

    def snapshot(self, label: str = "") -> "EngineSnapshot":
        """Freeze this world; ``snapshot().restore()`` forks a branch."""
        from repro.simkit.snapshot import snapshot_world

        return snapshot_world(self, self.engine, label)

    def fork(self) -> "LiveRun":
        """A live branch of this run: ``snapshot().restore()``.

        Both this run and the branch continue independently and
        byte-identically to runs that were never branched; they share
        only the jobs already completed, which never change again.
        """
        from repro.simkit.snapshot import fork_world

        return fork_world(self, self.engine)

    def complete(self) -> None:  # pragma: no cover - subclass contract
        raise NotImplementedError

    def finish(self):  # pragma: no cover - subclass contract
        raise NotImplementedError

    def run(self):
        """Convenience: complete the simulation and finalize metrics."""
        self.complete()
        return self.finish()


if TYPE_CHECKING:  # pragma: no cover
    from repro.simkit.engine import SimulationEngine
    from repro.simkit.snapshot import EngineSnapshot


def run_until(engine, predicate, hard_limit: float, max_steps: int = 50_000_000) -> None:
    """Step the engine until ``predicate()`` holds (or limits are hit).

    Periodic timers keep the event heap non-empty forever, so MTC runs
    (which end at workflow completion, not at a wall-clock horizon) step
    the engine under a predicate instead of using ``run(until=...)``.
    """
    steps = 0
    while not predicate():
        if engine.now > hard_limit:
            raise RuntimeError(f"run exceeded hard limit t={hard_limit}")
        if not engine.step():
            break
        steps += 1
        if steps > max_steps:
            raise RuntimeError("run exceeded step budget")
