"""The DCS and SSP systems: fixed-size resources plus a queuing RE.

Per §4.1, the emulated SSP and DCS systems are identical machines — two HTC
servers, one MTC server, three schedulers, no resource provision service —
because both hold a fixed-size resource set for the whole workload period.
They differ only in *ownership*:

* **DCS** owns the cluster: consumption is ``size × period`` (node-hours)
  by definition, and no node adjustments ever happen.
* **SSP** leases the same size from the resource provider at RE startup
  and releases it at finalization: the billed node-hours equal DCS's
  figure under the paper's meter, and exactly ``2 × size`` node
  adjustments occur (Figure 14's "SSP has the lowest management
  overhead").

Hence one simulation serves both; ownership is a
:class:`~repro.provisioning.policies.FixedAllocation` with or without a
provision service behind it, and SSP's node-hours flow through the
service's :class:`~repro.provisioning.billing.BillingMeter` (the paper's
per-started-hour meter reproduces the closed form; a per-second meter
bills the same machine very differently).
"""

from __future__ import annotations

from typing import Any, Mapping, Optional, TYPE_CHECKING, Union

from repro.cluster.provision import ResourceProvisionService
from repro.core.servers import REServer
from repro.core.policies import HTC_SCAN_INTERVAL_S, MTC_SCAN_INTERVAL_S
from repro.metrics.accounting import dcs_consumption_node_hours
from repro.metrics.results import ProviderMetrics
from repro.provisioning.billing import BillingMeter
from repro.provisioning.policies import FixedAllocation
from repro.scheduling.fcfs import FcfsScheduler
from repro.scheduling.firstfit import FirstFitScheduler
from repro.simkit.engine import SimulationEngine
from repro.simkit.kernel import resolve_kernel_spec
from repro.systems.base import LiveRun, WorkloadBundle, run_until
from repro.systems.emulator import JobEmulator

if TYPE_CHECKING:  # pragma: no cover - reliability is an optional layer
    from repro.reliability.failures import FailureModel

HOUR = 3600.0


class FixedLiveRun(LiveRun):
    """A DCS/SSP system built and loaded, but with no events executed.

    Construction builds the engine, server, fixed allocation,
    (optional) failure injector and the injected workload.  :meth:`complete` advances to the horizon (HTC) or workflow
    completion (MTC); :meth:`finish` tears down and prices the run.
    Snapshot/fork any time in between.

    ``kernel`` opts into the hybrid fluid/event core (``"numpy"``, a
    ``{"kernel": ..., "materialize": ...}`` mapping, or ``"off"`` to force
    the exact engine; ``None`` defers to ``REPRO_KERNEL``, see
    :mod:`repro.simkit.kernel`).  A hybrid HTC run holds its
    trace back from the event heap; :meth:`complete` then evolves the
    whole horizon in closed form when the fluid tier's gates allow it
    (see :mod:`repro.simkit.fluid`), falling back — byte-identically —
    to the exact engine otherwise.  MTC runs always use the exact engine.
    """

    def __init__(
        self,
        bundle: WorkloadBundle,
        system: str,
        meter: Optional[BillingMeter] = None,
        failures: Optional["FailureModel"] = None,
        seed: int = 0,
        kernel: Union[None, str, Mapping[str, Any]] = None,
    ) -> None:
        engine = self.engine = SimulationEngine()
        emulator = self._emulator = JobEmulator(engine)
        self._kernel = resolve_kernel_spec(kernel)
        self._deferred_trace = None
        self._fluid_summary = None
        #: True once the fluid tier evolved this run in closed form.
        self.fluid_applied = False
        #: Why the fluid tier declined this run (None unless it did).
        self.fluid_decline_reason: Optional[str] = None
        self.system = system
        self.name = bundle.name
        self.kind = bundle.kind
        nodes = self.nodes = int(bundle.fixed_nodes)  # type: ignore[arg-type]

        # SSP leases its block through the provision service (and its
        # meter); DCS owns the machine outright, so nothing to meter.
        self.provision = (
            ResourceProvisionService(nodes, meter=meter) if system == "SSP" else None
        )
        self.injector = None
        self.workflow = None

        if bundle.kind == "htc":
            trace = bundle.materialize_trace()
            self.server = REServer(
                engine, bundle.name, FirstFitScheduler(), HTC_SCAN_INTERVAL_S
            )
            self.allocation = FixedAllocation(
                engine, self.server, nodes, provision=self.provision
            )
            self.allocation.start()
            if failures is not None:
                self.injector = self._make_injector(failures, seed).start()
            if self._kernel is not None:
                # Hybrid: hold the trace columnar until complete() decides
                # between the fluid closed form and exact injection.
                emulator.defer_trace(trace, self.server.submit_job)
                self._deferred_trace = trace
            else:
                emulator.submit_trace(trace, self.server.submit_job)
            self.submitted = len(trace)
        else:
            workflow = self.workflow = bundle.materialize_workflow()
            self.server = REServer(
                engine, bundle.name, FcfsScheduler(), MTC_SCAN_INTERVAL_S
            )
            self.allocation = FixedAllocation(
                engine, self.server, nodes, provision=self.provision
            )
            # the fixed machine exists only for the workload period
            engine.schedule_at(workflow.submit_time, self.allocation.start)
            if failures is not None:
                self.injector = self._make_injector(failures, seed)
                engine.schedule_at(workflow.submit_time, self.injector.start)
            emulator.submit_workflow(workflow, self.server.submit_workflow)
            self.submitted = len(workflow.tasks)
        self.horizon = float(bundle.horizon)  # type: ignore[arg-type]

    def _make_injector(self, failures: "FailureModel", seed: int):
        from repro.reliability.injector import NodeFailureInjector
        from repro.simkit.rng import RandomStreams

        # the fixed machine *is* the slot set; repaired nodes return
        # to the machine (DCS owns them, SSP re-leases per node)
        return NodeFailureInjector(
            self.engine, self.server, failures, RandomStreams(seed),
            n_slots=self.nodes, provision=self.provision, restore="server",
        )

    def _inject_deferred(self) -> None:
        """Exact-mode fallback: load the held-back trace into the heap."""
        self._deferred_trace = None
        self._emulator.inject_deferred()

    def _ensure_exact_mode(self) -> None:
        """Give up the fluid option before any event-granular operation.

        Partial advances, snapshots and forks all observe (or copy) the
        event heap, so a still-deferred trace must be injected first —
        with identical sequence numbers, hence byte-identical evolution.
        """
        if self._deferred_trace is not None:
            self._inject_deferred()

    def advance_before(self, time: float) -> int:
        self._ensure_exact_mode()
        return super().advance_before(time)

    def snapshot(self, label: str = ""):
        self._ensure_exact_mode()
        return super().snapshot(label)

    def fork(self):
        self._ensure_exact_mode()
        return super().fork()

    def complete(self) -> None:
        if self.kind == "htc":
            if self._deferred_trace is not None:
                from repro.simkit.fluid import try_fluid_run

                if try_fluid_run(self):
                    # The fluid tier evolved the whole horizon in closed
                    # form and jumped the clock; nothing left to execute.
                    self._deferred_trace = None
                    self._emulator.clear_deferred()
                    return
                self._inject_deferred()
            self.engine.run(until=self.horizon)
        else:
            run_until(self.engine, self.workflow.completed, hard_limit=self.horizon)

    def finish(self) -> ProviderMetrics:
        server = self.server
        if self.kind == "htc":
            horizon = self.horizon
            self.allocation.teardown()
            server.stop()
            # the machine exists (and DCS pays) for the configured horizon:
            # bundle.horizon defaults to trace.duration, but when a caller
            # extends it (e.g. a repair tail letting requeued jobs finish
            # after the trace period) billing, completions and peaks must
            # all clamp to the *same* instant
            period = horizon
            if self._fluid_summary is not None:
                # Columnar fluid run: no job objects exist to walk.
                completed = self._fluid_summary["completed"]
            else:
                completed = server.completed_by(horizon)
            tasks_per_second = None
            makespan = None
        else:
            makespan = server.makespan()
            self.allocation.teardown()
            server.stop()
            period = makespan or 0.0
            completed = server.completed_count
            tasks_per_second = (
                completed / makespan if makespan and makespan > 0 else None
            )
            horizon = self.engine.now

        if self.provision is not None:
            # SSP: billed through the lease ledger (meter-dependent).
            consumption = self.provision.consumption_node_hours(self.name)
            adjusted = self.provision.adjusted_node_count(self.name)
        else:
            # DCS: owned — the §4.3 closed form, no adjustments ever.
            consumption = dcs_consumption_node_hours(self.nodes, period)
            adjusted = 0
        return ProviderMetrics(
            provider=self.name,
            system=self.system,
            workload=self.name,
            resource_consumption=consumption,
            completed_jobs=completed,
            submitted_jobs=self.submitted,
            tasks_per_second=tasks_per_second,
            makespan_s=makespan,
            adjusted_nodes=adjusted,
            peak_nodes=server.usage.peak(horizon),
            usage=server.usage,
            reliability=(
                self.injector.finalize(horizon)
                if self.injector is not None
                else None
            ),
        )


def run_dcs(
    bundle: WorkloadBundle,
    meter: Optional[BillingMeter] = None,
    failures: Optional["FailureModel"] = None,
    seed: int = 0,
    kernel: Union[None, str, Mapping[str, Any]] = None,
) -> ProviderMetrics:
    """Run a workload on a dedicated cluster system (owned, fixed size)."""
    return FixedLiveRun(
        bundle, "DCS", meter=meter, failures=failures, seed=seed, kernel=kernel
    ).run()


def run_ssp(
    bundle: WorkloadBundle,
    meter: Optional[BillingMeter] = None,
    failures: Optional["FailureModel"] = None,
    seed: int = 0,
    kernel: Union[None, str, Mapping[str, Any]] = None,
) -> ProviderMetrics:
    """Run a workload on a static-service-provision system (leased, fixed)."""
    return FixedLiveRun(
        bundle, "SSP", meter=meter, failures=failures, seed=seed, kernel=kernel
    ).run()
