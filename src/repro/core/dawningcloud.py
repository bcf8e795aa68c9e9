"""DawningCloud: the assembled DSP system.

This is the library's flagship entry point.  A :class:`DawningCloud`
instance owns one resource provider (node pool + provision service + CSF)
and any number of MTC/HTC service providers, each with its own TRE and
resource-management policy.  Typical use::

    from repro.core import DawningCloud, ResourceManagementPolicy
    from repro.workloads import generate_nasa_ipsc, generate_montage

    cloud = DawningCloud(capacity=2000)
    cloud.add_htc_provider("nasa", ResourceManagementPolicy.for_htc(40, 1.2))
    cloud.add_mtc_provider("montage", ResourceManagementPolicy.for_mtc(10, 8.0))
    cloud.submit_trace("nasa", generate_nasa_ipsc())
    cloud.submit_workflow("montage", generate_montage())
    cloud.run(until=14 * 24 * 3600.0)
    print(cloud.provider_metrics("nasa"))

MTC TREs are destroyed automatically when their last workflow completes
(the service provider's §2.2 step 6-8 walk), so their leases are billed for
the workload period only; HTC TREs run until :meth:`DawningCloud.shutdown`
or the end of :meth:`DawningCloud.run`.
"""

from __future__ import annotations

from functools import partial
from typing import Optional

from repro.cluster.lease import HOUR
from repro.cluster.provision import ResourceProvisionService
from repro.cluster.setup import SetupPolicy
from repro.core.csf import CommonServiceFramework
from repro.provisioning.billing import BillingMeter
from repro.core.policies import ResourceManagementPolicy
from repro.core.tre import RuntimeEnvironmentSpec, ThinRuntimeEnvironment
from repro.metrics.results import ProviderMetrics, ResourceProviderMetrics
from repro.simkit.engine import SimulationEngine
from repro.workloads.job import Trace
from repro.workloads.workflow import Workflow


class DawningCloud:
    """One resource provider consolidating MTC and HTC service providers."""

    SYSTEM_NAME = "DawningCloud"

    def __init__(
        self,
        capacity: int = 5000,
        lease_unit_s: float = HOUR,
        setup_policy: SetupPolicy = SetupPolicy(),
        engine: Optional[SimulationEngine] = None,
        meter: Optional[BillingMeter] = None,
    ) -> None:
        self.engine = engine or SimulationEngine()
        self.provision = ResourceProvisionService(
            capacity, lease_unit=lease_unit_s, setup_policy=setup_policy,
            meter=meter,
        )
        self.csf = CommonServiceFramework(self.engine, self.provision)
        self._tres: dict[str, ThinRuntimeEnvironment] = {}
        self._workloads: dict[str, str] = {}
        self._pending_workflows: dict[str, int] = {}
        self._destroyed_at: dict[str, float] = {}

    # ------------------------------------------------------------------ #
    # provider management
    # ------------------------------------------------------------------ #
    def add_htc_provider(
        self,
        name: str,
        policy: Optional[ResourceManagementPolicy] = None,
        create_at: float = 0.0,
        scheduler_factory=None,
    ) -> None:
        spec = RuntimeEnvironmentSpec(
            provider=name,
            kind="htc",
            policy=policy or ResourceManagementPolicy.for_htc(),
            scheduler_factory=scheduler_factory,
        )
        self._add(spec, auto_destroy=False, create_at=create_at)

    def add_mtc_provider(
        self,
        name: str,
        policy: Optional[ResourceManagementPolicy] = None,
        auto_destroy: bool = True,
        create_at: float = 0.0,
        scheduler_factory=None,
    ) -> None:
        """Register an MTC provider whose TRE is created *on demand*.

        ``create_at`` is when the service provider requests its RE — for
        consolidated runs this is the workflow submission instant, so the
        TRE (and its initial-resource lease) exists only for the workload
        period, per the DSP usage pattern (§2.2 steps 1-2).
        """
        spec = RuntimeEnvironmentSpec(
            provider=name,
            kind="mtc",
            policy=policy or ResourceManagementPolicy.for_mtc(),
            scheduler_factory=scheduler_factory,
        )
        self._add(spec, auto_destroy=auto_destroy, create_at=create_at)

    def _add(
        self, spec: RuntimeEnvironmentSpec, auto_destroy: bool, create_at: float
    ) -> None:
        name = spec.provider
        if name in self._pending_workflows:
            raise ValueError(f"provider {name!r} already registered")
        self._pending_workflows[name] = 0
        if create_at <= self.engine.now:
            self._create_tre(spec, auto_destroy)
        else:
            # priority -1: the TRE exists before same-instant submissions.
            # Bound method, not a closure: pending events must survive
            # engine snapshots, which pickle bound methods with their
            # instance and refuse closures.
            self.engine.schedule_at(
                create_at, self._create_tre, spec, auto_destroy, priority=-1,
            )

    def _create_tre(self, spec: RuntimeEnvironmentSpec, auto_destroy: bool) -> None:
        name = spec.provider
        tre = self.csf.create_tre(spec, dynamic=True)
        self._tres[name] = tre
        if auto_destroy and spec.kind == "mtc":
            tre.server.on_workflow_complete.append(
                partial(self._workflow_complete_hook, name)
            )

    def _workflow_complete_hook(self, name: str, workflow: Workflow) -> None:
        self._on_workflow_complete(name)

    def tre(self, name: str) -> ThinRuntimeEnvironment:
        """The provider's TRE (once created)."""
        return self._tres[name]

    def destroy_provider(self, name: str) -> None:
        if name not in self._tres:
            raise KeyError(f"unknown provider {name!r}")
        self._destroyed_at[name] = self.engine.now
        self.csf.destroy_tre(name)

    def _on_workflow_complete(self, name: str) -> None:
        self._pending_workflows[name] -= 1
        if self._pending_workflows[name] <= 0 and name not in self._destroyed_at:
            self.destroy_provider(name)

    # ------------------------------------------------------------------ #
    # workload injection (the paper's job emulator)
    # ------------------------------------------------------------------ #
    def submit_trace(self, provider: str, trace: Trace) -> None:
        """Schedule every job of an HTC trace for submission (bulk-loaded)."""
        self._workloads[provider] = trace.name
        tre = self._tres.get(provider)
        if tre is not None:
            # TRE already exists (standalone runs): bind the server's
            # submit directly, sparing one indirection per arrival event.
            sink = tre.server.submit_job
            items = [(job.submit_time, sink, (job,)) for job in trace]
        else:
            items = [
                (job.submit_time, self._submit_job, (provider, job))
                for job in trace
            ]
        self.engine.schedule_batch(items)

    def _submit_job(self, provider: str, job) -> None:
        self._tres[provider].server.submit_job(job)

    def submit_workflow(self, provider: str, workflow: Workflow) -> None:
        """Schedule an MTC workflow for submission at its submit time."""
        self._workloads[provider] = workflow.name
        self._pending_workflows[provider] += 1
        self.engine.schedule_at(
            workflow.submit_time, self._submit_workflow, provider, workflow
        )

    def _submit_workflow(self, provider: str, workflow: Workflow) -> None:
        self._tres[provider].server.submit_workflow(workflow)

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #
    def run(self, until: Optional[float] = None) -> float:
        return self.engine.run(until=until)

    def shutdown(self, at: Optional[float] = None) -> None:
        """Destroy every remaining TRE (end of the evaluation horizon)."""
        for name in list(self._tres):
            if name not in self._destroyed_at:
                self.destroy_provider(name)

    # ------------------------------------------------------------------ #
    # metrics
    # ------------------------------------------------------------------ #
    def provider_metrics(
        self, name: str, horizon: Optional[float] = None
    ) -> ProviderMetrics:
        """Metrics for one service provider (a Tables 2-4 row).

        Call after the run finished and the TRE was destroyed/shut down so
        every lease is billed.
        """
        tre = self._tres[name]
        server = tre.server
        horizon = horizon if horizon is not None else self.engine.now
        makespan = server.makespan() if tre.spec.kind == "mtc" else None
        tasks_per_second = None
        if tre.spec.kind == "mtc" and makespan and makespan > 0:
            tasks_per_second = server.completed_count / makespan
        return ProviderMetrics(
            provider=name,
            system=self.SYSTEM_NAME,
            workload=self._workloads.get(name, "?"),
            resource_consumption=self.provision.consumption_node_hours(name),
            completed_jobs=server.completed_by(horizon),
            submitted_jobs=server.submitted_jobs,
            tasks_per_second=tasks_per_second,
            makespan_s=makespan,
            adjusted_nodes=self.provision.adjusted_node_count(name),
            peak_nodes=server.usage.peak(horizon),
            usage=server.usage,
        )

    def resource_provider_metrics(
        self, horizon: Optional[float] = None
    ) -> ResourceProviderMetrics:
        """The resource provider's aggregate (Figures 12-14)."""
        horizon = horizon if horizon is not None else self.engine.now
        providers = [self.provider_metrics(name, horizon) for name in self._tres]
        return ResourceProviderMetrics.from_providers(
            self.SYSTEM_NAME, providers, horizon
        )
