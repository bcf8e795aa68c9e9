"""DawningCloud runners.

Two granularities, matching the paper's evaluation:

* :func:`run_dawningcloud_htc` / :func:`run_dawningcloud_mtc` — one service
  provider alone on the cloud (the per-provider rows of Tables 2-4; the
  provider-side metrics are unaffected by consolidation because the pool is
  large enough that requests are never rejected).
* :func:`run_dawningcloud_consolidated` — all service providers together on
  one resource provider (Figures 12-14), which is the configuration that
  realizes the economies of scale.
"""

from __future__ import annotations

from functools import partial
from typing import Optional, TYPE_CHECKING

from repro.core.dawningcloud import DawningCloud
from repro.core.policies import ResourceManagementPolicy
from repro.metrics.results import ProviderMetrics, ResourceProviderMetrics
from repro.provisioning.billing import BillingMeter
from repro.systems.base import LiveRun, WorkloadBundle, run_until

if TYPE_CHECKING:  # pragma: no cover - reliability is an optional layer
    from repro.reliability.failures import FailureModel
    from repro.reliability.injector import NodeFailureInjector

HOUR = 3600.0

#: Default cloud-pool size.  The paper's consolidated DawningCloud peak is
#: only 1.06× the DCS total (438 nodes), i.e. the platform partition backing
#: the experiment was barely larger than the three dedicated systems
#: combined — the all-or-nothing provision policy *rejecting* oversized
#: dynamic requests is what bounds DawningCloud's expansion under bursts.
#: 420 nodes reproduces that regime.
DEFAULT_CAPACITY = 420


def _same(value):
    """``partial(_same, x)`` is a zero-arg factory returning ``x`` itself,
    which pickles with the world (a ``lambda: x`` would not)."""
    return value


def _elastic_injector(
    cloud: DawningCloud,
    bundle: WorkloadBundle,
    failures: "FailureModel",
    seed: int,
) -> "NodeFailureInjector":
    """An injector for a DawningCloud TRE (must already exist).

    The slot set is sized to the workload's dedicated-machine scale
    (``bundle.fixed_nodes``) so every system faces the same failure
    exposure; repaired nodes rejoin the *provider's* free pool and the
    TRE re-grows through its resource-management policy.
    """
    from repro.reliability.injector import NodeFailureInjector
    from repro.simkit.rng import RandomStreams

    return NodeFailureInjector(
        cloud.engine,
        cloud.tre(bundle.name).server,
        failures,
        RandomStreams(seed),
        n_slots=int(bundle.fixed_nodes),  # type: ignore[arg-type]
        provision=cloud.provision,
        restore="provider",
    )


class DawningCloudHtcLiveRun(LiveRun):
    """One HTC provider on DawningCloud, built/loaded but not yet run."""

    def __init__(
        self,
        bundle: WorkloadBundle,
        policy: ResourceManagementPolicy,
        capacity: int = DEFAULT_CAPACITY,
        meter: Optional[BillingMeter] = None,
        failures: Optional["FailureModel"] = None,
        seed: int = 0,
        lease_unit_s: float = HOUR,
        setup_cost_s: Optional[float] = None,
        scheduler=None,
    ) -> None:
        if bundle.kind != "htc":
            raise ValueError("expected an HTC bundle")
        from repro.cluster.setup import SetupPolicy

        setup_policy = (
            SetupPolicy(package_setup_cost_s=setup_cost_s)
            if setup_cost_s is not None
            else SetupPolicy()
        )
        cloud = self.cloud = DawningCloud(
            capacity=capacity, lease_unit_s=lease_unit_s,
            setup_policy=setup_policy, meter=meter,
        )
        self.engine = cloud.engine
        self.name = bundle.name
        cloud.add_htc_provider(
            bundle.name, policy,
            scheduler_factory=(
                None if scheduler is None else partial(_same, scheduler)
            ),
        )
        self.injector = (
            _elastic_injector(cloud, bundle, failures, seed).start()
            if failures is not None
            else None
        )
        cloud.submit_trace(bundle.name, bundle.materialize_trace())
        self.horizon = float(bundle.horizon)  # type: ignore[arg-type]

    def retarget_policy(self, policy: ResourceManagementPolicy) -> None:
        """Swap the provider's resource-management policy mid-run.

        The what-if ``policy`` delta's entry point.  The threshold ratio
        applies from the next scan, and the release-check cadence to
        dynamic grants made after the swap (armed release timers keep
        theirs).  ``initial_nodes`` is burned into the TRE's startup
        lease and ``scan_interval_s`` into its scan timer at creation, so
        a change to either is refused.
        """
        from dataclasses import replace

        tre = self.cloud.tre(self.name)
        current = tre.spec.policy
        if policy.initial_nodes != current.initial_nodes:
            raise ValueError(
                f"cannot retarget initial_nodes on a live TRE "
                f"({current.initial_nodes} -> {policy.initial_nodes}); B is "
                f"the TRE's startup lease: keep initial_nodes="
                f"{current.initial_nodes} in the delta, or boot a service "
                f"with initial_nodes={policy.initial_nodes}"
            )
        if policy.scan_interval_s != current.scan_interval_s:
            raise ValueError(
                f"cannot retarget scan_interval_s on a live TRE "
                f"({current.scan_interval_s} -> {policy.scan_interval_s}); "
                f"the scan timer was armed at TRE creation"
            )
        tre.manager.policy = policy
        tre.spec = replace(tre.spec, policy=policy)

    def complete(self) -> None:
        self.cloud.run(until=self.horizon)

    def finish(self) -> ProviderMetrics:
        from repro.metrics.jobstats import compute_statistics

        self.cloud.shutdown()
        metrics = self.cloud.provider_metrics(self.name, self.horizon)
        if self.injector is not None:
            metrics.reliability = self.injector.finalize(self.horizon)
        metrics.wait_stats = compute_statistics(
            self.cloud.tre(self.name).server.completed
        ).to_row()
        setup = self.cloud.provision.setup
        metrics.setup_overhead_s = setup.total_overhead_s
        metrics.setup_overhead_s_per_hour = setup.overhead_per_hour(
            self.horizon
        )
        return metrics


def run_dawningcloud_htc(
    bundle: WorkloadBundle,
    policy: ResourceManagementPolicy,
    capacity: int = DEFAULT_CAPACITY,
    meter: Optional[BillingMeter] = None,
    failures: Optional["FailureModel"] = None,
    seed: int = 0,
    lease_unit_s: float = HOUR,
    setup_cost_s: Optional[float] = None,
    scheduler=None,
) -> ProviderMetrics:
    """One HTC service provider on DawningCloud (standalone)."""
    return DawningCloudHtcLiveRun(
        bundle, policy, capacity=capacity, meter=meter, failures=failures,
        seed=seed, lease_unit_s=lease_unit_s, setup_cost_s=setup_cost_s,
        scheduler=scheduler,
    ).run()


class DawningCloudMtcLiveRun(LiveRun):
    """One MTC provider on DawningCloud, built/loaded but not yet run."""

    def __init__(
        self,
        bundle: WorkloadBundle,
        policy: ResourceManagementPolicy,
        capacity: int = DEFAULT_CAPACITY,
        meter: Optional[BillingMeter] = None,
        failures: Optional["FailureModel"] = None,
        seed: int = 0,
    ) -> None:
        if bundle.kind != "mtc":
            raise ValueError("expected an MTC bundle")
        workflow = self.workflow = bundle.materialize_workflow()
        cloud = self.cloud = DawningCloud(capacity=capacity, meter=meter)
        self.engine = cloud.engine
        self.name = bundle.name
        cloud.add_mtc_provider(
            bundle.name, policy, auto_destroy=True, create_at=workflow.submit_time
        )
        self.injector = None
        if failures is not None:
            # the TRE materializes at submit_time (priority -1); attach the
            # injector right after it exists, at the same instant.  Bound
            # method (not a closure): the pending event must survive
            # engine snapshots.
            self._pending_injection = (bundle, failures, seed)
            cloud.engine.schedule_at(workflow.submit_time, self._attach_injector)
        cloud.submit_workflow(bundle.name, workflow)
        self.horizon = float(bundle.horizon)  # type: ignore[arg-type]

    def _attach_injector(self) -> None:
        bundle, failures, seed = self._pending_injection
        self.injector = _elastic_injector(
            self.cloud, bundle, failures, seed
        ).start()

    def complete(self) -> None:
        run_until(self.engine, self.workflow.completed, hard_limit=self.horizon)

    def finish(self) -> ProviderMetrics:
        self.cloud.shutdown()
        metrics = self.cloud.provider_metrics(self.name, self.engine.now)
        if self.injector is not None:
            metrics.reliability = self.injector.finalize(self.engine.now)
        return metrics


def run_dawningcloud_mtc(
    bundle: WorkloadBundle,
    policy: ResourceManagementPolicy,
    capacity: int = DEFAULT_CAPACITY,
    meter: Optional[BillingMeter] = None,
    failures: Optional["FailureModel"] = None,
    seed: int = 0,
) -> ProviderMetrics:
    """One MTC service provider on DawningCloud (standalone).

    The TRE is created on demand, the workflow runs, and the TRE is
    destroyed at completion, so the leases are billed for the workload
    period only (1 hour for Montage → the paper's 166 node-hours).
    With a failure model, injection starts at TRE creation (the machine
    partition exists only for the workload period).
    """
    return DawningCloudMtcLiveRun(
        bundle, policy, capacity=capacity, meter=meter, failures=failures,
        seed=seed,
    ).run()


def run_dawningcloud_consolidated(
    bundles: list[WorkloadBundle],
    policies: dict[str, ResourceManagementPolicy],
    capacity: int = DEFAULT_CAPACITY,
    horizon: Optional[float] = None,
    meter: Optional[BillingMeter] = None,
) -> ResourceProviderMetrics:
    """All service providers consolidated on one DawningCloud platform."""
    cloud = DawningCloud(capacity=capacity, meter=meter)
    if horizon is None:
        horizon = max(float(b.horizon) for b in bundles if b.kind == "htc")  # type: ignore[arg-type]
    pending_workflows = []
    for bundle in bundles:
        policy = policies[bundle.name]
        if bundle.kind == "htc":
            cloud.add_htc_provider(bundle.name, policy)
            cloud.submit_trace(bundle.name, bundle.materialize_trace())
        else:
            workflow = bundle.materialize_workflow()
            pending_workflows.append(workflow)
            cloud.add_mtc_provider(
                bundle.name, policy, auto_destroy=True, create_at=workflow.submit_time
            )
            cloud.submit_workflow(bundle.name, workflow)
    cloud.run(until=horizon)
    # MTC workflows submitted near the horizon may still be in flight;
    # in the paper's setup they complete well inside the window.
    cloud.shutdown()
    return cloud.resource_provider_metrics(horizon)
