"""The four evaluated systems (§4).

* :mod:`repro.systems.fixed` — DCS and SSP: fixed-size resources, queuing
  runtime environment (they share one code path; only ownership/accounting
  differs, which is why the paper reports identical performance for them).
* :mod:`repro.systems.drp` — direct resource provision: end users lease
  from the provider per job (HTC) or through a per-user reusable VM pool
  (MTC); no queueing.
* :mod:`repro.systems.dsp_runner` — DawningCloud runners (standalone per
  provider, as in Tables 2-4, and consolidated, as in Figures 12-14).
* :mod:`repro.systems.consolidation` — drives all four systems over the
  same workload set and aggregates the resource provider's metrics.
* :mod:`repro.systems.base` — workload bundles shared by every runner.
* :mod:`repro.systems.emulator` — submission scheduling (the paper's "job
  emulator").
"""

from repro.systems.base import WorkloadBundle
from repro.systems.consolidation import ConsolidationResult, run_all_systems

#: The paper's Tables 2-4 column order — the canonical home (the
#: experiments and api layers both import it from here).
SYSTEM_ORDER = ("DCS", "SSP", "DRP", "DawningCloud")
from repro.systems.drp import run_drp
from repro.systems.dsp_runner import (
    run_dawningcloud_consolidated,
    run_dawningcloud_htc,
    run_dawningcloud_mtc,
)
from repro.systems.emulator import JobEmulator
from repro.systems.fixed import run_dcs, run_ssp

__all__ = [
    "ConsolidationResult",
    "JobEmulator",
    "SYSTEM_ORDER",
    "WorkloadBundle",
    "run_all_systems",
    "run_dawningcloud_consolidated",
    "run_dawningcloud_htc",
    "run_dawningcloud_mtc",
    "run_dcs",
    "run_drp",
    "run_ssp",
]


# --------------------------------------------------------------------- #
# system components: each runner as a (bundle, seed, **params) factory
# --------------------------------------------------------------------- #
def _register_systems() -> None:
    """Self-register the system runners for the spec API.

    Every factory takes an already-materialized bundle plus data-level
    parameters and returns the built-but-unrun
    :class:`~repro.systems.base.LiveRun`; ``policy``/``scheduler``/
    ``meter`` objects are resolved from nested spec refs by
    :func:`repro.api.run.build_live_system`.
    """
    from repro.api.registry import register_component
    from repro.systems.drp import (
        DEFAULT_DRP_CAPACITY,
        DrpHtcLiveRun,
        DrpMtcLiveRun,
        DrpPooledLiveRun,
    )
    from repro.systems.dsp_runner import (
        DEFAULT_CAPACITY,
        DawningCloudHtcLiveRun,
        DawningCloudMtcLiveRun,
    )
    from repro.systems.fixed import FixedLiveRun

    def dcs(bundle, seed=0, meter=None, failures=None, kernel=None):
        """DCS: a dedicated, owned cluster sized to the fixed configuration."""
        return FixedLiveRun(bundle, "DCS", meter=meter, failures=failures,
                            seed=seed, kernel=kernel)

    def ssp(bundle, seed=0, meter=None, failures=None, kernel=None):
        """SSP: the same fixed cluster, leased through the provider."""
        return FixedLiveRun(bundle, "SSP", meter=meter, failures=failures,
                            seed=seed, kernel=kernel)

    def drp(bundle, seed=0, capacity=DEFAULT_DRP_CAPACITY, meter=None,
            failures=None):
        """DRP: per-job leases (HTC) / a manual user pool (MTC), no queue."""
        cls = DrpHtcLiveRun if bundle.kind == "htc" else DrpMtcLiveRun
        return cls(bundle, capacity=capacity, meter=meter, failures=failures,
                   seed=seed)

    def drp_pooled(bundle, seed=0, capacity=DEFAULT_DRP_CAPACITY,
                   shared=False, meter=None):
        """DRP with cost-aware lease pooling (per end user, or shared)."""
        return DrpPooledLiveRun(bundle, capacity=capacity, shared=shared,
                                meter=meter)

    def dawningcloud(bundle, seed=0, policy=None, capacity=DEFAULT_CAPACITY,
                     meter=None, failures=None, lease_unit_s=3600.0,
                     setup_cost_s=None, scheduler=None):
        """DawningCloud: a TRE with dynamic B/R negotiation over the pool."""
        from repro.core.policies import ResourceManagementPolicy

        if policy is None:
            policy = (
                ResourceManagementPolicy.for_htc()
                if bundle.kind == "htc"
                else ResourceManagementPolicy.for_mtc()
            )
        if bundle.kind != "htc":
            if lease_unit_s != 3600.0 or setup_cost_s is not None \
                    or scheduler is not None:
                raise ValueError(
                    "lease_unit_s/setup_cost_s/scheduler are HTC-only knobs"
                )
            return DawningCloudMtcLiveRun(
                bundle, policy, capacity=capacity, meter=meter,
                failures=failures, seed=seed,
            )
        return DawningCloudHtcLiveRun(
            bundle, policy, capacity=capacity, meter=meter,
            failures=failures, seed=seed, lease_unit_s=lease_unit_s,
            setup_cost_s=setup_cost_s, scheduler=scheduler,
        )

    def pooled_queue(bundle, seed=0, scheduler=None, pool_cap=None,
                     meter=None, failures=None):
        """A queued scheduler over one bounded, elastically leased pool."""
        from repro.provisioning.runner import PooledQueueLiveRun
        from repro.scheduling.firstfit import FirstFitScheduler

        return PooledQueueLiveRun(
            bundle, scheduler if scheduler is not None else FirstFitScheduler(),
            pool_cap=pool_cap, meter=meter, failures=failures, seed=seed,
        )

    for name, factory in (
        ("dcs", dcs),
        ("ssp", ssp),
        ("drp", drp),
        ("drp-pooled", drp_pooled),
        ("dawningcloud", dawningcloud),
        ("pooled-queue", pooled_queue),
    ):
        register_component(
            "system", name, factory, skip_params=("bundle", "seed")
        )


_register_systems()
