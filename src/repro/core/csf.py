"""The Common Service Framework (§3.1.2).

The CSF hosts "the common sets of functions for different runtime
environments": the resource provision service, the lifecycle management
service, the deployment service, the VM provision service and the per-node
agents.  A TRE only implements workload-specific parts.

In this reproduction the CSF is the factory through which service
providers obtain TREs: :meth:`CommonServiceFramework.create_tre` validates
the request, walks the lifecycle state machine (Planning → Created →
Running, with configurable deploy/start latencies), wires the TRE server to
the shared resource provision service, and hands back a running
:class:`~repro.core.tre.ThinRuntimeEnvironment`.
"""

from __future__ import annotations


from repro.cluster.provision import ResourceProvisionService
from repro.cluster.vm import VMProvisionService
from repro.core.lifecycle import LifecycleService, TREState
from repro.core.servers import REServer
from repro.core.tre import RuntimeEnvironmentSpec, ThinRuntimeEnvironment
from repro.provisioning.policies import ConsolidatedAllocation
from repro.simkit.engine import SimulationEngine


class CommonServiceFramework:
    """The resource provider's shared service layer."""

    def __init__(
        self,
        engine: SimulationEngine,
        provision: ResourceProvisionService,
        deploy_latency_s: float = 0.0,
        start_latency_s: float = 0.0,
        vm_boot_latency_s: float = 30.0,
    ) -> None:
        self.engine = engine
        self.provision = provision
        self.lifecycle = LifecycleService(engine, deploy_latency_s, start_latency_s)
        self.vm_service = VMProvisionService(engine, vm_boot_latency_s)
        self.tres: dict[str, ThinRuntimeEnvironment] = {}

    # ------------------------------------------------------------------ #
    def create_tre(
        self,
        spec: RuntimeEnvironmentSpec,
        dynamic: bool = True,
    ) -> ThinRuntimeEnvironment:
        """Create (and start) a TRE for a service provider.

        ``dynamic=False`` builds a fixed-resource TRE: the initial resources
        are still obtained through the provision service, but no resize
        policy is attached — this is how the SSP system is emulated on the
        same code path.
        """
        if spec.provider in self.tres:
            raise ValueError(f"provider {spec.provider!r} already has a TRE")
        server = REServer(
            self.engine,
            spec.provider,
            spec.default_scheduler(),
            spec.policy.scan_interval_s,
        )
        manager = ConsolidatedAllocation(self.engine, server, self.provision, spec.policy)
        tre = ThinRuntimeEnvironment(spec, server, manager)
        if not dynamic:
            # fixed-size RE: suppress the resize rule but keep the lease
            server.pre_dispatch_hooks.remove(manager._on_scan)

        # bound method, not a closure: with nonzero start latency the
        # callback sits in the event heap, and snapshot/restore requires
        # heap-reachable callables to pickle with the world
        self.lifecycle.create(tre.lifecycle, on_running=manager.start)
        self.tres[spec.provider] = tre
        return tre

    def destroy_tre(self, provider: str) -> None:
        """Destroy a provider's TRE and withdraw its resources."""
        tre = self.tres.pop(provider, None)
        if tre is None:
            raise KeyError(f"no TRE for provider {provider!r}")
        self.lifecycle.destroy(tre.lifecycle, on_destroyed=tre.destroy)

    def running_tres(self) -> list[ThinRuntimeEnvironment]:
        return [
            t for t in self.tres.values() if t.lifecycle.state is TREState.RUNNING
        ]
