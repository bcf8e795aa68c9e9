"""Thin runtime environments (§3.1.2).

A TRE "only implements the core functions for the specific workload": the
server, the scheduler, and (for MTC) the trigger monitor; everything else
is delegated to the CSF.  This module bundles those pieces per flavour:

* **HTC TRE** — HTC server + first-fit scheduler (+ web portal, not
  modelled beyond the submission API).
* **MTC TRE** — MTC server (workflow parsing) + FCFS scheduler + trigger
  monitor (the hook that fires when a workflow's trigger condition is met
  and drives staged execution).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Literal, Optional

from repro.core.lifecycle import LifecycleStateMachine
from repro.core.policies import ResourceManagementPolicy
from repro.core.servers import REServer
from repro.provisioning.policies import ConsolidatedAllocation
from repro.scheduling.base import Scheduler
from repro.scheduling.fcfs import FcfsScheduler
from repro.scheduling.firstfit import FirstFitScheduler
from repro.workloads.workflow import Workflow

WorkloadKind = Literal["htc", "mtc"]


@dataclass(frozen=True)
class RuntimeEnvironmentSpec:
    """A service provider's RE request (§2.2 step 1).

    "A service provider specifies its requirement for runtime environment,
    including types of workloads: MTC or HTC, size of resources, types of
    operating system."
    """

    provider: str
    kind: WorkloadKind
    policy: ResourceManagementPolicy
    operating_system: str = "linux"
    #: optional scheduler override (a zero-arg factory, since specs are
    #: reusable and schedulers may be stateful); None = the paper's §4.4
    #: choice for the workload kind
    scheduler_factory: Optional[Callable[[], Scheduler]] = None

    def __post_init__(self) -> None:
        if self.kind not in ("htc", "mtc"):
            raise ValueError(f"kind must be 'htc' or 'mtc', got {self.kind!r}")

    def default_scheduler(self) -> Scheduler:
        """§4.4: first-fit for HTC, FCFS for MTC (unless overridden)."""
        if self.scheduler_factory is not None:
            return self.scheduler_factory()
        return FirstFitScheduler() if self.kind == "htc" else FcfsScheduler()


class TriggerMonitor:
    """The MTC TRE's trigger monitor (§3.1.2).

    In the real system it watches databases/files and notifies the MTC
    server to drive workflow stages; in the simulation the "trigger" is the
    completion of predecessor tasks, which the server already observes, so
    the monitor just exposes a subscription point used by tests and by the
    dsp runner's TRE-destruction hook.
    """

    def __init__(self) -> None:
        self._subscribers: list[Callable[[Workflow], None]] = []
        self.notifications = 0

    def subscribe(self, fn: Callable[[Workflow], None]) -> None:
        self._subscribers.append(fn)

    def notify(self, workflow: Workflow) -> None:
        self.notifications += 1
        for fn in list(self._subscribers):
            fn(workflow)


class ThinRuntimeEnvironment:
    """One TRE: lifecycle + server + (optional) dynamic resource manager."""

    def __init__(
        self,
        spec: RuntimeEnvironmentSpec,
        server: REServer,
        manager: Optional[ConsolidatedAllocation] = None,
    ) -> None:
        self.spec = spec
        self.server = server
        self.manager = manager
        self.lifecycle = LifecycleStateMachine()
        self.trigger_monitor = TriggerMonitor() if spec.kind == "mtc" else None
        if self.trigger_monitor is not None:
            server.on_workflow_complete.append(self.trigger_monitor.notify)

    @property
    def name(self) -> str:
        return self.spec.provider

    def destroy(self) -> None:
        """Release resources and stop the server (§2.2 steps 6-8)."""
        if self.manager is not None:
            self.manager.shutdown()
        else:
            self.server.stop()
