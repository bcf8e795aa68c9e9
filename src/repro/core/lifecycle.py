"""TRE lifecycle management (§3.1.3, Figure 4).

The paper's lifetime of a TRE::

    Inexistent --apply--> Planning --deploy--> Created --start--> Running
                                                                     |
    Inexistent <-------------------destroy---------------------------

The :class:`LifecycleService` validates requests, walks a TRE through the
states (with configurable deploy/start latencies to model the CSF's
deployment service and agents), and destroys it on request — prompting end
users to back up, stopping daemons, offloading packages (modelled as the
destroy latency).
"""

from __future__ import annotations

import enum
from typing import Callable, Optional

from repro.simkit.engine import SimulationEngine


class TREState(enum.Enum):
    INEXISTENT = "inexistent"
    PLANNING = "planning"
    CREATED = "created"
    RUNNING = "running"


_VALID_TRANSITIONS = {
    TREState.INEXISTENT: {TREState.PLANNING},
    TREState.PLANNING: {TREState.CREATED},
    TREState.CREATED: {TREState.RUNNING},
    TREState.RUNNING: {TREState.INEXISTENT},
}


class LifecycleError(RuntimeError):
    """Raised for invalid lifecycle operations."""


class LifecycleStateMachine:
    """Validated state holder for one TRE."""

    def __init__(self) -> None:
        self.state = TREState.INEXISTENT
        self.history: list[tuple[TREState, float]] = []

    def transition(self, target: TREState, now: float) -> None:
        if target not in _VALID_TRANSITIONS[self.state]:
            raise LifecycleError(
                f"illegal TRE transition {self.state.value} -> {target.value}"
            )
        self.state = target
        self.history.append((target, now))


class LifecycleService:
    """The CSF's lifecycle management service.

    ``deploy_latency_s`` models step 3 of §3.1.3 (downloading and deploying
    the TRE's software packages); ``start_latency_s`` models step 5
    (starting the TRE components).  Both default to zero so that the
    performance evaluation matches the paper's emulation, which strips
    these services out.
    """

    def __init__(
        self,
        engine: SimulationEngine,
        deploy_latency_s: float = 0.0,
        start_latency_s: float = 0.0,
    ) -> None:
        if deploy_latency_s < 0 or start_latency_s < 0:
            raise ValueError("latencies must be >= 0")
        self.engine = engine
        self.deploy_latency_s = float(deploy_latency_s)
        self.start_latency_s = float(start_latency_s)

    def create(
        self,
        machine: LifecycleStateMachine,
        on_running: Optional[Callable[[], None]] = None,
    ) -> None:
        """Walk a TRE from INEXISTENT to RUNNING (steps 1-5 of §3.1.3).

        The deploy/start steps are bound methods, not closures: they sit in
        the event heap while latencies elapse, and heap-reachable callables
        must pickle into engine snapshots with the world they act on.
        """
        machine.transition(TREState.PLANNING, self.engine.now)
        self.engine.schedule(self.deploy_latency_s, self._deployed, machine, on_running)

    def _deployed(
        self,
        machine: LifecycleStateMachine,
        on_running: Optional[Callable[[], None]],
    ) -> None:
        machine.transition(TREState.CREATED, self.engine.now)
        self.engine.schedule(self.start_latency_s, self._started, machine, on_running)

    def _started(
        self,
        machine: LifecycleStateMachine,
        on_running: Optional[Callable[[], None]],
    ) -> None:
        machine.transition(TREState.RUNNING, self.engine.now)
        if on_running is not None:
            on_running()

    def destroy(
        self,
        machine: LifecycleStateMachine,
        on_destroyed: Optional[Callable[[], None]] = None,
    ) -> None:
        """Steps 6-8 of §2.2: stop daemons, offload packages, withdraw."""
        if machine.state is not TREState.RUNNING:
            raise LifecycleError(
                f"can only destroy a RUNNING TRE (state: {machine.state.value})"
            )
        machine.transition(TREState.INEXISTENT, self.engine.now)
        if on_destroyed is not None:
            on_destroyed()
