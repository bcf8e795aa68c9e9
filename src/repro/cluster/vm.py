"""Virtual machine provisioning emulation.

The real DawningCloud provisions resources "in terms of nodes or virtual
machines" via a XEN-backed VM provision service (§3.1.2).  The evaluation
works at node granularity, but the CSF still exposes the VM layer; this
module provides a faithful-but-light state machine so the lifecycle paths
(and their latencies) exist and are testable.

``REQUESTED → BOOTING → RUNNING → DESTROYED``
"""

from __future__ import annotations

import enum
import itertools
from typing import Callable, Optional

from repro.simkit.engine import SimulationEngine


class VMState(enum.Enum):
    REQUESTED = "requested"
    BOOTING = "booting"
    RUNNING = "running"
    DESTROYED = "destroyed"


_VALID = {
    VMState.REQUESTED: {VMState.BOOTING, VMState.DESTROYED},
    VMState.BOOTING: {VMState.RUNNING, VMState.DESTROYED},
    VMState.RUNNING: {VMState.DESTROYED},
    VMState.DESTROYED: set(),
}


class VirtualMachine:
    """One guest instance pinned to a physical node."""

    _ids = itertools.count(1)

    def __init__(self, node_id: int, image: str = "default") -> None:
        self.vm_id = next(VirtualMachine._ids)
        self.node_id = node_id
        self.image = image
        self.state = VMState.REQUESTED
        self.boot_time: Optional[float] = None

    def _transition(self, target: VMState) -> None:
        if target not in _VALID[self.state]:
            raise RuntimeError(
                f"vm {self.vm_id}: illegal transition {self.state.value} -> "
                f"{target.value}"
            )
        self.state = target

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<VM {self.vm_id} on node {self.node_id} {self.state.value}>"


class VMProvisionService:
    """Creates and destroys VMs with a configurable boot latency."""

    def __init__(self, engine: SimulationEngine, boot_latency_s: float = 30.0) -> None:
        if boot_latency_s < 0:
            raise ValueError("boot latency must be >= 0")
        self.engine = engine
        self.boot_latency_s = float(boot_latency_s)
        self.vms: dict[int, VirtualMachine] = {}

    def create(
        self,
        node_id: int,
        image: str = "default",
        on_running: Optional[Callable[[VirtualMachine], None]] = None,
    ) -> VirtualMachine:
        """Start booting a VM; ``on_running`` fires when it is up."""
        vm = VirtualMachine(node_id, image)
        self.vms[vm.vm_id] = vm
        vm._transition(VMState.BOOTING)
        # bound method: boot completions sit in the heap for the boot
        # latency and must pickle into engine snapshots
        self.engine.schedule(self.boot_latency_s, self._finish_boot, vm, on_running)
        return vm

    def _finish_boot(self, vm: VirtualMachine, on_running) -> None:
        if vm.state is VMState.BOOTING:  # not destroyed mid-boot
            vm._transition(VMState.RUNNING)
            vm.boot_time = self.engine.now
            if on_running is not None:
                on_running(vm)

    def destroy(self, vm: VirtualMachine) -> None:
        vm._transition(VMState.DESTROYED)

    def running_count(self) -> int:
        return sum(1 for vm in self.vms.values() if vm.state is VMState.RUNNING)
