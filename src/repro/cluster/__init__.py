"""Cluster substrate: the resource provider's side of the cloud.

* :mod:`repro.cluster.lease` — hour-granular lease ledger (the paper's
  "time unit of leasing resources: one hour").
* :mod:`repro.cluster.provision` — the resource provision service: grants,
  rejections, reclaims, adjustment accounting (§3.2.2.3 provision policy).
* :mod:`repro.cluster.vm` — the virtual machine state machine used by
  the CSF's deployment emulation.
* :mod:`repro.cluster.setup` — per-node setup (wipe/redeploy) cost model
  (§4.5.4: 15.743 s per adjusted node).
"""

from repro.cluster.lease import Lease, LeaseLedger
from repro.cluster.provision import ProvisionError, ResourceProvisionService
from repro.cluster.setup import SetupCostModel, SetupPolicy
from repro.cluster.vm import VirtualMachine, VMProvisionService, VMState

__all__ = [
    "Lease",
    "LeaseLedger",
    "ProvisionError",
    "ResourceProvisionService",
    "SetupCostModel",
    "SetupPolicy",
    "VMProvisionService",
    "VMState",
    "VirtualMachine",
]
