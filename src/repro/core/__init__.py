"""The paper's primary contribution: the DSP model and DawningCloud.

* :mod:`repro.core.dsp` — the dynamic service provision model: roles,
  usage pattern, and the Table-1 comparison of usage models.
* :mod:`repro.core.policies` — resource management / provision policies
  (§3.2.2): initial resources ``B``, threshold ratio ``R``, DR1/DR2 rules,
  scan intervals.
* :mod:`repro.core.servers` — the TRE servers (HTC and MTC variants):
  queueing, dispatch, workflow dependency tracking.
* :mod:`repro.core.lifecycle` / :mod:`repro.core.tre` /
  :mod:`repro.core.csf` — TRE lifecycle management and the common service
  framework (§3.1).
* :mod:`repro.core.dawningcloud` — assembles all of the above into a
  runnable DawningCloud instance.
"""

from repro.core.adaptive import (
    ChunkedHysteresisPolicy,
    DemandTrackingPolicy,
    EwmaPredictivePolicy,
    StaticPolicy,
    policy_catalog,
)
from repro.core.csf import CommonServiceFramework
from repro.core.dawningcloud import DawningCloud
from repro.core.dsp import MODEL_COMPARISON, CloudRole, UsageModel
from repro.core.lifecycle import TREState
from repro.core.policies import ResourceManagementPolicy, ResourceProvisionPolicy
from repro.core.servers import REServer
from repro.core.tre import RuntimeEnvironmentSpec, ThinRuntimeEnvironment

__all__ = [
    "ChunkedHysteresisPolicy",
    "CloudRole",
    "DemandTrackingPolicy",
    "EwmaPredictivePolicy",
    "StaticPolicy",
    "policy_catalog",
    "CommonServiceFramework",
    "DawningCloud",
    "MODEL_COMPARISON",
    "REServer",
    "ResourceManagementPolicy",
    "ResourceProvisionPolicy",
    "RuntimeEnvironmentSpec",
    "ThinRuntimeEnvironment",
    "TREState",
    "UsageModel",
]
