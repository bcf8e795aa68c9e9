"""The DSP (dynamic service provision) usage model.

Section 2 of the paper defines three roles and four usage models.  This
module encodes them declaratively; the comparison table is the paper's
Table 1 and is rendered by ``repro.experiments.tables.table1``.

Roles (§2.1)
------------
* **resource provider** — owns the cloud platform, offers outsourced
  resources (the Amazon of the story).
* **service provider** — the proxy of an organization; leases resources
  and offers MTC/HTC computing service to its end users.
* **end user** — a staff member who submits and manages applications.

Usage pattern (§2.2)
--------------------
1. the service provider requests a runtime environment (type of workload,
   size of resources, operating system);
2. the resource provider creates the RE;
3. the service provider manages the RE with full control;
4. end users submit/manage applications;
5. the RE automatically negotiates resources with the resource provider;
6.-8. coordinated destruction (backup, confirm, withdraw resources).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class CloudRole(enum.Enum):
    RESOURCE_PROVIDER = "resource provider"
    SERVICE_PROVIDER = "service provider"
    END_USER = "end user"


class UsageModel(enum.Enum):
    DCS = "DCS"  # dedicated cluster system (traditional ownership)
    SSP = "SSP"  # static service provision (fixed-size virtual cluster)
    DRP = "DRP"  # direct resource provision (end users lease directly)
    DSP = "DSP"  # dynamic service provision (the paper's proposal)


@dataclass(frozen=True)
class ModelProperties:
    """One column of the paper's Table 1."""

    model: UsageModel
    resource_property: str  # local vs leased
    runtime_environment: str  # stereotyped / no offering / created on demand
    resource_provision: str  # fixed / manual / flexible

    def as_tuple(self) -> tuple[str, str, str, str]:
        return (
            self.model.value,
            self.resource_property,
            self.runtime_environment,
            self.resource_provision,
        )


#: Table 1: the comparison of different usage models.
MODEL_COMPARISON: tuple[ModelProperties, ...] = (
    ModelProperties(UsageModel.DCS, "local", "stereotyped", "fixed"),
    ModelProperties(UsageModel.SSP, "leased", "stereotyped", "fixed"),
    ModelProperties(UsageModel.DRP, "leased", "no offering", "manual"),
    ModelProperties(UsageModel.DSP, "leased", "created on the demand", "flexible"),
)
