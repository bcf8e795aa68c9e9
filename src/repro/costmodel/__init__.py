"""Total-cost-of-ownership models (§4.5.5).

* :mod:`repro.costmodel.pricing` — EC2-style pricing plans.
* :mod:`repro.costmodel.tco` — monthly TCO calculators for the DCS
  (owned cluster) and SSP (leased virtual cluster) options.
* :mod:`repro.costmodel.compare` — the side-by-side comparison the paper
  runs for the Beijing University of Technology grid lab.
* :mod:`repro.costmodel.breakeven` — own-vs-lease break-even analysis,
  reserved-instance crossovers and sensitivity sweeps (extension).
"""

from repro.costmodel.breakeven import (
    breakeven_price,
    breakeven_utilization,
    leasing_cost_at_utilization,
    reserved_crossover_hours,
    sensitivity_table,
    utilization_cost_curve,
)
from repro.costmodel.compare import TCOComparison, compare_dcs_vs_ssp, paper_case_study
from repro.costmodel.pricing import (
    EC2_2009_SMALL,
    EC2_2009_SMALL_RESERVED,
    InstancePricing,
    ReservedInstancePricing,
)
from repro.costmodel.tco import (
    DCSCostModel,
    SSPCostModel,
    BJUT_DCS_CASE,
    BJUT_SSP_CASE,
)

__all__ = [
    "BJUT_DCS_CASE",
    "BJUT_SSP_CASE",
    "DCSCostModel",
    "EC2_2009_SMALL",
    "EC2_2009_SMALL_RESERVED",
    "ReservedInstancePricing",
    "breakeven_price",
    "breakeven_utilization",
    "leasing_cost_at_utilization",
    "reserved_crossover_hours",
    "sensitivity_table",
    "utilization_cost_curve",
    "InstancePricing",
    "SSPCostModel",
    "TCOComparison",
    "compare_dcs_vs_ssp",
    "paper_case_study",
]
