"""Metrics: the quantities the paper's evaluation reports.

* :mod:`repro.metrics.timeseries` — usage recorders and hourly series
  (total and peak resource consumption, Figures 12-13).
* :mod:`repro.metrics.accounting` — node-hour consumption formulas
  (Tables 2-4).
* :mod:`repro.metrics.results` — result records shared by the systems and
  the experiment harness.
"""

from repro.metrics.accounting import dcs_consumption_node_hours
from repro.metrics.jobstats import (
    JobStatistics,
    bounded_slowdowns,
    compute_statistics,
    jains_fairness_index,
)
from repro.metrics.results import ProviderMetrics, ResourceProviderMetrics
from repro.metrics.timeseries import UsageRecorder, merge_usage

__all__ = [
    "JobStatistics",
    "ProviderMetrics",
    "ResourceProviderMetrics",
    "UsageRecorder",
    "bounded_slowdowns",
    "compute_statistics",
    "dcs_consumption_node_hours",
    "jains_fairness_index",
    "merge_usage",
]
