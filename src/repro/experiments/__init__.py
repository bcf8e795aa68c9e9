"""Experiment harness: regenerates every table and figure of §4.

* :mod:`repro.experiments.config` — the paper's workloads, parameters and
  sweep grids in one place.
* :mod:`repro.experiments.sweep` — B×R sweep points and the paper's
  selection rule (Figures 9-11; the grids run as experiment specs).
* :mod:`repro.experiments.tables` — Table 1 and Tables 2-4 as row dicts.
* :mod:`repro.experiments.figures` — Figures 12-14 series.
* :mod:`repro.experiments.report` — plain-text rendering (the harness
  prints the same rows/series the paper reports).
* :mod:`repro.experiments.ablations` — sweeps over the design choices the
  paper fixes by fiat (lease unit, scan cadence, scheduler, policy, load,
  setup cost, DRP pooling).
* :mod:`repro.experiments.paperdata` — the published numbers as data, plus
  qualitative shape checks.
* :mod:`repro.experiments.export` — CSV/JSON export of every artifact.
* :mod:`repro.experiments.registry` — the scenario registry: every
  artifact as a named, parameterized, picklable spec.
* :mod:`repro.experiments.orchestrator` — parallel, cached execution of
  registered scenarios (see docs/orchestration.md).
* :mod:`repro.experiments.cache` — the content-addressed on-disk result
  cache keyed by (scenario, params, seed, code version).
* :mod:`repro.experiments.scenarios` — the built-in scenario definitions.
"""

from repro.experiments.config import (
    EvaluationSetup,
    PAPER_POLICIES,
    blue_bundle,
    default_setup,
    montage_bundle,
    nasa_bundle,
)
from repro.experiments.cache import NullCache, ResultCache
from repro.experiments.figures import figure12_13_14
from repro.experiments.export import export_all, rows_to_csv, rows_to_json
from repro.experiments.orchestrator import Orchestrator, ScenarioRun
from repro.experiments.registry import (
    ScenarioRegistry,
    ScenarioSpec,
    default_registry,
)
from repro.experiments.paperdata import (
    CONSOLIDATED_CLAIMS,
    PAPER_TABLES,
    check_headline_shapes,
    check_table_shapes,
)
from repro.experiments.sweep import SweepPoint
from repro.experiments.tables import table1

# The ablation sweeps sit above the spec layer, and repro.api.spec imports
# this package (for the canonical-JSON helpers in .cache) — so re-export
# them lazily to keep the package importable from either direction.
_ABLATION_EXPORTS = (
    "drp_pooling_ablation",
    "lease_unit_ablation",
    "policy_ablation",
    "scan_interval_ablation",
    "scheduler_ablation",
    "setup_cost_ablation",
    "utilization_sweep",
)


def __getattr__(name):
    if name in _ABLATION_EXPORTS:
        from repro.experiments import ablations

        return getattr(ablations, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "CONSOLIDATED_CLAIMS",
    "EvaluationSetup",
    "NullCache",
    "Orchestrator",
    "PAPER_TABLES",
    "PAPER_POLICIES",
    "ResultCache",
    "ScenarioRegistry",
    "ScenarioRun",
    "ScenarioSpec",
    "SweepPoint",
    "default_registry",
    "blue_bundle",
    "check_headline_shapes",
    "check_table_shapes",
    "drp_pooling_ablation",
    "export_all",
    "lease_unit_ablation",
    "policy_ablation",
    "rows_to_csv",
    "rows_to_json",
    "scan_interval_ablation",
    "scheduler_ablation",
    "setup_cost_ablation",
    "utilization_sweep",
    "default_setup",
    "figure12_13_14",
    "montage_bundle",
    "nasa_bundle",
    "table1",
]
