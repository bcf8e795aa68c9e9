"""Tables 1-4 as structured rows.

Each table function returns a list of dicts (one per row) so callers can
render text (``repro.experiments.report``), assert invariants (tests), or
serialize.  "Saved resources" percentages are computed against the DCS
baseline, exactly as the paper's Tables 2-4 footnote describes.
"""

from __future__ import annotations

from typing import Optional

from repro.api.registry import register_component
from repro.core.dsp import MODEL_COMPARISON
from repro.metrics.accounting import savings_vs_baseline
from repro.metrics.results import ProviderMetrics
from repro.systems import SYSTEM_ORDER


def table1() -> list[dict]:
    """Table 1: the comparison of different usage models."""
    return [
        {
            "model": props.model.value,
            "resource_property": props.resource_property,
            "runtime_environment": props.runtime_environment,
            "resources_provision": props.resource_provision,
        }
        for props in MODEL_COMPARISON
    ]


@register_component("analysis", "table1", skip_params=("seed",))
def _table1_analysis(seed: int = 0) -> list[dict]:
    """Table 1: the comparison of different usage models (closed form)."""
    return table1()


def _row_from_values(
    system: str,
    resource_consumption: float,
    completed_jobs: int,
    tasks_per_second: Optional[float],
    baseline: float,
    kind: str,
) -> dict:
    """The one Tables 2-4 row builder (shared by metrics and payload paths)."""
    row = {
        "configuration": f"{system} system"
        if system != "DawningCloud"
        else "DawningCloud",
        "resource_consumption": round(resource_consumption),
        "saved_resources": (
            None
            if system == "DCS"
            else savings_vs_baseline(resource_consumption, baseline)
        ),
    }
    if kind == "htc":
        row["number_of_completed_jobs"] = completed_jobs
    else:
        row["tasks_per_second"] = (
            None if tasks_per_second is None else round(tasks_per_second, 2)
        )
    return row


def _row(metrics: ProviderMetrics, baseline: float, kind: str) -> dict:
    return _row_from_values(
        metrics.system,
        metrics.resource_consumption,
        metrics.completed_jobs,
        metrics.tasks_per_second,
        baseline,
        kind,
    )


def table_rows_from_payload(payload: dict) -> list[dict]:
    """Tables 2-4 rows from a four-systems scenario payload.

    ``payload`` is the output of the ``table2-nasa``/``table3-blue``/
    ``table4-montage`` registry scenarios: ``{"kind": ..., "systems":
    {name: metrics-dict}}`` with unrounded consumption values.
    """
    systems = payload["systems"]
    baseline = systems["DCS"]["resource_consumption"]
    kind = payload["kind"]
    return [
        _row_from_values(
            name,
            systems[name]["resource_consumption"],
            systems[name]["completed_jobs"],
            systems[name]["tasks_per_second"],
            baseline,
            kind,
        )
        for name in SYSTEM_ORDER
    ]


def table_rows_from_consolidated_payload(
    payload: dict, workload_name: str, kind: str
) -> list[dict]:
    """Tables 2-4 rows for one provider from a consolidated-scenario payload.

    ``payload`` is the ``fig12-14-consolidated`` registry scenario's output,
    whose ``providers`` mapping carries the per-provider breakdown of the
    consolidated run (the canonical source of the paper's table figures).
    """
    systems = {}
    for system in SYSTEM_ORDER:
        for p in payload["providers"][system]:
            if p["provider"] == workload_name:
                systems[system] = p
                break
        else:
            raise KeyError(f"{system}/{workload_name}")
    return table_rows_from_payload({"kind": kind, "systems": systems})


def table_from_consolidated(result, workload_name: str, kind: str) -> list[dict]:
    """Tables 2-4 extracted from one consolidated run.

    The paper's per-provider DawningCloud figures come from the consolidated
    experiment (the Figure-12 totals are exactly the sums of the Table 2-4
    rows), so this is the canonical way to regenerate the tables.
    ``result`` is a :class:`repro.systems.consolidation.ConsolidationResult`.
    """
    results = {s: result.provider(s, workload_name) for s in SYSTEM_ORDER}
    baseline = results["DCS"].resource_consumption
    return [_row(results[s], baseline, kind) for s in SYSTEM_ORDER]
