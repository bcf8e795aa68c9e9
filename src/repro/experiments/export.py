"""Machine-readable export of every experiment artifact.

The benchmark harness prints paper-style text tables; downstream users
regenerating the figures in their own plotting stack need the underlying
rows.  This module writes any row-list (the universal currency of
:mod:`repro.experiments`) to CSV or JSON, and :func:`export_all` dumps the
complete evaluation — Tables 1-4, the three (B, R) sweeps, Figures 12-14
and the TCO case — into a directory, one file per artifact.
"""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path
from typing import TYPE_CHECKING, Optional, Sequence

from repro.costmodel.compare import paper_case_study
from repro.experiments.figures import overhead_s_per_hour
from repro.experiments.sweep import points_from_payload
from repro.experiments.tables import table1, table_rows_from_payload

if TYPE_CHECKING:  # pragma: no cover
    from repro.experiments.orchestrator import Orchestrator


def rows_to_csv(rows: Sequence[dict], target: Optional[io.TextIOBase] = None) -> str:
    """Serialize row dicts to CSV (column order = first row's key order)."""
    out = target or io.StringIO()
    if rows:
        writer = csv.DictWriter(out, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
    return out.getvalue() if isinstance(out, io.StringIO) else ""


def rows_to_json(rows: Sequence[dict]) -> str:
    """Serialize row dicts to pretty JSON."""
    return json.dumps(list(rows), indent=2, sort_keys=False)


def write_rows(rows: Sequence[dict], path: Path) -> Path:
    """Write rows to ``path``; the suffix (.csv/.json) picks the format."""
    path = Path(path)
    if path.suffix == ".csv":
        with open(path, "w", newline="") as fh:
            rows_to_csv(rows, fh)
    elif path.suffix == ".json":
        path.write_text(rows_to_json(rows))
    else:
        raise ValueError(f"unsupported export suffix {path.suffix!r}")
    return path


def export_all(
    outdir: Path, orch: Optional["Orchestrator"] = None, fmt: str = "csv"
) -> list[Path]:
    """Write every paper artifact into ``outdir``, one file each.

    ``fmt`` is ``"csv"`` or ``"json"``.  Returns the written paths.
    Tables 2-4, the three (B, R) sweeps and Figures 12-14 are the
    registry scenarios' payloads, read through ``orch`` (its seed, cache
    and workers; a fresh uncached :class:`~repro.experiments.orchestrator
    .Orchestrator` when ``None``), so a warm cache makes the export a
    JSON load.  Table 1 and the TCO case are closed forms.
    """
    if fmt not in ("csv", "json"):
        raise ValueError(f"fmt must be 'csv' or 'json', got {fmt!r}")
    if orch is None:
        from repro.experiments.orchestrator import Orchestrator

        orch = Orchestrator()
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []

    def emit(name: str, rows: Sequence[dict]) -> None:
        written.append(write_rows(rows, outdir / f"{name}.{fmt}"))

    runs = orch.run(names=[
        "table2-nasa", "table3-blue", "table4-montage",
        "fig09-sweep-blue", "fig10-sweep-nasa", "fig11-sweep-montage",
        "fig12-14-consolidated",
    ])
    emit("table1_usage_models", table1())
    emit("table2_nasa", table_rows_from_payload(runs["table2-nasa"].payload))
    emit("table3_blue", table_rows_from_payload(runs["table3-blue"].payload))
    emit("table4_montage",
         table_rows_from_payload(runs["table4-montage"].payload))

    for name in ("fig09-sweep-blue", "fig10-sweep-nasa"):
        emit(name.replace("-", "_"), [
            {
                "B": p.initial_nodes,
                "R": p.threshold_ratio,
                "resource_consumption": p.resource_consumption,
                "completed_jobs": p.completed_jobs,
            }
            for p in points_from_payload(runs[name].payload)
        ])
    emit("fig11_sweep_montage", [
        {
            "B": p.initial_nodes,
            "R": p.threshold_ratio,
            "resource_consumption": p.resource_consumption,
            "tasks_per_second": p.tasks_per_second,
        }
        for p in points_from_payload(runs["fig11-sweep-montage"].payload)
    ])

    figures = runs["fig12-14-consolidated"].payload
    emit("fig12_fig13_fig14_consolidated", [
        {
            "system": s["system"],
            "total_consumption_node_hours": s["total_consumption_node_hours"],
            "peak_nodes_per_hour": s["concurrent_peak_nodes"],
            "adjusted_nodes": s["adjusted_nodes"],
            "management_overhead_s_per_hour": round(
                overhead_s_per_hour(s["adjusted_nodes"], figures["horizon_s"]),
                1,
            ),
        }
        for s in figures["series"]
    ])

    tco = paper_case_study()
    emit("tco_case_study", [
        {
            "option": "DCS",
            "tco_usd_per_month": round(tco.dcs_tco_per_month, 2),
        },
        {
            "option": "SSP",
            "tco_usd_per_month": round(tco.ssp_tco_per_month, 2),
        },
    ])
    return written
