"""Generate EXPERIMENTS.md: measured-vs-paper for every table and figure.

``python -m repro.experiments.expmd`` (or ``repro-experiments
experiments-md``) reruns the complete evaluation at a given seed and
renders the repository's EXPERIMENTS.md: each published artifact next to
the measured value, the qualitative shape checks from
:mod:`repro.experiments.paperdata`, and the extension experiments.  The
document in the repository is exactly this module's output, so the record
can never drift from the code.

Since the orchestration refactor, the generator does not run simulations
directly: it pulls every artifact from the scenario registry through an
:class:`~repro.experiments.orchestrator.Orchestrator`, so regeneration
fans out over ``--parallel N`` workers and a warm result cache makes
reruns incremental (see docs/orchestration.md).
"""

from __future__ import annotations

import sys
from typing import Optional, Sequence

from repro.experiments.figures import overhead_s_per_hour as _overhead_rate
from repro.experiments.orchestrator import Orchestrator, payloads
from repro.experiments.paperdata import (
    CHOSEN_PARAMETERS,
    CONSOLIDATED_CLAIMS,
    PAPER_TABLES,
    TCO_CLAIMS,
    check_headline_shapes,
    check_table_shapes,
)
from repro.experiments.tables import SYSTEM_ORDER

HOUR = 3600.0

#: Every scenario EXPERIMENTS.md consumes, in registry terms.
EXPMD_SCENARIOS = (
    "fig09-sweep-blue",
    "fig10-sweep-nasa",
    "fig11-sweep-montage",
    "table2-nasa",
    "table3-blue",
    "table4-montage",
    "fig12-14-consolidated",
    "tco-case",
    "breakeven",
    "ablation-drp-pooling",
    "ablation-utilization",
    "ablation-billing-meter",
    "ablation-sensitivity",
    "drp-spot-market",
    "pooled-drp-scheduler-cross",
    "reliability-mtbf-sweep",
    "checkpoint-interval-ablation",
    "drp-vs-fixed-under-failures",
    "spot-preemption-as-failure",
)


def _md_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    def fmt(v: object) -> str:
        if v is None:
            return "—"
        if isinstance(v, float):
            return f"{v:,.2f}" if abs(v) < 100 else f"{v:,.0f}"
        return str(v)

    lines = ["| " + " | ".join(headers) + " |",
             "|" + "|".join("---" for _ in headers) + "|"]
    for row in rows:
        lines.append("| " + " | ".join(fmt(v) for v in row) + " |")
    return "\n".join(lines)


def _verdict(violations: list[str]) -> str:
    if not violations:
        return "**all published shapes hold**"
    return "**VIOLATIONS:** " + "; ".join(violations)


def _pct(x: Optional[float]) -> str:
    return "—" if x is None else f"{x:.1%}"


def _throughput(point: dict) -> float:
    tps = point.get("tasks_per_second")
    return tps if tps is not None else point["completed_jobs"]


def render_experiments_md(
    seed: Optional[int] = None, orchestrator: Optional[Orchestrator] = None
) -> str:
    """Run the full evaluation (via the registry) and render the text.

    Pass ``seed``, an ``orchestrator`` (whose seed is used), or both —
    but a mismatch between the two is an error, not a silent override.
    """
    if orchestrator is not None and seed is not None and orchestrator.seed != seed:
        raise ValueError(
            f"seed={seed} contradicts orchestrator.seed={orchestrator.seed}; "
            f"pass one or make them agree"
        )
    orch = orchestrator or Orchestrator(seed=0 if seed is None else seed)
    seed = orch.seed
    results = payloads(orch.run(names=EXPMD_SCENARIOS))

    out: list[str] = []
    w = out.append

    w("# EXPERIMENTS — paper vs. measured\n")
    w("Reproduction record for *\"In Cloud, Do MTC or HTC Service Providers "
      "Benefit from the Economies of Scale?\"* (Wang, Zhan, Shi, Liang, "
      "Yuan — MTAGS/SC 2009).\n")
    w(f"Everything below is regenerated by `repro-experiments "
      f"experiments-md --seed {seed}` (this file is that command's "
      f"output). Workloads are calibrated synthetic stand-ins for the "
      f"paper's traces (see DESIGN.md §2), so **absolute numbers differ; "
      f"the checked claims are the paper's qualitative shapes** — who "
      f"wins, with what sign, in what order. Shape checks come from "
      f"`repro.experiments.paperdata`.\n")

    # ---------------------------------------------------------------- #
    # Figures 9-11: sweeps + chosen parameters
    # ---------------------------------------------------------------- #
    w("## Figures 9-11 — (B, R) parameter sweeps\n")
    w("The paper tunes DawningCloud per workload and picks "
      "B80_R1.5 (BLUE), B40_R1.2 (NASA), B10_R8 (Montage). The sweep "
      "regenerates the trade-off surface; the chosen points should sit on "
      "the efficient frontier (no sweep point both cheaper *and* higher-"
      "throughput).\n")
    sweep_rows = []
    for fig, name, scenario_name in (
        ("Fig 9", "sdsc-blue", "fig09-sweep-blue"),
        ("Fig 10", "nasa-ipsc", "fig10-sweep-nasa"),
        ("Fig 11", "montage", "fig11-sweep-montage"),
    ):
        points = results[scenario_name]["points"]
        chosen = CHOSEN_PARAMETERS[name]
        pt = next(
            p for p in points
            if p["B"] == chosen["B"] and p["R"] == chosen["R"]
        )
        throughput = (
            pt["tasks_per_second"] if name == "montage" else pt["completed_jobs"]
        )
        dominated = any(
            q["resource_consumption"] < pt["resource_consumption"]
            and _throughput(q) > _throughput(pt)
            for q in points
            if q is not pt
        )
        sweep_rows.append(
            (fig, name, f"B{chosen['B']}_R{chosen['R']:g}",
             round(pt["resource_consumption"]),
             round(throughput, 2) if throughput else throughput,
             "on frontier" if not dominated else "dominated")
        )
    w(_md_table(
        ("figure", "workload", "paper's choice", "measured node-hours",
         "measured throughput", "frontier check"),
        sweep_rows,
    ))
    w("")

    # ---------------------------------------------------------------- #
    # Tables 2-4
    # ---------------------------------------------------------------- #
    table_specs = (
        ("table2", "Table 2 — NASA iPSC (HTC)", "table2-nasa", "completed jobs"),
        ("table3", "Table 3 — SDSC BLUE (HTC)", "table3-blue", "completed jobs"),
        ("table4", "Table 4 — Montage (MTC)", "table4-montage", "tasks/s"),
    )
    for tid, title, scenario_name, tp_label in table_specs:
        w(f"## {title}\n")
        systems = results[scenario_name]["systems"]
        paper = {r.system: r for r in PAPER_TABLES[tid]}
        base = systems["DCS"]["resource_consumption"]
        rows = []
        for system in SYSTEM_ORDER:
            m = systems[system]
            p = paper[system]
            saving = (
                None if system == "DCS"
                else 1 - m["resource_consumption"] / base
            )
            throughput = (
                m["tasks_per_second"] if tid == "table4" else m["completed_jobs"]
            )
            paper_tp = (
                p.tasks_per_second if tid == "table4" else p.completed_jobs
            )
            rows.append(
                (system,
                 p.resource_consumption, round(m["resource_consumption"]),
                 _pct(p.saved_resources), _pct(saving),
                 paper_tp,
                 round(throughput, 2) if throughput else throughput)
            )
        w(_md_table(
            ("system", "paper node-h", "measured node-h", "paper saved",
             "measured saved", f"paper {tp_label}", f"measured {tp_label}"),
            rows,
        ))
        measured = {s: systems[s]["resource_consumption"] for s in SYSTEM_ORDER}
        w(f"\nShape check: {_verdict(check_table_shapes(tid, measured))}\n")

    # ---------------------------------------------------------------- #
    # Figures 12-14 + §4.5.4
    # ---------------------------------------------------------------- #
    w("## Figures 12-14 — the resource provider (consolidated run)\n")
    consolidated = results["fig12-14-consolidated"]
    horizon_s = consolidated["horizon_s"]

    def overhead_s_per_hour(series: dict) -> float:
        return _overhead_rate(series["adjusted_nodes"], horizon_s)

    rows = []
    for s in consolidated["series"]:
        rows.append(
            (s["system"], round(s["total_consumption_node_hours"]),
             round(s["concurrent_peak_nodes"]), s["adjusted_nodes"],
             round(overhead_s_per_hour(s), 1))
        )
    w(_md_table(
        ("system", "total node-hours (Fig 12)", "peak nodes (Fig 13)",
         "adjusted nodes (Fig 14)", "overhead s/h (§4.5.4)"),
        rows,
    ))
    by = {s["system"]: s for s in consolidated["series"]}
    dc, dcs, drp = by["DawningCloud"], by["DCS"], by["DRP"]
    claims = CONSOLIDATED_CLAIMS
    w("")
    w(_md_table(
        ("claim", "paper", "measured"),
        (
            ("DawningCloud total saving vs DCS/SSP",
             _pct(claims.dc_total_saving_vs_fixed),
             _pct(1 - dc["total_consumption_node_hours"]
                  / dcs["total_consumption_node_hours"])),
            ("DawningCloud total saving vs DRP",
             _pct(claims.dc_total_saving_vs_drp),
             _pct(1 - dc["total_consumption_node_hours"]
                  / drp["total_consumption_node_hours"])),
            ("DawningCloud peak / DCS peak",
             f"{claims.dc_peak_over_fixed:.2f}",
             f"{dc['concurrent_peak_nodes'] / dcs['concurrent_peak_nodes']:.2f}"),
            ("DawningCloud peak / DRP peak",
             f"{claims.dc_peak_over_drp:.2f}",
             f"{dc['concurrent_peak_nodes'] / drp['concurrent_peak_nodes']:.2f}"),
            ("DawningCloud overhead (s per hour)",
             f"{claims.dc_overhead_s_per_hour:.0f}",
             f"{overhead_s_per_hour(dc):.0f}"),
        ),
    ))
    totals = {
        s["system"]: s["total_consumption_node_hours"]
        for s in consolidated["series"]
    }
    peaks = {
        s["system"]: s["concurrent_peak_nodes"] for s in consolidated["series"]
    }
    adjustments = {
        s["system"]: s["adjusted_nodes"] for s in consolidated["series"]
    }
    w(f"\nShape check: "
      f"{_verdict(check_headline_shapes(totals, peaks, adjustments))}\n")
    w("The overhead row runs above the paper's 341 s/h because the "
      "synthetic traces trigger more DR1 grow/release cycles than the "
      "originals; by the paper's own acceptability criterion it is still "
      "negligible — "
      f"{overhead_s_per_hour(dc) / 3600:.2%} of one "
      "node's time per cluster-hour.\n")

    # ---------------------------------------------------------------- #
    # §4.5.5 TCO
    # ---------------------------------------------------------------- #
    w("## §4.5.5 — total cost of ownership (BJUT grid-lab case)\n")
    tco = results["tco-case"]
    w(_md_table(
        ("quantity", "paper", "measured"),
        (
            ("DCS TCO ($/month)", f"{TCO_CLAIMS.dcs_tco_per_month:,.0f}",
             f"{tco['dcs_tco_per_month']:,.0f}"),
            ("SSP TCO ($/month)", f"{TCO_CLAIMS.ssp_tco_per_month:,.0f}",
             f"{tco['ssp_tco_per_month']:,.0f}"),
            ("SSP / DCS", _pct(TCO_CLAIMS.ssp_over_dcs),
             _pct(tco["ssp_over_dcs"])),
        ),
    ))
    w("\nThe TCO case is closed-form arithmetic over the paper's own "
      "constants; it reproduces exactly (the $2 difference in the DCS "
      "column is the paper rounding $30,000/96 months to $310).\n")

    # ---------------------------------------------------------------- #
    # extensions
    # ---------------------------------------------------------------- #
    w("## Extensions beyond the paper\n")
    w("Full details in the ablation benchmarks (`pytest benchmarks/ "
      "--benchmark-only -s`). Highlights at this seed:\n")

    ladder = results["ablation-drp-pooling"]
    w("### The DRP manual-management ladder (NASA trace)\n")
    w(_md_table(
        ("strategy", "node-hours", "saving vs naive DRP"),
        [(r["strategy"], r["resource_consumption"],
          _pct(r["saving_vs_naive_drp"])) for r in ladder],
    ))
    w("\nPer-user lease pooling recovers almost nothing (one user's duty "
      "cycle cannot amortize a paid hour); community-wide pooling recovers "
      "much of the penalty; only the shared, queued runtime environment "
      "delivers the full saving. The economies of scale live in the "
      "sharing.\n")

    sweep = results["ablation-utilization"]
    w("### Economies of scale vs offered load (NASA shape, archive range)\n")
    w(_md_table(
        ("offered load", "DCS node-h", "DawningCloud node-h",
         "DawningCloud saving"),
        [(f"{r['utilization']:.1%}", r["dcs_node_hours"],
          r["dawningcloud_node_hours"],
          _pct(r["dawningcloud_saving_vs_dcs"])) for r in sweep],
    ))
    w("\nThe saving is a decreasing function of load: large below ~50% "
      "utilization, gone (and slightly negative) at the archive's 86.5% "
      "extreme, where a dedicated machine earns its keep and the dynamic "
      "system pays hour-rounding and churn. The paper's two workloads "
      "(46.6%, ~76%) sit on the favourable side of that curve.\n")

    w("### Billing meters (the provisioning kernel's market rules)\n")
    meters = results["ablation-billing-meter"]
    w(_md_table(
        ("billing meter", "DCS node-h", "SSP", "DRP", "DawningCloud",
         "DRP saving vs DCS"),
        [(r["billing"], r["dcs"], r["ssp"], r["drp"], r["dawning_cloud"],
          _pct(r["drp_saving_vs_dcs"])) for r in meters],
    ))
    w("\nRe-billing the *same* simulated systems under different meters "
      "(NASA trace; DCS owns its machine, so it anchors the comparison): "
      "per-second billing erases DRP's hour-rounding penalty entirely — "
      "most of Table 2's -25.8% is billing granularity, not provisioning "
      "strategy — while the reserved+spot tier rewards exactly the steady "
      "base load the fixed systems carry.\n")

    spot = results["drp-spot-market"]
    best_spot = min(spot, key=lambda r: r["total_node_hours"])
    w("### Spot-market DRP: sizing the reservation\n")
    w(_md_table(
        ("reserved nodes", "usage node-h", "standing node-h",
         "total node-h", "saving vs on-demand"),
        [(r["reserved_nodes"], r["usage_node_hours"],
          r["reservation_node_hours"], r["total_node_hours"],
          _pct(r["saving_vs_on_demand"])) for r in spot],
    ))
    w(f"\nThe total-cost curve has an interior minimum at "
      f"{best_spot['reserved_nodes']} reserved nodes "
      f"({_pct(best_spot['saving_vs_on_demand'])} below pure on-demand): "
      "reservations capture the base load cheaply, but standing cost on "
      "rarely-used burst headroom eventually wins — the capacity-planning "
      "question the paper's single-meter world cannot ask.\n")

    cross = results["pooled-drp-scheduler-cross"]
    w("### Pooled-DRP × scheduler cross (the composable runner)\n")
    w(_md_table(
        ("scheduler", "node-hours", "saving vs naive DRP", "completed",
         "work vs DRP"),
        [(r["scheduler"], r["resource_consumption"],
          _pct(r["saving_vs_naive_drp"]), r["completed_jobs"],
          _pct(r["completed_vs_drp"])) for r in cross],
    ))
    w("\nA queue plus any scheduler over one bounded, elastically leased "
      "pool — the strongest cooperative strategy short of a runtime "
      "environment. Savings are only comparable at (near-)equal completed "
      "work: backfilling roughly doubles the saving of naive dispatch "
      "rules while matching DRP's throughput, whereas FCFS's row partly "
      "reflects jobs it never finished inside the horizon. Even the best "
      "rung trails DawningCloud's negotiated sharing (Table 2): dispatch "
      "discipline alone does not buy the economies of scale.\n")

    w("### Reliability: node failures, repair, and checkpoint-restart\n")
    w("The failure-model scenario family (docs/reliability.md) re-asks the "
      "paper's cost question with nodes that die. Per-node MTBF/MTTR "
      "processes kill running jobs (requeued, or resumed from periodic "
      "checkpoints), dead nodes stop metering, and repaired nodes rejoin "
      "the provider.\n")

    mtbf_sweep = results["reliability-mtbf-sweep"]
    w("#### MTBF sweep: owned vs elastic (NASA trace)\n")
    w(_md_table(
        ("per-node MTBF (h)", "system", "node-hours", "completed",
         "cost/job", "wasted node-h", "downtime node-h"),
        [(("∞" if r["mtbf_hours"] is None else f"{r['mtbf_hours']:g}"),
          r["system"], r["resource_consumption"], r["completed_jobs"],
          r["cost_per_job"], r["wasted_node_hours"],
          r["downtime_node_hours"]) for r in mtbf_sweep],
    ))
    w("\nThe owned machine bills the full period whether nodes are up or "
      "not, so DCS's failure-adjusted cost per completed job climbs as "
      "MTBF falls; DawningCloud's dead nodes stop metering and the TRE "
      "re-grows around them, buying back part of the churn. Failures "
      "shift the economies-of-scale argument further toward the shared "
      "cloud.\n")

    ckpt = results["checkpoint-interval-ablation"]
    w("#### Checkpoint-interval ablation (DCS, MTBF 24 h)\n")
    w(_md_table(
        ("interval", "completed", "requeues", "restores", "wasted node-h",
         "goodput / billed hour"),
        [(("none" if r["checkpoint_interval_s"] is None
           else f"{r['checkpoint_interval_s']:g} s"),
          r["completed_jobs"], r["requeues"], r["checkpoint_restores"],
          r["wasted_node_hours"], r["goodput_per_billed_hour"])
         for r in ckpt],
    ))
    w("\nRestart-from-scratch re-executes long tails after every kill; "
      "over-frequent checkpoints pay write overhead on every job. The "
      "goodput-per-billed-hour column peaks between the endpoints — the "
      "Young/Daly trade-off reproduced on the paper's workload.\n")

    under = results["drp-vs-fixed-under-failures"]
    w("#### The four systems under one failure process (MTBF 48 h)\n")
    w(_md_table(
        ("system", "node-hours", "completed", "cost/job", "wasted node-h",
         "saving vs DCS"),
        [(r["system"], r["resource_consumption"], r["completed_jobs"],
          r["cost_per_job"], r["wasted_node_hours"],
          _pct(r["saving_vs_dcs"])) for r in under],
    ))
    w("\nEvery system faces the same per-node failure clock; who pays "
      "differs. DRP restarts each killed job on a fresh lease and pays "
      "the hour-rounding penalty again, widening Table 2's gap; "
      "DawningCloud keeps the best cost per completed job.\n")

    spot_f = results["spot-preemption-as-failure"]
    w("#### Spot preemptions as failures (DRP, spot at 35% of on-demand)\n")
    w(_md_table(
        ("preemption MTBF (h)", "checkpointing", "billed node-h",
         "effective cost", "completed", "saving vs on-demand"),
        [(("—" if r["preemption_mtbf_hours"] is None
           else f"{r['preemption_mtbf_hours']:g}"),
          ("yes" if r["checkpointing"] else "no"),
          r["billed_node_hours"], r["effective_cost"], r["completed_jobs"],
          _pct(r["saving_vs_on_demand"])) for r in spot_f],
    ))
    w("\nA spot instance is an on-demand instance with an exogenous kill "
      "process. Gang-scheduled wide jobs die when *any* of their nodes is "
      "preempted, so hostile rates erase the discount many times over; "
      "checkpointing widens the regime where cheap-but-mortal wins, and "
      "at mild rates the discount survives.\n")

    w("### Own-vs-lease break-even (extending the TCO case)\n")
    be = results["breakeven"]
    be_u = be["breakeven_utilization"]
    be_p = be["breakeven_price"]
    w(f"* Break-even duty level: "
      f"{'none — leasing wins even always-on' if be_u is None else f'{be_u:.1%}'}")
    w(f"* Break-even cloud price: ${be_p:.4f}/instance-hour against the "
      f"2009 actual $0.10 — owning only wins if the cloud were ~42% more "
      f"expensive; the paper's lease-vs-own conclusion is robust.\n")

    sensitivity = results["ablation-sensitivity"]
    w(sensitivity["markdown"])
    w("The automatic screen (docs/ablation.md) swaps every registered "
      "component one-off against the Table 2 DawningCloud baseline and "
      "perturbs the retargetable policy knobs ±25%, executing the whole "
      "run set through the supervised orchestrator with digest-stable run "
      "IDs — configurations that alias the baseline cost nothing, and each "
      "perturbation grid becomes one swept spec, cached as one run. The "
      "ranking quantifies the paper's own emphasis: the resource-"
      "management policy and the provisioning model dominate, the "
      "dispatch rule barely matters.\n")

    w("### Other ablations (see benchmarks)\n")
    w("* **Lease time unit** (`bench_ablation_lease_unit`): finer units "
      "bill fewer node-hours but multiply adjustments; one hour sits at "
      "the knee, supporting §4.4's choice.")
    w("* **Scan interval** (`bench_ablation_scan_interval`): 3 s vs 60 s "
      "is a wash for hour-scale batch jobs; 15 min visibly hurts waits — "
      "supporting §3.2.2's per-workload cadences.")
    w("* **Schedulers** (`bench_ablation_scheduler`, "
      "`bench_workflow_zoo`): swapping first-fit for SJF/backfilling/"
      "fair-share moves waits, not consumption — the savings come from "
      "resizing, not dispatch.")
    w("* **Policies** (`bench_policy_comparison`): the paper's B/R rule is "
      "competitive; EWMA smoothing saves ~10-20% more at equal "
      "throughput; a static TRE is cheap but abandons jobs.")
    w("* **Workflow zoo / Montage family** (`bench_workflow_zoo`, "
      "`bench_montage_scaling`): DawningCloud tracks the demand-sized "
      "fixed machine for every DAG shape and scale; the *DRP penalty* "
      "needs a Montage-like fan-out burst of short tasks and shrinks for "
      "gradual-release shapes — an honest boundary of the 74.9% headline.")
    w("* **Federation** (`bench_federation_scale`): at fixed total "
      "capacity, one big pool completes at least as much work as k "
      "fragments — the title's question holds at federation scale.\n")

    return "\n".join(out) + "\n"


def main(argv: Optional[list[str]] = None) -> int:  # pragma: no cover
    import argparse

    from repro.experiments.cache import NullCache, ResultCache

    parser = argparse.ArgumentParser(description="Regenerate EXPERIMENTS.md")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default="EXPERIMENTS.md")
    parser.add_argument(
        "--parallel", type=int, default=1, metavar="N",
        help="fan scenario runs out over N worker processes",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="ignore and do not write the on-disk result cache",
    )
    args = parser.parse_args(argv)
    orch = Orchestrator(
        cache=NullCache() if args.no_cache else ResultCache.default(),
        workers=args.parallel,
        seed=args.seed,
    )
    text = render_experiments_md(args.seed, orchestrator=orch)
    with open(args.out, "w") as fh:
        fh.write(text)
    print(f"wrote {args.out} ({len(text.splitlines())} lines)")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
