"""Golden-value regression tests for the registry scenarios.

Every headline metric the reproduction reports is pinned here at seed 0,
next to the qualitative shape checks from
:mod:`repro.experiments.paperdata`.  The shape checks guard the paper's
conclusions; the golden values guard the *reproduction itself* — a
refactor that silently shifts a reproduced number (even in a direction
that still satisfies the shapes) fails these tests and must either be
fixed or consciously re-pin the goldens (and regenerate EXPERIMENTS.md,
which is rendered from the same scenario payloads).

The simulations are deterministic in (seed, params), so the comparisons
are exact for integers and tight (1e-9 relative) for floats.
"""

from __future__ import annotations

import pytest

from repro.experiments.orchestrator import Orchestrator
from repro.experiments.paperdata import (
    check_headline_shapes,
    check_table_shapes,
)

pytestmark = pytest.mark.slow

GOLDEN_SCENARIOS = (
    "table2-nasa",
    "table3-blue",
    "table4-montage",
    "fig12-14-consolidated",
    "tco-case",
    "breakeven",
    "reliability-mtbf-sweep",
    "checkpoint-interval-ablation",
    "drp-vs-fixed-under-failures",
    "spot-preemption-as-failure",
    "million-node-year",
)

#: node-hours per system, standalone runs at seed 0, capacity 420
GOLDEN_CONSUMPTION = {
    "table2-nasa": {
        "DCS": 43008, "SSP": 43008, "DRP": 46702.0, "DawningCloud": 33899.0,
    },
    "table3-blue": {
        "DCS": 48384, "SSP": 48384, "DRP": 36948.0, "DawningCloud": 38922.0,
    },
    "table4-montage": {
        "DCS": 166, "SSP": 166, "DRP": 611.0, "DawningCloud": 166.0,
    },
}

#: completed jobs (HTC) / completed tasks (MTC) per system
GOLDEN_COMPLETED = {
    "table2-nasa": {
        "DCS": 2597, "SSP": 2597, "DRP": 2603, "DawningCloud": 2603,
    },
    "table3-blue": {
        "DCS": 2656, "SSP": 2656, "DRP": 2657, "DawningCloud": 2657,
    },
    "table4-montage": {
        "DCS": 1000, "SSP": 1000, "DRP": 1000, "DawningCloud": 1000,
    },
}

#: Montage tasks/s per system
GOLDEN_TASKS_PER_SECOND = {
    "DCS": 2.108984494332287,
    "SSP": 2.108984494332287,
    "DRP": 2.3400519422232855,
    "DawningCloud": 2.108984494332287,
}

#: consolidated run: total node-hours / concurrent peak / capacity peak /
#: accumulated adjustments, per system
GOLDEN_CONSOLIDATED = {
    "DCS": (91558, 438.0, 438.0, 0),
    "SSP": (91558, 438.0, 438.0, 876),
    "DRP": (84261.0, 794.0, 1486.0, 99546),
    "DawningCloud": (70133.0, 408.0, 758.0, 23594),
}

GOLDEN_TCO = {
    "dcs_tco_per_month": 3162.5,
    "ssp_tco_per_month": 2260.0,
    "ssp_over_dcs": 0.7146245059288537,
}

GOLDEN_BREAKEVEN_PRICE = 0.1417824074074074

#: reliability-mtbf-sweep rows at seed 0, keyed (mtbf_hours, system):
#: (resource_consumption, completed_jobs, requeues)
GOLDEN_MTBF_SWEEP = {
    (None, "DCS"): (43008, 2597, 0),
    (None, "DawningCloud"): (33899.0, 2603, 0),
    (48.0, "DCS"): (43008, 2569, 462),
    (48.0, "DawningCloud"): (39744.0, 2603, 538),
    (96.0, "DCS"): (43008, 2569, 227),
    (96.0, "DawningCloud"): (38982.0, 2603, 268),
    (192.0, "DCS"): (43008, 2571, 109),
    (192.0, "DawningCloud"): (38806.0, 2603, 124),
    (384.0, "DCS"): (43008, 2574, 59),
    (384.0, "DawningCloud"): (36941.0, 2603, 75),
}

#: checkpoint-interval-ablation at seed 0, keyed by interval:
#: (completed_jobs, requeues, checkpoint_restores, goodput_per_billed_hour)
GOLDEN_CHECKPOINT_ABLATION = {
    None: (2362, 1554, 0, 0.2388),
    900.0: (2569, 972, 539, 0.4229),
    1800.0: (2569, 1122, 400, 0.4229),
    3600.0: (2562, 1412, 248, 0.3756),
    7200.0: (2548, 1457, 114, 0.3465),
}

#: drp-vs-fixed-under-failures at seed 0 (MTBF 48 h, ckpt 1800 s):
#: (resource_consumption, completed_jobs, cost_per_job, saving_vs_dcs)
GOLDEN_FOUR_SYSTEMS_FAILURES = {
    "DCS": (43008, 2569, 16.741, 0.0),
    "SSP": (41832.0, 2569, 16.283, 0.027),
    "DRP": (69725.0, 2603, 26.786, -0.621),
    "DawningCloud": (39744.0, 2603, 15.269, 0.076),
}

#: spot-preemption-as-failure at seed 0, keyed (mtbf, checkpointing):
#: (billed_node_hours, completed_jobs, saving_vs_on_demand)
GOLDEN_SPOT_PREEMPTION = {
    (None, False): (46702.0, 2603, 0.0),
    (24.0, False): (916447.0, 2574, -5.868),
    (24.0, True): (120942.0, 2603, 0.094),
    (48.0, False): (407374.0, 2592, -2.053),
    (48.0, True): (69725.0, 2603, 0.477),
    (96.0, False): (185801.0, 2602, -0.392),
    (96.0, True): (55510.0, 2603, 0.584),
}

#: million-node-year at seed 0: one simulated year of DCS and SSP on 10**6
#: nodes, evolved in closed form by the fluid tier's columnar path
#: (compared as canonical JSON, so an integer turning float drifts too)
GOLDEN_MILLION_NODE_YEAR = {
    "horizon_s": 31536000.0,
    "kernel": "numpy",
    "n_jobs": 2000000,
    "nodes": 1000000,
    "systems": {
        system: {
            "adjusted_nodes": adjusted,
            "completed_jobs": 2000000,
            "makespan_s": None,
            "peak_nodes": 1000000.0,
            "provider": "perfscale",
            "resource_consumption": consumption,
            "submitted_jobs": 2000000,
            "system": system,
            "tasks_per_second": None,
            "workload": "perfscale",
        }
        for system, adjusted, consumption in (
            ("DCS", 0, 8760000000),
            ("SSP", 2000000, 8760000000.0),
        )
    },
}


@pytest.fixture(scope="module")
def golden_runs(tmp_path_factory):
    """All pinned scenarios at seed 0, computed fresh for this run.

    A per-run cache directory (not the shared ``./.repro-cache``)
    guarantees the goldens are recomputed rather than replayed from
    payloads cached before e.g. a dependency upgrade — the code-version
    digest only covers ``src/repro``.
    """
    from repro.experiments.cache import ResultCache

    cache = ResultCache(tmp_path_factory.mktemp("golden-cache"))
    orch = Orchestrator(cache=cache, seed=0)
    return orch.run(names=GOLDEN_SCENARIOS)


@pytest.mark.parametrize("scenario", sorted(GOLDEN_CONSUMPTION))
def test_table_consumption_and_throughput_pinned(golden_runs, scenario):
    systems = golden_runs[scenario].payload["systems"]
    for system, expected in GOLDEN_CONSUMPTION[scenario].items():
        measured = systems[system]["resource_consumption"]
        assert measured == pytest.approx(expected, rel=1e-9), (
            f"{scenario}/{system} consumption drifted: "
            f"{measured} != golden {expected}"
        )
    for system, expected in GOLDEN_COMPLETED[scenario].items():
        assert systems[system]["completed_jobs"] == expected
    if scenario == "table4-montage":
        for system, expected in GOLDEN_TASKS_PER_SECOND.items():
            assert systems[system]["tasks_per_second"] == pytest.approx(
                expected, rel=1e-9
            )


@pytest.mark.parametrize("tid,scenario", [
    ("table2", "table2-nasa"),
    ("table3", "table3-blue"),
    ("table4", "table4-montage"),
])
def test_table_shapes_hold(golden_runs, tid, scenario):
    systems = golden_runs[scenario].payload["systems"]
    measured = {s: m["resource_consumption"] for s, m in systems.items()}
    assert check_table_shapes(tid, measured) == []


def test_consolidated_figures_pinned(golden_runs):
    payload = golden_runs["fig12-14-consolidated"].payload
    assert payload["horizon_s"] == 1209600.0
    by = {s["system"]: s for s in payload["series"]}
    for system, (total, peak, cap_peak, adjusted) in GOLDEN_CONSOLIDATED.items():
        s = by[system]
        assert s["total_consumption_node_hours"] == pytest.approx(
            total, rel=1e-9
        ), f"{system} total drifted"
        assert s["concurrent_peak_nodes"] == pytest.approx(peak, rel=1e-9)
        assert s["capacity_peak_nodes"] == pytest.approx(cap_peak, rel=1e-9)
        assert s["adjusted_nodes"] == adjusted


def test_consolidated_shapes_hold(golden_runs):
    payload = golden_runs["fig12-14-consolidated"].payload
    totals = {
        s["system"]: s["total_consumption_node_hours"]
        for s in payload["series"]
    }
    peaks = {s["system"]: s["concurrent_peak_nodes"] for s in payload["series"]}
    adjustments = {
        s["system"]: s["adjusted_nodes"] for s in payload["series"]
    }
    assert check_headline_shapes(totals, peaks, adjustments) == []


def test_reliability_mtbf_sweep_pinned(golden_runs):
    rows = golden_runs["reliability-mtbf-sweep"].payload
    measured = {
        (r["mtbf_hours"], r["system"]):
            (r["resource_consumption"], r["completed_jobs"], r["requeues"])
        for r in rows
    }
    assert set(measured) == set(GOLDEN_MTBF_SWEEP)
    for key, (consumption, completed, requeues) in GOLDEN_MTBF_SWEEP.items():
        got = measured[key]
        assert got[0] == pytest.approx(consumption, rel=1e-9), (
            f"{key} consumption drifted: {got[0]} != {consumption}"
        )
        assert got[1] == completed, f"{key} completed drifted"
        assert got[2] == requeues, f"{key} requeues drifted"


def test_checkpoint_interval_ablation_pinned(golden_runs):
    rows = golden_runs["checkpoint-interval-ablation"].payload
    measured = {
        r["checkpoint_interval_s"]:
            (r["completed_jobs"], r["requeues"], r["checkpoint_restores"],
             r["goodput_per_billed_hour"])
        for r in rows
    }
    assert measured == GOLDEN_CHECKPOINT_ABLATION
    # the qualitative shape: some checkpointing beats none, and the
    # goodput-per-billed-hour curve is unimodal over the interval grid
    efficiencies = [r["goodput_per_billed_hour"] for r in rows]
    assert max(efficiencies[1:]) > efficiencies[0]


def test_failures_four_systems_pinned(golden_runs):
    rows = {r["system"]: r
            for r in golden_runs["drp-vs-fixed-under-failures"].payload}
    for system, (consumption, completed, cost, saving) in (
        GOLDEN_FOUR_SYSTEMS_FAILURES.items()
    ):
        r = rows[system]
        assert r["resource_consumption"] == pytest.approx(consumption,
                                                          rel=1e-9)
        assert r["completed_jobs"] == completed
        assert r["cost_per_job"] == pytest.approx(cost, rel=1e-9)
        assert r["saving_vs_dcs"] == pytest.approx(saving, rel=1e-9)
    # the paper's ordering survives failures: DawningCloud cheapest per
    # job, DRP's hour-rounding penalty widens
    assert rows["DawningCloud"]["cost_per_job"] < rows["DCS"]["cost_per_job"]
    assert rows["DRP"]["cost_per_job"] > rows["DCS"]["cost_per_job"]


def test_spot_preemption_pinned(golden_runs):
    rows = {
        (r["preemption_mtbf_hours"], r["checkpointing"]):
            (r["billed_node_hours"], r["completed_jobs"],
             r["saving_vs_on_demand"])
        for r in golden_runs["spot-preemption-as-failure"].payload
    }
    assert rows == GOLDEN_SPOT_PREEMPTION
    # shape: without checkpointing spot never wins; with it the saving
    # grows monotonically as preemptions get milder
    for (mtbf, ckpt), (_, _, saving) in GOLDEN_SPOT_PREEMPTION.items():
        if mtbf is not None and not ckpt:
            assert saving < 0
    ckpt_savings = [GOLDEN_SPOT_PREEMPTION[(m, True)][2]
                    for m in (24.0, 48.0, 96.0)]
    assert ckpt_savings == sorted(ckpt_savings)


def test_reliability_sweep_parallel_matches_serial(tmp_path):
    """Same spec + seed ⇒ byte-identical payload with failures enabled.

    The determinism argument for per-slot RNG streams (docs/reliability
    .md) must survive the process pool: a 4-worker run and an in-process
    run of the reliability scenarios produce identical canonical JSON.
    """
    from repro.experiments.cache import ResultCache, canonical_json
    from repro.experiments.orchestrator import payloads

    names = ("reliability-mtbf-sweep", "drp-vs-fixed-under-failures")
    serial = Orchestrator(
        cache=ResultCache(tmp_path / "serial"), workers=1, seed=0
    ).run(names=names)
    parallel = Orchestrator(
        cache=ResultCache(tmp_path / "parallel"), workers=4, seed=0
    ).run(names=names)
    assert canonical_json(payloads(serial)) == canonical_json(
        payloads(parallel)
    )
    assert not any(run.cached for run in serial.values())
    assert not any(run.cached for run in parallel.values())


def test_million_node_year_pinned(golden_runs):
    from repro.experiments.cache import canonical_json

    payload = golden_runs["million-node-year"].payload
    assert canonical_json(payload) == canonical_json(GOLDEN_MILLION_NODE_YEAR)


def test_tco_and_breakeven_pinned(golden_runs):
    tco = golden_runs["tco-case"].payload
    for key, expected in GOLDEN_TCO.items():
        assert tco[key] == pytest.approx(expected, rel=1e-12)
    be = golden_runs["breakeven"].payload
    assert be["breakeven_utilization"] is None  # leasing always wins
    assert be["breakeven_price"] == pytest.approx(
        GOLDEN_BREAKEVEN_PRICE, rel=1e-12
    )
