"""Tests for the experiment harness (config, tables, sweeps, report)."""

import pytest

from repro.api.run import run_artifact
from repro.experiments.ablations import workload_ref_for_bundle
from repro.experiments.config import (
    EvaluationSetup,
    MONTAGE_FIXED_NODES,
    PAPER_POLICIES,
    SWEEP_B,
    SWEEP_R_HTC,
    SWEEP_R_MTC,
    montage_bundle,
)
from repro.experiments.report import (
    render_percentage_rows,
    render_sweep,
    render_table,
)
from repro.experiments.sweep import SweepPoint, best_point, points_from_payload
from repro.experiments.tables import table1, table_rows_from_payload
from repro.systems.base import WorkloadBundle
from tests.conftest import make_job, make_trace

HOUR = 3600.0


class TestConfig:
    def test_paper_parameter_choices(self):
        assert PAPER_POLICIES["nasa-ipsc"].initial_nodes == 40
        assert PAPER_POLICIES["nasa-ipsc"].threshold_ratio == 1.2
        assert PAPER_POLICIES["sdsc-blue"].initial_nodes == 80
        assert PAPER_POLICIES["sdsc-blue"].threshold_ratio == 1.5
        assert PAPER_POLICIES["montage"].initial_nodes == 10
        assert PAPER_POLICIES["montage"].threshold_ratio == 8.0

    def test_sweep_grids(self):
        assert SWEEP_B == (10, 20, 40, 80)
        assert SWEEP_R_HTC == (1.0, 1.2, 1.5, 2.0)
        assert SWEEP_R_MTC == (2.0, 4.0, 8.0, 16.0)

    def test_montage_fixed_nodes(self):
        assert MONTAGE_FIXED_NODES == 166
        assert montage_bundle(0).fixed_nodes == 166

    def test_setup_bundles(self):
        setup = EvaluationSetup(seed=0)
        names = [b.name for b in setup.bundles()]
        assert names == ["nasa-ipsc", "sdsc-blue", "montage"]
        assert setup.bundle("montage").kind == "mtc"
        with pytest.raises(KeyError):
            setup.bundle("nope")

    def test_consolidated_montage_submit_time(self):
        setup = EvaluationSetup(seed=0, montage_submit_time=100 * HOUR)
        bundle = setup.bundle("montage", consolidated=True)
        assert bundle.workflow.submit_time == 100 * HOUR


class TestTable1:
    def test_four_models(self):
        rows = table1()
        assert [r["model"] for r in rows] == ["DCS", "SSP", "DRP", "DSP"]

    def test_dsp_is_flexible(self):
        dsp = table1()[-1]
        assert dsp["resources_provision"] == "flexible"
        assert dsp["runtime_environment"] == "created on the demand"

    def test_dcs_is_local(self):
        assert table1()[0]["resource_property"] == "local"


def _small_htc_ref() -> dict:
    jobs = [
        make_job(i, submit=(i - 1) * 200.0, size=2, runtime=600.0)
        for i in range(1, 9)
    ]
    return workload_ref_for_bundle(
        WorkloadBundle.from_trace("s", make_trace(jobs, 8, 2 * HOUR, "s"))
    )


#: an entry task, six parallel ~20 s workers and an exit task, on a
#: 3-node fixed machine
SMALL_MTC_REF = {
    "generator": "fork-join",
    "params": {"width": 6, "mean_runtime": 20.0, "fixed_nodes": 3},
}


def _four_systems_rows(workload: dict, policy: dict) -> list[dict]:
    return table_rows_from_payload(run_artifact({
        "kind": "four-systems", "workload": workload, "policy": policy,
        "capacity": 64,
    }))


def _sweep_points(workload: dict, b: list, r: list) -> list[SweepPoint]:
    return points_from_payload(run_artifact({
        "kind": "sweep", "workload": workload, "capacity": 64, "B": b, "R": r,
    }))


class TestTablesForBundles:
    def test_htc_table_rows(self):
        rows = _four_systems_rows(
            _small_htc_ref(),
            {"name": "paper-htc",
             "params": {"initial_nodes": 2, "threshold_ratio": 1.5}},
        )
        assert [r["configuration"] for r in rows] == [
            "DCS system",
            "SSP system",
            "DRP system",
            "DawningCloud",
        ]
        assert rows[0]["saved_resources"] is None  # DCS is the baseline
        assert rows[1]["saved_resources"] == pytest.approx(0.0)
        assert all("number_of_completed_jobs" in r for r in rows)

    def test_mtc_table_uses_tasks_per_second(self):
        rows = _four_systems_rows(
            SMALL_MTC_REF,
            {"name": "paper-mtc",
             "params": {"initial_nodes": 2, "threshold_ratio": 8.0}},
        )
        assert all("tasks_per_second" in r for r in rows)


class TestSweep:
    def test_htc_sweep_grid_size(self):
        points = _sweep_points(_small_htc_ref(), [2, 4], [1.0, 2.0])
        assert len(points) == 4
        assert {p.label for p in points} == {"B2_R1", "B2_R2", "B4_R1", "B4_R2"}
        # HTC throughput is completed jobs; the MTC rate stays empty
        assert all(p.tasks_per_second is None for p in points)

    def test_mtc_sweep_reports_tasks_per_second(self):
        points = _sweep_points(SMALL_MTC_REF, [2], [2.0, 8.0])
        assert all(p.tasks_per_second is not None for p in points)

    def test_larger_initial_nodes_cost_at_least_as_much_when_idle(self):
        points = _sweep_points(_small_htc_ref(), [2, 8], [2.0])
        by_b = {p.initial_nodes: p.resource_consumption for p in points}
        assert by_b[8] >= by_b[2]

    def test_best_point_prefers_cheapest_at_equal_throughput(self):
        points = [
            SweepPoint(10, 1.0, resource_consumption=100, completed_jobs=50),
            SweepPoint(20, 1.0, resource_consumption=80, completed_jobs=50),
            SweepPoint(40, 1.0, resource_consumption=60, completed_jobs=40),
        ]
        assert best_point(points).initial_nodes == 20

    def test_best_point_requires_nonempty(self):
        with pytest.raises(ValueError):
            best_point([])


class TestReport:
    def test_render_table_alignment(self):
        text = render_table([{"a": 1, "b": "xy"}, {"a": 22, "b": None}], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "b" in lines[1]
        assert "/" in text  # None renders as the paper's "/"

    def test_render_percentage_rows(self):
        rows = render_percentage_rows([{"saved_resources": 0.325},
                                       {"saved_resources": -0.258}])
        assert rows[0]["saved_resources"] == "32.5%"
        assert rows[1]["saved_resources"] == "-25.8%"

    def test_render_sweep(self):
        points = [SweepPoint(10, 1.5, 1234.0, 42)]
        text = render_sweep(points, title="Fig")
        assert "B10_R1.5" in text and "1234" in text

    def test_render_empty_table(self):
        assert "(no rows)" in render_table([])
