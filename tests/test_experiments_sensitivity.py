"""Tests for the automated ablation & sensitivity engine (PR 10).

The pinned invariants:

* **Plans expand deterministically** — baseline first, digest run IDs,
  baseline markers aliasing the baseline run, unexpressible swaps
  recorded (never silently dropped), retargetable single-path grids
  collapsing into one swept spec, cached as one run.
* **The baseline runs once** — N one-off ablations over one baseline
  perform exactly one baseline execution; a second plan over the same
  baseline gets it back as a cache hit (the duplicate-baseline bug the
  hand-rolled sweeps used to have).
* **Run IDs are digest-stable across processes** and parallel execution
  is byte-identical to serial execution.
* **Deltas are antisymmetric** — swapping A→B measured from baseline A
  is the negated B→A delta on the shared metrics.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.api.spec import ExperimentSpec, spec_digest
from repro.experiments.cache import ResultCache, canonical_json
from repro.experiments.sensitivity import (
    AblationPlan,
    Alternative,
    ComponentAxis,
    PathGrid,
    baseline_from_scenario,
    execute_plan,
    generate_variants,
    markdown_table,
    perturbation_grids,
    plan_from_spec,
    render_report,
    run_ablation,
    scenario_plans,
    score_execution,
)

pytestmark = pytest.mark.timeout(300)

# a deliberately tiny trace so every engine test simulates in milliseconds
_JOBS = [
    [0, 0.0, 2, 300.0, 0, "htc"],
    [1, 60.0, 4, 600.0, 0, "htc"],
    [2, 120.0, 1, 900.0, 1, "htc"],
    [3, 600.0, 8, 300.0, 1, "htc"],
    [4, 1800.0, 2, 1200.0, 0, "htc"],
    [5, 3000.0, 4, 600.0, 1, "htc"],
]

_WORKLOAD = {
    "generator": "inline-trace",
    "params": {
        "name": "tiny",
        "machine_nodes": 16,
        "duration": 7200.0,
        "jobs": _JOBS,
    },
}

_POLICY = {"name": "paper-htc", "params": {"initial_nodes": 4}}
_ALT_POLICY = Alternative(
    "demand-tracking", {"initial_nodes": 4, "scan_interval_s": 60.0}
)


def _baseline(name: str = "tiny-base") -> ExperimentSpec:
    return ExperimentSpec(
        name=name,
        workloads=(_WORKLOAD,),
        systems=(
            {"runner": "dawningcloud", "params": {"capacity": 64},
             "policy": _POLICY},
        ),
    )


class TestPlanGeneration:
    def test_baseline_variant_comes_first(self):
        plan = AblationPlan(name="p", baseline=_baseline())
        variants, skipped = generate_variants(plan)
        assert len(variants) == 1 and not skipped
        assert variants[0].is_baseline
        assert variants[0].run_id == spec_digest(plan.baseline)

    def test_axis_baseline_marker_aliases_the_baseline_run(self):
        plan = AblationPlan(
            name="p",
            baseline=_baseline(),
            axes=(
                ComponentAxis(
                    kind="policy",
                    alternatives=(
                        Alternative("paper-htc", {"initial_nodes": 4}),
                        _ALT_POLICY,
                    ),
                    baseline="paper-htc",
                ),
            ),
        )
        variants, _ = generate_variants(plan)
        base, marker, swap = variants
        assert marker.run_id == base.run_id  # shares the execution
        assert marker.value == "paper-htc" and not marker.is_baseline
        assert swap.run_id != base.run_id

    def test_unexpressible_swaps_are_recorded_not_dropped(self):
        # eager-pool requires a 'cap' the baseline does not provide
        plan = AblationPlan(
            name="p",
            baseline=_baseline(),
            axes=(ComponentAxis(kind="policy", baseline="paper-htc"),),
        )
        variants, skipped = generate_variants(plan)
        assert any(s.value == "eager-pool" for s in skipped)
        assert all("requires parameter" in s.reason for s in skipped)
        assert all(v.value != "eager-pool" for v in variants)

    def test_unknown_axis_kind_raises(self):
        plan = AblationPlan(
            name="p",
            baseline=_baseline(),
            axes=(ComponentAxis(kind="frobnicator"),),
        )
        with pytest.raises(ValueError, match="frobnicator"):
            generate_variants(plan)

    def test_retargetable_grid_collapses_to_one_swept_variant(self):
        plan = AblationPlan(
            name="p",
            baseline=_baseline(),
            grids=(
                PathGrid(
                    label="cadence",
                    paths=("policy.params.release_check_interval_s",),
                    values=((1800.0,), (3600.0,), (7200.0,)),
                    baseline=(3600.0,),
                ),
            ),
        )
        variants, _ = generate_variants(plan)
        sweeps = [v for v in variants if v.sweep]
        assert len(sweeps) == 1
        (sweep,) = sweeps
        assert sweep.point == {
            "policy.params.release_check_interval_s": [1800.0, 7200.0]
        }
        # the marker point aliases the baseline instead of re-running
        markers = [
            v for v in variants
            if v.run_id == variants[0].run_id and not v.is_baseline
        ]
        assert len(markers) == 1

    def test_non_retargetable_grid_stays_per_point(self):
        plan = AblationPlan(
            name="p",
            baseline=_baseline(),
            grids=(
                PathGrid(
                    label="capacity",
                    paths=("params.capacity",),
                    values=((32,), (64,), (128,)),
                    baseline=(64,),
                ),
            ),
        )
        variants, _ = generate_variants(plan)
        assert not any(v.sweep for v in variants)
        off_baseline = [
            v for v in variants
            if v.point and v.run_id != variants[0].run_id
        ]
        assert len(off_baseline) == 2

    def test_grid_point_arity_is_validated(self):
        with pytest.raises(ValueError, match="does not match"):
            PathGrid(label="bad", paths=("a", "b"), values=((1.0,),))


class TestPlanFromSpec:
    def test_markers_inferred_from_the_spec(self):
        plan = plan_from_spec(_baseline())
        markers = {axis.kind: axis.baseline for axis in plan.axes}
        assert markers["policy"] == "paper-htc"
        # absent refs mean the paper defaults: per-started-hour billing,
        # first-fit dispatch on a DawningCloud-only baseline
        assert markers["billing-meter"] == "per-hour"
        assert markers["scheduler"] == "first-fit"
        assert markers["provisioning-policy"] == "consolidated"

    def test_perturbation_grids_bracket_the_baseline(self):
        grids = perturbation_grids(
            _baseline(), ("policy.params.threshold_ratio",), step=0.5
        )
        (grid,) = grids
        # paper-htc default threshold_ratio is 1.5
        assert grid.values == ((0.75,), (1.5,), (2.25,))
        assert grid.baseline == (1.5,)

    def test_perturbation_rejects_non_numeric_paths(self):
        with pytest.raises(ValueError, match="does not resolve"):
            perturbation_grids(_baseline(), ("policy.params.nope",))

    def test_step_must_be_positive(self):
        with pytest.raises(ValueError, match="step"):
            perturbation_grids(
                _baseline(), ("policy.params.threshold_ratio",), step=0.0
            )


class TestSingleBaselineExecution:
    """Satellite: N one-off ablations -> exactly one baseline run."""

    def _plan(self, axis_kind: str, **kwargs) -> AblationPlan:
        return AblationPlan(
            name=f"p-{axis_kind}",
            baseline=_baseline(),
            axes=(ComponentAxis(kind=axis_kind, **kwargs),),
        )

    def test_marker_variants_share_the_baseline_execution(self):
        plan = AblationPlan(
            name="p",
            baseline=_baseline(),
            axes=(
                ComponentAxis(
                    kind="policy",
                    alternatives=(
                        Alternative("paper-htc", {"initial_nodes": 4}),
                        _ALT_POLICY,
                    ),
                    baseline="paper-htc",
                ),
            ),
        )
        execution = execute_plan(plan)
        # three variants, two distinct configurations, two executions
        assert len(execution.variants) == 3
        assert len(execution.payloads) == 2
        assert sum(1 for c in execution.cached.values() if not c) == 2

    def test_two_plans_share_one_baseline_run_through_the_cache(
        self, tmp_path
    ):
        cache = ResultCache(tmp_path / "cache")
        sched = self._plan(
            "scheduler",
            alternatives=(Alternative("fcfs", params={}),),
        )
        pol = self._plan(
            "policy",
            alternatives=(_ALT_POLICY,),
        )
        first = execute_plan(sched, cache=cache)
        second = execute_plan(pol, cache=cache)
        base_id = spec_digest(_baseline())
        assert first.cached[base_id] is False  # the one real execution
        assert second.cached[base_id] is True  # shared, not re-run
        assert (
            canonical_json(first.payloads[base_id])
            == canonical_json(second.payloads[base_id])
        )


class TestDifferential:
    """Satellite: digest stability, parallel==serial, delta antisymmetry."""

    def _plan(self) -> AblationPlan:
        return AblationPlan(
            name="diff",
            baseline=_baseline(),
            axes=(
                ComponentAxis(
                    kind="scheduler",
                    alternatives=(
                        Alternative("fcfs", params={}),
                        Alternative("sjf", params={}),
                    ),
                ),
            ),
        )

    def test_run_ids_are_digest_stable_across_processes(self):
        variants, _ = generate_variants(self._plan())
        here = [v.run_id for v in variants]
        code = (
            "import json, sys\n"
            "sys.path.insert(0, 'tests')\n"
            "from test_experiments_sensitivity import TestDifferential\n"
            "from repro.experiments.sensitivity import generate_variants\n"
            "variants, _ = generate_variants(TestDifferential()._plan())\n"
            "print(json.dumps([v.run_id for v in variants]))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, check=True,
            cwd=str(Path(__file__).resolve().parent.parent),
        )
        assert json.loads(out.stdout) == here

    def test_parallel_execution_matches_serial_byte_for_byte(self):
        plan = self._plan()
        serial = execute_plan(plan, workers=0)
        parallel = execute_plan(plan, workers=2)
        assert canonical_json(serial.payloads) == canonical_json(
            parallel.payloads
        )

    def test_swap_delta_is_antisymmetric(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        base_a = _baseline("base-a")
        base_b = ExperimentSpec(
            name="base-b",
            workloads=base_a.workloads,
            systems=(
                {
                    "runner": "dawningcloud",
                    "params": {"capacity": 64},
                    "policy": {
                        "name": "demand-tracking",
                        "params": {
                            "initial_nodes": 4, "scan_interval_s": 60.0
                        },
                    },
                },
            ),
        )
        a_to_b = run_ablation(
            AblationPlan(
                name="a->b", baseline=base_a,
                axes=(ComponentAxis("policy", (_ALT_POLICY,)),),
            ),
            cache=cache,
        )
        b_to_a = run_ablation(
            AblationPlan(
                name="b->a", baseline=base_b,
                axes=(
                    ComponentAxis(
                        "policy",
                        (Alternative("paper-htc", {"initial_nodes": 4}),),
                    ),
                ),
            ),
            cache=cache,
        )
        (ab,) = a_to_b.outcomes
        (ba,) = b_to_a.outcomes
        for key in ("cost_node_hours", "throughput_jobs"):
            delta_ab = ab.deltas[key]
            delta_ba = ba.deltas[key]
            assert delta_ab is not None and delta_ba is not None
            assert delta_ab == pytest.approx(-delta_ba)


class TestScoring:
    def test_failed_variant_becomes_a_recorded_skip(self):
        plan = AblationPlan(
            name="p",
            baseline=_baseline(),
            axes=(
                ComponentAxis(
                    kind="scheduler",
                    alternatives=(Alternative("fcfs", params={}),),
                ),
            ),
        )
        execution = execute_plan(plan)
        swap_id = execution.variants[1].run_id
        execution.payloads[swap_id] = None  # simulate a dead run
        report = score_execution(execution)
        assert not report.outcomes
        assert any(s.reason == "execution failed" for s in report.skipped)

    def test_report_payload_shape(self):
        plan = AblationPlan(
            name="p",
            baseline=_baseline(),
            axes=(
                ComponentAxis(
                    kind="scheduler",
                    alternatives=(Alternative("fcfs", params={}),),
                ),
            ),
        )
        payload = run_ablation(plan).to_payload()
        assert payload["plan"] == "p"
        assert payload["executed"] == 2 and payload["cache_hits"] == 0
        assert set(payload["baseline"]) >= {"run_id", "cost_node_hours",
                                            "throughput_jobs"}
        (row,) = payload["rows"]
        assert row["axis"] == "scheduler" and row["component"] == "fcfs"
        assert "importance" in row and "harmful" in row


class TestScenarioPlans:
    def test_sweep_scenarios_are_rejected_with_reasons(self):
        plans, rejected = scenario_plans("fig09-*")
        assert not plans
        assert rejected
        assert all("no single baseline" in r for r in rejected.values())

    def test_table2_reduces_to_a_dawningcloud_baseline(self):
        spec = baseline_from_scenario("table2-nasa")
        assert [s.runner for s in spec.systems] == ["dawningcloud"]
        (plan,), rejected = scenario_plans("table2-nasa")
        assert not rejected
        assert plan.name == "ablate:table2-nasa"

    def test_unknown_scenario_raises(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            baseline_from_scenario("no-such-scenario")


class TestRendering:
    def test_markdown_table_formats_and_orders_columns(self):
        table = markdown_table(
            [
                {"a": 1.23456, "b": None, "c": True},
                {"a": 2.0, "d": "x"},
            ]
        )
        lines = table.splitlines()
        assert lines[0] == "| a | b | c | d |"
        assert "1.235" in lines[2] and "—" in lines[2] and "yes" in lines[2]

    def test_render_report_marks_harmful_and_lists_skips(self):
        plan = plan_from_spec(_baseline(), kinds=("policy",))
        text = render_report(run_ablation(plan))
        assert text.startswith("### Ablation & sensitivity: ")
        assert "ranked by importance" in text
        assert "Not expressible from this baseline:" in text
        assert "`policy`/`eager-pool`" in text
