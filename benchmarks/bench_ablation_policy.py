"""Ablation (beyond the paper): DawningCloud design-choice sensitivity.

Two knobs DESIGN.md calls out:

1. the hourly idle-release check cadence (§3.2.2.1's "once per hour") —
   faster checks release dynamic resources sooner but churn more;
2. the pool capacity behind the all-or-nothing provision policy — a
   smaller pool rejects more DR1 requests, bounding both the peak and the
   consumption at some completion risk.

Both sweeps are declared :class:`~repro.experiments.sensitivity
.AblationPlan` grids over one shared baseline spec.  The release-check
path is retargetable, so the whole cadence sweep collapses into a single
swept spec, executed and cached as one run; the capacity grid runs
one-off points, with the paper's 420 aliasing the baseline run.
"""

from repro.core.policies import ResourceManagementPolicy
from repro.experiments.ablations import _base_spec, grid_metrics
from repro.experiments.report import render_table
from repro.experiments.sensitivity import AblationPlan, PathGrid, execute_plan

HOUR = 3600.0

RELEASE_CHECK_PATH = "policy.params.release_check_interval_s"
CAPACITY_PATH = "params.capacity"


def test_ablation_release_check_interval(benchmark, setup):
    policy = ResourceManagementPolicy.for_htc(40, 1.2)
    intervals_h = (0.5, 1.0, 2.0)
    plan = AblationPlan(
        name="release-check",
        baseline=_base_spec("nasa-ipsc", policy, setup.capacity),
        grids=(
            PathGrid(
                label="release-check",
                paths=(RELEASE_CHECK_PATH,),
                values=tuple((h * HOUR,) for h in intervals_h),
                baseline=(HOUR,),
            ),
        ),
    )

    def sweep():
        execution = execute_plan(plan, seed=setup.seed)
        by_interval = grid_metrics(execution, "release-check",
                                   RELEASE_CHECK_PATH)
        return [
            {
                "release_check_h": h,
                "resource_consumption": round(
                    by_interval[h * HOUR]["resource_consumption"]
                ),
                "completed_jobs": by_interval[h * HOUR]["completed_jobs"],
                "adjusted_nodes": by_interval[h * HOUR]["adjusted_nodes"],
            }
            for h in intervals_h
        ]

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print()
    print(render_table(rows, title="Ablation: idle-release check cadence "
                                   "(DawningCloud, NASA trace)"))
    assert all(r["completed_jobs"] >= 2580 for r in rows)
    # the off-baseline cadences collapsed into ONE swept run
    swept = [v for v in execute_plan(plan, seed=setup.seed).variants if v.sweep]
    assert len(swept) == 1


def test_ablation_pool_capacity(benchmark, setup):
    policy = ResourceManagementPolicy.for_htc(40, 1.2)
    capacities = (150, 250, 420, 1000)
    plan = AblationPlan(
        name="pool-capacity",
        baseline=_base_spec("nasa-ipsc", policy, setup.capacity),
        grids=(
            PathGrid(
                label="pool-capacity",
                paths=(CAPACITY_PATH,),
                values=tuple((c,) for c in capacities),
                baseline=(
                    (setup.capacity,) if setup.capacity in capacities else None
                ),
            ),
        ),
    )

    def sweep():
        execution = execute_plan(plan, seed=setup.seed)
        by_capacity = grid_metrics(execution, "pool-capacity", CAPACITY_PATH)
        return [
            {
                "pool_capacity": c,
                "resource_consumption": round(
                    by_capacity[c]["resource_consumption"]
                ),
                "completed_jobs": by_capacity[c]["completed_jobs"],
                "peak_nodes": round(by_capacity[c]["peak_nodes"]),
            }
            for c in capacities
        ]

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print()
    print(render_table(rows, title="Ablation: provider pool capacity "
                                   "(DawningCloud, NASA trace)"))
    # a bigger pool can only raise the peak
    peaks = [r["peak_nodes"] for r in rows]
    assert peaks == sorted(peaks)
