"""Tests for the cost-aware DRP pooling variants (systems.drp extension)."""

import pytest

from repro.api.run import run_system
from repro.core.policies import ResourceManagementPolicy
from repro.experiments.ablations import drp_pooling_ablation
from repro.systems.base import WorkloadBundle
from repro.systems.drp import run_drp
from repro.workloads.job import Job, Trace

HOUR = 3600.0

#: whole-simulation tests: excluded from the fast tier
pytestmark = pytest.mark.slow


def _run_pooled(bundle: WorkloadBundle, shared: bool = False):
    """The registered ``drp-pooled`` runner over one bundle."""
    return run_system(
        {"runner": "drp-pooled", "params": {"shared": shared}}, bundle
    )


def _reuse_friendly_trace() -> WorkloadBundle:
    """One user submits back-to-back same-size short jobs: ideal for reuse."""
    jobs = [
        Job(job_id=i + 1, submit_time=700.0 * i, size=4, runtime=600.0,
            user_id=0)
        for i in range(20)
    ]
    trace = Trace("reuse", jobs, machine_nodes=16, duration=6 * HOUR)
    return WorkloadBundle.from_trace("reuse", trace)


def _scattered_users_trace() -> WorkloadBundle:
    """Every job from a different user: per-user pooling can never reuse."""
    jobs = [
        Job(job_id=i + 1, submit_time=700.0 * i, size=4, runtime=600.0,
            user_id=i)
        for i in range(20)
    ]
    trace = Trace("scattered", jobs, machine_nodes=16, duration=6 * HOUR)
    return WorkloadBundle.from_trace("scattered", trace)


class TestPooledRuns:
    def test_reuse_cuts_cost_for_back_to_back_jobs(self):
        bundle = _reuse_friendly_trace()
        naive = run_drp(bundle)
        pooled = _run_pooled(bundle)
        # naive: 20 jobs x 4 nodes x 1 started hour = 80 node-hours;
        # pooled: ~6 jobs/hour chain onto the same 4 nodes
        assert naive.resource_consumption == 80.0
        assert pooled.resource_consumption < 0.5 * naive.resource_consumption

    def test_per_user_pooling_useless_across_users(self):
        bundle = _scattered_users_trace()
        naive = run_drp(bundle)
        pooled = _run_pooled(bundle)
        assert pooled.resource_consumption >= naive.resource_consumption

    def test_shared_pool_rescues_scattered_users(self):
        bundle = _scattered_users_trace()
        shared = _run_pooled(bundle, shared=True)
        naive = run_drp(bundle)
        assert shared.resource_consumption < 0.5 * naive.resource_consumption

    def test_all_variants_complete_everything(self):
        for bundle in (_reuse_friendly_trace(), _scattered_users_trace()):
            for m in (
                run_drp(bundle),
                _run_pooled(bundle),
                _run_pooled(bundle, shared=True),
            ):
                assert m.completed_jobs == 20

    def test_system_labels(self):
        bundle = _reuse_friendly_trace()
        assert _run_pooled(bundle).system == "DRP-pooled"
        assert _run_pooled(bundle, shared=True).system == "DRP-shared-pool"

    def test_mtc_bundle_rejected(self):
        from repro.workloads.montage import MontageSpec, generate_montage

        wf = generate_montage(MontageSpec(n_images=4, n_diffs=6), seed=0)
        bundle = WorkloadBundle.from_workflow("m", wf, fixed_nodes=4)
        with pytest.raises(ValueError, match="HTC"):
            _run_pooled(bundle)


class TestPoolingLadder:
    def test_ladder_rows(self):
        bundle = _scattered_users_trace()
        rows = drp_pooling_ablation(
            bundle, ResourceManagementPolicy.for_htc(4, 1.5), capacity=64
        )
        assert [r["strategy"] for r in rows] == [
            "DRP (per-job leases)",
            "DRP + per-user pool",
            "DRP + shared pool",
            "DawningCloud",
        ]
        assert rows[0]["saving_vs_naive_drp"] == 0.0

    def test_sharing_beats_per_user_on_scattered_trace(self):
        bundle = _scattered_users_trace()
        rows = drp_pooling_ablation(
            bundle, ResourceManagementPolicy.for_htc(4, 1.5), capacity=64
        )
        by = {r["strategy"]: r for r in rows}
        assert (
            by["DRP + shared pool"]["saving_vs_naive_drp"]
            > by["DRP + per-user pool"]["saving_vs_naive_drp"]
        )
