"""Tests for the alternative resource-management policies (core.adaptive)."""


import pytest

from repro.core.adaptive import (
    ChunkedHysteresisPolicy,
    DemandTrackingPolicy,
    EwmaPredictivePolicy,
    StaticPolicy,
    policy_catalog,
)
from repro.core.policies import HTC_SCAN_INTERVAL_S, MTC_SCAN_INTERVAL_S
from repro.systems.dsp_runner import run_dawningcloud_htc
from repro.workloads.job import Job, Trace

HOUR = 3600.0


def _small_trace(n_jobs: int = 40, size: int = 4, runtime: float = 900.0) -> Trace:
    jobs = [
        Job(job_id=i, submit_time=60.0 * i, size=size, runtime=runtime)
        for i in range(n_jobs)
    ]
    return Trace(name="tiny", jobs=jobs, machine_nodes=64, duration=12 * HOUR)


# --------------------------------------------------------------------- #
# DemandTrackingPolicy
# --------------------------------------------------------------------- #
class TestDemandTracking:
    def test_requests_exact_shortfall(self):
        p = DemandTrackingPolicy(initial_nodes=10)
        assert p.dynamic_request_size(50, 8, 10) == 40

    def test_covers_widest_job_even_when_demand_small(self):
        p = DemandTrackingPolicy(initial_nodes=10)
        # one 32-wide job queued, owned 10: demand=32 -> request 22
        assert p.dynamic_request_size(32, 32, 10) == 22

    def test_no_request_when_satisfied(self):
        p = DemandTrackingPolicy(initial_nodes=10)
        assert p.dynamic_request_size(8, 8, 10) == 0

    def test_no_request_on_empty_queue(self):
        p = DemandTrackingPolicy(initial_nodes=10)
        assert p.dynamic_request_size(0, 0, 10) == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            DemandTrackingPolicy(initial_nodes=0)
        with pytest.raises(ValueError):
            DemandTrackingPolicy(initial_nodes=1, scan_interval_s=0)


# --------------------------------------------------------------------- #
# EwmaPredictivePolicy
# --------------------------------------------------------------------- #
class TestEwmaPredictive:
    def test_smoothing_converges_to_constant_demand(self):
        p = EwmaPredictivePolicy(initial_nodes=10, alpha=0.5)
        for _ in range(20):
            p.dynamic_request_size(100, 1, 200)
        assert p.smoothed_demand == pytest.approx(100.0, rel=1e-3)

    def test_request_follows_smoothed_not_instant_demand(self):
        p = EwmaPredictivePolicy(initial_nodes=10, alpha=0.1, headroom=1.0)
        # first scan: ewma = 0.1 * 100 = 10 -> request ceil(10) - 10 = 0
        assert p.dynamic_request_size(100, 1, 10) == 0
        assert 0 < p.smoothed_demand < 100

    def test_widest_job_never_starves(self):
        p = EwmaPredictivePolicy(initial_nodes=10, alpha=0.01)
        # smoothing would say "do nothing", but a 64-wide job is queued
        assert p.dynamic_request_size(64, 64, 10) == 54

    def test_reset_clears_state(self):
        p = EwmaPredictivePolicy(initial_nodes=10)
        p.dynamic_request_size(100, 1, 10)
        assert p.smoothed_demand > 0
        p.reset()
        assert p.smoothed_demand == 0.0

    def test_headroom_scales_target(self):
        lo = EwmaPredictivePolicy(initial_nodes=1, alpha=1.0, headroom=1.0)
        hi = EwmaPredictivePolicy(initial_nodes=1, alpha=1.0, headroom=2.0)
        assert hi.dynamic_request_size(50, 1, 1) > lo.dynamic_request_size(50, 1, 1)

    def test_validation(self):
        with pytest.raises(ValueError):
            EwmaPredictivePolicy(alpha=0.0)
        with pytest.raises(ValueError):
            EwmaPredictivePolicy(alpha=1.5)
        with pytest.raises(ValueError):
            EwmaPredictivePolicy(headroom=0.5)


# --------------------------------------------------------------------- #
# ChunkedHysteresisPolicy
# --------------------------------------------------------------------- #
class TestChunkedHysteresis:
    def test_requests_whole_chunks(self):
        p = ChunkedHysteresisPolicy(
            initial_nodes=10, threshold_ratio=1.0, chunk_nodes=16
        )
        req = p.dynamic_request_size(30, 4, 10)  # shortfall 20 -> 2 chunks
        assert req == 32
        assert req % p.chunk_nodes == 0

    def test_below_threshold_no_request(self):
        p = ChunkedHysteresisPolicy(
            initial_nodes=10, threshold_ratio=2.0, chunk_nodes=16
        )
        assert p.dynamic_request_size(15, 4, 10) == 0  # ratio 1.5 <= 2.0

    def test_widest_job_triggers_dr2_like_growth(self):
        p = ChunkedHysteresisPolicy(
            initial_nodes=10, threshold_ratio=10.0, chunk_nodes=8
        )
        # ratio small but a 20-wide job can't fit: shortfall 10 -> 2 chunks
        assert p.dynamic_request_size(20, 20, 10) == 16

    def test_zero_owned_is_infinite_ratio(self):
        p = ChunkedHysteresisPolicy(
            initial_nodes=1, threshold_ratio=1.5, chunk_nodes=4
        )
        assert p.dynamic_request_size(10, 2, 0) == 12  # ceil(10/4)*4

    def test_validation(self):
        with pytest.raises(ValueError):
            ChunkedHysteresisPolicy(chunk_nodes=0)
        with pytest.raises(ValueError):
            ChunkedHysteresisPolicy(threshold_ratio=0)


# --------------------------------------------------------------------- #
# StaticPolicy
# --------------------------------------------------------------------- #
class TestStatic:
    def test_never_requests(self):
        p = StaticPolicy(initial_nodes=32)
        assert p.dynamic_request_size(10_000, 500, 32) == 0

    def test_has_the_duck_interface(self):
        p = StaticPolicy(initial_nodes=32)
        assert p.initial_nodes == 32
        assert p.scan_interval_s > 0
        assert p.release_check_interval_s > 0


# --------------------------------------------------------------------- #
# catalog + end-to-end drop-in compatibility
# --------------------------------------------------------------------- #
class TestCatalog:
    def test_catalog_names_and_kinds(self):
        htc = policy_catalog("htc")
        mtc = policy_catalog("mtc")
        assert set(htc) == set(mtc)
        assert "paper(B,R)" in htc
        for factory in htc.values():
            assert factory(16).scan_interval_s == HTC_SCAN_INTERVAL_S
        for factory in mtc.values():
            assert factory(16).scan_interval_s == MTC_SCAN_INTERVAL_S

    def test_catalog_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            policy_catalog("web")

    def test_factories_return_fresh_stateful_policies(self):
        factory = policy_catalog("htc")["ewma-predictive"]
        a, b = factory(8), factory(8)
        assert a is not b
        a.dynamic_request_size(100, 1, 8)
        assert b.smoothed_demand == 0.0


@pytest.mark.parametrize("name", sorted(policy_catalog("htc")))
def test_every_policy_runs_end_to_end_on_dawningcloud(name):
    """Each catalog policy drops into the DawningCloud HTC runner."""
    from repro.systems.base import WorkloadBundle

    policy = policy_catalog("htc")[name](16)
    bundle = WorkloadBundle.from_trace("tiny", _small_trace())
    metrics = run_dawningcloud_htc(bundle, policy, capacity=256)
    assert metrics.completed_jobs == 40
    assert metrics.resource_consumption > 0


def test_demand_tracking_completes_no_worse_than_paper_policy():
    """Aggressive growth must never complete fewer jobs than the paper rule."""
    from repro.core.policies import ResourceManagementPolicy
    from repro.systems.base import WorkloadBundle

    bundle = WorkloadBundle.from_trace("tiny", _small_trace(n_jobs=60, size=8))
    paper = run_dawningcloud_htc(
        bundle, ResourceManagementPolicy.for_htc(8, 1.5), capacity=512
    )
    tracking = run_dawningcloud_htc(
        bundle, DemandTrackingPolicy(initial_nodes=8), capacity=512
    )
    assert tracking.completed_jobs >= paper.completed_jobs


def test_static_policy_behaves_like_fixed_b_nodes():
    """Under StaticPolicy the TRE never grows beyond B."""
    from repro.systems.base import WorkloadBundle

    bundle = WorkloadBundle.from_trace("tiny", _small_trace(n_jobs=30, size=4))
    metrics = run_dawningcloud_htc(
        bundle, StaticPolicy(initial_nodes=12), capacity=256
    )
    assert metrics.peak_nodes == 12
    # only the initial grant and the shutdown release ever adjust nodes
    assert metrics.adjusted_nodes == 24
