"""Failure-injection tests: capacity exhaustion, rejections, mid-run
destruction, and degenerate configurations.

The paper's provision policy (§3.2.2.3) is all-or-nothing with rejection,
but the evaluation's 420-node pool rarely rejects; these tests force the
unhappy paths and assert the system degrades gracefully instead of
deadlocking, double-billing or leaking nodes.
"""

import pytest

from repro.cluster.provision import ProvisionError, ResourceProvisionService
from repro.core.dawningcloud import DawningCloud
from repro.core.policies import ResourceManagementPolicy
from repro.core.servers import REServer
from repro.provisioning.policies import ConsolidatedAllocation
from repro.scheduling.firstfit import FirstFitScheduler
from repro.simkit.engine import SimulationEngine
from repro.workloads.job import Job, Trace

HOUR = 3600.0


def _trace(n_jobs=20, size=8, runtime=1800.0, spacing=300.0, nodes=64):
    jobs = [
        Job(job_id=i + 1, submit_time=spacing * i, size=size, runtime=runtime)
        for i in range(n_jobs)
    ]
    return Trace("inject", jobs, machine_nodes=nodes, duration=6 * HOUR)


class TestPoolExhaustion:
    def test_dynamic_rejections_counted_and_jobs_still_finish(self):
        """A pool barely above B forces rejections; the queue drains on B."""
        cloud = DawningCloud(capacity=10)
        cloud.add_htc_provider("lab", ResourceManagementPolicy.for_htc(8, 1.0))
        cloud.submit_trace("lab", _trace(n_jobs=10, size=8))
        cloud.run(until=6 * HOUR)
        cloud.shutdown()
        manager = cloud.tre("lab").manager
        assert manager.dynamic_rejections > 0
        metrics = cloud.provider_metrics("lab", 6 * HOUR)
        assert metrics.completed_jobs == 10  # B=8 fits each 8-wide job

    def test_initial_grant_failure_raises_cleanly(self):
        """A pool smaller than B cannot even start the TRE."""
        cloud = DawningCloud(capacity=4)
        cloud.add_htc_provider("lab", ResourceManagementPolicy.for_htc(8, 1.5))
        with pytest.raises(RuntimeError, match="initial"):
            cloud.run(until=1.0)

    def test_rejection_leaves_pool_consistent(self):
        svc = ResourceProvisionService(capacity=10)
        assert svc.request("a", 8, 0.0) is not None
        assert svc.request("b", 8, 0.0) is None
        assert svc.rejected_requests == 1
        assert svc.free_nodes == 2
        assert svc.allocated_nodes("b") == 0

    def test_contention_between_two_tres(self):
        """Two TREs compete for one small pool; totals never exceed it."""
        cloud = DawningCloud(capacity=24)
        cloud.add_htc_provider("a", ResourceManagementPolicy.for_htc(8, 1.0))
        cloud.add_htc_provider("b", ResourceManagementPolicy.for_htc(8, 1.0))
        cloud.submit_trace("a", _trace(n_jobs=12, size=8, spacing=200.0))
        cloud.submit_trace("b", _trace(n_jobs=12, size=8, spacing=200.0))
        engine = cloud.engine
        max_alloc = 0
        while engine.peek_time() is not None and engine.now < 6 * HOUR:
            engine.step()
            max_alloc = max(max_alloc, cloud.provision.allocated_nodes())
        cloud.shutdown()
        assert max_alloc <= 24
        for name in ("a", "b"):
            assert cloud.provider_metrics(name, 6 * HOUR).completed_jobs == 12


class TestMidRunDestruction:
    def test_destroying_a_tre_mid_run_releases_everything(self):
        cloud = DawningCloud(capacity=64)
        cloud.add_htc_provider("lab", ResourceManagementPolicy.for_htc(16, 1.5))
        cloud.submit_trace("lab", _trace(n_jobs=20, size=8))
        cloud.run(until=1 * HOUR)
        cloud.destroy_provider("lab")
        assert cloud.provision.allocated_nodes("lab") == 0
        assert cloud.provision.free_nodes == 64
        # further submissions are ignored, not crashes
        late = Job(job_id=999, submit_time=0.0, size=1, runtime=10.0)
        cloud.tre("lab").server.submit_job(late)
        assert cloud.tre("lab").server.submitted_jobs <= 21

    def test_double_destroy_raises(self):
        cloud = DawningCloud(capacity=32)
        cloud.add_htc_provider("lab", ResourceManagementPolicy.for_htc(8, 1.5))
        cloud.run(until=1.0)
        cloud.destroy_provider("lab")
        with pytest.raises(KeyError):
            cloud.destroy_provider("lab")

    def test_billing_covers_partial_hours_at_destruction(self):
        """Destroying 30 minutes in still bills one full lease unit."""
        cloud = DawningCloud(capacity=32)
        cloud.add_htc_provider("lab", ResourceManagementPolicy.for_htc(8, 1.5))
        cloud.run(until=0.5 * HOUR)
        cloud.destroy_provider("lab")
        assert cloud.provision.consumption_node_hours("lab") == 8.0


class TestDegenerateConfigurations:
    def test_zero_capacity_pool_rejected(self):
        with pytest.raises(ValueError):
            ResourceProvisionService(capacity=0)

    def test_manager_double_start_rejected(self):
        engine = SimulationEngine()
        svc = ResourceProvisionService(capacity=32)
        server = REServer(engine, "x", FirstFitScheduler(), 60.0)
        mgr = ConsolidatedAllocation(
            engine, server, svc, ResourceManagementPolicy.for_htc(8, 1.5)
        )
        mgr.start()
        with pytest.raises(RuntimeError, match="already started"):
            mgr.start()

    def test_release_of_closed_lease_rejected(self):
        svc = ResourceProvisionService(capacity=16)
        lease = svc.request("a", 4, 0.0)
        svc.release(lease, 100.0)
        with pytest.raises(ProvisionError):
            svc.release(lease, 200.0)

    def test_oversized_job_never_starts_but_nothing_hangs(self):
        """A job wider than the whole cloud queues forever, others flow."""
        cloud = DawningCloud(capacity=32)
        cloud.add_htc_provider("lab", ResourceManagementPolicy.for_htc(8, 1.5))
        jobs = [
            Job(job_id=1, submit_time=0.0, size=500, runtime=100.0),
            Job(job_id=2, submit_time=10.0, size=4, runtime=100.0),
        ]
        cloud.submit_trace("lab", Trace("t", jobs, machine_nodes=500,
                                        duration=2 * HOUR))
        cloud.run(until=2 * HOUR)
        cloud.shutdown()
        server = cloud.tre("lab").server
        done = {j.job_id for j in server.completed}
        assert done == {2}

    def test_empty_trace_runs_to_horizon(self):
        cloud = DawningCloud(capacity=16)
        cloud.add_htc_provider("lab", ResourceManagementPolicy.for_htc(4, 1.5))
        cloud.submit_trace("lab", Trace("empty", [], machine_nodes=16,
                                        duration=HOUR))
        cloud.run(until=HOUR)
        cloud.shutdown()
        m = cloud.provider_metrics("lab", HOUR)
        assert m.completed_jobs == 0
        assert m.resource_consumption == 4.0  # B nodes held for the hour
