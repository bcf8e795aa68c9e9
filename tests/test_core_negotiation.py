"""Tests for the dynamic resource negotiation mechanism (§3.2.1), as
implemented by the provisioning kernel's ``ConsolidatedAllocation``."""

import pytest

from repro.cluster.provision import ResourceProvisionService
from repro.core.policies import ResourceManagementPolicy
from repro.core.servers import REServer
from repro.provisioning.policies import ConsolidatedAllocation
from repro.scheduling.firstfit import FirstFitScheduler
from tests.conftest import make_job

HOUR = 3600.0


def build(engine, capacity=100, B=4, R=1.5, scan=60.0):
    provision = ResourceProvisionService(capacity)
    server = REServer(engine, "tre", FirstFitScheduler(), scan)
    policy = ResourceManagementPolicy(B, R, scan)
    manager = ConsolidatedAllocation(engine, server, provision, policy)
    return provision, server, manager


class TestStartup:
    def test_initial_resources_acquired(self, engine):
        provision, server, manager = build(engine, B=4)
        manager.start()
        assert server.owned == 4
        assert provision.allocated_nodes("tre") == 4
        assert manager.initial_lease.kind == "initial"

    def test_double_start_rejected(self, engine):
        _, _, manager = build(engine)
        manager.start()
        with pytest.raises(RuntimeError):
            manager.start()

    def test_start_fails_when_pool_too_small(self, engine):
        _, _, manager = build(engine, capacity=2, B=4)
        with pytest.raises(RuntimeError):
            manager.start()


class TestDr1Expansion:
    def test_queue_pressure_triggers_dr1(self, engine):
        provision, server, manager = build(engine, B=4, R=1.5)
        manager.start()
        # queue demand 10 on owned 4: ratio 2.5 > 1.5 -> DR1 = 6
        for i in range(5):
            server.submit_job(make_job(i + 1, size=2, runtime=HOUR * 3))
        engine.run(until=60.0)  # first scan
        assert server.owned == 10
        assert manager.dynamic_grants == 1

    def test_no_expansion_below_threshold(self, engine):
        provision, server, manager = build(engine, B=8, R=1.5)
        manager.start()
        server.submit_job(make_job(1, size=6, runtime=HOUR))
        engine.run(until=60.0)
        assert server.owned == 8  # ratio 0.75, nothing requested

    def test_rejection_counted_and_server_continues(self, engine):
        provision, server, manager = build(engine, capacity=6, B=4, R=1.0)
        manager.start()
        for i in range(6):
            server.submit_job(make_job(i + 1, size=2, runtime=100.0))
        engine.run(until=60.0)
        # DR1 = 12 - 4 = 8 > free 2: rejected; jobs still run on the 4 owned
        assert manager.dynamic_rejections >= 1
        assert server.owned == 4
        engine.run(until=1200.0)
        assert server.completed_count == 6


class TestDr2Expansion:
    def test_oversized_job_triggers_dr2(self, engine):
        provision, server, manager = build(engine, B=4, R=2.0)
        manager.start()
        server.submit_job(make_job(1, size=7, runtime=HOUR))
        engine.run(until=60.0)
        # ratio 7/4 = 1.75 <= 2.0, biggest 7 > owned 4 -> DR2 = 3
        assert server.owned == 7
        engine.run(until=2 * HOUR)
        assert server.completed_count == 1


class TestRelease:
    def test_idle_dynamic_lease_released_at_hourly_check(self, engine):
        provision, server, manager = build(engine, B=4, R=1.0)
        manager.start()
        for i in range(4):
            server.submit_job(make_job(i + 1, size=2, runtime=600.0))
        engine.run(until=60.0)
        assert server.owned == 8  # DR1 granted
        # jobs end by ~660s; the lease's hourly check at 3660s sees 4+ idle
        engine.run(until=2 * HOUR)
        assert server.owned == 4
        assert provision.allocated_nodes("tre") == 4

    def test_busy_lease_not_released(self, engine):
        provision, server, manager = build(engine, B=4, R=1.0)
        manager.start()
        for i in range(4):
            server.submit_job(make_job(i + 1, size=2, runtime=5 * HOUR))
        engine.run(until=60.0)
        assert server.owned == 8
        engine.run(until=3 * HOUR)  # two hourly checks pass, still busy
        assert server.owned == 8

    def test_initial_resources_never_released(self, engine):
        """§3.2.2.1: initial resources are not reclaimed until destruction."""
        provision, server, manager = build(engine, B=6, R=1.0)
        manager.start()
        engine.run(until=5 * HOUR)  # fully idle the whole time
        assert server.owned == 6

    def test_release_charges_started_hours(self, engine):
        provision, server, manager = build(engine, B=4, R=1.0)
        manager.start()
        for i in range(4):
            server.submit_job(make_job(i + 1, size=2, runtime=600.0))
        engine.run(until=2 * HOUR)
        # the 4-node dynamic lease is granted at the 60 s scan and released
        # by its own hourly check at 3660 s: exactly one started hour/node
        assert provision.consumption_node_hours("tre") == pytest.approx(4)


class TestShutdown:
    def test_shutdown_returns_everything(self, engine):
        provision, server, manager = build(engine, B=4, R=1.0)
        manager.start()
        for i in range(4):
            server.submit_job(make_job(i + 1, size=2, runtime=HOUR * 10))
        engine.run(until=60.0)
        manager.shutdown()
        assert provision.allocated_nodes("tre") == 0
        assert server.owned == 0

    def test_shutdown_bills_initial_lease(self, engine):
        provision, server, manager = build(engine, B=5, R=1.5)
        manager.start()
        engine.run(until=10 * HOUR)
        manager.shutdown()
        assert provision.consumption_node_hours("tre") == pytest.approx(50)
