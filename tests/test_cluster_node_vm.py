"""Tests for the VM provisioning state machine."""

import pytest

from repro.cluster.vm import VMProvisionService, VMState
from repro.simkit.engine import SimulationEngine


class TestVMProvision:
    def test_boot_latency(self):
        engine = SimulationEngine()
        svc = VMProvisionService(engine, boot_latency_s=30.0)
        booted = []
        vm = svc.create(node_id=1, on_running=lambda v: booted.append(engine.now))
        assert vm.state is VMState.BOOTING
        engine.run()
        assert vm.state is VMState.RUNNING
        assert booted == [30.0]
        assert vm.boot_time == 30.0

    def test_destroy_mid_boot_suppresses_running(self):
        engine = SimulationEngine()
        svc = VMProvisionService(engine, boot_latency_s=30.0)
        booted = []
        vm = svc.create(node_id=1, on_running=lambda v: booted.append(1))
        engine.schedule(10.0, svc.destroy, vm)
        engine.run()
        assert vm.state is VMState.DESTROYED
        assert booted == []

    def test_running_count(self):
        engine = SimulationEngine()
        svc = VMProvisionService(engine, boot_latency_s=1.0)
        svc.create(1)
        svc.create(2)
        engine.run()
        assert svc.running_count() == 2

    def test_cannot_destroy_twice(self):
        engine = SimulationEngine()
        svc = VMProvisionService(engine, boot_latency_s=0.0)
        vm = svc.create(1)
        engine.run()
        svc.destroy(vm)
        with pytest.raises(RuntimeError):
            svc.destroy(vm)
