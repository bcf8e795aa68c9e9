"""Unit tests for the fault-tolerance subsystem.

Covers the pure pieces (checkpoint math, failure models, the failed-node
range index, lease shrinking) and the wired-together behaviour (the
injector killing/requeueing jobs on a live server, billing stopping on
dead nodes, spec-level ``failures=`` blocks, the CLI ``--mtbf`` flag).
Deterministic throughout: stochastic paths run on fixed seeds, exact
timelines use the trace-driven model.
"""

from __future__ import annotations

import pytest

from repro.cluster.lease import HOUR, LeaseLedger
from repro.cluster.provision import ResourceProvisionService
from repro.core.servers import REServer
from repro.provisioning.billing import PerSecondMeter
from repro.provisioning.state import ClusterState, ClusterStateError
from repro.reliability import (
    CheckpointPolicy,
    ExponentialFailures,
    NodeFailureInjector,
    TraceDrivenFailures,
    WeibullFailures,
    resume_work,
)
from repro.scheduling.firstfit import FirstFitScheduler
from repro.simkit.engine import SimulationEngine
from repro.simkit.rng import RandomStreams
from repro.workloads.job import Job, JobState, Trace


def make_job(job_id, submit=0.0, size=1, runtime=60.0):
    return Job(job_id=job_id, submit_time=submit, size=size, runtime=runtime)


# --------------------------------------------------------------------- #
# checkpoint math
# --------------------------------------------------------------------- #
class TestCheckpointPolicy:
    def test_writes_exclude_completion_boundary(self):
        p = CheckpointPolicy(interval_s=100.0, overhead_s=5.0)
        assert p.writes_for(0.0) == 0
        assert p.writes_for(99.0) == 0
        assert p.writes_for(100.0) == 0  # a write at completion is pointless
        assert p.writes_for(101.0) == 1
        assert p.writes_for(250.0) == 2
        assert p.writes_for(300.0) == 2

    def test_segment_wall_adds_write_overhead(self):
        p = CheckpointPolicy(interval_s=100.0, overhead_s=5.0)
        assert p.segment_wall(250.0) == 250.0 + 2 * 5.0
        assert p.segment_wall(50.0) == 50.0

    def test_recovered_work_counts_finished_writes_only(self):
        p = CheckpointPolicy(interval_s=100.0, overhead_s=5.0)
        # first write finishes at wall 105
        assert p.recovered_work(104.9) == 0.0
        assert p.recovered_work(105.0) == 100.0
        assert p.recovered_work(209.9) == 100.0
        assert p.recovered_work(210.0) == 200.0

    def test_resume_work_without_policy_restarts_from_scratch(self):
        assert resume_work(None, 500.0, 499.0) == 500.0

    def test_resume_work_clamps_to_remaining(self):
        p = CheckpointPolicy(interval_s=10.0, overhead_s=0.0)
        assert resume_work(p, 25.0, 24.0) == 5.0
        # elapsed beyond the remaining work cannot recover more than owed
        assert resume_work(p, 25.0, 1000.0) == 0.0

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            CheckpointPolicy(interval_s=0.0)
        with pytest.raises(ValueError):
            CheckpointPolicy(interval_s=10.0, overhead_s=-1.0)


# --------------------------------------------------------------------- #
# failure models
# --------------------------------------------------------------------- #
class TestFailureModels:
    def test_exponential_draws_positive_and_deterministic(self):
        model = ExponentialFailures(mtbf_s=100.0, mttr_s=10.0)
        a = RandomStreams(7).stream("x")
        b = RandomStreams(7).stream("x")
        ttfs = [model.draw_ttf(a) for _ in range(50)]
        assert ttfs == [model.draw_ttf(b) for _ in range(50)]
        assert all(t >= 0 for t in ttfs)

    def test_weibull_mean_matches_mtbf(self):
        model = WeibullFailures(mtbf_s=1000.0, shape=0.7)
        rng = RandomStreams(0).stream("w")
        draws = [model.draw_ttf(rng) for _ in range(20000)]
        assert sum(draws) / len(draws) == pytest.approx(1000.0, rel=0.05)

    def test_trace_model_validates_windows(self):
        with pytest.raises(ValueError, match="fail_t < repair_t"):
            TraceDrivenFailures(events=((0, 50.0, 50.0),))
        with pytest.raises(ValueError, match="overlapping"):
            TraceDrivenFailures(events=((1, 0.0, 100.0), (1, 50.0, 150.0)))
        model = TraceDrivenFailures(events=((1, 200.0, 300.0), (1, 0.0, 100.0)))
        assert model.windows_for(1) == [(0.0, 100.0), (200.0, 300.0)]

    def test_registry_builds_models_with_checkpoint(self):
        from repro.api.registry import default_components

        model = default_components().create(
            "failure-model", "exponential",
            mtbf_hours=48.0, checkpoint_interval_s=1800.0,
        )
        assert model.mtbf_s == 48.0 * HOUR
        assert model.checkpoint == CheckpointPolicy(1800.0, 60.0)
        plain = default_components().create(
            "failure-model", "weibull", mtbf_hours=1.0, shape=1.3,
        )
        assert plain.checkpoint is None


# --------------------------------------------------------------------- #
# cluster state: the failed-node range index
# --------------------------------------------------------------------- #
class TestClusterStateFailures:
    def test_fail_free_and_repair_roundtrip(self):
        state = ClusterState(10)
        state.fail_free(3, t=0.0)
        assert (state.free_count, state.failed_count) == (7, 3)
        assert state.allocated_count == 0
        state.repair(3, t=5.0)
        assert (state.free_count, state.failed_count) == (10, 0)
        # ranges merged back into one block
        assert state._free == [(0, 10)]

    def test_fail_owned_leaves_holdings(self):
        state = ClusterState(10)
        state.assign("a", 6, t=0.0)
        state.fail_owned("a", 2, t=1.0)
        assert state.owned_count("a") == 4
        assert state.failed_count == 2
        assert state.allocated_count == 4
        state.repair(2, t=2.0)
        assert state.free_count == 6  # repaired nodes go free, not back to a

    def test_conservation_under_mixed_operations(self):
        state = ClusterState(20)
        state.assign("a", 8, t=0.0)
        state.fail_owned("a", 3, t=1.0)
        state.fail_free(2, t=2.0)
        state.assign("b", 5, t=3.0)
        state.repair(4, t=4.0)
        total = state.free_count + state.allocated_count + state.failed_count
        assert total == 20

    def test_busy_integral_excludes_failed_nodes(self):
        state = ClusterState(10)
        state.assign("a", 4, t=0.0)
        state.fail_owned("a", 2, t=10.0)  # 4 busy for 10 s
        state.repair(2, t=20.0)           # 2 busy for 10 s
        assert state.busy_node_seconds(30.0) == 4 * 10 + 2 * 10 + 2 * 10

    def test_invalid_operations_rejected(self):
        state = ClusterState(4)
        with pytest.raises(ClusterStateError):
            state.fail_free(5, t=0.0)
        with pytest.raises(ClusterStateError):
            state.fail_owned("nobody", 1, t=0.0)
        with pytest.raises(ClusterStateError):
            state.repair(1, t=0.0)


# --------------------------------------------------------------------- #
# lease shrinking: billing stops on dead nodes
# --------------------------------------------------------------------- #
class TestLeaseShrink:
    def test_failed_slice_billed_at_failure_instant(self):
        ledger = LeaseLedger(meter=PerSecondMeter(min_charge_s=0.0))
        lease = ledger.open_lease("a", 4, t=0.0)
        charged = ledger.shrink_lease(lease, 1, t=HOUR)
        assert charged == pytest.approx(1.0)  # 1 node-hour, per-second exact
        assert lease.n_nodes == 3
        assert ledger.open_nodes("a") == 3
        total = charged + ledger.close_lease(lease, t=2 * HOUR)
        # 1 node × 1 h + 3 nodes × 2 h: the dead node stopped metering
        assert total == pytest.approx(1.0 + 6.0)
        assert ledger.charged_units_total("a") == pytest.approx(7.0)

    def test_full_shrink_closes_the_lease(self):
        ledger = LeaseLedger()
        lease = ledger.open_lease("a", 2, t=0.0)
        ledger.shrink_lease(lease, 2, t=10.0)
        assert not lease.open
        assert ledger.open_nodes("a") == 0

    def test_shrink_validation(self):
        ledger = LeaseLedger()
        lease = ledger.open_lease("a", 2, t=100.0)
        with pytest.raises(ValueError):
            ledger.shrink_lease(lease, 3, t=200.0)
        with pytest.raises(ValueError):
            ledger.shrink_lease(lease, 1, t=50.0)
        ledger.close_lease(lease, 200.0)
        with pytest.raises(ValueError):
            ledger.shrink_lease(lease, 1, t=300.0)

    def test_provision_service_fail_and_repair(self):
        svc = ResourceProvisionService(10, meter=PerSecondMeter(min_charge_s=0.0))
        svc.request("a", 4, 0.0)
        svc.fail_node(HOUR, client="a")
        assert svc.allocated_nodes("a") == 3
        assert svc.failed_nodes == 1
        assert svc.consumption_node_hours("a") == pytest.approx(1.0)
        svc.repair_node(2 * HOUR)
        assert svc.failed_nodes == 0
        assert svc.free_nodes == 7
        # the failure shows up in the adjustment records
        kinds = [rec.kind for rec in svc.adjustments]
        assert kinds == ["dynamic", "failure"]


# --------------------------------------------------------------------- #
# server: kill, requeue, checkpoint resume
# --------------------------------------------------------------------- #
class TestServerKillRequeue:
    def _server(self, nodes=4):
        engine = SimulationEngine()
        server = REServer(engine, "s", FirstFitScheduler(), 60.0)
        server.add_nodes(nodes)
        return engine, server

    def test_kill_requeues_and_restarts_from_scratch(self):
        engine, server = self._server()
        server.enable_fault_tolerance()
        job = make_job(1, runtime=500.0)
        server.submit_job(job)
        engine.run(until=60.0)  # first scan dispatches at t=60
        assert job.state is JobState.RUNNING
        engine.schedule(40.0, lambda: server.kill_running(job))
        engine.schedule(40.0, lambda: server.fail_nodes(1))
        engine.run(until=100.0)
        assert job.state is JobState.QUEUED
        assert job in server.queue
        assert server.fault.stats.requeues == 1
        assert server.fault.remaining[1] == 500.0  # no checkpoint: full redo
        engine.run(until=3600.0)
        assert job.state is JobState.COMPLETED
        # redispatched at the t=120 scan, full 500 s again
        assert job.finish_time == pytest.approx(120.0 + 500.0)

    def test_checkpoint_resume_shortens_the_retry(self):
        engine, server = self._server()
        server.enable_fault_tolerance(CheckpointPolicy(100.0, overhead_s=0.0))
        job = make_job(1, runtime=500.0)
        server.submit_job(job)
        engine.run(until=60.0)
        # kill 250 s in: two checkpoints (t=100, 200 of work) survived
        engine.schedule(250.0, lambda: server.kill_running(job))
        engine.run(until=60.0 + 250.0)
        assert server.fault.remaining[1] == 300.0
        assert server.fault.stats.checkpoint_restores == 1
        engine.run(until=7200.0)
        assert job.state is JobState.COMPLETED
        # restarted at t=360 (next scan) with 300 s of work left
        assert job.finish_time == pytest.approx(360.0 + 300.0)

    def test_wasted_accounting(self):
        engine, server = self._server()
        server.enable_fault_tolerance()
        job = make_job(1, size=3, runtime=1000.0)
        server.submit_job(job)
        engine.run(until=60.0)
        engine.schedule(100.0, lambda: server.kill_running(job))
        engine.run(until=200.0)
        assert server.fault.stats.wasted_node_seconds == pytest.approx(3 * 100.0)

    def test_kill_without_fault_tolerance_is_an_error(self):
        engine, server = self._server()
        job = make_job(1, runtime=500.0)
        server.submit_job(job)
        engine.run(until=60.0)
        with pytest.raises(RuntimeError, match="fault tolerance not enabled"):
            server.kill_running(job)

    def test_fast_path_has_no_fault_state(self):
        engine, server = self._server()
        server.submit_job(make_job(1, runtime=30.0))
        engine.run(until=200.0)
        assert server.fault is None
        assert server.completed_count == 1


# --------------------------------------------------------------------- #
# injector end to end (trace-driven: exact timelines)
# --------------------------------------------------------------------- #
class TestInjectorTimeline:
    def test_trace_driven_failure_kills_and_repairs_on_schedule(self):
        engine = SimulationEngine()
        server = REServer(engine, "s", FirstFitScheduler(), 60.0)
        server.add_nodes(2)
        model = TraceDrivenFailures(events=((0, 200.0, 500.0),))
        injector = NodeFailureInjector(
            engine, server, model, RandomStreams(0), n_slots=2,
            restore="server",
        ).start()
        job = make_job(1, size=2, runtime=1000.0)
        server.submit_job(job)
        engine.run(until=4000.0)
        # job started at 60 (size 2 on 2 nodes); the failure at 200 must
        # kill it (both nodes busy); one node down until 500
        assert injector.stats.failures == 1
        assert injector.stats.killed_jobs == 1
        assert injector.stats.repairs == 1
        assert injector.stats.downtime_node_seconds == pytest.approx(300.0)
        assert job.state is JobState.COMPLETED
        # requeued at 200 with one node: cannot fit (size 2) until the
        # repair at 500 restores the second node; next scan at 540
        assert job.start_time == pytest.approx(540.0)
        assert job.finish_time == pytest.approx(540.0 + 1000.0)
        payload = injector.finalize(4000.0)
        assert payload["requeues"] == 1
        assert payload["goodput_node_hours"] == pytest.approx(
            2 * 1000.0 / 3600.0
        )
        assert payload["wasted_node_hours"] == pytest.approx(
            2 * 140.0 / 3600.0
        )

    def test_restore_provider_returns_node_to_pool_not_server(self):
        engine = SimulationEngine()
        provision = ResourceProvisionService(8)
        server = REServer(engine, "s", FirstFitScheduler(), 60.0)
        lease = provision.request("s", 4, 0.0)
        assert lease is not None
        server.add_nodes(4)
        model = TraceDrivenFailures(events=((0, 100.0, 300.0),))
        NodeFailureInjector(
            engine, server, model, RandomStreams(0), n_slots=4,
            provision=provision, restore="provider",
        ).start()
        engine.run(until=1000.0)
        assert server.owned == 3           # the server never got it back
        assert provision.free_nodes == 5   # ... the provider's pool did
        assert provision.allocated_nodes("s") == 3

    def test_injector_validation(self):
        engine = SimulationEngine()
        server = REServer(engine, "s", FirstFitScheduler(), 60.0)
        model = ExponentialFailures(mtbf_s=100.0)
        with pytest.raises(ValueError, match="n_slots"):
            NodeFailureInjector(engine, server, model, RandomStreams(0), 0)
        with pytest.raises(ValueError, match="restore"):
            NodeFailureInjector(
                engine, server, model, RandomStreams(0), 1, restore="nope"
            )
        with pytest.raises(ValueError, match="provision"):
            NodeFailureInjector(
                engine, server, model, RandomStreams(0), 1, restore="provider"
            )


# --------------------------------------------------------------------- #
# spec / API integration
# --------------------------------------------------------------------- #
class TestSpecIntegration:
    def test_system_spec_failures_roundtrip_and_digest(self):
        from repro.api.spec import ExperimentSpec, spec_digest

        data = {
            "name": "rel",
            "workloads": [{"generator": "fork-join", "params": {"width": 8}}],
            "systems": [{"runner": "dcs",
                         "failures": {"name": "exponential",
                                      "params": {"mtbf_hours": 48.0}}}],
        }
        spec = ExperimentSpec.from_dict(data)
        assert ExperimentSpec.from_dict(spec.to_dict()) == spec
        assert spec.systems[0].failures.name == "exponential"
        # a spec without failures digests identically to the pre-reliability
        # schema (no new key leaks into the canonical form)
        plain = ExperimentSpec.from_dict({
            "name": "rel", "workloads": data["workloads"], "systems": ["dcs"],
        })
        assert "failures" not in plain.to_dict()["systems"][0]
        assert spec_digest(spec) != spec_digest(plain)

    def test_validate_spec_rejects_unknown_failure_model(self):
        from repro.api.run import validate_spec
        from repro.api.spec import ExperimentSpec

        spec = ExperimentSpec.from_dict({
            "name": "bad",
            "workloads": ["nasa-ipsc"],
            "systems": [{"runner": "dcs", "failures": "solar-flare"}],
        })
        with pytest.raises(KeyError, match="failure-model"):
            validate_spec(spec)

    def test_run_system_attaches_reliability_payload(self):
        from repro.api.run import materialize_workload, run_system

        bundle = materialize_workload(
            {"generator": "fork-join", "params": {"width": 8}}, 0
        )
        metrics = run_system(
            {"runner": "dcs",
             "failures": {"name": "exponential",
                          "params": {"mtbf_hours": 0.2, "mttr_hours": 0.1}}},
            bundle, seed=0,
        )
        assert metrics.reliability is not None
        assert metrics.reliability["failures"] > 0
        assert "reliability" in metrics.to_payload()

    def test_mtbf_sweep_paths_expand(self):
        from repro.api.spec import ExperimentSpec

        spec = ExperimentSpec.from_dict({
            "name": "grid",
            "workloads": ["nasa-ipsc"],
            "systems": [{"runner": "dawningcloud",
                         "failures": {"name": "exponential",
                                      "params": {"mtbf_hours": 48.0}}}],
            "sweep": {"failures.params.mtbf_hours": [24.0, 48.0, 96.0]},
        })
        expanded = spec.expand_systems()
        assert [s.failures.params["mtbf_hours"] for s, _ in expanded] == [
            24.0, 48.0, 96.0,
        ]

    def test_drp_mtc_failures_rejected(self):
        from repro.api.run import materialize_workload
        from repro.systems.drp import run_drp

        bundle = materialize_workload("montage", 0)
        with pytest.raises(ValueError, match="HTC-only"):
            run_drp(bundle, failures=ExponentialFailures(mtbf_s=HOUR))

    def test_drp_trace_driven_failures_rejected_cleanly(self):
        from repro.systems.base import WorkloadBundle
        from repro.systems.drp import run_drp

        trace = Trace("t", [make_job(1, runtime=100.0)], machine_nodes=4,
                      duration=HOUR)
        bundle = WorkloadBundle.from_trace("t", trace)
        model = TraceDrivenFailures(events=((0, 50.0, 60.0),))
        with pytest.raises(ValueError, match="cannot replay"):
            run_drp(bundle, failures=model)


class TestCliMtbf:
    def test_run_with_mtbf_override(self, capsys, tmp_path, monkeypatch):
        import json

        from repro.cli import main

        monkeypatch.chdir(tmp_path)  # no ./specs, fresh cache dir
        rc = main([
            "run", "--scenario", "drp-vs-fixed-under-failures",
            "--mtbf", "96", "--no-cache", "--seed", "0",
        ])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        rows = payload["drp-vs-fixed-under-failures"]
        assert {r["system"] for r in rows} == {
            "DCS", "SSP", "DRP", "DawningCloud"
        }

    def test_mtbf_flag_ignores_non_reliability_scenarios(self, capsys,
                                                         tmp_path,
                                                         monkeypatch):
        import json

        from repro.cli import main

        monkeypatch.chdir(tmp_path)
        rc = main(["run", "--scenario", "table1-models", "--mtbf", "96",
                   "--no-cache"])
        assert rc == 0
        assert "table1-models" in json.loads(capsys.readouterr().out)


def test_small_trace_full_pipeline_with_failures():
    """A tiny end-to-end: trace → DCS under failures → sane accounting."""
    from repro.systems.base import WorkloadBundle
    from repro.systems.fixed import run_dcs

    jobs = [make_job(i, submit=120.0 * i, size=2, runtime=900.0)
            for i in range(1, 13)]
    trace = Trace("tiny", jobs, machine_nodes=8, duration=4 * HOUR)
    bundle = WorkloadBundle.from_trace("tiny", trace)
    model = ExponentialFailures(
        mtbf_s=2 * HOUR, mttr_s=0.5 * HOUR,
        checkpoint=CheckpointPolicy(300.0, overhead_s=10.0),
    )
    metrics = run_dcs(bundle, failures=model, seed=1)
    rel = metrics.reliability
    assert rel is not None
    assert rel["failures"] >= rel["repairs"]
    assert 0.0 <= rel["wasted_fraction"] <= 1.0
    assert metrics.completed_jobs <= metrics.submitted_jobs
    # goodput equals the work of the completed jobs
    assert rel["goodput_node_hours"] == pytest.approx(
        metrics.completed_jobs * 2 * 900.0 / 3600.0
    )
