"""The online serving facade (PR 9): ingest, rolling metrics, what-ifs.

Pins the acceptance contract end to end:

* admission control — monotonic timestamps, horizon bound, duplicate
  ids, back-pressure, and atomic batches;
* ingest fidelity — a service fed job-by-job finishes byte-identical to
  the cold batch run over the same trace;
* rolling metrics — exact values on a hand-computable workload;
* what-if queries — an *empty* delta reproduces the baseline
  byte-identically, and three concurrent queries (load, MTBF, policy)
  answered from one DawningCloud instant leave the live clock unmoved;
* the spec layer (`ServiceSpec`), the JSONL session driver, the CLI
  ``serve`` verb, and the reusable `supervised_call` pool entry.
"""

from __future__ import annotations

import json

import pytest

from repro.api.spec import ServiceSpec, load_service_file, spec_digest
from repro.experiments.orchestrator import supervised_call
from repro.experiments.supervision import RetryPolicy, TransientError
from repro.serving import (
    AdmissionError,
    BackPressureError,
    ScenarioDelta,
    ServeSession,
    ServiceClosedError,
    SimulationService,
    WhatIfEngine,
    WhatIfError,
    build_service,
)
from repro.serving.service import SERVED_RUNNERS
from repro.systems.base import WorkloadBundle
from repro.systems.fixed import FixedLiveRun
from repro.workloads.job import Job, Trace

#: long-lived-service suite: bounded wall clock when pytest-timeout is
#: installed (the CI tier), inert locally.
pytestmark = pytest.mark.timeout(120)

DAY = 86400.0


def make_jobs(
    n: int = 12,
    start: float = 100.0,
    gap: float = 200.0,
    size: int = 2,
    runtime: float = 1800.0,
) -> list[Job]:
    return [
        Job(
            job_id=i,
            submit_time=start + i * gap,
            size=size,
            runtime=runtime,
            user_id=0,
            task_type="htc",
        )
        for i in range(n)
    ]


def dcs_spec(**over) -> ServiceSpec:
    data = {
        "name": "svc",
        "system": "dcs",
        "machine_nodes": 8,
        "horizon_s": DAY,
    }
    data.update(over)
    return ServiceSpec.from_dict(data)


def dc_spec(**over) -> ServiceSpec:
    data = {
        "name": "svc-dc",
        "system": {
            "runner": "dawningcloud",
            "policy": {"name": "paper-htc", "params": {"initial_nodes": 4}},
        },
        "machine_nodes": 16,
        "horizon_s": DAY,
    }
    data.update(over)
    return ServiceSpec.from_dict(data)


class TestAdmission:
    def test_stale_timestamp_rejected(self):
        service = build_service(dcs_spec())
        service.submit_batch(make_jobs(3))
        service.advance_to(1000.0)
        with pytest.raises(AdmissionError, match="monotonic"):
            service.submit(Job(99, 500.0, 1, 60.0, 0, "htc"))
        assert service.rejected == 1

    def test_past_horizon_rejected(self):
        service = build_service(dcs_spec())
        with pytest.raises(AdmissionError, match="past the service horizon"):
            service.submit(Job(1, DAY + 1.0, 1, 60.0, 0, "htc"))

    def test_duplicate_pending_id_rejected(self):
        service = build_service(dcs_spec())
        service.submit(Job(7, 100.0, 1, 60.0, 0, "htc"))
        with pytest.raises(AdmissionError, match="already pending"):
            service.submit(Job(7, 200.0, 1, 60.0, 0, "htc"))
        # ...but once the arrival has fired, the id is free again
        service.advance_to(150.0)
        service.submit(Job(7, 200.0, 1, 60.0, 0, "htc"))
        assert service.ingested == 2

    def test_back_pressure_on_submit(self):
        service = build_service(dcs_spec(max_pending=2))
        service.submit_batch(make_jobs(2))
        with pytest.raises(BackPressureError, match="advance the service"):
            service.submit(Job(50, 5000.0, 1, 60.0, 0, "htc"))
        # draining the arrivals frees ingest capacity
        service.advance_to(600.0)
        service.submit(Job(50, 5000.0, 1, 60.0, 0, "htc"))

    def test_batch_is_atomic(self):
        service = build_service(dcs_spec())
        boot_events = service.engine.pending_events  # the server's scan timer
        jobs = make_jobs(4)
        jobs[2] = Job(2, DAY + 5.0, 1, 60.0, 0, "htc")  # bad: past horizon
        with pytest.raises(AdmissionError):
            service.submit_batch(jobs)
        assert service.pending_arrivals == 0
        assert service.ingested == 0
        # nothing was scheduled: the heap holds only the boot events
        assert service.engine.pending_events == boot_events

    def test_batch_rejects_intra_batch_duplicate(self):
        service = build_service(dcs_spec())
        jobs = make_jobs(3)
        jobs[2] = Job(0, 900.0, 1, 60.0, 0, "htc")  # id 0 twice
        with pytest.raises(AdmissionError, match="twice"):
            service.submit_batch(jobs)
        assert service.pending_arrivals == 0

    def test_batch_overflow_rejected_whole(self):
        service = build_service(dcs_spec(max_pending=3))
        with pytest.raises(BackPressureError):
            service.submit_batch(make_jobs(4))
        assert service.pending_arrivals == 0
        assert service.rejected == 4

    def test_empty_batch_is_noop(self):
        service = build_service(dcs_spec())
        assert service.submit_batch([]) == 0

    def test_trace_batch_accepted(self):
        jobs = make_jobs(5)
        trace = Trace("svc", jobs, machine_nodes=8, duration=DAY)
        service = build_service(dcs_spec())
        assert service.submit_batch(trace) == 5
        assert service.pending_arrivals == 5

    def test_cancel_pending(self):
        service = build_service(dcs_spec())
        service.submit_batch(make_jobs(3))
        assert service.cancel_pending(1)
        assert not service.cancel_pending(1)
        assert service.cancelled == 1
        service.advance_to(DAY - 1.0)
        assert len(service.server.completed) == 2


class TestLifecycle:
    def test_service_matches_cold_batch_run(self):
        """Ingest fidelity: streamed jobs == the same trace run cold."""
        jobs = make_jobs(12, size=3, runtime=7200.0)  # queueing occurs
        trace = Trace("svc", jobs, machine_nodes=8, duration=DAY)
        cold = FixedLiveRun(WorkloadBundle.from_trace("svc", trace), "DCS")
        cold_payload = cold.run().to_payload()

        service = build_service(dcs_spec())
        # interleave ingest with advances: fidelity must survive streaming
        service.submit_batch(jobs[:5])
        service.advance_to(400.0)
        for job in jobs[5:]:
            service.submit(job)
        payload = service.shutdown(drain=True)
        assert payload == cold_payload

    def test_advance_bounds(self):
        service = build_service(dcs_spec())
        service.advance_to(1000.0)
        with pytest.raises(ValueError, match="already at"):
            service.advance_to(500.0)
        with pytest.raises(ValueError, match="past the service horizon"):
            service.advance_to(DAY + 1.0)

    def test_shutdown_no_drain_clamps_at_now(self):
        service = build_service(dcs_spec())
        service.submit_batch(make_jobs(6, runtime=40000.0))
        service.advance_to(2000.0)
        payload = service.shutdown(drain=False)
        assert service.closed
        # horizon clamped to the stop instant: the §4.3 closed form bills
        # 8 nodes x ceil(2000 s) = 1 started hour, not the full day the
        # spec's horizon would have charged (8 x 24 = 192)
        assert payload["resource_consumption"] == pytest.approx(8.0)
        assert payload["completed_jobs"] == 0

    def test_closed_service_refuses_everything(self):
        service = build_service(dcs_spec())
        service.shutdown()
        for call in (
            lambda: service.submit(Job(1, 10.0, 1, 60.0, 0, "htc")),
            lambda: service.advance_to(10.0),
            service.metrics,
            service.fork,
            service.shutdown,
        ):
            with pytest.raises(ServiceClosedError):
                call()

    def test_mtc_live_run_refused(self):
        from repro.workloads.workflowgen import fork_join

        bundle = WorkloadBundle.from_workflow(
            "mtc", fork_join(width=4, seed=1), fixed_nodes=8
        )
        live = FixedLiveRun(bundle, "DCS")
        with pytest.raises(ValueError, match="MTC"):
            SimulationService(live)


class TestRollingMetrics:
    def test_exact_values_on_hand_computable_run(self):
        service = build_service(dcs_spec())
        # 4 uncontended jobs arrive at 100..400; the DCS server starts
        # work on its 60 s scan tick, so starts land at 120..420 and the
        # 600 s runtimes finish at 720, 840, 960, 1020.
        service.submit_batch(make_jobs(4, start=100.0, gap=100.0,
                                       size=2, runtime=600.0))
        service.advance_to(1100.0)
        m = service.metrics()
        assert m["time"] == 1100.0
        assert m["window_start"] == 0.0  # first window closes over [0, now]
        assert m["ingested"] == 4
        assert m["queue_depth"] == 0
        assert m["running_jobs"] == 0
        assert m["owned_nodes"] == 8
        assert m["completed_total"] == 4
        assert m["completed_in_window"] == 4
        assert m["throughput_jobs_per_s"] == pytest.approx(4 / 1100.0)
        # 4 jobs x 2 nodes x 600 s = 4800 node-s done in 1100 s
        assert m["goodput_node_hours_per_h"] == pytest.approx(4800.0 / 1100.0)
        assert m["avg_owned_nodes"] == pytest.approx(8.0)
        # an owned DCS machine burns its full size continuously
        assert m["cost_burn_node_hours_per_h"] == pytest.approx(8.0)
        assert m["slo_attainment"] == 1.0

    def test_window_excludes_old_completions(self):
        service = build_service(dcs_spec(window_s=1000.0))
        service.submit_batch(make_jobs(4, start=100.0, gap=100.0,
                                       size=2, runtime=600.0))
        service.advance_to(2500.0)  # window (1500, 2500]: nothing completes
        # (all four completions landed at 720..1020, before the window)
        m = service.metrics()
        assert m["completed_total"] == 4
        assert m["completed_in_window"] == 0
        assert m["throughput_jobs_per_s"] == 0.0
        assert m["slo_attainment"] is None  # no claim from zero observations

    def test_queue_depth_and_slo_miss_under_contention(self):
        service = build_service(dcs_spec(slo_wait_s=100.0))
        # 8-wide jobs serialize on an 8-node machine: starts at scan
        # ticks 60, 660, 1260, 1860, so only the first job's wait (60 s)
        # meets a 100 s wait SLO
        service.submit_batch(make_jobs(4, start=0.0, gap=1.0,
                                       size=8, runtime=600.0))
        service.advance_to(10.0)
        m = service.metrics()
        assert m["queue_depth"] == 4  # arrived, first scan not yet ticked
        assert m["running_jobs"] == 0
        service.advance_to(2500.0)
        m = service.metrics()
        assert m["completed_in_window"] == 4
        assert m["slo_attainment"] == pytest.approx(0.25)

    def test_metrics_read_does_not_perturb_world(self):
        service = build_service(dcs_spec())
        service.submit_batch(make_jobs(6))
        service.advance_to(1500.0)
        service.metrics()
        payload_a = service.fork().shutdown(drain=True)
        service.metrics()
        payload_b = service.fork().shutdown(drain=True)
        assert payload_a == payload_b

    def test_ssp_cost_burn_lands_at_lease_close(self):
        spec = dcs_spec(system="ssp", window_s=DAY)
        service = build_service(spec)
        service.submit_batch(make_jobs(2, start=100.0, gap=100.0,
                                       size=2, runtime=600.0))
        service.advance_to(1000.0)
        # SSP holds its block lease until finalization, so nothing is
        # charged mid-run: the windowed burn is honestly zero...
        assert service.metrics()["cost_burn_node_hours_per_h"] == 0.0
        ledger = service.live.provision.ledger
        assert ledger.charge_log == []
        payload = service.shutdown(drain=True)
        # ...and the whole charge lands in the log at lease close, equal
        # to the billed consumption the final payload reports
        assert len(ledger.charge_log) == 1
        _t, client, units = ledger.charge_log[0]
        assert client == service.live.name
        assert units == pytest.approx(payload["resource_consumption"])


class TestWhatIf:
    def test_empty_delta_is_byte_identical(self):
        service = build_service(dcs_spec())
        service.submit_batch(make_jobs(10))
        service.advance_to(900.0)
        result = WhatIfEngine(service).what_if(None, 3 * 3600.0)
        assert result.scenario == result.baseline
        assert result.diff == {}
        assert result.at == 900.0
        assert result.fork_wall_s >= 0.0
        # the live service never moved
        assert service.now == 900.0
        assert not service.closed

    def test_load_clone_and_shed(self):
        service = build_service(dcs_spec())
        service.submit_batch(make_jobs(10))
        service.advance_to(150.0)  # one arrival fired, 9 still pending
        engine = WhatIfEngine(service)
        double = engine.what_if({"load_multiplier": 2.0}, DAY)
        assert double.cloned_jobs == 9
        assert (
            double.scenario["completed_jobs"]
            == double.baseline["completed_jobs"] + 9
        )
        half = engine.what_if({"load_multiplier": 0.5}, DAY)
        assert half.shed_jobs == 5  # 9 pending -> keep int(9 * 0.5) = 4
        assert (
            half.scenario["completed_jobs"]
            == half.baseline["completed_jobs"] - 5
        )

    def test_mtbf_delta_introduces_reliability(self):
        service = build_service(dcs_spec())
        service.submit_batch(make_jobs(10))
        service.advance_to(500.0)
        result = WhatIfEngine(service).what_if({"mtbf_hours": 2.0}, DAY)
        assert "reliability" not in result.baseline
        assert "reliability" in result.scenario
        assert "only_in_scenario" in result.diff
        assert "reliability" in result.diff["only_in_scenario"]

    def test_billing_delta_on_ssp(self):
        service = build_service(dcs_spec(system="ssp"))
        # short jobs on a per-hour meter: per-second billing must be cheaper
        service.submit_batch(make_jobs(6, runtime=900.0))
        service.advance_to(300.0)
        result = WhatIfEngine(service).what_if({"billing": "per-second"}, DAY)
        key = "resource_consumption"
        assert result.scenario[key] < result.baseline[key]
        assert result.diff[key]["delta"] == pytest.approx(
            result.scenario[key] - result.baseline[key]
        )

    def test_policy_delta_on_fixed_system_fails_permanently(self):
        service = build_service(dcs_spec())
        service.submit_batch(make_jobs(4))
        engine = WhatIfEngine(service)
        with pytest.raises(WhatIfError, match="DawningCloud") as exc_info:
            engine.what_if(
                {"policy": {"name": "paper-htc",
                            "params": {"initial_nodes": 4}}},
                3600.0,
            )
        # permanent: one attempt, structured error chain attached
        assert exc_info.value.error["type"] == "WhatIfError"

    @pytest.mark.parametrize(
        "params,knob",
        [({"initial_nodes": 8}, "initial_nodes"),
         ({"initial_nodes": 4, "scan_interval_s": 30.0}, "scan_interval_s")],
        ids=["initial_nodes", "scan_interval_s"],
    )
    def test_policy_delta_refuses_knobs_fixed_at_tre_creation(self, params,
                                                              knob):
        service = build_service(dc_spec())
        service.submit_batch(make_jobs(12, size=3, runtime=5400.0))
        service.advance_to(700.0)
        with pytest.raises(
            WhatIfError, match=f"cannot retarget {knob} on a live TRE"
        ):
            WhatIfEngine(service).what_if(
                {"policy": {"name": "paper-htc", "params": params}}, 3600.0
            )
        assert service.now == 700.0

    def test_billing_delta_on_dcs_fails(self):
        service = build_service(dcs_spec())
        with pytest.raises(WhatIfError, match="owned, not metered"):
            WhatIfEngine(service).what_if({"billing": "per-second"}, 3600.0)

    @pytest.mark.parametrize("runner", SERVED_RUNNERS)
    def test_mtbf_delta_kills_jobs_running_at_the_fork(self, runner):
        """Jobs started before the fork took the no-failure path, which
        keeps no handle on their finish events; the failure model the
        delta attaches must still kill them, and each finishes once."""
        system = {"runner": runner}
        if runner == "dawningcloud":
            system["policy"] = {"name": "paper-htc",
                                "params": {"initial_nodes": 8}}
        service = build_service(dcs_spec(system=system))
        service.submit_batch(make_jobs(4, start=60.0, gap=0.0, runtime=1200.0))
        service.advance_to(300.0)
        # every job of the world started before the fork
        assert len(service.server.running) == 4
        assert service.pending_arrivals == 0 and not service.server.queue
        result = WhatIfEngine(service).what_if({"mtbf_hours": 0.5}, DAY)
        assert result.scenario["reliability"]["killed_jobs"] >= 1
        assert result.scenario["completed_jobs"] == 4
        assert result.baseline["completed_jobs"] == 4

    def test_a_failed_query_names_the_cause_type(self):
        service = build_service(dcs_spec())
        with pytest.raises(
            WhatIfError,
            match=r"failed after 1 attempt\(s\): WhatIfError: billing",
        ):
            WhatIfEngine(service).what_if({"billing": "per-second"}, 3600.0)

    def test_mtbf_delta_refused_when_model_armed(self):
        spec = dcs_spec(
            system={"runner": "dcs",
                    "failures": {"name": "exponential",
                                 "params": {"mtbf_hours": 1000.0}}},
        )
        service = build_service(spec)
        with pytest.raises(WhatIfError, match="already has a failure model"):
            WhatIfEngine(service).what_if({"mtbf_hours": 2.0}, 3600.0)

    def test_three_concurrent_whatifs_from_one_instant(self):
        """The acceptance scenario: load, MTBF and policy queries answered
        against one DawningCloud service, all forked from the same clock."""
        service = build_service(dc_spec())
        service.submit_batch(make_jobs(12, size=3, runtime=5400.0))
        service.advance_to(700.0)
        engine = WhatIfEngine(service)
        queries = [
            ({"load_multiplier": 1.5}, "surge"),
            ({"mtbf_hours": 6.0}, "flaky-nodes"),
            ({"policy": {"name": "paper-htc",
                         "params": {"initial_nodes": 4,
                                    "threshold_ratio": 3.0}}}, "lazier"),
        ]
        results = engine.run_many(
            [engine._query(delta, 6 * 3600.0, label)
             for delta, label in queries]
        )
        assert [r.label for r in results] == ["surge", "flaky-nodes", "lazier"]
        assert all(r.at == 700.0 for r in results)
        assert all(r.attempts == 1 for r in results)
        assert results[0].cloned_jobs > 0
        assert "reliability" in results[1].scenario
        # the shared baseline continuation is identical across queries:
        # every fork observed the same world
        assert results[0].baseline == results[1].baseline
        assert results[1].baseline == results[2].baseline
        # and the live service is untouched and still serving
        assert service.now == 700.0
        service.advance_to(900.0)

    def test_whatif_retry_refork_is_transparent(self):
        """A transient failure inside a query body is retried, and the
        retry re-forks the unmoved service — same answer, attempts > 1."""
        service = build_service(dcs_spec())
        service.submit_batch(make_jobs(8))
        service.advance_to(400.0)
        clean = WhatIfEngine(service).what_if(None, 3600.0)

        flaky = WhatIfEngine(
            service,
            retry=RetryPolicy(max_attempts=3, backoff_base_s=0.0,
                              sleep=lambda s: None),
        )
        real_answer = flaky._answer
        calls = {"n": 0}

        def chaotic(query):
            calls["n"] += 1
            if calls["n"] == 1:
                raise TransientError("worker lost")
            return real_answer(query)

        flaky._answer = chaotic
        result = flaky.what_if(None, 3600.0)
        assert result.attempts == 2
        assert result.baseline == clean.baseline
        assert result.scenario == clean.scenario

    def test_delta_validation(self):
        with pytest.raises(ValueError, match="load_multiplier"):
            ScenarioDelta(load_multiplier=-0.5)
        with pytest.raises(ValueError, match="mtbf_hours"):
            ScenarioDelta(mtbf_hours=0.0)
        with pytest.raises(ValueError, match="unknown key"):
            ScenarioDelta.from_dict({"mtbf": 3.0})
        assert ScenarioDelta().empty
        assert not ScenarioDelta(load_multiplier=2.0).empty
        # dict form round-trips
        delta = ScenarioDelta.from_dict(
            {"load_multiplier": 1.5, "billing": "per-second"}
        )
        assert ScenarioDelta.from_dict(delta.to_dict()) == delta


class TestServiceSpec:
    def test_round_trip_and_digest(self):
        spec = dc_spec(window_s=1800.0)
        again = ServiceSpec.from_dict(spec.to_dict())
        assert again == spec
        assert spec_digest(again) == spec_digest(spec)

    def test_defaults_omitted_from_dict(self):
        data = dcs_spec().to_dict()
        assert "window_s" not in data
        assert "max_pending" not in data
        assert set(data) == {"name", "system", "machine_nodes", "horizon_s"}

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown key"):
            ServiceSpec.from_dict(
                {"name": "x", "system": "dcs", "machine_nodes": 4,
                 "horizon_s": 100.0, "widow_s": 60.0}
            )

    @pytest.mark.parametrize("runner", ["drp", "drp-pooled", "pooled-queue"])
    def test_unserved_runner_refused_at_boot(self, runner):
        with pytest.raises(
            ValueError, match=r"\['dawningcloud', 'dcs', 'ssp'\]"
        ):
            build_service(dcs_spec(system=runner))

    def test_validation(self):
        with pytest.raises(ValueError, match="machine_nodes"):
            dcs_spec(machine_nodes=0)
        with pytest.raises(ValueError, match="horizon_s"):
            dcs_spec(horizon_s=-1.0)
        with pytest.raises(ValueError, match="window_s"):
            dcs_spec(window_s=0.0)

    def test_load_service_file(self, tmp_path):
        path = tmp_path / "svc.json"
        path.write_text(json.dumps(
            {"name": "filed", "system": "dcs", "machine_nodes": 4,
             "horizon_s": 3600.0}
        ))
        spec = load_service_file(path)
        assert spec.name == "filed"
        assert spec.machine_nodes == 4
        service = build_service(spec)
        assert service.horizon == 3600.0


class TestServeSession:
    def script(self):
        return [
            '# a comment line',
            '',
            '{"op": "submit", "job": {"job_id": 1, "submit_time": 100.0, '
            '"size": 2, "runtime": 600.0}}',
            '{"op": "submit-batch", "jobs": ['
            '{"job_id": 2, "submit_time": 200.0, "size": 2, "runtime": 600.0},'
            '{"job_id": 3, "submit_time": 300.0, "size": 2, "runtime": 600.0}'
            ']}',
            '{"op": "advance", "to": 1000.0}',
            '{"op": "metrics"}',
            '{"op": "what-if", "horizon_s": 3600.0, "label": "noop"}',
            '{"op": "shutdown"}',
        ]

    def test_full_session(self):
        session = ServeSession(build_service(dcs_spec()))
        results = session.run_script(self.script())
        assert [r["ok"] for r in results] == [True] * 6
        assert results[0]["pending_arrivals"] == 1
        assert results[1]["admitted"] == 2
        assert results[2]["time"] == 1000.0
        assert results[3]["metrics"]["completed_total"] == 3
        whatif = results[4]["result"]
        assert whatif["baseline"] == whatif["scenario"]
        assert results[5]["final"]["completed_jobs"] == 3
        assert session.finished

    def test_hybrid_engine_service_matches_exact(self):
        """A hybrid DCS service gives up the fluid tier at boot and then
        answers a session exactly as the exact engine does."""
        script = [
            *self.script()[:-1],
            '{"op": "what-if", "horizon_s": 3600.0, '
            '"delta": {"load_multiplier": 2.0}}',
            '{"op": "shutdown"}',
        ]

        def without_wall_clock(value):
            if isinstance(value, dict):
                return {
                    k: without_wall_clock(v) for k, v in value.items()
                    if k not in ("fork_wall_s", "duration_s")
                }
            if isinstance(value, list):
                return [without_wall_clock(v) for v in value]
            return value

        hybrid = build_service(dcs_spec(system={
            "runner": "dcs",
            "engine": {"name": "hybrid", "params": {"kernel": "numpy"}},
        }))
        assert hybrid.live._kernel is not None
        assert hybrid.live._deferred_trace is None  # exact from boot
        exact = build_service(dcs_spec())
        results = [
            without_wall_clock(ServeSession(service).run_script(script))
            for service in (hybrid, exact)
        ]
        assert [r["ok"] for r in results[0]] == [True] * 7
        assert results[0] == results[1]

    def test_errors_are_data_not_exceptions(self):
        session = ServeSession(build_service(dcs_spec()))
        results = session.run_script([
            'not json at all',
            '{"op": "frobnicate"}',
            '{"op": "advance"}',
            '{"op": "submit", "job": {"job_id": 1}}',
            '{"op": "what-if", "horizon_s": 60.0, '
            '"delta": {"billing": "per-second"}}',  # DCS: not metered
            '{"op": "metrics"}',
        ])
        assert [r["ok"] for r in results] == [
            False, False, False, False, False, True,
        ]
        assert results[1]["error"]["type"] == "ValueError"
        assert results[4]["error"]["type"] == "WhatIfError"
        assert not session.finished

    def test_session_stops_after_shutdown(self):
        session = ServeSession(build_service(dcs_spec()))
        results = session.run_script([
            '{"op": "shutdown"}',
            '{"op": "metrics"}',  # never reached
        ])
        assert len(results) == 1

    def test_what_if_batch(self):
        session = ServeSession(build_service(dcs_spec()))
        session.execute({"op": "submit-batch", "jobs": [
            {"job_id": i, "submit_time": 100.0 * (i + 1), "size": 2,
             "runtime": 600.0} for i in range(6)
        ]})
        out = session.execute({"op": "what-if-batch", "queries": [
            {"delta": {"load_multiplier": 2.0}, "horizon_s": DAY,
             "label": "surge"},
            {"delta": None, "horizon_s": DAY, "label": "noop"},
        ]})
        assert out["ok"]
        surge, noop = out["results"]
        assert surge["cloned_jobs"] == 6
        assert noop["baseline"] == noop["scenario"]


class TestServeCli:
    def test_serve_script_exit_zero(self, tmp_path, capsys):
        from repro.cli import main

        script = tmp_path / "session.jsonl"
        script.write_text("\n".join([
            '{"op": "submit", "job": {"job_id": 1, "submit_time": 60.0, '
            '"size": 2, "runtime": 600.0}}',
            '{"op": "advance", "to": 800.0}',
            '{"op": "metrics"}',
            '{"op": "shutdown"}',
        ]) + "\n")
        assert main(["serve", "--script", str(script)]) == 0
        lines = [
            json.loads(line)
            for line in capsys.readouterr().out.splitlines() if line
        ]
        assert len(lines) == 4
        assert all(line["ok"] for line in lines)
        assert lines[2]["metrics"]["completed_total"] == 1
        assert lines[3]["final"]["completed_jobs"] == 1

    def test_serve_with_service_spec_file(self, tmp_path, capsys):
        from repro.cli import main

        spec = tmp_path / "svc.json"
        spec.write_text(json.dumps(
            {"name": "cli-svc", "system": "ssp", "machine_nodes": 4,
             "horizon_s": 7200.0}
        ))
        script = tmp_path / "session.jsonl"
        script.write_text('{"op": "metrics"}\n{"op": "shutdown"}\n')
        assert main(["serve", "--service", str(spec),
                     "--script", str(script)]) == 0
        lines = [
            json.loads(line)
            for line in capsys.readouterr().out.splitlines() if line
        ]
        assert lines[0]["metrics"]["service"] == "cli-svc"

    def test_failed_op_exits_nonzero(self, tmp_path, capsys):
        from repro.cli import main

        script = tmp_path / "session.jsonl"
        script.write_text('{"op": "frobnicate"}\n{"op": "shutdown"}\n')
        assert main(["serve", "--script", str(script)]) == 1

    def test_bad_service_file_reports_error(self, tmp_path, capsys):
        from repro.cli import main

        spec = tmp_path / "svc.json"
        spec.write_text(json.dumps({"name": "x", "system": "dcs"}))
        assert main(["serve", "--service", str(spec)]) == 1
        assert "error:" in capsys.readouterr().err.lower()

    def test_serve_flags_rejected_elsewhere(self, tmp_path):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["table1", "--script", str(tmp_path / "s.jsonl")])


class FakeClock:
    def __init__(self):
        self.t = 0.0
        self.sleeps = []

    def monotonic(self):
        return self.t

    def sleep(self, s):
        self.sleeps.append(s)
        self.t += s


class TestSupervisedCall:
    def policy(self, clock, **over):
        defaults = dict(max_attempts=3, backoff_base_s=0.05,
                        sleep=clock.sleep, monotonic=clock.monotonic)
        defaults.update(over)
        return RetryPolicy(**defaults)

    def test_transient_failures_retry_with_backoff(self):
        clock = FakeClock()
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] < 3:
                raise TransientError("blip")
            return 42

        outcome = supervised_call(flaky, name="flaky",
                                  retry=self.policy(clock))
        assert outcome.ok
        assert outcome.result == 42
        assert outcome.attempts == 3
        assert clock.sleeps == [0.05, 0.1]

    def test_permanent_failure_stops_immediately(self):
        clock = FakeClock()

        def broken():
            raise ValueError("bad input")

        outcome = supervised_call(broken, retry=self.policy(clock))
        assert not outcome.ok
        assert outcome.attempts == 1
        assert outcome.error["type"] == "ValueError"
        assert clock.sleeps == []

    def test_exhausted_transients_fail_with_chain(self):
        clock = FakeClock()

        def always():
            raise TransientError("never works")

        outcome = supervised_call(always, retry=self.policy(clock))
        assert outcome.status == "failed"
        assert outcome.attempts == 3
        assert outcome.error["type"] == "TransientError"

    def test_late_result_discarded_as_timeout(self):
        clock = FakeClock()
        calls = {"n": 0}

        def slow_then_fast():
            calls["n"] += 1
            if calls["n"] == 1:
                clock.t += 10.0  # blows the 1 s deadline
            return "done"

        outcome = supervised_call(
            slow_then_fast, name="slow",
            retry=self.policy(clock, timeout_s=1.0),
        )
        assert outcome.ok
        assert outcome.attempts == 2
        assert outcome.result == "done"

    def test_always_late_fails_as_timeout(self):
        clock = FakeClock()

        def molasses():
            clock.t += 10.0
            return "too late"

        outcome = supervised_call(
            molasses, retry=self.policy(clock, timeout_s=1.0)
        )
        assert not outcome.ok
        assert outcome.error["type"] == "ScenarioTimeout"
