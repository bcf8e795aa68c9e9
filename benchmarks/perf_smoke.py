"""Perf-trajectory smoke benchmark with a regression gate.

CI runs this on every push (see ``.github/workflows/ci.yml``), uploads the
JSON as an artifact, *and* gates it against the committed ``BENCH_2.json``
with ``--normalize-by-engine``: each tracked wall time is rescaled by the
machine-speed factor the engine bench measures, and the job fails when
one regresses by more than ``--max-regression`` (default 25%).  The
tracked timings:

* the **simulation engine** — raw discrete-event throughput
  (events/second) under the timer-churn pattern every system produces;
  under ``--normalize-by-engine`` it is the yardstick, not gated itself;
* the **cold (B, R) sweeps** (Figures 9 and 10) — 16 full two-week
  DawningCloud simulations each, the workload the provisioning kernel's
  incremental accounting and the idle-gap fast-forward are built for;
* ``hybrid-kernel`` — the fluid tier against the exact engine on one
  uncontended month (payload identity and a >= 3x speedup asserted);
* ``million-node-year`` — the scale scenario end to end (< 30 s
  asserted);
* ``serving-facade`` — a serving session: ingest, advance, fork and an
  empty-delta what-if (byte identity asserted).

Two asserted checks ride along untracked: ``no_failure_fast_path`` (a
run without a failure model carries no reliability machinery) and
``supervision_overhead`` (supervised orchestration stays under 50 ms per
scenario).

Absolute wall times are machine-dependent; the gate therefore compares a
fresh run against the committed baseline after normalizing for machine
speed, with a generous threshold so runner jitter does not trip it,
while a real regression (an accidentally disabled fast path roughly
doubles these timings) fails loudly.  See ``docs/performance.md``.

Usage::

    python benchmarks/perf_smoke.py [--out BENCH_pr.json]
        [--baseline BENCH_2.json [--max-regression 0.25]
         [--normalize-by-engine]]
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time


def engine_events_per_second(n_timers: int = 2_000, horizon_h: int = 40) -> dict:
    """Raw engine throughput: periodic timers ticking over a horizon."""
    from repro.simkit.engine import SimulationEngine
    from repro.simkit.timers import PeriodicTimer

    engine = SimulationEngine()
    for i in range(n_timers):
        PeriodicTimer(engine, 60.0 + (i % 7), lambda: None).start()
    t0 = time.perf_counter()
    engine.run(until=horizon_h * 3600.0)
    wall = time.perf_counter() - t0
    return {
        "executed_events": engine.executed_events,
        "wall_s": round(wall, 4),
        "events_per_sec": round(engine.executed_events / wall),
    }


def assert_no_failure_machinery() -> dict:
    """The no-failure fast path must carry zero reliability machinery.

    Runs a small trace through a server-attached system with no failure
    model and asserts (a) the server never allocated fault-tolerance
    state (``REServer.fault is None`` — job starts stay on the
    single-event path), and (b) the metrics payload carries no
    ``reliability`` key, so golden pins and EXPERIMENTS.md stay
    byte-identical.  Raises AssertionError on violation — the perf gate
    below would catch a slow fast path, this catches a *rewired* one.
    """
    from repro.core.servers import REServer
    from repro.scheduling.firstfit import FirstFitScheduler
    from repro.simkit.engine import SimulationEngine
    from repro.workloads.job import Job, Trace
    from repro.systems.base import WorkloadBundle
    from repro.systems.fixed import run_dcs

    engine = SimulationEngine()
    server = REServer(engine, "probe", FirstFitScheduler(), 60.0)
    server.add_nodes(4)
    server.submit_job(Job(job_id=1, submit_time=0.0, size=1, runtime=30.0))
    engine.run(until=120.0)
    assert server.fault is None, "no-failure server allocated fault state"
    assert server.completed_count == 1

    jobs = [Job(job_id=i, submit_time=60.0 * i, size=1, runtime=120.0)
            for i in range(1, 9)]
    bundle = WorkloadBundle.from_trace(
        "probe", Trace("probe", jobs, machine_nodes=4, duration=3600.0)
    )
    payload = run_dcs(bundle).to_payload()
    assert "reliability" not in payload, (
        "no-failure payload grew a reliability key"
    )
    return {"fast_path_clean": True}


def cold_sweep(scenario: str) -> dict:
    """One cold sweep scenario (no cache), timed end to end.

    Deliberately routed through the *supervised* orchestrator (retry
    policy, journaling hooks, structured outcomes) rather than calling
    the scenario function directly, so the regression gate's sweep
    timings bound the supervision machinery's overhead alongside the
    simulation itself.
    """
    from repro.experiments.cache import NullCache
    from repro.experiments.orchestrator import Orchestrator

    orch = Orchestrator(cache=NullCache(), workers=1, seed=0)
    t0 = time.perf_counter()
    run = orch.run_one(scenario)
    wall = time.perf_counter() - t0
    return {
        "scenario": scenario,
        "points": len(run.payload["points"]),
        "supervised": True,
        "wall_s": round(wall, 3),
    }


def supervision_overhead(scenario: str = "table1-models",
                         repeats: int = 5) -> dict:
    """Supervised-orchestration tax on a closed-form scenario, asserted.

    Runs a sub-millisecond scenario bare (``spec.run``) and through a
    fresh supervised orchestrator, ``repeats`` times each; the per-run
    difference is the full cost of supervision bookkeeping (retry
    policy, journal plumbing, structured ScenarioRun assembly).  A hard
    assert keeps it under 50 ms per scenario — three orders of magnitude
    below any tracked sweep, so supervision can never hide a regression
    inside the gate's threshold.  Not a tracked timing itself (absolute
    ms-scale numbers are all runner jitter); the sweeps above carry the
    gated, end-to-end supervised timings.
    """
    from repro.experiments.cache import NullCache
    from repro.experiments.orchestrator import Orchestrator
    from repro.experiments.registry import default_registry

    spec = default_registry().get(scenario)
    spec.run(0)  # warm lazy imports so neither side pays them
    t0 = time.perf_counter()
    for _ in range(repeats):
        spec.run(0)
    bare = (time.perf_counter() - t0) / repeats

    t1 = time.perf_counter()
    for _ in range(repeats):
        # a fresh orchestrator each time: no memo, full supervised path
        Orchestrator(cache=NullCache(), workers=1, seed=0).run_one(scenario)
    supervised = (time.perf_counter() - t1) / repeats

    overhead = supervised - bare
    assert overhead < 0.05, (
        f"supervision overhead {overhead * 1e3:.1f}ms per scenario "
        f"exceeds the 50ms budget"
    )
    return {
        "scenario": scenario,
        "bare_wall_s": round(bare, 5),
        "supervised_wall_s": round(supervised, 5),
        "overhead_s": round(overhead, 5),
    }


def hybrid_kernel_sweep(n_jobs: int = 120_000) -> dict:
    """The hybrid fluid/vectorized core vs the exact engine, same workload.

    One synthetic uncontended month (the fluid tier's home turf) runs
    twice: exact engine timed with its event count, then the hybrid core
    (columnar mode, best of three).  Byte-identical payloads and a >= 3x
    speedup are *asserted* — the speedup ratio compares two timings from
    the same process on the same machine, so it is machine-independent in
    a way absolute wall times are not.  ``events_per_sec_effective`` is
    the exact run's event count over the hybrid wall: what the hybrid
    core's closed form is worth in exact-engine currency.
    """
    from repro.experiments.perfscale import build_uniform_trace
    from repro.systems.fixed import FixedLiveRun

    bundle = build_uniform_trace(
        0, 65_536, n_jobs, 30 * 86400.0, name="hybrid-bench"
    )
    t0 = time.perf_counter()
    exact_run = FixedLiveRun(bundle, "DCS", kernel="off")
    exact = exact_run.run()
    exact_wall = time.perf_counter() - t0
    events = exact_run.engine.executed_events

    best = float("inf")
    for _ in range(3):
        t1 = time.perf_counter()
        run = FixedLiveRun(
            bundle, "DCS", kernel={"kernel": "numpy", "materialize": False}
        )
        hybrid = run.run()
        best = min(best, time.perf_counter() - t1)
        assert run.fluid_applied, "hybrid bench fell back to the exact engine"
    assert hybrid.to_payload() == exact.to_payload(), (
        "hybrid core diverged from the exact engine"
    )
    speedup = exact_wall / best
    assert speedup >= 3.0, (
        f"hybrid core speedup {speedup:.1f}x is below the 3x floor"
    )
    return {
        "scenario": "hybrid-kernel",
        "n_jobs": n_jobs,
        "identical": True,
        "executed_events_exact": events,
        "exact_wall_s": round(exact_wall, 3),
        "wall_s": round(best, 4),
        "speedup_vs_exact": round(speedup, 1),
        "events_per_sec_effective": round(events / best),
    }


def serving_facade_point(n_jobs: int = 20_000) -> dict:
    """The serving layer's hot paths: ingest, fork, what-if, end to end.

    Boots a DCS service from a spec, bulk-ingests a uniform synthetic
    trace through ``submit_batch`` (the O(n) ``schedule_batch`` path),
    advances to mid-horizon, times a world fork (best of three; one
    snapshot plus one restore, where a what-if query pays one snapshot
    and two restores), and answers one empty-delta what-if whose
    byte-identity is asserted.  ``wall_s`` is the whole
    session, so the gate bounds ingest, advance, fork and the forked
    continuations together.
    """
    from repro.api.spec import ServiceSpec
    from repro.experiments.perfscale import build_uniform_trace
    from repro.serving import WhatIfEngine, build_service

    horizon = 7 * 86400.0
    bundle = build_uniform_trace(0, 4096, n_jobs, horizon, name="serve-bench")
    jobs = list(bundle.trace.jobs)
    spec = ServiceSpec.from_dict({
        "name": "serve-bench", "system": "dcs",
        "machine_nodes": 4096, "horizon_s": horizon,
    })
    t0 = time.perf_counter()
    service = build_service(spec)
    service.submit_batch(jobs)
    ingest_wall = time.perf_counter() - t0
    assert service.pending_arrivals == n_jobs

    service.advance_to(horizon / 2)

    fork_best = float("inf")
    for _ in range(3):
        t1 = time.perf_counter()
        service.fork()
        fork_best = min(fork_best, time.perf_counter() - t1)

    t2 = time.perf_counter()
    result = WhatIfEngine(service).what_if(None, horizon / 2)
    whatif_wall = time.perf_counter() - t2
    assert result.baseline == result.scenario, (
        "empty-delta what-if diverged from its baseline"
    )
    return {
        "scenario": "serving-facade",
        "n_jobs": n_jobs,
        "ingest_events_per_sec": round(n_jobs / ingest_wall),
        "ingest_wall_s": round(ingest_wall, 4),
        "fork_wall_s": round(fork_best, 4),
        "whatif_wall_s": round(whatif_wall, 3),
        "wall_s": round(time.perf_counter() - t0, 3),
    }


def million_node_year_point() -> dict:
    """The ``million-node-year`` scenario, timed end to end (< 30 s)."""
    from repro.experiments.registry import default_registry

    spec = default_registry().get("million-node-year")
    t0 = time.perf_counter()
    payload = spec.run(0)
    wall = time.perf_counter() - t0
    assert wall < 30.0, f"million-node-year took {wall:.1f}s (budget: 30s)"
    return {
        "scenario": "million-node-year",
        "nodes": payload["nodes"],
        "n_jobs": payload["n_jobs"],
        "wall_s": round(wall, 3),
    }


def tracked_timings(report: dict) -> dict[str, float]:
    """The scenario → wall-seconds map the regression gate compares."""
    timings = {"engine": report["engine"]["wall_s"]}
    for sweep in report["sweeps"]:
        timings[sweep["scenario"]] = sweep["wall_s"]
    return timings


def check_regressions(
    report: dict,
    baseline: dict,
    max_regression: float,
    normalize_by_engine: bool = False,
) -> list[str]:
    """Tracked timings that regressed beyond the threshold, as messages.

    With ``normalize_by_engine`` the sweep timings are rescaled by the
    machine-speed factor the raw engine bench measures
    (``current engine wall / baseline engine wall``) before comparing, so
    the gate judges the *code* rather than whether the baseline machine
    and the CI runner share a clock speed.  The engine timing itself is
    the yardstick in that mode and is excluded from the gate — engine
    hot-loop regressions still surface through the sweeps, which spend
    most of their time inside it.
    """
    current = tracked_timings(report)
    reference = tracked_timings(baseline)
    speed = 1.0
    note = ""
    keys = sorted(reference.keys() & current.keys())
    if normalize_by_engine:
        speed = reference["engine"] / current["engine"]
        note = f" (machine-speed normalized, factor {speed:.2f})"
        keys = [k for k in keys if k != "engine"]
    failures = []
    for key in keys:
        ratio = current[key] * speed / reference[key]
        if ratio > 1.0 + max_regression:
            failures.append(
                f"{key}: {current[key]:.3f}s vs baseline {reference[key]:.3f}s "
                f"({ratio:.2f}x{note}, limit {1.0 + max_regression:.2f}x)"
            )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="BENCH_pr.json")
    parser.add_argument(
        "--baseline",
        default=None,
        help="committed BENCH_*.json to gate against (e.g. BENCH_2.json)",
    )
    parser.add_argument(
        "--max-regression",
        type=float,
        default=0.25,
        help="allowed fractional slowdown per tracked timing (default 0.25)",
    )
    parser.add_argument(
        "--normalize-by-engine",
        action="store_true",
        help="rescale sweep timings by the engine bench's machine-speed "
        "factor before gating (use when baseline and runner differ)",
    )
    args = parser.parse_args(argv)

    report = {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "no_failure_fast_path": assert_no_failure_machinery(),
        "supervision_overhead": supervision_overhead(),
        "engine": engine_events_per_second(),
        "sweeps": [
            cold_sweep("fig10-sweep-nasa"),
            cold_sweep("fig09-sweep-blue"),
            hybrid_kernel_sweep(),
            million_node_year_point(),
            serving_facade_point(),
        ],
    }
    report["sweep_total_wall_s"] = round(
        sum(s["wall_s"] for s in report["sweeps"]), 3
    )
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(json.dumps(report, indent=2, sort_keys=True))
    print(f"wrote {args.out}", file=sys.stderr)

    if args.baseline:
        with open(args.baseline) as fh:
            baseline = json.load(fh)
        failures = check_regressions(
            report, baseline, args.max_regression, args.normalize_by_engine
        )
        if failures:
            print(
                f"PERF REGRESSION vs {args.baseline} "
                f"(threshold {args.max_regression:.0%}):",
                file=sys.stderr,
            )
            for line in failures:
                print(f"  {line}", file=sys.stderr)
            return 1
        print(
            f"perf gate ok vs {args.baseline} "
            f"(threshold {args.max_regression:.0%})",
            file=sys.stderr,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
