"""Differential pins for the hybrid fluid/vectorized core (PR 7).

The exact pure-Python engine is canonical; the hybrid core is an opt-in
accelerator that must be **byte-identical** wherever it engages and must
**fall back** byte-identically wherever it cannot.  This suite pins both
directions:

* uncontended fixed-machine runs (DCS and SSP) on the hybrid core —
  payloads, per-job completion times, usage events and the SSP lease
  ledger all equal the exact engine's, bit for bit;
* contended runs, in-horizon failures, hooks and partial advances — the
  fluid gates refuse, and the deferred-trace fallback reproduces the
  exact run byte for byte;
* the built-in golden scenarios re-run under an ambient ``REPRO_KERNEL``
  — canonical payloads unchanged, which is the "golden pins survive the
  flag being ON" guarantee;
* the numpy column operations equal scalar oracles (the loops the exact
  engine's arithmetic performs) on random and float-edge inputs;
* every selection surface rejects anything but ``numpy`` and the off
  values with an error that names ``numpy``.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.simkit import kernel as kernelmod
from repro.simkit import fluid as fluidmod
from repro.simkit.kernel import (
    KernelConfigError,
    KernelSpec,
    demand_fits,
    grid_starts,
    peak_concurrency,
    resolve_kernel_spec,
)
from repro.systems.base import WorkloadBundle
from repro.systems.fixed import FixedLiveRun
from repro.workloads.job import Trace, TraceArrays


def grid_starts_oracle(submit, interval: float, epoch: float) -> np.ndarray:
    """Scalar reference for :func:`grid_starts`, one job at a time.

    Replicates :meth:`repro.simkit.timers.PeriodicTimer.resume` for an
    ``include_now=True`` waker: the ceil candidate is corrected against
    the product form ``epoch + n*interval`` — the exact instants ticks
    fire at — in both directions, and tick 0 never dispatches.
    """
    out = []
    for s in np.asarray(submit, dtype=np.float64).tolist():
        n = int(math.ceil((s - epoch) / interval))
        if n < 1:
            n = 1
        while n > 1 and epoch + (n - 1) * interval >= s:
            n -= 1
        while epoch + n * interval < s:
            n += 1
        out.append(epoch + n * interval)
    return np.array(out, dtype=np.float64)


def peak_concurrency_oracle(starts, finishes, sizes) -> int:
    """Scalar sweep line for :func:`peak_concurrency`: at equal instants
    every start is counted before any finish."""
    events = sorted(
        [(t, 0, size) for t, size in zip(starts.tolist(), sizes.tolist())]
        + [(t, 1, -size) for t, size in zip(finishes.tolist(), sizes.tolist())]
    )
    level = peak = 0
    for _time, _kind, delta in events:
        level += delta
        peak = max(peak, level)
    return peak


def uncontended_bundle(
    seed: int = 11, n: int = 3000, nodes: int = 4096
) -> WorkloadBundle:
    """A synthetic HTC bundle whose peak demand stays far below ``nodes``."""
    rng = np.random.default_rng(seed)
    submit = np.sort(rng.uniform(0.0, 5 * 86400.0, n))
    size = rng.integers(1, 8, n).astype(np.int64)
    runtime = rng.uniform(60.0, 7200.0, n)
    arrays = TraceArrays(np.arange(n, dtype=np.int64), submit, size, runtime)
    trace = Trace.from_arrays(
        "synth", arrays, machine_nodes=nodes, duration=6 * 86400.0
    )
    return WorkloadBundle.from_trace("synth", trace)


def contended_bundle(n: int = 400) -> WorkloadBundle:
    """Wide simultaneous jobs on a small machine: real queueing occurs."""
    rng = np.random.default_rng(3)
    submit = np.sort(rng.uniform(0.0, 86400.0, n))
    size = rng.integers(4, 16, n).astype(np.int64)
    runtime = rng.uniform(3600.0, 14400.0, n)
    arrays = TraceArrays(np.arange(n, dtype=np.int64), submit, size, runtime)
    trace = Trace.from_arrays(
        "contended", arrays, machine_nodes=32, duration=2 * 86400.0
    )
    return WorkloadBundle.from_trace("contended", trace)


def bound_above_peak_bundle() -> WorkloadBundle:
    """Three 4-node jobs on 8 nodes whose windowed bound overshoots.

    Dispatched at the 60 s and 240 s ticks, at most two run at once, so
    the exact peak is 8; all three start in the first of three windows,
    where the long job also runs, so the windowed bound reads 12.
    """
    arrays = TraceArrays(
        np.arange(3, dtype=np.int64),
        np.array([10.0, 10.0, 200.0]),
        np.array([4, 4, 4], dtype=np.int64),
        np.array([1000.0, 100.0, 100.0]),
    )
    trace = Trace.from_arrays(
        "bound-above-peak", arrays, machine_nodes=8, duration=2000.0
    )
    return WorkloadBundle.from_trace("bound-above-peak", trace)


@pytest.fixture
def small_blocks(monkeypatch):
    """Seven-row kernel blocks: every blocked column pass crosses many
    block boundaries and ends on a partial block."""
    monkeypatch.setattr(kernelmod, "BLOCK_ROWS", 7)


def world_fingerprint(run: FixedLiveRun) -> dict:
    """Every observable the exact engine produces, for deep comparison."""
    server = run.server
    return {
        "completed": [
            (j.job_id, j.start_time, j.finish_time)
            for j in server.completed
        ],
        "queued": [j.job_id for j in server.queue],
        "running": {
            job_id: (r.job.start_time, r.finish_time)
            for job_id, r in server.running.items()
        },
        "submitted": server.submitted_jobs,
        "used": server.used,
        "usage_events": server.usage.events,
        "now": run.engine.now,
    }


class TestUncontendedBackends:
    @pytest.mark.parametrize("system", ["DCS", "SSP"])
    def test_fluid_world_equals_exact_world(self, system):
        bundle = uncontended_bundle()
        exact = FixedLiveRun(bundle, system, kernel="off")
        exact.complete()
        hybrid = FixedLiveRun(bundle, system, kernel="numpy")
        hybrid.complete()
        assert hybrid.fluid_applied
        assert hybrid.fluid_decline_reason is None
        assert world_fingerprint(hybrid) == world_fingerprint(exact)
        pe, ph = exact.finish(), hybrid.finish()
        assert ph.to_payload() == pe.to_payload()
        if system == "SSP":
            assert hybrid.provision.consumption_node_hours(
                "synth"
            ) == exact.provision.consumption_node_hours("synth")
            assert hybrid.provision.usage_events() == (
                exact.provision.usage_events()
            )

    @pytest.mark.parametrize("system", ["DCS", "SSP"])
    def test_fluid_world_equals_exact_world_in_small_blocks(
        self, system, small_blocks
    ):
        self.test_fluid_world_equals_exact_world(system)

    @pytest.mark.parametrize("system", ["DCS", "SSP"])
    def test_fluid_engages_where_only_the_exact_peak_fits(self, system):
        bundle = bound_above_peak_bundle()
        exact = FixedLiveRun(bundle, system, kernel="off")
        exact.complete()
        hybrid = FixedLiveRun(bundle, system, kernel="numpy")
        hybrid.complete()
        assert hybrid.fluid_applied
        assert world_fingerprint(hybrid) == world_fingerprint(exact)
        assert hybrid.finish().to_payload() == exact.finish().to_payload()

    def test_columnar_payload_equals_materialized(self):
        bundle = uncontended_bundle()
        mat = FixedLiveRun(bundle, "SSP", kernel="numpy")
        col = FixedLiveRun(
            bundle, "SSP", kernel={"kernel": "numpy", "materialize": False}
        )
        pm, pc = mat.run(), col.run()
        assert mat.fluid_applied and col.fluid_applied
        assert pc.to_payload() == pm.to_payload()
        # the scale path really skipped job materialization
        assert not col.server.completed
        assert col._fluid_summary is not None


class TestFallbackIdentity:
    def test_contended_trace_falls_back_byte_identically(self):
        bundle = contended_bundle()
        exact = FixedLiveRun(bundle, "DCS", kernel="off")
        exact.complete()
        hybrid = FixedLiveRun(bundle, "DCS", kernel="numpy")
        hybrid.complete()
        assert not hybrid.fluid_applied
        assert hybrid.fluid_decline_reason == (
            "peak node demand exceeds the machine"
        )
        assert world_fingerprint(hybrid) == world_fingerprint(exact)
        assert hybrid.finish().to_payload() == exact.finish().to_payload()

    def test_million_node_year_names_the_declining_gate(self):
        from repro.experiments.perfscale import million_node_year

        # ~7 jobs of up to 64 nodes at once: the peak exceeds 64 nodes
        with pytest.raises(RuntimeError, match="DCS: peak node demand"):
            million_node_year(seed=0, nodes=64, n_jobs=200, years=0.01)

    def test_failures_beyond_horizon_keep_fluid_on(self):
        from repro.reliability.failures import ExponentialFailures

        bundle = uncontended_bundle()
        model = ExponentialFailures(mtbf_s=1e12, mttr_s=3600.0)
        exact = FixedLiveRun(bundle, "DCS", failures=model, seed=5, kernel="off")
        hybrid = FixedLiveRun(
            bundle, "DCS", failures=model, seed=5, kernel="numpy"
        )
        pe, ph = exact.run(), hybrid.run()
        assert hybrid.fluid_applied
        assert ph.to_payload() == pe.to_payload()
        assert "reliability" in ph.to_payload()

    def test_failures_within_horizon_fall_back_byte_identically(self):
        from repro.reliability.failures import ExponentialFailures

        bundle = uncontended_bundle()
        model = ExponentialFailures(mtbf_s=200 * 3600.0, mttr_s=1800.0)
        exact = FixedLiveRun(bundle, "SSP", failures=model, seed=5, kernel="off")
        hybrid = FixedLiveRun(
            bundle, "SSP", failures=model, seed=5, kernel="numpy"
        )
        pe, ph = exact.run(), hybrid.run()
        assert not hybrid.fluid_applied
        assert hybrid.fluid_decline_reason == (
            "a failure can fire within the horizon"
        )
        assert ph.to_payload() == pe.to_payload()
        assert ph.to_payload()["reliability"]["failures"] > 0

    def test_checkpoint_policy_forces_exact_mode(self):
        from repro.reliability.checkpoint import CheckpointPolicy
        from repro.reliability.failures import ExponentialFailures

        bundle = uncontended_bundle()
        model = ExponentialFailures(
            mtbf_s=1e12, mttr_s=3600.0,
            checkpoint=CheckpointPolicy(interval_s=1800.0),
        )
        hybrid = FixedLiveRun(
            bundle, "DCS", failures=model, seed=5, kernel="numpy"
        )
        exact = FixedLiveRun(
            bundle, "DCS", failures=model, seed=5, kernel="off"
        )
        pe, ph = exact.run(), hybrid.run()
        assert not hybrid.fluid_applied
        assert ph.to_payload() == pe.to_payload()

    def test_partial_advance_injects_and_stays_exact(self):
        bundle = uncontended_bundle()
        exact = FixedLiveRun(bundle, "DCS", kernel="off")
        hybrid = FixedLiveRun(bundle, "DCS", kernel="numpy")
        for run in (exact, hybrid):
            run.advance_before(2 * 86400.0)
            run.complete()
        assert not hybrid.fluid_applied
        assert hybrid.finish().to_payload() == exact.finish().to_payload()

    def test_snapshot_restore_of_hybrid_run_matches_exact(self):
        bundle = uncontended_bundle(n=500)
        exact = FixedLiveRun(bundle, "DCS", kernel="off")
        hybrid = FixedLiveRun(bundle, "DCS", kernel="numpy")
        snap = hybrid.snapshot()  # forces deferred injection first
        branch = snap.restore()
        pe = exact.run().to_payload()
        assert hybrid.run().to_payload() == pe
        assert branch.run().to_payload() == pe

    def test_mtc_runs_always_exact(self):
        from repro.workloads.workflowgen import fork_join

        workflow = fork_join(width=40, seed=1)
        bundle = WorkloadBundle.from_workflow("mtc", workflow, fixed_nodes=16)
        hybrid = FixedLiveRun(bundle, "DCS", kernel="numpy")
        exact = FixedLiveRun(bundle, "DCS", kernel="off")
        assert hybrid.run().to_payload() == exact.run().to_payload()
        assert not hybrid.fluid_applied


class TestKernelOps:
    def test_grid_starts_matches_scalar_oracle_bitwise(self):
        rng = np.random.default_rng(0)
        submit = np.concatenate([
            rng.uniform(0.0, 1e6, 5000),
            np.arange(0.0, 600.0, 60.0),      # exactly on the grid
            np.arange(0.0, 600.0, 60.0) + 1e-9,  # barely past a tick
            np.arange(60.0, 660.0, 60.0) - 1e-9,  # barely before one
            [0.0],
        ])
        for interval, epoch in ((60.0, 0.0), (3.3, 17.7), (0.1, 1e6)):
            # product-form ticks and the floats just past them: the inputs
            # on which ceil lands one off and the float-edge guards correct
            ticks = epoch + np.arange(1, 2000) * interval
            inputs = np.concatenate([submit, ticks, np.nextafter(ticks, np.inf)])
            reference = grid_starts_oracle(inputs, interval, epoch)
            got = grid_starts(inputs, interval, epoch)
            assert got.tobytes() == reference.tobytes(), interval
            # the product-form contract: each start is a tick >= submit,
            # and the previous tick (if any) is < submit
            n = np.rint((reference - epoch) / interval).astype(np.int64)
            assert (reference >= inputs).all()
            assert (n >= 1).all()
            prev = epoch + (n - 1) * interval
            assert ((n == 1) | (prev < inputs)).all()

    def test_grid_starts_matches_scalar_oracle_bitwise_in_small_blocks(
        self, small_blocks
    ):
        self.test_grid_starts_matches_scalar_oracle_bitwise()

    def test_grid_starts_spans_default_blocks_bitwise(self):
        # two full blocks of the default size and a three-row tail
        rows = 2 * kernelmod.BLOCK_ROWS + 3
        rng = np.random.default_rng(4)
        submit = np.sort(rng.uniform(0.0, 3e7, rows))
        submit[::97] = np.rint(submit[::97] / 60.0) * 60.0  # on the grid
        reference = grid_starts_oracle(submit, 60.0, 0.0)
        assert grid_starts(submit, 60.0).tobytes() == reference.tobytes()

    def test_grid_starts_matches_live_timer(self):
        """The closed form against the actual PeriodicTimer, instant by
        instant: dispatch ticks the timer fires equal the kernel's grid."""
        from repro.simkit.engine import SimulationEngine
        from repro.simkit.timers import PeriodicTimer

        rng = np.random.default_rng(1)
        submits = np.sort(rng.uniform(0.0, 4000.0, 64))
        interval = 60.0
        starts = grid_starts(submits, interval, 0.0)
        ticks: list[float] = []
        engine = SimulationEngine()
        timer = PeriodicTimer(engine, interval, lambda: ticks.append(engine.now))
        timer.start()
        engine.run(until=5000.0)
        tickset = ticks  # every grid instant the timer actually fired at
        for s, expected in zip(submits.tolist(), starts.tolist()):
            live = next(t for t in tickset if t >= s)
            assert live == expected

    def test_peak_concurrency_matches_sweep_line_oracle(self):
        rng = np.random.default_rng(2)
        for trial in range(40):
            n = int(rng.integers(1, 200))
            if trial % 2:
                starts = rng.uniform(0.0, 1000.0, n)
                finishes = starts + rng.uniform(0.0, 500.0, n)
            else:
                # a coarse integer grid: equal instants, touching and
                # zero-length jobs exercise the starts-first tie rule
                starts = rng.integers(0, 20, n).astype(np.float64)
                finishes = starts + rng.integers(0, 5, n)
            sizes = rng.integers(1, 32, n).astype(np.int64)
            assert peak_concurrency(starts, finishes, sizes) == (
                peak_concurrency_oracle(starts, finishes, sizes)
            ), trial

    def test_peak_concurrency_counts_touching_jobs_conservatively(self):
        # job B starts exactly when job A finishes: both counted (adds
        # sort before removes), so the gate overestimates, never under
        starts = np.array([0.0, 10.0])
        finishes = np.array([10.0, 20.0])
        sizes = np.array([4, 4], dtype=np.int64)
        assert peak_concurrency(starts, finishes, sizes) == 8
        assert peak_concurrency(np.array([]), np.array([]), np.array([])) == 0


@st.composite
def demand_sets(draw):
    """(starts, finishes, sizes) of up to 40 jobs in one of four shapes:
    continuous times, a coarse integer grid (ties, touching and
    zero-length jobs), offsets near 1e15 (an ulp of 0.125) or one
    instant shared by every start and finish."""
    n = draw(st.integers(0, 40))
    shape = draw(st.sampled_from(["continuous", "grid", "offset", "equal"]))
    sizes = np.array(
        draw(st.lists(st.integers(1, 8), min_size=n, max_size=n)),
        dtype=np.int64,
    )

    def column(elements):
        return np.array(
            draw(st.lists(elements, min_size=n, max_size=n)), dtype=np.float64
        )

    if shape == "continuous":
        starts = column(st.floats(0.0, 1000.0))
        lengths = column(st.floats(0.0, 500.0))
    elif shape == "grid":
        starts = column(st.integers(0, 20))
        lengths = column(st.integers(0, 5))
    elif shape == "offset":
        starts = 1e15 + column(st.integers(0, 64)) * 0.125
        lengths = column(st.integers(0, 16)) * 0.125
    else:
        starts = np.full(n, draw(st.floats(0.0, 1e15)))
        lengths = np.zeros(n)
    return starts, starts + lengths, sizes


def assert_fits_equals_sweep(starts, finishes, sizes) -> None:
    peak = peak_concurrency(starts, finishes, sizes)
    for nodes in range(peak + 2):
        assert demand_fits(starts, finishes, sizes, nodes) == (
            peak <= nodes
        ), nodes


class TestDemandFits:
    """``demand_fits`` answers exactly what the sweep line would."""

    @settings(max_examples=150, deadline=None)
    @given(demand_sets())
    @example((np.array([]), np.array([]), np.array([], dtype=np.int64))
             ).via("empty input")
    @example((np.full(5, 7.5), np.full(5, 7.5), np.arange(1, 6))
             ).via("every instant equal")
    def test_equals_the_sweep_for_every_machine_size(self, jobs):
        assert_fits_equals_sweep(*jobs)

    @settings(
        max_examples=150, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(demand_sets())
    def test_equals_the_sweep_for_every_machine_size_in_small_blocks(
        self, small_blocks, jobs
    ):
        assert_fits_equals_sweep(*jobs)

    def test_the_bound_overshoots_on_the_three_job_world(self):
        # what makes the world-level test above decide on the sweep
        arrays = bound_above_peak_bundle().trace.arrays
        starts = grid_starts(arrays.submit, 60.0)
        finishes = starts + arrays.runtime
        assert starts.tolist() == [60.0, 60.0, 240.0]
        assert kernelmod._windowed_demand_bound(
            starts, finishes, arrays.size
        ) == 12
        assert peak_concurrency(starts, finishes, arrays.size) == 8


class TestConfiguration:
    def test_unknown_backend_is_loud(self):
        with pytest.raises(KernelConfigError):
            resolve_kernel_spec("fortran")
        with pytest.raises(KernelConfigError):
            resolve_kernel_spec({"kernel": "numpy", "materialise": True})
        with pytest.raises(KernelConfigError):
            resolve_kernel_spec(3.14)

    def test_off_values_disable(self):
        assert resolve_kernel_spec("off") is None
        assert resolve_kernel_spec("exact") is None
        assert resolve_kernel_spec({"kernel": "off"}) is None

    def test_explicit_off_beats_ambient_kernel(self, monkeypatch):
        bundle = uncontended_bundle(n=50)
        monkeypatch.delenv(kernelmod.KERNEL_ENV_VAR, raising=False)
        assert FixedLiveRun(bundle, "DCS")._kernel is None  # default: off
        monkeypatch.setenv(kernelmod.KERNEL_ENV_VAR, "numpy")
        run = FixedLiveRun(bundle, "DCS", kernel="off")
        assert run._kernel is None
        ambient = FixedLiveRun(bundle, "DCS")
        assert ambient._kernel == KernelSpec()

    @pytest.mark.parametrize("surface", ["string", "mapping", "env", "spec"])
    @pytest.mark.parametrize("name", ["python", "numba", "fortran"])
    def test_rejected_kernel_names_point_at_numpy(self, monkeypatch, name,
                                                   surface):
        import repro.api.components  # noqa: F401 - registrations
        from repro.api.run import validate_spec
        from repro.api.spec import ExperimentSpec

        with pytest.raises(KernelConfigError, match="'numpy'"):
            if surface == "string":
                resolve_kernel_spec(name)
            elif surface == "mapping":
                resolve_kernel_spec({"kernel": name, "materialize": False})
            elif surface == "env":
                monkeypatch.setenv(kernelmod.KERNEL_ENV_VAR, name)
                resolve_kernel_spec(None)
            else:
                validate_spec(ExperimentSpec(
                    name="t",
                    workloads=({"generator": "nasa-ipsc"},),
                    systems=({"runner": "dcs", "engine": {
                        "name": "hybrid", "params": {"kernel": name}}},),
                ))


class TestSpecLayer:
    def test_engine_ref_resolves_and_stays_digest_compatible(self):
        from repro.api.run import resolve_engine_kernel
        from repro.api.spec import SystemSpec

        plain = SystemSpec.from_value("dcs")
        assert "engine" not in plain.to_dict()  # old digests unchanged
        hybrid = SystemSpec.from_value(
            {"runner": "dcs", "engine": {"name": "hybrid",
                                         "params": {"kernel": "numpy"}}}
        )
        assert resolve_engine_kernel(hybrid.engine) == {
            "kernel": "numpy", "materialize": True,
        }
        assert resolve_engine_kernel(None) is None
        exact = SystemSpec.from_value({"runner": "dcs", "engine": "exact"})
        assert resolve_engine_kernel(exact.engine) == "off"
        roundtrip = SystemSpec.from_value(hybrid.to_dict())
        assert roundtrip == hybrid

    def test_engine_ref_validation_is_loud(self):
        from repro.api.run import resolve_engine_kernel
        from repro.api.spec import ComponentRef

        with pytest.raises(ValueError, match="unknown engine"):
            resolve_engine_kernel(ComponentRef("warp"))
        with pytest.raises(ValueError, match="takes no params"):
            resolve_engine_kernel(
                ComponentRef("exact", {"kernel": "numpy"})
            )
        with pytest.raises(ValueError, match="unknown param"):
            resolve_engine_kernel(
                ComponentRef("hybrid", {"backend": "numpy"})
            )
        with pytest.raises(ValueError, match="kernel must be"):
            resolve_engine_kernel(ComponentRef("hybrid", {"kernel": "x"}))
        # `engine: exact` is the one way to ask a spec for the exact engine
        for off in ("off", "", "exact"):
            with pytest.raises(ValueError, match="kernel must be"):
                resolve_engine_kernel(ComponentRef("hybrid", {"kernel": off}))

    def test_run_system_with_engine_ref_matches_exact(self):
        import repro.api.components  # noqa: F401 - registrations
        from repro.api.run import run_system

        bundle = uncontended_bundle(n=400)
        fluidmod.STATS["applied"] = 0
        # `engine: exact` pins the canonical engine even under an ambient
        # REPRO_KERNEL — a spec is a complete description of its run
        exact = run_system({"runner": "ssp", "engine": "exact"}, bundle, seed=0)
        assert fluidmod.STATS["applied"] == 0
        hybrid = run_system(
            {"runner": "ssp", "engine": {"name": "hybrid"}}, bundle, seed=0
        )
        assert hybrid.to_payload() == exact.to_payload()
        assert fluidmod.STATS["applied"] == 1

    def test_validate_spec_accepts_engine_ref(self):
        import repro.api.components  # noqa: F401 - registrations
        from repro.api.run import validate_spec
        from repro.api.spec import ExperimentSpec

        spec = ExperimentSpec(
            name="t",
            workloads=({"generator": "nasa-ipsc"},),
            systems=(
                {"runner": "dcs", "engine": "exact"},
                {"runner": "ssp", "engine": {"name": "hybrid",
                                             "params": {"materialize": False}}},
            ),
        )
        validate_spec(spec)  # must not raise
        bad = ExperimentSpec(
            name="t2",
            workloads=({"generator": "nasa-ipsc"},),
            systems=({"runner": "dcs", "engine": "warp-drive"},),
        )
        with pytest.raises(ValueError, match="unknown engine"):
            validate_spec(bad)


@pytest.mark.slow
class TestGoldenScenariosUnderAmbientKernel:
    """The built-in scenarios with the hybrid core switched ON ambiently.

    Fixed runs that qualify go fluid, everything else falls back — and
    every canonical payload must equal the exact engine's byte for byte.
    This is the strongest statement of the PR's contract: turning the
    flag on changes wall time, never results.
    """

    SCENARIOS = (
        "table2-nasa",
        "table3-blue",
        "table4-montage",
        "fig10-sweep-nasa",
        "tco-case",
        "drp-vs-fixed-under-failures",
    )

    # scenarios whose runs include fixed HTC systems: the ambient kernel
    # must at least *attempt* the fluid tier there (the real traces are
    # contended, so it declines and falls back — byte-identically)
    ATTEMPTING = ("table2-nasa", "table3-blue", "drp-vs-fixed-under-failures")

    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_payload_identical_with_kernel_on(self, scenario, monkeypatch):
        from repro.experiments.cache import canonical_json
        from repro.experiments.registry import default_registry

        spec = default_registry().get(scenario)
        monkeypatch.setenv(kernelmod.KERNEL_ENV_VAR, "off")
        exact = spec.run(0)
        fluidmod.STATS["applied"] = fluidmod.STATS["fallbacks"] = 0
        monkeypatch.setenv(kernelmod.KERNEL_ENV_VAR, "numpy")
        hybrid = spec.run(0)
        assert canonical_json(hybrid) == canonical_json(exact)
        if scenario in self.ATTEMPTING:
            attempts = fluidmod.STATS["applied"] + fluidmod.STATS["fallbacks"]
            assert attempts > 0  # the flag really reached the fixed runs

    def test_million_node_year_smoke(self):
        """The scale scenario at a testing-friendly size: fluid engages,
        and the exact engine agrees at the same (small) size."""
        from repro.experiments.perfscale import million_node_year

        small = dict(nodes=20_000, n_jobs=5_000, years=0.05)
        hybrid = million_node_year(seed=0, kernel="numpy", **small)
        exact = million_node_year(seed=0, kernel="off", **small)
        assert hybrid["systems"] == exact["systems"]


class TestServiceForkUnderHybridKernel:
    """PR 9 stress: the serving layer's forks against the fluid fast path.

    A hybrid run holds its boot trace columnar until first event-granular
    use.  Every serving op is event-granular, so wrapping such a run in a
    :class:`SimulationService` must (a) force the deferred trace onto the
    heap at boot — a fork of a half-deferred world would silently lose
    arrivals — and (b) leave both the original and every branch
    byte-identical to the exact engine's evolution.
    """

    def test_service_fork_forces_exact_injection(self):
        from repro.serving import SimulationService

        bundle = uncontended_bundle(n=400)
        hybrid = FixedLiveRun(bundle, "DCS", kernel="numpy")
        assert hybrid._deferred_trace is not None  # fluid option still open
        service = SimulationService(hybrid)
        assert hybrid._deferred_trace is None  # _ensure_exact_mode fired
        branch = service.fork()
        assert branch.live._deferred_trace is None
        assert not hybrid.fluid_applied

        exact = FixedLiveRun(bundle, "DCS", kernel="off")
        expected = exact.run().to_payload()
        assert service.shutdown(drain=True) == expected
        assert branch.shutdown(drain=True) == expected

    def test_ingest_into_hybrid_run_forces_exact_injection(self):
        from repro.serving import SimulationService
        from repro.workloads.job import Job

        bundle = uncontended_bundle(n=300)
        hybrid = FixedLiveRun(bundle, "DCS", kernel="numpy")
        assert hybrid._deferred_trace is not None
        service = SimulationService(hybrid)
        assert hybrid._deferred_trace is None  # ingest is event-granular
        extra = Job(10**6, 86400.0, 2, 900.0, 0, "htc")
        service.submit(extra)

        # the exact engine over trace + extra job agrees byte for byte
        exact = FixedLiveRun(bundle, "DCS", kernel="off")
        exact_service = SimulationService(exact)
        exact_service.submit(
            Job(10**6, 86400.0, 2, 900.0, 0, "htc")
        )
        assert service.shutdown(drain=True) == exact_service.shutdown(
            drain=True
        )

    def test_mid_run_service_fork_continues_byte_identically(self):
        from repro.serving import SimulationService

        bundle = uncontended_bundle(n=400)
        exact = FixedLiveRun(bundle, "DCS", kernel="off")
        expected = exact.run()
        exact_fp = world_fingerprint(exact)

        hybrid = FixedLiveRun(bundle, "DCS", kernel="numpy")
        service = SimulationService(hybrid)
        service.advance_to(2 * 86400.0)  # partial advance, exact since boot
        branch = service.fork()
        assert branch.now == service.now
        payload = service.shutdown(drain=True)
        assert payload == expected.to_payload()
        assert world_fingerprint(hybrid) == exact_fp
        assert branch.shutdown(drain=True) == payload
        assert world_fingerprint(branch.live) == exact_fp
