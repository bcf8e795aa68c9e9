"""Scale demonstrations of the hybrid simulation core.

The ``million-node-year`` analysis simulates one simulated *year* of a
**million-node** fixed machine serving millions of jobs — far beyond
what the exact event loop can turn around interactively — by letting the
fluid tier evolve the whole horizon in closed form (columnar mode: no
per-job Python objects at all).  The payload is pure simulation output
(no wall times), so it is deterministic and cacheable like every other
scenario; the wall-clock claim lives in ``benchmarks/perf_smoke.py``,
which times this same workload.

The workload is synthetic by necessity (no public trace covers a
million-node year) and deliberately uncontended: expected concurrency is
a few percent of the machine, which is what makes the closed form exact
rather than an approximation.  Requesting ``kernel="off"`` runs the same
workload through the exact engine — the differential suite uses that at
smaller sizes to pin the two paths against each other.
"""

from __future__ import annotations

import numpy as np

from repro.api.registry import register_component

YEAR_S = 365.0 * 86400.0


def build_uniform_trace(
    seed: int,
    nodes: int,
    n_jobs: int,
    horizon_s: float,
    name: str = "perfscale",
    max_size: int = 64,
    min_runtime_s: float = 600.0,
    max_runtime_s: float = 21_600.0,
):
    """A synthetic uncontended HTC bundle, drawn columnar from one stream.

    Submissions land uniformly over the first 98% of the horizon (the
    tail margin lets most jobs finish inside it), sizes are uniform on
    ``[1, max_size]`` and runtimes continuous-uniform — so the expected
    concurrency ``n_jobs * E[size] * E[runtime] / span`` stays far below
    ``nodes`` at the default shapes, and the fluid gates hold.
    """
    from repro.simkit.rng import RandomStreams
    from repro.systems.base import WorkloadBundle
    from repro.workloads.job import Trace, TraceArrays

    rng = RandomStreams(seed).stream(f"{name}:jobs")
    submit = np.sort(rng.uniform(0.0, 0.98 * horizon_s, n_jobs))
    size = rng.integers(1, max_size + 1, n_jobs).astype(np.int64)
    runtime = rng.uniform(min_runtime_s, max_runtime_s, n_jobs)
    arrays = TraceArrays(np.arange(n_jobs, dtype=np.int64), submit, size, runtime)
    trace = Trace.from_arrays(
        name, arrays, machine_nodes=nodes, duration=float(horizon_s)
    )
    return WorkloadBundle.from_trace(name, trace)


@register_component("analysis", "million-node-year", skip_params=("seed",))
def million_node_year(
    seed: int = 0,
    nodes: int = 1_000_000,
    n_jobs: int = 2_000_000,
    years: float = 1.0,
    kernel: str = "numpy",
) -> dict:
    """One simulated machine-year at a million nodes, DCS and SSP.

    Runs the hybrid core in columnar mode (``materialize=False``): the
    fluid tier must engage — a fallback to the exact engine at this size
    is a gate regression and raises rather than silently taking hours.
    """
    from repro.simkit.kernel import OFF_VALUES
    from repro.systems.fixed import FixedLiveRun

    horizon = years * YEAR_S
    bundle = build_uniform_trace(seed, int(nodes), int(n_jobs), horizon)
    spec = None if kernel in OFF_VALUES else {
        "kernel": kernel, "materialize": False,
    }
    systems = {}
    for system in ("DCS", "SSP"):
        run = FixedLiveRun(bundle, system, kernel=spec)
        metrics = run.run()
        if spec is not None and not run.fluid_applied:
            raise RuntimeError(
                "million-node-year expected the fluid tier to engage; "
                f"an eligibility gate regressed ({system}: "
                f"{run.fluid_decline_reason})"
            )
        systems[system] = metrics.to_payload()
    return {
        "nodes": int(nodes),
        "n_jobs": int(n_jobs),
        "horizon_s": horizon,
        "kernel": kernel or "off",
        "systems": systems,
    }
