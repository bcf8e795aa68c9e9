"""A catalog of synthetic stand-ins for Parallel Workloads Archive logs.

Section 4.2 picks the paper's two traces out of the archive [17] and notes
that "the utilization rate of all traces in [17] varies from 24.4% to
86.5%".  The evaluation only replays NASA iPSC and SDSC BLUE; this module
widens the workload substrate to that whole range so the ablation
benchmarks can ask the paper's question *parametrically*: at which offered
load do the economies of scale appear, peak, and fade?

Every entry is an :class:`~repro.workloads.traces.HTCTraceSpec` modeled on
a well-known archive log's coarse shape (machine size, job widths, runtime
scale, arrival profile) and generated by the same calibrated machinery as
the paper's two traces.  They are *stand-ins*, not replays — real SWF logs
drop in through :mod:`repro.workloads.swf` when available.

The :func:`utilization_family` helper produces a controlled family of
specs that differ **only** in target utilization, which is what the
utilization-sweep ablation (``benchmarks/bench_ablation_utilization.py``)
runs: every other knob is held fixed so the sweep isolates load.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Sequence

from repro.workloads.traces import (
    NASA_IPSC,
    SDSC_BLUE,
    TWO_WEEKS,
    HTCTraceSpec,
)

#: The archive-wide utilization extremes the paper quotes (§4.2).
ARCHIVE_MIN_UTILIZATION = 0.244
ARCHIVE_MAX_UTILIZATION = 0.865


def _pmf(*pairs: tuple[int, float]) -> tuple[tuple[int, float], ...]:
    total = sum(p for _, p in pairs)
    return tuple((s, p / total) for s, p in pairs)


#: Cornell Theory Center SP2-like: mid-size machine, broad width mix,
#: medium-long jobs, office-hours arrivals.
CTC_SP2 = HTCTraceSpec(
    name="ctc-sp2",
    machine_nodes=338,
    duration=TWO_WEEKS,
    n_jobs=2400,
    target_utilization=0.66,
    size_pmf=_pmf((1, 0.30), (2, 0.14), (4, 0.14), (8, 0.14), (16, 0.12),
                  (32, 0.09), (64, 0.05), (128, 0.015), (256, 0.005)),
    runtime_mixture=((0.40, 1800.0, 0.80), (0.40, 7200.0, 0.60),
                     (0.20, 21600.0, 0.45)),
    arrival_profile="diurnal",
    n_users=120,
    arrival_sampling="stratified",
)

#: KTH SP2-like: small machine, narrow short jobs, smooth arrivals.
KTH_SP2 = HTCTraceSpec(
    name="kth-sp2",
    machine_nodes=100,
    duration=TWO_WEEKS,
    n_jobs=2000,
    target_utilization=0.69,
    size_pmf=_pmf((1, 0.36), (2, 0.18), (4, 0.16), (8, 0.14), (16, 0.09),
                  (32, 0.05), (64, 0.015), (100, 0.005)),
    runtime_mixture=((0.55, 600.0, 0.90), (0.30, 3600.0, 0.65),
                     (0.15, 14400.0, 0.50)),
    arrival_profile="diurnal",
    n_users=200,
    arrival_sampling="stratified",
)

#: LANL CM-5-like: partition-constrained widths (>=32, powers of two),
#: heavy jobs. The CM-5 scheduled 32-node partitions at minimum.
LANL_CM5 = HTCTraceSpec(
    name="lanl-cm5",
    machine_nodes=1024,
    duration=TWO_WEEKS,
    n_jobs=2200,
    target_utilization=0.74,
    size_pmf=_pmf((32, 0.42), (64, 0.27), (128, 0.17), (256, 0.09),
                  (512, 0.04), (1024, 0.01)),
    runtime_mixture=((0.50, 900.0, 0.85), (0.35, 5400.0, 0.60),
                     (0.15, 18000.0, 0.45)),
    arrival_profile="diurnal",
    n_users=210,
    arrival_sampling="stratified",
)

#: SDSC Paragon-like: bursty arrivals, long jobs, high sustained load.
SDSC_PAR95 = HTCTraceSpec(
    name="sdsc-par95",
    machine_nodes=400,
    duration=TWO_WEEKS,
    n_jobs=2300,
    target_utilization=0.72,
    size_pmf=_pmf((1, 0.22), (4, 0.18), (8, 0.16), (16, 0.16), (32, 0.14),
                  (64, 0.08), (128, 0.04), (256, 0.015), (400, 0.005)),
    runtime_mixture=((0.30, 2700.0, 0.75), (0.45, 10800.0, 0.55),
                     (0.25, 28800.0, 0.40)),
    arrival_profile="sparse-then-bursty",
    n_users=98,
    first_half_runtime_factor=1.6,
)

#: The archive's low end (24.4%): a lightly used departmental machine.
LOW_LOAD_DEPT = HTCTraceSpec(
    name="low-load-dept",
    machine_nodes=128,
    duration=TWO_WEEKS,
    n_jobs=1500,
    target_utilization=ARCHIVE_MIN_UTILIZATION,
    size_pmf=_pmf((1, 0.40), (2, 0.20), (4, 0.16), (8, 0.12), (16, 0.08),
                  (32, 0.03), (64, 0.008), (128, 0.002)),
    runtime_mixture=((0.70, 300.0, 0.95), (0.22, 2400.0, 0.70),
                     (0.08, 10800.0, 0.50)),
    arrival_profile="diurnal",
    n_users=40,
    arrival_sampling="stratified",
)

#: The archive's high end (86.5%): a saturated production machine.
HIGH_LOAD_PROD = HTCTraceSpec(
    name="high-load-prod",
    machine_nodes=128,
    duration=TWO_WEEKS,
    n_jobs=2600,
    target_utilization=ARCHIVE_MAX_UTILIZATION,
    size_pmf=_pmf((1, 0.28), (2, 0.18), (4, 0.16), (8, 0.14), (16, 0.12),
                  (32, 0.08), (64, 0.03), (128, 0.01)),
    runtime_mixture=((0.30, 3600.0, 0.70), (0.45, 10800.0, 0.55),
                     (0.25, 25200.0, 0.40)),
    arrival_profile="sparse-then-bursty",
    n_users=150,
    first_half_runtime_factor=1.3,
)

#: Every named spec, including the paper's two.
ARCHIVE: dict[str, HTCTraceSpec] = {
    spec.name: spec
    for spec in (
        NASA_IPSC,
        SDSC_BLUE,
        CTC_SP2,
        KTH_SP2,
        LANL_CM5,
        SDSC_PAR95,
        LOW_LOAD_DEPT,
        HIGH_LOAD_PROD,
    )
}


def archive_names() -> list[str]:
    """Catalog entries, sorted by target utilization (light to heavy)."""
    return sorted(ARCHIVE, key=lambda n: ARCHIVE[n].target_utilization)


def spec_with_utilization(spec: HTCTraceSpec, utilization: float) -> HTCTraceSpec:
    """A copy of ``spec`` re-calibrated to a different offered load.

    Only ``target_utilization`` (and the derived name suffix) changes; the
    width mix, runtime shape and arrival profile are untouched, so families
    built from one base isolate the load variable.
    """
    if not 0.0 < utilization < 1.0:
        raise ValueError(f"utilization must be in (0, 1), got {utilization}")
    return replace(
        spec,
        name=f"{spec.name}@u{utilization:.3f}",
        target_utilization=utilization,
    )


def utilization_family(
    base: HTCTraceSpec = NASA_IPSC,
    utilizations: Sequence[float] = (
        ARCHIVE_MIN_UTILIZATION,
        0.35,
        0.466,
        0.60,
        0.72,
        ARCHIVE_MAX_UTILIZATION,
    ),
) -> list[HTCTraceSpec]:
    """Specs identical to ``base`` except for offered load.

    The default grid spans the archive's full 24.4%-86.5% range and passes
    through the paper's own 46.6% (NASA) point.
    """
    return [spec_with_utilization(base, u) for u in utilizations]
