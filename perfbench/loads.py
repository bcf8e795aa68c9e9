"""The four benchmark workloads, built from the workload seed.

Each workload class does its set-up (input generation through the
public generators, service boot) in ``__init__`` and then hands out one
*pass* of operations through :meth:`units`.  A unit is the granularity at
which a time-bounded run may stop: a whole pass where the pass mixes
operations of very different cost (so every run measures the same mix),
a single simulation where all operations cost about the same.

Every operation goes through a public entry point users call: the
``repro.systems`` runners, the hybrid ``FixedLiveRun``, or
``ServeSession.execute`` (the op layer behind ``repro-experiments
serve``).  An operation returns a JSON-safe payload; the runner digests
it and compares the digest against the recorded reference for the seed.
"""

from __future__ import annotations

import hashlib
import json
import time

HOUR = 3600.0
WEEK = 7 * 24 * HOUR
YEAR = 365 * 24 * HOUR

#: DawningCloud capacity of the Fig 9-11 sweeps (``DEFAULT_CAPACITY``).
SWEEP_CAPACITY = 420

#: Modules the timed phase imports lazily; set-up imports them so their
#: import cost lands in ``setup_s`` rather than in the first operation.
LAZY_MODULES = (
    "repro.api.registry",
    "repro.api.run",
    "repro.experiments.orchestrator",
    "repro.experiments.supervision",
    "repro.metrics.jobstats",
    "repro.serving.metrics",
    "repro.simkit.fluid",
    "repro.simkit.kernel",
    "repro.simkit.snapshot",
)

#: What-if result fields that carry host wall time, not simulation output.
WALL_CLOCK_FIELDS = ("fork_wall_s", "duration_s")


def digest(value) -> str:
    """Short canonical digest of a JSON-safe payload."""
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:12]


class OpFailed(RuntimeError):
    """An operation ran but its output failed a workload-specific check."""


class Op:
    """One unit of work whose payload is digested and checked.

    A simulation is one op timed as a whole.  A serve session is one op
    made of many client requests: its ``fn`` times each request itself
    and appends ``(request kind, seconds)`` to :attr:`samples` and one
    message per failed request to :attr:`failures`.
    """

    __slots__ = ("kind", "label", "jobs", "fn", "samples", "failures")

    def __init__(self, kind: str, label: str, jobs: int, fn) -> None:
        self.kind = kind
        self.label = label
        self.jobs = jobs
        self.fn = fn
        self.samples: list[tuple[str, float]] = []
        self.failures: list[str] = []


# --------------------------------------------------------------------- #
# batch workloads: the systems runners over the paper's inputs
# --------------------------------------------------------------------- #
def _four_system_ops(bundle, dawningcloud, policy_for, ratios) -> list[Op]:
    """DCS, SSP and DRP, then DawningCloud over the (B, R) sweep grid."""
    from repro.experiments.config import SWEEP_B
    from repro.systems import run_dcs, run_drp, run_ssp

    name, jobs = bundle.name, bundle.n_jobs
    ops = [
        Op("sim", f"{name}/{system}", jobs,
           lambda run=run: run(bundle).to_payload())
        for system, run in (("DCS", run_dcs), ("SSP", run_ssp), ("DRP", run_drp))
    ]
    for b in SWEEP_B:
        for r in ratios:
            ops.append(Op(
                "sim", f"{name}/DawningCloud B={b} R={r}", jobs,
                lambda b=b, r=r: dawningcloud(
                    bundle, policy_for(b, r), capacity=SWEEP_CAPACITY
                ).to_payload(),
            ))
    return ops


class HtcReplay:
    """NASA iPSC and SDSC BLUE: four systems plus the Fig 9/10 grid."""

    name = "htc-replay"
    latency_op = "sim"

    def __init__(self, seed: int) -> None:
        from repro.systems.base import WorkloadBundle
        from repro.workloads import store

        self.bundles = [
            WorkloadBundle.from_trace(trace, store.paper_trace(trace, seed))
            for trace in ("nasa-ipsc", "sdsc-blue")
        ]

    def units(self) -> list[list[Op]]:
        from repro.core.policies import ResourceManagementPolicy
        from repro.experiments.config import SWEEP_R_HTC
        from repro.systems import run_dawningcloud_htc

        ops = []
        for bundle in self.bundles:
            ops += _four_system_ops(
                bundle, run_dawningcloud_htc,
                ResourceManagementPolicy.for_htc, SWEEP_R_HTC,
            )
        # DCS/SSP/DRP and DawningCloud differ several-fold in cost: only
        # whole passes keep the sample mix the same in every run
        return [ops]


class MtcMontage:
    """The 1000-task Montage workflow: four systems plus the Fig 11 grid."""

    name = "mtc-montage"
    latency_op = "sim"

    def __init__(self, seed: int) -> None:
        from repro.experiments import config

        self.bundle = config.montage_bundle(seed)

    def units(self) -> list[list[Op]]:
        from repro.core.policies import ResourceManagementPolicy
        from repro.experiments.config import SWEEP_R_MTC
        from repro.systems import run_dawningcloud_mtc

        ops = _four_system_ops(
            self.bundle, run_dawningcloud_mtc,
            ResourceManagementPolicy.for_mtc, SWEEP_R_MTC,
        )
        # every simulation costs about the same, so a run may stop
        # between any two of them without skewing the mix
        return [[op] for op in ops]


class FluidScale:
    """Uncontended DCS and SSP at a million nodes on the fluid tier."""

    name = "fluid-scale"
    latency_op = "sim"
    NODES = 1_000_000
    JOBS = 2_000_000

    def __init__(self, seed: int) -> None:
        from repro.experiments import perfscale

        self.bundle = perfscale.build_uniform_trace(
            seed, self.NODES, self.JOBS, YEAR
        )

    def _run(self, system: str) -> dict:
        from repro.systems.fixed import FixedLiveRun

        run = FixedLiveRun(
            self.bundle, system, kernel={"kernel": "numpy", "materialize": False}
        )
        payload = run.run().to_payload()
        if not run.fluid_applied:
            raise OpFailed(f"{system}: fell back to the exact engine")
        return payload

    def units(self) -> list[list[Op]]:
        return [[
            Op("sim", f"fluid/{system}", self.JOBS,
               lambda system=system: self._run(system))
            for system in ("DCS", "SSP")
        ]]


# --------------------------------------------------------------------- #
# serving: one closed-loop client driving ServeSession.execute
# --------------------------------------------------------------------- #
def strip_wall_clock(value):
    """``value`` without the what-if fields that carry host wall time."""
    if isinstance(value, dict):
        return {
            k: strip_wall_clock(v) for k, v in value.items()
            if k not in WALL_CLOCK_FIELDS
        }
    if isinstance(value, list):
        return [strip_wall_clock(v) for v in value]
    return value


class ServeSessionLoad:
    """A week of hourly ingest, advance and metrics ops, with what-ifs.

    One client waits for each reply before sending the next op (a closed
    loop).  At each simulated hour it submits the jobs arriving in that
    hour, every ``WHATIF_EVERY_H`` hours asks a one-hour what-if
    (alternating an empty delta and a ``load_multiplier`` delta), then
    advances one hour and reads the rolling metrics.  Offered load is
    above the 4096-node capacity, so the queue grows into the thousands.
    """

    name = "serve-session"
    # what-ifs hold most of a session's time; the millisecond advance ops
    # moved run to run on a shared host by more than the bound allows, so
    # their percentiles go to the summary line only
    latency_op = "what-if"
    NODES = 4096
    JOBS = 12_000
    HOURS = 168
    WHATIF_EVERY_H = 8

    def __init__(self, seed: int) -> None:
        from repro.experiments import perfscale

        self.seed = seed
        trace = perfscale.build_uniform_trace(
            seed, self.NODES, self.JOBS, WEEK, name="serve-session"
        ).trace
        self.hourly = [[] for _ in range(self.HOURS)]
        for job in trace.jobs:
            self.hourly[int(job.submit_time // HOUR)].append({
                "job_id": job.job_id, "submit_time": job.submit_time,
                "size": job.size, "runtime": job.runtime,
            })
        self._next = self._boot()

    def _boot(self):
        from repro.api.spec import ServiceSpec
        from repro.serving import ServeSession, build_service

        spec = ServiceSpec.from_dict({
            "name": "serve-session", "system": "dcs",
            "machine_nodes": self.NODES, "horizon_s": WEEK,
        })
        return ServeSession(build_service(spec, seed=self.seed))

    def script(self):
        """The session's ops in order (one op per reply)."""
        for hour, jobs in enumerate(self.hourly):
            yield {"op": "submit-batch", "jobs": jobs}
            if hour % self.WHATIF_EVERY_H == self.WHATIF_EVERY_H - 1:
                n = hour // self.WHATIF_EVERY_H
                delta = {} if n % 2 == 0 else {"load_multiplier": 1.5}
                yield {"op": "what-if", "delta": delta, "horizon_s": HOUR}
            yield {"op": "advance", "to": (hour + 1) * HOUR}
            yield {"op": "metrics"}
        yield {"op": "shutdown"}

    def units(self) -> list[list[Op]]:
        op = Op("session", "serve/session", self.JOBS, None)
        op.fn = lambda: self._run_session(op)
        return [[op]]

    def _run_session(self, op: Op, clock=time.process_time) -> list:
        # a session consumes its service, so a later one boots afresh;
        # the op's time is the sum of its requests, which leaves boots out
        session, self._next = self._next or self._boot(), None
        results = []
        for request in self.script():
            t0 = clock()
            result = session.execute(request)
            op.samples.append((request["op"], clock() - t0))
            if not result.get("ok"):
                op.failures.append(f"{request['op']}: {result.get('error')}")
            elif request["op"] == "what-if" and not request["delta"]:
                answer = result["result"]
                if answer["baseline"] != answer["scenario"]:
                    op.failures.append("empty-delta what-if: baseline != scenario")
            results.append(strip_wall_clock(result))
        return results


WORKLOADS = {
    cls.name: cls
    for cls in (HtcReplay, MtcMontage, ServeSessionLoad, FluidScale)
}
