"""What-if queries: forked continuations of the live world, diffed.

``what_if(delta, horizon_s)`` answers the operator question the paper's
batch experiments cannot: *from exactly here*, what do the next
``horizon_s`` seconds look like under a changed assumption?  One
snapshot of the service world is taken and two branches are restored
from it — one continues unchanged (the baseline), one gets the
:class:`ScenarioDelta` applied — both run to the horizon, and the result
is a structured diff of their final metrics payloads.  An *empty* delta
therefore reproduces the baseline byte-identically: both branches are
restores of the same snapshot evolving under the same events (the
property the tests pin down).

Retargetable deltas
-------------------
Only quantities that can change on a *live* world mid-run are accepted:

=================  ====================================================
``load_multiplier``  scales the still-pending arrival stream: > 1 clones
                   pending jobs (fresh service-owned ids, same shape),
                   < 1 sheds an evenly spread fraction via cancellation
``mtbf_hours``     attaches an exponential failure model from the fork
                   instant (only on a world with no failure model — an
                   already-armed injector cannot be re-drawn mid-run)
``billing``        swaps the lease ledger's meter; leases closing after
                   the fork bill under the new meter (charges land at
                   close).  Refused on DCS: an owned machine is not
                   metered
``policy``         swaps the resource-management policy via the live
                   run's ``retarget_policy`` (DawningCloud only): the
                   threshold ratio and release cadence may change, B and
                   the scan interval are fixed at TRE creation
=================  ====================================================

Supervision
-----------
Each query body — snapshot, restore, apply, run both continuations —
executes through :func:`repro.experiments.orchestrator.supervised_call`,
so concurrent what-ifs get the orchestrator's bounded-retry/deadline
semantics.  A retry snapshots the (unmoved) live service again, so it
replays from the same instant.  Permanent failures surface as
:class:`WhatIfError` with the structured error chain attached.
"""

from __future__ import annotations

import gc
import math
import time as _time
from dataclasses import dataclass
from functools import partial
from typing import Any, Mapping, Optional, Union

from repro.api.spec import ComponentRef, _check_keys
from repro.workloads.job import Job


class WhatIfError(RuntimeError):
    """A what-if query could not be answered (permanent failure)."""

    def __init__(self, message: str, error: Optional[dict] = None) -> None:
        super().__init__(message)
        self.error = error


@dataclass(frozen=True)
class ScenarioDelta:
    """One retargetable change set, applied to a forked world."""

    load_multiplier: Optional[float] = None
    mtbf_hours: Optional[float] = None
    billing: Optional[ComponentRef] = None
    policy: Optional[ComponentRef] = None

    def __post_init__(self) -> None:
        if self.load_multiplier is not None and self.load_multiplier < 0:
            raise ValueError(
                f"load_multiplier must be >= 0, got {self.load_multiplier}"
            )
        if self.mtbf_hours is not None and self.mtbf_hours <= 0:
            raise ValueError(
                f"mtbf_hours must be positive, got {self.mtbf_hours}"
            )
        for attr in ("billing", "policy"):
            value = getattr(self, attr)
            if value is not None and not isinstance(value, ComponentRef):
                object.__setattr__(
                    self, attr, ComponentRef.from_value(value, what=attr)
                )

    @property
    def empty(self) -> bool:
        return (
            self.load_multiplier is None
            and self.mtbf_hours is None
            and self.billing is None
            and self.policy is None
        )

    @classmethod
    def from_dict(cls, data: Mapping) -> "ScenarioDelta":
        _check_keys(
            "scenario delta", data,
            ("load_multiplier", "mtbf_hours", "billing", "policy"),
        )
        return cls(
            load_multiplier=data.get("load_multiplier"),
            mtbf_hours=data.get("mtbf_hours"),
            billing=data.get("billing"),
            policy=data.get("policy"),
        )

    def to_dict(self) -> dict:
        out: dict[str, Any] = {}
        if self.load_multiplier is not None:
            out["load_multiplier"] = self.load_multiplier
        if self.mtbf_hours is not None:
            out["mtbf_hours"] = self.mtbf_hours
        if self.billing is not None:
            out["billing"] = self.billing.to_dict()
        if self.policy is not None:
            out["policy"] = self.policy.to_dict()
        return out


@dataclass
class WhatIfResult:
    """Answer to one what-if query: both continuations, diffed."""

    label: str
    delta: dict
    at: float
    horizon_s: float
    baseline: dict
    scenario: dict
    diff: dict
    fork_wall_s: float
    attempts: int = 1
    duration_s: float = 0.0
    cloned_jobs: int = 0
    shed_jobs: int = 0

    def to_payload(self) -> dict:
        return {
            "label": self.label,
            "delta": self.delta,
            "at": self.at,
            "horizon_s": self.horizon_s,
            "baseline": self.baseline,
            "scenario": self.scenario,
            "diff": self.diff,
            "fork_wall_s": self.fork_wall_s,
            "attempts": self.attempts,
            "duration_s": self.duration_s,
            "cloned_jobs": self.cloned_jobs,
            "shed_jobs": self.shed_jobs,
        }


@dataclass(frozen=True)
class WhatIfQuery:
    """One query: a delta, a lookahead horizon, an operator label."""

    delta: ScenarioDelta
    horizon_s: float
    label: str = ""

    def __post_init__(self) -> None:
        # written so that NaN fails too: every comparison with NaN is False
        if not 0 < self.horizon_s < math.inf:
            raise ValueError(
                f"what-if horizon_s must be positive and finite, "
                f"got {self.horizon_s}"
            )


def _diff_payloads(baseline: Mapping, scenario: Mapping) -> dict:
    """Per-key numeric deltas between the two final payloads.

    Non-numeric values and keys present on one side only (e.g. the
    ``reliability`` block an MTBF delta introduces) are reported under
    ``only_in_scenario``/``only_in_baseline`` rather than silently
    dropped.
    """
    diff: dict[str, Any] = {}
    for key in baseline:
        if key not in scenario:
            diff.setdefault("only_in_baseline", []).append(key)
            continue
        b, s = baseline[key], scenario[key]
        if (
            isinstance(b, (int, float)) and not isinstance(b, bool)
            and isinstance(s, (int, float)) and not isinstance(s, bool)
        ):
            if s != b:
                diff[key] = {"baseline": b, "scenario": s, "delta": s - b}
    for key in scenario:
        if key not in baseline:
            diff.setdefault("only_in_scenario", []).append(key)
    return diff


def apply_delta(service, delta: ScenarioDelta, seed: int = 0) -> dict:
    """Apply a scenario delta to a *forked* service, in place.

    Returns bookkeeping (``cloned_jobs``/``shed_jobs``) for the result.
    Raises :class:`WhatIfError` when the delta does not apply to the
    hosted system — a permanent failure, not retried.
    """
    from repro.api.registry import default_components

    stats = {"cloned_jobs": 0, "shed_jobs": 0}
    live = service.live
    registry = default_components()

    if delta.policy is not None:
        if not hasattr(live, "retarget_policy"):
            raise WhatIfError(
                "policy retargeting needs a DawningCloud service; "
                f"this service hosts {type(live).__name__}"
            )
        policy = registry.create(
            "policy", delta.policy.name, **delta.policy.params
        )
        live.retarget_policy(policy)

    if delta.billing is not None:
        provision = getattr(live, "provision", None)
        if provision is None and hasattr(live, "cloud"):
            provision = live.cloud.provision
        if provision is None:
            raise WhatIfError(
                "billing retargeting needs a leased system (SSP or "
                "DawningCloud); a DCS machine is owned, not metered"
            )
        from types import SimpleNamespace

        from repro.api.run import resolve_meter

        # resolve_meter sizes reserved-spot defaults to the workload's
        # fixed-system scale; for a service that is the machine width
        meter = resolve_meter(
            delta.billing, SimpleNamespace(fixed_nodes=service.machine_nodes)
        )
        if meter is None:
            from repro.provisioning.billing import PerStartedUnitMeter

            meter = PerStartedUnitMeter(unit_s=provision.ledger.unit)
        provision.ledger.meter = meter

    if delta.mtbf_hours is not None:
        if getattr(live, "injector", None) is not None:
            raise WhatIfError(
                "the live world already has a failure model; re-drawing "
                "MTBF mid-run is not supported (fork before arming one)"
            )
        model = registry.create(
            "failure-model", "exponential", mtbf_hours=delta.mtbf_hours
        )
        live.injector = _attach_injector(service, model, seed)

    if delta.load_multiplier is not None:
        stats.update(_apply_load(service, delta.load_multiplier))

    return stats


def _attach_injector(service, model, seed: int):
    """Arm a failure injector on the forked world, from the fork instant."""
    live = service.live
    if hasattr(live, "_make_injector"):
        return live._make_injector(model, seed).start()
    from repro.systems.dsp_runner import _elastic_injector
    from repro.systems.base import WorkloadBundle
    from repro.workloads.job import Trace

    # DawningCloud: the elastic injector sizes its slot set to the
    # bundle's fixed-system scale; reconstruct that context from the
    # service's boot configuration.
    trace = Trace(
        live.name, [],
        machine_nodes=service.machine_nodes,
        duration=live.horizon,
    )
    bundle = WorkloadBundle(name=live.name, kind="htc", trace=trace)
    return _elastic_injector(live.cloud, bundle, model, seed).start()


def _apply_load(service, multiplier: float) -> dict:
    """Scale the still-pending arrival stream by ``multiplier``.

    Deterministic on a fork: pending jobs sort by (time, id), clones
    round-robin over them with service-owned ids, shedding keeps a
    Bresenham-even subsequence — so two forks with the same delta make
    identical worlds.
    """
    pending = service.pending_jobs()
    n = len(pending)
    if n == 0 or multiplier == 1.0:
        return {"cloned_jobs": 0, "shed_jobs": 0}
    if multiplier > 1.0:
        extra = int(round((multiplier - 1.0) * n))
        clones = []
        for i in range(extra):
            src = pending[i % n]
            clones.append(
                Job(
                    job_id=service.next_clone_id(),
                    submit_time=src.submit_time,
                    size=src.size,
                    runtime=src.runtime,
                    user_id=src.user_id,
                    task_type=src.task_type,
                )
            )
        service.submit_batch(clones)
        return {"cloned_jobs": extra, "shed_jobs": 0}
    # multiplier < 1: keep int(n * m) jobs, evenly spread, shed the rest
    kept = {
        i for i in range(n)
        if int((i + 1) * multiplier) - int(i * multiplier) >= 1
    }
    shed = 0
    for i, job in enumerate(pending):
        if i not in kept:
            if service.cancel_pending(job.job_id):
                shed += 1
    return {"cloned_jobs": 0, "shed_jobs": shed}


class WhatIfEngine:
    """Answers what-if queries against one live service, supervised."""

    def __init__(self, service, retry=None) -> None:
        from repro.experiments.supervision import RetryPolicy

        self.service = service
        self.retry = retry if retry is not None else RetryPolicy()

    def what_if(
        self,
        delta: Union[ScenarioDelta, Mapping, None],
        horizon_s: float,
        label: str = "",
    ) -> WhatIfResult:
        """Answer one query; see :meth:`run_many` for batches."""
        return self.run_many([self._query(delta, horizon_s, label)])[0]

    def run_many(self, queries) -> list[WhatIfResult]:
        """Answer several queries, all branched from the same instant.

        The live service never advances while queries run, so every
        snapshot — including supervised retries' — observes the
        identical world state: the "concurrent what-ifs" consistency
        guarantee.
        """
        from repro.experiments.orchestrator import supervised_call

        results = []
        for i, query in enumerate(queries):
            name = query.label or f"what-if[{i}]"
            outcome = supervised_call(
                partial(self._answer, query), name=name, retry=self.retry
            )
            if not outcome.ok:
                error = outcome.error or {}
                raise WhatIfError(
                    f"what-if query {name!r} failed after "
                    f"{outcome.attempts} attempt(s): "
                    f"{error.get('type', 'Error')}: "
                    f"{error.get('message', 'unknown')}",
                    error=outcome.error,
                )
            result = outcome.result
            result.attempts = outcome.attempts
            result.duration_s = outcome.duration_s
            results.append(result)
        return results

    # ------------------------------------------------------------------ #
    def _query(self, delta, horizon_s: float, label: str) -> WhatIfQuery:
        if delta is None:
            delta = ScenarioDelta()
        elif not isinstance(delta, ScenarioDelta):
            delta = ScenarioDelta.from_dict(delta)
        return WhatIfQuery(delta=delta, horizon_s=horizon_s, label=label)

    def _answer(self, query: WhatIfQuery) -> WhatIfResult:
        """One supervised query body: snapshot once, restore two
        branches, apply the delta to one, run both.

        Runs with the cyclic collector paused: both branches are freed
        by reference counting once run (see :func:`_run_continuation`),
        so a collection here would only trace the live world's objects
        again.  The collector's state is restored as it was found, even
        when the query raises; a collector the caller disabled stays off.
        The pause is process-wide, so other threads see it too.
        """
        enabled = gc.isenabled()
        gc.disable()
        try:
            return self._answer_paused(query)
        finally:
            if enabled:
                gc.enable()

    def _answer_paused(self, query: WhatIfQuery) -> WhatIfResult:
        service = self.service
        at = service.now
        t_end = at + query.horizon_s

        t0 = _time.perf_counter()
        snapshot = service.snapshot()
        scenario_branch = snapshot.restore()
        fork_wall_s = _time.perf_counter() - t0
        baseline_branch = snapshot.restore()

        stats = apply_delta(scenario_branch, query.delta, seed=service.seed)
        scenario_payload = _run_continuation(scenario_branch, t_end)
        baseline_payload = _run_continuation(baseline_branch, t_end)

        return WhatIfResult(
            label=query.label,
            delta=query.delta.to_dict(),
            at=at,
            horizon_s=query.horizon_s,
            baseline=baseline_payload,
            scenario=scenario_payload,
            diff=_diff_payloads(baseline_payload, scenario_payload),
            fork_wall_s=fork_wall_s,
            cloned_jobs=stats["cloned_jobs"],
            shed_jobs=stats["shed_jobs"],
        )


def _run_continuation(branch, t_end: float) -> dict:
    """Run a forked service branch to ``t_end`` and price it there.

    The branch's horizon is *retargeted* to the query horizon so
    billing, completions and peaks all cut at the same instant —
    exactly the clamp the batch runners apply at their own horizon.
    The shutdown disposes the branch's engine, so the branch is freed
    by reference counting as soon as the caller drops it.
    """
    branch.live.horizon = float(t_end)
    payload = branch.shutdown(drain=True)
    return payload
