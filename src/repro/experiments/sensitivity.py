"""Automated ablation & sensitivity engine over the component registry.

PR 4 made every scheduler, resource-management policy, billing meter,
failure model and system runner a registry component; this module
exploits that: given any baseline :class:`~repro.api.spec.ExperimentSpec`
(or a scenario that reduces to one), it *generates* the full ablation run
set — the baseline plus one-off swaps for every registered component of
each kind, plus dotted-path parameter perturbation grids — instead of
hand-rolling each sweep.

Design
------
* **Plans are data.**  An :class:`AblationPlan` is a frozen baseline spec
  plus :class:`ComponentAxis` (one-off component swaps) and
  :class:`PathGrid` (zipped dotted-path perturbations) declarations.
  :func:`generate_variants` expands a plan into concrete
  :class:`Variant` specs; nothing executes at declaration time.
* **Run IDs are digests.**  Every variant's run ID is the
  :func:`~repro.api.spec.spec_digest` of its expanded spec, so IDs are
  stable across processes and machines, identical variants generated by
  different axes (or different plans) collapse into one run, and the
  content-addressed result cache shares work across plans.
* **The baseline runs once.**  An axis alternative or grid point declared
  as the plan's *baseline marker* maps to the unmodified baseline spec —
  same digest, same cached run — so N one-off ablations over one
  baseline perform exactly one baseline execution.
* **Execution is supervised.**  Variants register as scenarios named
  ``ablate-<digest12>`` in a private registry and run through the
  :class:`~repro.experiments.orchestrator.Orchestrator` (retry/timeout
  supervision, journal, result cache).  Single-path grids over
  :data:`RETARGETABLE_SWEEP_PATHS` collapse into one swept spec, so the
  whole grid executes and is cached as one run.
* **Importance is a delta.**  Each variant's cost (billed node-hours),
  throughput (completed jobs) and goodput (failure-adjusted node-hours,
  when a failure model reports it) are compared against the baseline;
  the importance score is the mean absolute relative delta over the
  metrics both runs share, and a variant is flagged *harmful* when it
  strictly loses the trade (costs more without completing more, or
  completes less without saving).  See docs/ablation.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping, Optional, Sequence

from repro.api.registry import default_components
from repro.api.spec import (
    ComponentRef,
    ExperimentSpec,
    SystemSpec,
    _apply_path,
    spec_digest,
)

#: registry kind -> SystemSpec slot for one-off component swaps.
SLOT_FOR_KIND = {
    "scheduler": "scheduler",
    "policy": "policy",
    "billing-meter": "billing",
    "failure-model": "failures",
}

#: Provisioning policies are embodied by runners, not by a spec slot —
#: swapping one means swapping the system runner that uses it.
PROVISIONING_RUNNERS = {
    "fixed": "ssp",
    "per-job": "drp",
    "pooled": "pooled-queue",
    "consolidated": "dawningcloud",
}

#: the component kinds :func:`plan_from_spec` ablates by default.
DEFAULT_SWAP_KINDS = (
    "scheduler",
    "policy",
    "billing-meter",
    "failure-model",
    "provisioning-policy",
)

#: relative tolerance below which a metric delta counts as "no change".
DELTA_EPS = 1e-9

#: The policy knobs a live DawningCloud TRE can take mid-run (the what-if
#: ``policy`` delta): the threshold ratio and the release-check cadence.
#: ``initial_nodes`` and ``scan_interval_s`` are fixed when the TRE is
#: built.  A single-path grid over one of these collapses into one swept
#: spec (:func:`generate_variants`); every other grid runs per point.
RETARGETABLE_SWEEP_PATHS = frozenset(
    {
        "policy.params.threshold_ratio",
        "policy.params.release_check_interval_s",
    }
)


# --------------------------------------------------------------------- #
# plan declarations
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class Alternative:
    """One swap within an axis: a component name plus explicit params.

    ``params=None`` means *carry over* the baseline ref's params, filtered
    to the parameters the target component actually declares (the auto
    mode); an explicit mapping — even ``{}`` — is used verbatim (declared
    plans pin exact configurations this way).
    """

    name: str
    params: Optional[Mapping[str, Any]] = None
    label: Optional[str] = None

    @property
    def display(self) -> str:
        return self.label or self.name


@dataclass(frozen=True)
class ComponentAxis:
    """One-off swaps of a single component kind.

    ``kind`` is a registry kind from :data:`SLOT_FOR_KIND`,
    ``"provisioning-policy"`` (runner swaps via
    :data:`PROVISIONING_RUNNERS`) or ``"system"`` (direct runner swaps).
    Empty ``alternatives`` means every registered component of the kind,
    in sorted name order.  ``baseline`` names the alternative whose
    configuration *is* the baseline — it reuses the baseline run instead
    of re-executing it.
    """

    kind: str
    alternatives: tuple[Alternative, ...] = ()
    baseline: Optional[str] = None


@dataclass(frozen=True)
class PathGrid:
    """A zipped parameter perturbation over dotted system-spec paths.

    Each grid point assigns ``values[k][i]`` to ``paths[i]`` — *zipped*,
    not crossed, so co-varying knobs (the lease unit and the release
    cadence that follows it) stay internally consistent.  A point equal
    to ``baseline`` maps to the unmodified baseline spec.
    """

    label: str
    paths: tuple[str, ...]
    values: tuple[tuple[Any, ...], ...]
    baseline: Optional[tuple[Any, ...]] = None

    def __post_init__(self) -> None:
        for point in self.values:
            if len(point) != len(self.paths):
                raise ValueError(
                    f"grid {self.label!r}: point {point!r} does not match "
                    f"paths {self.paths!r}"
                )


@dataclass(frozen=True)
class AblationPlan:
    """A baseline spec plus the axes and grids to ablate it along."""

    name: str
    baseline: ExperimentSpec
    axes: tuple[ComponentAxis, ...] = ()
    grids: tuple[PathGrid, ...] = ()


@dataclass(frozen=True)
class Variant:
    """One generated run: the baseline or a single one-off change.

    ``run_id`` is the spec digest — identical configurations generated by
    different axes share one ID and therefore one execution.  ``sweep``
    marks a collapsed retargetable grid variant whose single spec covers
    several points (pulled apart again by ``point`` assignments in the
    run payload).
    """

    run_id: str
    axis: str
    value: str
    spec: ExperimentSpec
    is_baseline: bool = False
    point: Mapping[str, Any] = field(default_factory=dict)
    sweep: bool = False


@dataclass(frozen=True)
class SkippedAlternative:
    """A swap the plan could not express, with the reason it was dropped."""

    axis: str
    value: str
    reason: str


# --------------------------------------------------------------------- #
# variant generation
# --------------------------------------------------------------------- #
class _Unexpressible(Exception):
    """Raised while expanding an alternative that cannot be configured."""


def _carry_params(
    baseline_params: Mapping[str, Any], kind: str, name: str
) -> dict:
    """Baseline ref params filtered to what the target declares."""
    component = default_components().get(kind, name)
    declared = {p.name for p in component.params}
    carried = {k: v for k, v in dict(baseline_params).items() if k in declared}
    missing = [
        p.name for p in component.params
        if p.required and p.name not in carried
    ]
    if missing:
        raise _Unexpressible(
            f"{kind} {name!r} requires parameter(s) {missing} the baseline "
            f"does not provide"
        )
    return carried


def _swap_slot(
    base: ExperimentSpec, slot: str, kind: str, alt: Alternative
) -> ExperimentSpec:
    """Every system's ``slot`` ref replaced by the alternative."""
    from dataclasses import replace

    systems = []
    for system in base.systems:
        current = getattr(system, slot)
        if alt.params is not None:
            params = dict(alt.params)
            component = default_components().get(kind, alt.name)
            missing = [
                p.name for p in component.params
                if p.required and p.name not in params
            ]
            if missing:
                raise _Unexpressible(
                    f"{kind} {alt.name!r} requires parameter(s) {missing}"
                )
        else:
            params = _carry_params(
                current.params if current is not None else {}, kind, alt.name
            )
        systems.append(
            replace(system, **{slot: ComponentRef(alt.name, params)})
        )
    return replace(base, systems=tuple(systems))


def _swap_runner(
    base: ExperimentSpec, runner: str, alt: Alternative
) -> ExperimentSpec:
    """Every system's runner replaced; refs the target can't take drop."""
    from dataclasses import replace

    component = default_components().get("system", runner)
    declared = {p.name for p in component.params}
    systems = []
    for system in base.systems:
        params = (
            dict(alt.params) if alt.params is not None
            else {k: v for k, v in dict(system.params).items() if k in declared}
        )
        refs = {
            slot: (getattr(system, slot) if slot in declared else None)
            for slot in ("policy", "scheduler", "billing", "failures")
        }
        refs["billing"] = system.billing if "meter" in declared else None
        engine = system.engine if "kernel" in declared else None
        systems.append(
            SystemSpec(runner=runner, params=params, engine=engine,
                       label=system.label, **refs)
        )
    return replace(base, systems=tuple(systems))


def _with_point(
    base: ExperimentSpec, paths: Sequence[str], values: Sequence[Any]
) -> ExperimentSpec:
    """The baseline with one grid point applied to every system."""
    from dataclasses import replace

    systems = []
    for system in base.systems:
        data = system.to_dict()
        for path, value in zip(paths, values):
            _apply_path(data, path, value)
        systems.append(SystemSpec.from_value(data))
    return replace(base, systems=tuple(systems))


def _axis_alternatives(axis: ComponentAxis) -> tuple[Alternative, ...]:
    if axis.alternatives:
        return axis.alternatives
    if axis.kind == "provisioning-policy":
        return tuple(
            Alternative(name=name) for name in sorted(PROVISIONING_RUNNERS)
        )
    kind = "system" if axis.kind == "system" else axis.kind
    return tuple(
        Alternative(name=name)
        for name in sorted(default_components().names(kind))
    )


def _grid_is_retargetable(plan: AblationPlan, grid: PathGrid) -> bool:
    """Can this grid collapse into one swept spec, cached as one run?"""
    return (
        len(grid.paths) == 1
        and grid.paths[0] in RETARGETABLE_SWEEP_PATHS
        and not plan.baseline.sweep
        and all(s.runner == "dawningcloud" for s in plan.baseline.systems)
    )


def generate_variants(
    plan: AblationPlan,
) -> tuple[list[Variant], list[SkippedAlternative]]:
    """Expand a plan into concrete variants plus the skips it implies.

    The baseline variant comes first.  Alternatives whose required
    parameters the baseline cannot supply are *recorded*, not silently
    dropped.  Variants that alias the baseline (axis/grid baseline
    markers) or each other share a run ID — execution and scoring
    deduplicate by it, so the run set never executes one configuration
    twice, while projections can still look every (axis, value) up.
    """
    variants: list[Variant] = []
    skipped: list[SkippedAlternative] = []
    base = plan.baseline
    base_digest = spec_digest(base)
    variants.append(
        Variant(base_digest, "baseline", "baseline", base, is_baseline=True)
    )

    known_kinds = set(SLOT_FOR_KIND) | {"provisioning-policy", "system"}
    for axis in plan.axes:
        if axis.kind not in known_kinds:
            raise ValueError(
                f"unknown axis kind {axis.kind!r}; known: "
                f"{sorted(known_kinds)}"
            )
        for alt in _axis_alternatives(axis):
            if axis.baseline is not None and alt.name == axis.baseline:
                variants.append(
                    Variant(base_digest, axis.kind, alt.display, base)
                )
                continue
            try:
                if axis.kind == "provisioning-policy":
                    runner = PROVISIONING_RUNNERS.get(alt.name)
                    if runner is None:
                        raise _Unexpressible(
                            f"no runner embodies provisioning policy "
                            f"{alt.name!r} (known: "
                            f"{sorted(PROVISIONING_RUNNERS)})"
                        )
                    spec = _swap_runner(base, runner, alt)
                elif axis.kind == "system":
                    spec = _swap_runner(base, alt.name, alt)
                elif axis.kind in SLOT_FOR_KIND:
                    spec = _swap_slot(
                        base, SLOT_FOR_KIND[axis.kind], axis.kind, alt
                    )
                else:
                    raise ValueError(
                        f"unknown axis kind {axis.kind!r}; known: "
                        f"{sorted(SLOT_FOR_KIND) + ['provisioning-policy', 'system']}"
                    )
            except _Unexpressible as exc:
                skipped.append(
                    SkippedAlternative(axis.kind, alt.display, str(exc))
                )
                continue
            variants.append(
                Variant(spec_digest(spec), axis.kind, alt.display, spec)
            )

    for grid in plan.grids:
        live_points = [
            point for point in grid.values
            if grid.baseline is None or tuple(point) != tuple(grid.baseline)
        ]
        if grid.baseline is not None and len(live_points) < len(grid.values):
            marker = grid.baseline
            variants.append(
                Variant(
                    base_digest, grid.label, _point_label(grid, marker), base,
                    point=dict(zip(grid.paths, marker)),
                )
            )
        if _grid_is_retargetable(plan, grid) and len(live_points) > 1:
            from dataclasses import replace

            path = grid.paths[0]
            swept = replace(
                base, sweep={path: [point[0] for point in live_points]}
            )
            variants.append(
                Variant(
                    spec_digest(swept), grid.label,
                    f"{path} x{len(live_points)}", swept,
                    point={path: [point[0] for point in live_points]},
                    sweep=True,
                )
            )
            continue
        for point in live_points:
            spec = _with_point(base, grid.paths, point)
            variants.append(
                Variant(
                    spec_digest(spec), grid.label, _point_label(grid, point),
                    spec, point=dict(zip(grid.paths, point)),
                )
            )

    return variants, skipped


def _fmt_value(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:g}"
    return str(value)


def _point_label(grid: PathGrid, point: Sequence[Any]) -> str:
    if len(grid.paths) == 1:
        return f"{grid.paths[0]}={_fmt_value(point[0])}"
    return ", ".join(
        f"{p}={_fmt_value(v)}" for p, v in zip(grid.paths, point)
    )


# --------------------------------------------------------------------- #
# execution
# --------------------------------------------------------------------- #
def scenario_name_for(run_id: str) -> str:
    """The content-addressed scenario name a variant registers under."""
    return f"ablate-{run_id[:12]}"


@dataclass
class PlanExecution:
    """Raw outcome of executing a plan: payloads keyed by run ID."""

    plan: AblationPlan
    variants: list[Variant]
    skipped: list[SkippedAlternative]
    payloads: dict[str, Any]
    cached: dict[str, bool]
    seed: int


def execute_plan(
    plan: AblationPlan,
    seed: int = 0,
    cache=None,
    workers: int = 0,
    orchestrator=None,
) -> PlanExecution:
    """Run every variant of a plan through the supervised orchestrator.

    ``workers=0`` (the default) executes serially in-process, which is
    safe inside orchestrator worker processes (analyses must not nest
    process pools); pass ``workers>1`` for a parallel top-level run.  A
    shared ``cache`` turns repeated baselines — within a plan or across
    plans — into cache hits.  An explicit ``orchestrator`` overrides
    both (its registry must be private; variant scenarios register into
    it).
    """
    from repro.experiments.orchestrator import Orchestrator
    from repro.experiments.registry import ScenarioRegistry, ScenarioSpec
    from repro.api.run import run_spec_scenario, validate_spec

    variants, skipped = generate_variants(plan)
    for variant in variants:
        validate_spec(variant.spec)

    if orchestrator is None:
        registry = ScenarioRegistry()
        orchestrator = Orchestrator(
            registry=registry,
            cache=cache,
            workers=max(1, workers),
            seed=seed,
            journal=False,
        )
    else:
        registry = orchestrator.registry
        seed = orchestrator.seed

    names = {}
    for variant in variants:
        name = scenario_name_for(variant.run_id)
        names[variant.run_id] = name
        if name not in registry.names():
            registry.register(
                ScenarioSpec(
                    name=name,
                    fn=run_spec_scenario,
                    defaults={"spec": variant.spec.to_dict()},
                    tags=frozenset({"ablation", "spec"}),
                    description=(
                        f"[{plan.name}] {variant.axis}: {variant.value}"
                    ),
                )
            )

    # "return": one variant failing (e.g. an alternative invalid at
    # runtime) becomes a recorded skip at scoring time, not a dead plan
    runs = orchestrator.run(
        names=sorted(set(names.values())), on_error="return"
    )
    payloads = {
        run_id: runs[name].payload for run_id, name in names.items()
    }
    cached = {run_id: runs[name].cached for run_id, name in names.items()}
    return PlanExecution(
        plan=plan, variants=variants, skipped=skipped,
        payloads=payloads, cached=cached, seed=seed,
    )


# --------------------------------------------------------------------- #
# importance scoring
# --------------------------------------------------------------------- #
def aggregate_metrics(payload: Mapping) -> dict:
    """Cost/throughput/goodput aggregates of one spec-scenario payload."""
    results = payload["results"]
    metrics = [r["metrics"] for r in results]
    goodputs = [
        m["reliability"]["goodput_node_hours"]
        for m in metrics
        if m.get("reliability") is not None
        and "goodput_node_hours" in m["reliability"]
    ]
    return {
        "cost_node_hours": sum(m["resource_consumption"] for m in metrics),
        "throughput_jobs": sum(m["completed_jobs"] for m in metrics),
        "goodput_node_hours": (
            sum(goodputs) if len(goodputs) == len(metrics) and metrics
            else None
        ),
    }


def _relative(delta: float, reference: float) -> Optional[float]:
    if reference == 0:
        return None
    return delta / abs(reference)


@dataclass(frozen=True)
class VariantOutcome:
    """One variant scored against the baseline."""

    axis: str
    value: str
    run_id: str
    metrics: Mapping[str, Any]
    deltas: Mapping[str, Optional[float]]
    relative: Mapping[str, Optional[float]]
    importance: float
    harmful: bool
    cached: bool = False
    point: Mapping[str, Any] = field(default_factory=dict)

    def to_row(self) -> dict:
        row: dict[str, Any] = {
            "axis": self.axis,
            "component": self.value,
            "run_id": self.run_id[:12],
            "importance": round(self.importance, 4),
            "harmful": self.harmful,
        }
        for key in ("cost_node_hours", "throughput_jobs",
                    "goodput_node_hours"):
            value = self.metrics.get(key)
            if value is None:
                continue
            row[key] = round(value, 1)
            rel = self.relative.get(key)
            row[f"{key}_delta_pct"] = (
                None if rel is None else round(100.0 * rel, 2)
            )
        return row


def score_variant(
    axis: str,
    value: str,
    run_id: str,
    metrics: Mapping[str, Any],
    baseline: Mapping[str, Any],
    cached: bool = False,
    point: Optional[Mapping[str, Any]] = None,
) -> VariantOutcome:
    """Deltas, importance and the harmful flag for one variant."""
    deltas: dict[str, Optional[float]] = {}
    relative: dict[str, Optional[float]] = {}
    for key, base_value in baseline.items():
        varied = metrics.get(key)
        if varied is None or base_value is None:
            deltas[key] = None
            relative[key] = None
            continue
        deltas[key] = varied - base_value
        relative[key] = _relative(varied - base_value, base_value)
    shared = [abs(r) for r in relative.values() if r is not None]
    importance = sum(shared) / len(shared) if shared else 0.0
    cost = relative.get("cost_node_hours")
    jobs = relative.get("throughput_jobs")
    harmful = False
    if cost is not None and jobs is not None:
        pays_more_for_nothing = cost > DELTA_EPS and jobs <= DELTA_EPS
        loses_work_for_free = jobs < -DELTA_EPS and cost >= -DELTA_EPS
        harmful = pays_more_for_nothing or loses_work_for_free
    return VariantOutcome(
        axis=axis, value=value, run_id=run_id, metrics=dict(metrics),
        deltas=deltas, relative=relative, importance=importance,
        harmful=harmful, cached=cached, point=dict(point or {}),
    )


@dataclass
class AblationReport:
    """The ranked outcome of one plan: scores, skips, markdown."""

    plan_name: str
    baseline_run_id: str
    baseline_metrics: Mapping[str, Any]
    outcomes: list[VariantOutcome]
    skipped: list[SkippedAlternative]
    seed: int
    executed: int
    cache_hits: int

    def ranked(self) -> list[VariantOutcome]:
        return sorted(
            self.outcomes,
            key=lambda o: (-o.importance, o.axis, o.value),
        )

    def axis_importance(self) -> dict[str, float]:
        """Per-axis importance: the largest swing any swap produced."""
        scores: dict[str, float] = {}
        for outcome in self.outcomes:
            scores[outcome.axis] = max(
                scores.get(outcome.axis, 0.0), outcome.importance
            )
        return dict(sorted(scores.items(), key=lambda kv: (-kv[1], kv[0])))

    def harmful(self) -> list[VariantOutcome]:
        return [o for o in self.ranked() if o.harmful]

    def to_payload(self) -> dict:
        return {
            "plan": self.plan_name,
            "seed": self.seed,
            "baseline": {
                "run_id": self.baseline_run_id[:12],
                **{
                    k: v for k, v in self.baseline_metrics.items()
                    if v is not None
                },
            },
            "executed": self.executed,
            "cache_hits": self.cache_hits,
            "axis_importance": {
                axis: round(score, 4)
                for axis, score in self.axis_importance().items()
            },
            "rows": [o.to_row() for o in self.ranked()],
            "skipped": [
                {"axis": s.axis, "component": s.value, "reason": s.reason}
                for s in self.skipped
            ],
        }


def score_execution(execution: PlanExecution) -> AblationReport:
    """Score every non-baseline variant of an executed plan."""
    base_variant = execution.variants[0]
    base_payload = execution.payloads[base_variant.run_id]
    if base_payload is None:
        raise RuntimeError(
            f"plan {execution.plan.name!r}: baseline run failed"
        )
    baseline_metrics = aggregate_metrics(base_payload)
    outcomes: list[VariantOutcome] = []
    scored: set[str] = {base_variant.run_id}
    for variant in execution.variants:
        if variant.run_id in scored:
            continue
        scored.add(variant.run_id)
        payload = execution.payloads.get(variant.run_id)
        if payload is None:
            execution.skipped.append(
                SkippedAlternative(
                    variant.axis, variant.value, "execution failed"
                )
            )
            continue
        if variant.sweep:
            outcomes.extend(
                _score_sweep_variant(
                    variant, payload, baseline_metrics,
                    execution.cached[variant.run_id],
                )
            )
            continue
        outcomes.append(
            score_variant(
                variant.axis, variant.value, variant.run_id,
                aggregate_metrics(payload), baseline_metrics,
                cached=execution.cached[variant.run_id], point=variant.point,
            )
        )
    return AblationReport(
        plan_name=execution.plan.name,
        baseline_run_id=base_variant.run_id,
        baseline_metrics=baseline_metrics,
        outcomes=outcomes,
        skipped=execution.skipped,
        seed=execution.seed,
        executed=sum(1 for c in execution.cached.values() if not c),
        cache_hits=sum(1 for c in execution.cached.values() if c),
    )


def _score_sweep_variant(
    variant: Variant,
    payload: Mapping,
    baseline_metrics: Mapping[str, Any],
    cached: bool,
) -> list[VariantOutcome]:
    """Pull a collapsed retargetable sweep apart into per-point outcomes."""
    (path,) = list(variant.point)
    by_value: dict[Any, list[dict]] = {}
    for result in payload["results"]:
        value = result["point"][path]
        by_value.setdefault(value, []).append(result)
    outcomes = []
    for value, results in by_value.items():
        outcomes.append(
            score_variant(
                variant.axis, f"{path}={_fmt_value(value)}", variant.run_id,
                aggregate_metrics({"results": results}), baseline_metrics,
                cached=cached, point={path: value},
            )
        )
    return outcomes


def run_ablation(
    plan: AblationPlan,
    seed: int = 0,
    cache=None,
    workers: int = 0,
    orchestrator=None,
) -> AblationReport:
    """Generate, execute and score a plan's full ablation run set."""
    return score_execution(
        execute_plan(
            plan, seed=seed, cache=cache, workers=workers,
            orchestrator=orchestrator,
        )
    )


# --------------------------------------------------------------------- #
# automatic plans: any spec or scenario -> the full one-off run set
# --------------------------------------------------------------------- #
def plan_from_spec(
    spec: ExperimentSpec,
    kinds: Sequence[str] = DEFAULT_SWAP_KINDS,
    grids: Sequence[PathGrid] = (),
    name: Optional[str] = None,
) -> AblationPlan:
    """The automatic plan: one-off swaps of every registered component.

    For each kind the baseline marker is inferred from the spec itself —
    the ref name every baseline system agrees on (slot kinds), or the
    provisioning policy whose runner every baseline system uses — so the
    matching alternative reuses the baseline run.
    """
    axes = []
    for kind in kinds:
        baseline: Optional[str] = None
        if kind in SLOT_FOR_KIND:
            refs = {
                (lambda ref: None if ref is None else ref.name)(
                    getattr(s, SLOT_FOR_KIND[kind])
                )
                for s in spec.systems
            }
            if len(refs) == 1 and None not in refs:
                baseline = refs.pop()
            elif refs == {None} and kind == "billing-meter":
                # no billing ref means the paper's per-started-hour meter,
                # so that alternative aliases the baseline run
                baseline = "per-hour"
            elif (
                refs == {None}
                and kind == "scheduler"
                and all(s.runner == "dawningcloud" for s in spec.systems)
            ):
                # DawningCloud's default dispatch rule is first-fit (§4.4)
                baseline = "first-fit"
        elif kind == "provisioning-policy":
            runners = {s.runner for s in spec.systems}
            if len(runners) == 1:
                runner = runners.pop()
                for provisioning, embodied in PROVISIONING_RUNNERS.items():
                    if embodied == runner:
                        baseline = provisioning
        elif kind == "system":
            runners = {s.runner for s in spec.systems}
            if len(runners) == 1:
                baseline = runners.pop()
        else:
            raise ValueError(
                f"cannot ablate kind {kind!r}; known: "
                f"{sorted(SLOT_FOR_KIND) + ['provisioning-policy', 'system']}"
            )
        axes.append(ComponentAxis(kind=kind, baseline=baseline))
    return AblationPlan(
        name=name or f"ablate:{spec.name}",
        baseline=spec,
        axes=tuple(axes),
        grids=tuple(grids),
    )


def perturbation_grids(
    spec: ExperimentSpec,
    paths: Sequence[str],
    step: float = 0.25,
) -> list[PathGrid]:
    """± relative perturbation grids around the baseline's path values.

    Each dotted path must resolve to a numeric value in the baseline's
    system dicts (all systems must agree); the grid is
    ``(1-step)·v`` / ``v`` (the baseline marker) / ``(1+step)·v``.
    """
    if not 0.0 < step:
        raise ValueError(f"step must be positive, got {step}")
    grids = []
    for path in paths:
        values = {_read_path(s.to_dict(), path) for s in spec.systems}
        if len(values) != 1:
            raise ValueError(
                f"path {path!r} differs across baseline systems: "
                f"{sorted(values, key=repr)}"
            )
        value = values.pop()
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ValueError(
                f"path {path!r} resolves to non-numeric {value!r}; "
                f"perturbation needs a number"
            )
        value = float(value)
        grids.append(
            PathGrid(
                label=path,
                paths=(path,),
                values=(
                    (value * (1.0 - step),),
                    (value,),
                    (value * (1.0 + step),),
                ),
                baseline=(value,),
            )
        )
    return grids


def _read_path(data: Mapping, path: str) -> Any:
    """Resolve a dotted path in a system dict; missing -> the component
    default when the final segment is a declared parameter."""
    node: Any = data
    segments = path.split(".")
    for i, segment in enumerate(segments):
        if not isinstance(node, Mapping) or segment not in node:
            resolved = _default_for_path(data, segments, i)
            if resolved is not _MISSING:
                return resolved
            raise ValueError(
                f"path {path!r} does not resolve in "
                f"{sorted(data) if isinstance(data, Mapping) else data!r}"
            )
        node = node[segment]
    return node


_MISSING = object()


def _default_for_path(data: Mapping, segments: Sequence[str], depth: int) -> Any:
    """Default value for ``params.<x>`` / ``<slot>.params.<x>`` paths."""
    registry = default_components()
    try:
        if len(segments) == 2 and segments[0] == "params":
            component = registry.get("system", data["runner"])
        elif (
            len(segments) == 3
            and segments[0] in SLOT_FOR_KIND.values()
            and segments[1] == "params"
        ):
            slot = segments[0]
            kind = {v: k for k, v in SLOT_FOR_KIND.items()}[slot]
            ref = data.get(slot)
            if ref is None:
                return _MISSING
            component = registry.get(kind, ref["name"])
        else:
            return _MISSING
        for param in component.params:
            if param.name == segments[-1] and not param.required:
                return param.default
    except (KeyError, ValueError):
        return _MISSING
    return _MISSING


def baseline_from_scenario(scenario: str) -> ExperimentSpec:
    """A scenario's declarative artifact reduced to a baseline spec.

    ``experiment`` artifacts are the spec; ``four-systems`` artifacts
    reduce to their DawningCloud column (the paper's subject system —
    the one whose components are worth ablating).  Sweep and analysis
    artifacts have no single baseline configuration and are rejected.
    """
    from repro.experiments.scenarios import DECLARED, _substitute

    if scenario not in DECLARED:
        raise ValueError(
            f"unknown scenario {scenario!r}; see "
            f"`repro-experiments list-scenarios`"
        )
    decl = DECLARED[scenario]
    artifact = _substitute(decl.artifact, dict(decl.defaults))
    kind = artifact.get("kind")
    if kind == "experiment":
        return ExperimentSpec.from_dict(
            {k: v for k, v in artifact.items() if k != "kind"}
        )
    if kind == "four-systems":
        system: dict[str, Any] = {
            "runner": "dawningcloud",
            "params": {"capacity": artifact["capacity"]},
            "policy": artifact["policy"],
        }
        if artifact.get("billing") not in (None, "per-hour"):
            system["billing"] = artifact["billing"]
        return ExperimentSpec(
            name=f"ablate-base:{scenario}",
            workloads=(artifact["workload"],),
            systems=(system,),
            description=f"DawningCloud baseline of scenario {scenario!r}",
        )
    raise ValueError(
        f"scenario {scenario!r} ({kind!r} artifact) has no single baseline "
        f"configuration to ablate; pick an experiment or four-systems "
        f"scenario, or pass a spec file"
    )


def scenario_plans(
    pattern: str,
    kinds: Sequence[str] = DEFAULT_SWAP_KINDS,
    grids: Sequence[str] = (),
    step: float = 0.25,
) -> tuple[list[AblationPlan], dict[str, str]]:
    """Plans for every scenario matching ``pattern``.

    Returns ``(plans, rejected)`` where ``rejected`` maps scenario names
    that matched the pattern but could not be reduced to a baseline spec
    to the reason — the CLI renders these as a failure table.
    """
    import fnmatch

    from repro.experiments.scenarios import DECLARED

    names = sorted(n for n in DECLARED if fnmatch.fnmatch(n, pattern))
    plans: list[AblationPlan] = []
    rejected: dict[str, str] = {}
    for scenario in names:
        try:
            spec = baseline_from_scenario(scenario)
            plan = plan_from_spec(
                spec,
                kinds=kinds,
                grids=perturbation_grids(spec, grids, step=step),
                name=f"ablate:{scenario}",
            )
        except ValueError as exc:
            rejected[scenario] = str(exc)
            continue
        plans.append(plan)
    return plans, rejected


# --------------------------------------------------------------------- #
# rendering
# --------------------------------------------------------------------- #
def markdown_table(rows: Sequence[Mapping[str, Any]]) -> str:
    """GitHub-style table from row dicts (column order = first seen)."""
    if not rows:
        return "(no rows)"
    headers: list[str] = []
    seen = set()
    for row in rows:
        for key in row:
            if key not in seen:
                seen.add(key)
                headers.append(key)

    def fmt(value: Any) -> str:
        if value is None:
            return "—"
        if isinstance(value, bool):
            return "yes" if value else "no"
        if isinstance(value, float):
            return f"{value:,.4g}"
        return str(value)

    lines = ["| " + " | ".join(headers) + " |",
             "|" + "|".join("---" for _ in headers) + "|"]
    for row in rows:
        lines.append(
            "| " + " | ".join(fmt(row.get(h)) for h in headers) + " |"
        )
    return "\n".join(lines)


def render_report(report: AblationReport, heading: str = "###") -> str:
    """The ranked importance section, as markdown."""
    lines = [
        f"{heading} Ablation & sensitivity: {report.plan_name}",
        "",
        f"Baseline run `{report.baseline_run_id[:12]}` — "
        + ", ".join(
            f"{key.replace('_', ' ')} {value:,.1f}"
            for key, value in report.baseline_metrics.items()
            if value is not None
        )
        + f". {report.executed} executed, {report.cache_hits} cache hits; "
        f"one-off swaps ranked by importance (mean |relative delta| over "
        f"shared metrics); ⚠ marks harmful components (strictly worse "
        f"trade than the baseline).",
        "",
    ]
    rows = []
    for outcome in report.ranked():
        row = outcome.to_row()
        rows.append(
            {
                "axis": row["axis"],
                "component": (
                    f"⚠ {row['component']}" if row["harmful"]
                    else row["component"]
                ),
                "importance": row["importance"],
                "cost Δ%": row.get("cost_node_hours_delta_pct"),
                "jobs Δ%": row.get("throughput_jobs_delta_pct"),
                "goodput Δ%": row.get("goodput_node_hours_delta_pct"),
            }
        )
    lines.append(markdown_table(rows))
    if report.skipped:
        lines.append("")
        lines.append("Not expressible from this baseline:")
        for skip in sorted(
            report.skipped, key=lambda s: (s.axis, s.value)
        ):
            lines.append(f"- `{skip.axis}`/`{skip.value}`: {skip.reason}")
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------- #
# the registered analysis: one scenario's full sensitivity screen
# --------------------------------------------------------------------- #
#: Default parameter-perturbation paths for the automatic screen.  Both
#: are retargetable, so each ±step grid collapses into one swept spec,
#: cached as one run, instead of one run per point.
DEFAULT_SENSITIVITY_GRIDS = (
    "policy.params.threshold_ratio",
    "policy.params.release_check_interval_s",
)


def scenario_report(
    scenario: str,
    seed: int = 0,
    kinds: Sequence[str] = DEFAULT_SWAP_KINDS,
    grids: Sequence[str] = DEFAULT_SENSITIVITY_GRIDS,
    step: float = 0.25,
    cache=None,
    workers: int = 0,
) -> AblationReport:
    """The automatic ablation of one scenario's baseline, scored."""
    spec = baseline_from_scenario(scenario)
    plan = plan_from_spec(
        spec,
        kinds=kinds,
        grids=perturbation_grids(spec, grids, step=step),
        name=f"ablate:{scenario}",
    )
    return run_ablation(plan, seed=seed, cache=cache, workers=workers)


def _register_sensitivity_analysis() -> None:
    from repro.api.registry import register_component

    def ablation_sensitivity(seed=0, scenario="table2-nasa", step=0.25):
        """Automatic ablation & sensitivity screen of a scenario baseline.

        Swaps every registered component one-off against the scenario's
        DawningCloud baseline, perturbs the retargetable policy knobs
        ±step, and returns the ranked importance report — payload rows
        plus the rendered markdown section EXPERIMENTS.md embeds.
        """
        report = scenario_report(scenario, seed=seed, step=step)
        payload = report.to_payload()
        payload["markdown"] = render_report(report)
        return payload

    register_component(
        "analysis", "ablation-sensitivity", ablation_sensitivity,
        skip_params=("seed",),
    )


_register_sensitivity_analysis()
