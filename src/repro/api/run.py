"""The ``Simulation`` facade: materialize specs, run them, return results.

This module is the executable half of the spec API:

* :func:`materialize_workload` / :func:`build_live_system` turn
  :class:`~repro.api.spec.WorkloadSpec` / :class:`~repro.api.spec
  .SystemSpec` into a live :class:`~repro.systems.base.WorkloadBundle`
  (through the process-wide trace store) and a built-but-unrun
  :class:`~repro.systems.base.LiveRun`; :func:`run_system` runs that to
  a finished :class:`~repro.metrics.results.ProviderMetrics`;
* :func:`run_experiment` runs the full workloads × systems × seeds ×
  sweep cross of an :class:`~repro.api.spec.ExperimentSpec`, one cold run
  per point, and returns structured :class:`RunResult` records;
* :class:`Simulation` wraps that in the orchestrator so spec runs share
  the content-addressed result cache — rerunning an unchanged spec is a
  JSON load;
* :func:`run_artifact` is the one generic interpreter behind every
  built-in scenario (see :mod:`repro.experiments.scenarios`): the paper's
  tables, sweeps and analyses are declarative artifact specs dispatched
  here.

:func:`run_four_systems` also lives here: the Tables 2-4 primitive.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping, Optional, Union

from repro.api.registry import default_components
from repro.api.spec import (
    ComponentRef,
    ExperimentSpec,
    SystemSpec,
    WorkloadSpec,
    load_spec_file,
    spec_digest,
)
from repro.core.policies import ResourceManagementPolicy
from repro.metrics.results import ProviderMetrics
from repro.provisioning.billing import BillingMeter
from repro.systems import SYSTEM_ORDER
from repro.systems.base import LiveRun, WorkloadBundle
from repro.systems.drp import run_drp
from repro.systems.dsp_runner import (
    DEFAULT_CAPACITY,
    run_dawningcloud_htc,
    run_dawningcloud_mtc,
)
from repro.systems.fixed import run_dcs, run_ssp


# --------------------------------------------------------------------- #
# the Tables 2-4 primitive (canonical home)
# --------------------------------------------------------------------- #
def run_four_systems(
    bundle: WorkloadBundle,
    policy: ResourceManagementPolicy,
    capacity: int = DEFAULT_CAPACITY,
    meter: Optional[BillingMeter] = None,
) -> dict[str, ProviderMetrics]:
    """DCS, SSP, DRP and DawningCloud results for one service provider.

    ``meter`` overrides the billing rule for every leased system (the
    paper's per-started-hour meter when ``None``); DCS is owned, so its
    consumption is the meter-independent closed form.
    """
    if bundle.kind == "htc":
        dawning = run_dawningcloud_htc(bundle, policy, capacity=capacity,
                                       meter=meter)
    else:
        dawning = run_dawningcloud_mtc(bundle, policy, capacity=capacity,
                                       meter=meter)
    return {
        "DCS": run_dcs(bundle, meter=meter),
        "SSP": run_ssp(bundle, meter=meter),
        "DRP": run_drp(bundle, meter=meter),
        "DawningCloud": dawning,
    }


# --------------------------------------------------------------------- #
# spec materialization
# --------------------------------------------------------------------- #
def materialize_workload(
    spec: Union[str, Mapping, WorkloadSpec], seed: int = 0
) -> WorkloadBundle:
    """A fresh :class:`WorkloadBundle` for one workload spec.

    Generation routes through the registered workload component (and the
    process-wide trace store where the generator uses it), so repeated
    materializations of the same (spec, seed) share one generation.
    """
    spec = WorkloadSpec.from_value(spec)
    component = default_components().get("workload", spec.generator)
    component.validate_params(spec.params)
    bundle = component.factory(seed=seed, **spec.params)
    if not isinstance(bundle, WorkloadBundle):  # pragma: no cover - contract
        raise TypeError(
            f"workload component {spec.generator!r} returned "
            f"{type(bundle).__name__}, expected WorkloadBundle"
        )
    return bundle


def resolve_meter(
    billing: Union[None, str, Mapping, ComponentRef], bundle: WorkloadBundle
) -> Optional[BillingMeter]:
    """A billing ref → meter instance, with the paper's defaults.

    ``None`` or a parameterless ``per-hour`` ref keeps the default
    per-started-hour path (``meter=None`` to every runner — bit-identical
    to the pre-spec behaviour).  ``reserved-spot`` without an explicit
    ``reserved_nodes`` defaults the reservation to the workload's
    fixed-system size — the natural steady-base-load choice the built-in
    scenarios use.
    """
    if billing is None:
        return None
    ref = ComponentRef.from_value(billing, what="billing")
    if ref.name == "per-hour" and not ref.params:
        return None
    params = dict(ref.params)
    if ref.name == "reserved-spot" and "reserved_nodes" not in params:
        # an *explicit* reserved_nodes (even 0) is the author's choice and
        # passes through — make_meter rejects 0 loudly rather than letting
        # it silently degenerate to per-hour numbers
        params["reserved_nodes"] = int(bundle.fixed_nodes)  # type: ignore[arg-type]
    return default_components().create("billing-meter", ref.name, **params)


def resolve_engine_kernel(
    engine: Union[None, str, Mapping, ComponentRef],
) -> Union[None, str, Mapping[str, Any]]:
    """An ``engine`` ref → the ``kernel=`` argument fixed runners take.

    Two engines exist: ``exact`` (the canonical pure-Python event loop —
    also what *no* ref means, so adding this field never changes a spec
    digest) and ``hybrid`` (the opt-in fluid/vectorized core), with
    optional params ``kernel`` (only ``numpy``, the default) and
    ``materialize`` (default ``True``).  ``exact`` maps to ``"off"``
    rather than ``None`` so a spec saying *exact* beats any ambient
    ``REPRO_KERNEL`` — a spec is a complete description of its run, and
    ``exact`` is its one way to ask for the exact engine.
    """
    from repro.simkit.kernel import KERNEL_NAME, KernelConfigError

    if engine is None:
        return None
    ref = ComponentRef.from_value(engine, what="engine")
    if ref.name == "exact":
        if ref.params:
            raise ValueError(
                f"engine 'exact' takes no params, got {dict(ref.params)!r}"
            )
        return "off"
    if ref.name != "hybrid":
        raise ValueError(
            f"unknown engine {ref.name!r}; known: ['exact', 'hybrid']"
        )
    params = dict(ref.params)
    unknown = set(params) - {"kernel", "materialize"}
    if unknown:
        raise ValueError(
            f"engine 'hybrid' has unknown param(s) {sorted(unknown)}; "
            f"known: ['kernel', 'materialize']"
        )
    kernel = params.get("kernel", KERNEL_NAME)
    if kernel != KERNEL_NAME:
        raise KernelConfigError(
            f"engine 'hybrid' kernel must be {KERNEL_NAME!r}, got {kernel!r} "
            f"(engine 'exact' selects the exact engine)"
        )
    return {
        "kernel": kernel,
        "materialize": bool(params.get("materialize", True)),
    }


def build_live_system(
    system: Union[str, Mapping, SystemSpec],
    bundle: WorkloadBundle,
    seed: int = 0,
) -> LiveRun:
    """A built-but-unrun :class:`~repro.systems.base.LiveRun` for one spec.

    The one place a system spec's refs become objects: the policy,
    scheduler, billing, failure and engine refs resolve here and the
    registered runner builds its world, stopped before any event
    executes so the caller can ingest, advance, fork and retarget.
    """
    system = SystemSpec.from_value(system)
    registry = default_components()
    component = registry.get("system", system.runner)
    kwargs: dict[str, Any] = dict(system.params)
    if system.policy is not None:
        kwargs["policy"] = registry.create(
            "policy", system.policy.name, **system.policy.params
        )
    if system.scheduler is not None:
        kwargs["scheduler"] = registry.create(
            "scheduler", system.scheduler.name, **system.scheduler.params
        )
    if system.billing is not None:
        kwargs["meter"] = resolve_meter(system.billing, bundle)
    if system.failures is not None:
        kwargs["failures"] = registry.create(
            "failure-model", system.failures.name, **system.failures.params
        )
    if system.engine is not None:
        kwargs["kernel"] = resolve_engine_kernel(system.engine)
    component.validate_params(kwargs)
    return component.factory(bundle, seed=seed, **kwargs)


def run_system(
    system: Union[str, Mapping, SystemSpec],
    bundle: WorkloadBundle,
    seed: int = 0,
) -> ProviderMetrics:
    """Run one system spec over an already-materialized bundle."""
    return build_live_system(system, bundle, seed=seed).run()


# --------------------------------------------------------------------- #
# experiment execution
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class RunResult:
    """One (workload, system, seed, sweep point) outcome."""

    experiment: str
    workload: str
    system: str
    seed: int
    point: Mapping[str, Any] = field(default_factory=dict)
    metrics: Mapping[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "experiment": self.experiment,
            "workload": self.workload,
            "system": self.system,
            "seed": self.seed,
            "point": dict(self.point),
            "metrics": dict(self.metrics),
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "RunResult":
        return cls(
            experiment=data["experiment"],
            workload=data["workload"],
            system=data["system"],
            seed=data["seed"],
            point=dict(data.get("point") or {}),
            metrics=dict(data.get("metrics") or {}),
        )


def run_experiment(spec: ExperimentSpec, seed: int = 0) -> list[RunResult]:
    """Execute the full cross of an experiment spec, in declaration order.

    Workloads outermost, then sweep-expanded systems, then seed offsets —
    a deterministic order so payloads are reproducible byte-for-byte.
    The effective seed of each run is ``seed + offset``; every point is
    one cold run of its system.
    """
    results = []
    bundles: dict[tuple[int, int], WorkloadBundle] = {}
    for w_index, wspec in enumerate(spec.workloads):
        for system, point in spec.expand_systems():
            for offset in spec.seeds:
                effective = seed + offset
                # one bundle per (workload, seed): runners replay fresh
                # copies from it, so sharing across systems is safe (and
                # what run_four_systems has always done) — this matters
                # for generators that bypass the trace store (pegasus,
                # swf), which would otherwise regenerate per system per
                # sweep point
                key = (w_index, effective)
                bundle = bundles.get(key)
                if bundle is None:
                    bundle = bundles[key] = materialize_workload(
                        wspec, effective
                    )
                metrics = run_system(system, bundle, seed=effective)
                results.append(
                    RunResult(
                        experiment=spec.name,
                        # the generated bundle's own name (e.g. the
                        # htc-trace spec's name) beats the generator key
                        workload=wspec.label or bundle.name,
                        system=system.display,
                        seed=effective,
                        point=point,
                        metrics=metrics.to_payload(),
                    )
                )
    return results


def validate_spec(spec: ExperimentSpec) -> None:
    """Check every component reference in a spec against the registry.

    Specs are user input: unknown generators/runners/refs, unknown
    parameters and missing required parameters must fail here — at parse
    time — not as a ``RuntimeError`` deep inside a simulation.  Systems
    are validated *after* sweep expansion, since sweep paths may
    introduce parameters and refs.
    """
    registry = default_components()
    for wspec in spec.workloads:
        registry.get("workload", wspec.generator).validate_params(
            wspec.params, require=True
        )
    for system, _point in spec.expand_systems():
        component = registry.get("system", system.runner)
        names = set(system.params)
        for kind, attr, ref in (
            ("policy", "policy", system.policy),
            ("scheduler", "scheduler", system.scheduler),
            ("billing-meter", "meter", system.billing),
            ("failure-model", "failures", system.failures),
        ):
            if ref is not None:
                registry.get(kind, ref.name).validate_params(
                    ref.params,
                    # billing params may omit required knobs the runtime
                    # derives from the bundle (reserved_nodes)
                    require=kind != "billing-meter",
                )
                names.add(attr)
        if system.engine is not None:
            # engines are not registry components (two fixed names); the
            # resolver performs the loud parse-time validation itself
            resolve_engine_kernel(system.engine)
            names.add("kernel")
        component.validate_params(dict.fromkeys(names))


def run_spec_scenario(seed: int, spec: Mapping) -> dict:
    """Orchestrator entry point: one experiment-spec dict → JSON payload.

    Module-level (picklable) so spec files can run through the scenario
    registry, the process pool and the result cache like any built-in
    scenario; the spec dict itself is the scenario's one parameter, so
    the cache key covers its full content.
    """
    experiment = ExperimentSpec.from_dict(spec)
    return {
        "experiment": experiment.name,
        "digest": spec_digest(experiment),
        "results": [r.to_dict() for r in run_experiment(experiment, seed)],
    }


def scenario_from_spec(spec: ExperimentSpec):
    """Wrap an experiment spec as a registrable scenario.

    The returned :class:`~repro.experiments.registry.ScenarioSpec` runs
    through :func:`run_spec_scenario` with the spec dict as its single
    default parameter — which is exactly what makes a TOML file on disk a
    first-class citizen of ``list-scenarios`` / ``run`` / the cache.
    """
    from repro.experiments.registry import ScenarioSpec

    validate_spec(spec)
    return ScenarioSpec(
        name=spec.name,
        fn=run_spec_scenario,
        defaults={"spec": spec.to_dict()},
        tags=frozenset({"spec"}),
        description=spec.description
        or f"declarative experiment spec ({spec_digest(spec)[:12]})",
    )


def load_spec_scenarios(directory, registry=None) -> list[str]:
    """Register every ``*.toml``/``*.json`` spec under ``directory``.

    Each file becomes a scenario named by its spec's ``name`` — visible
    in ``list-scenarios``, runnable via ``run --scenario``, cached like
    any built-in.  Returns the registered names (sorted by filename).

    All-or-nothing: every file is parsed and validated *before* anything
    registers, and the error names every offending file — a broken or
    name-colliding spec must not silently drop its neighbours from the
    registry.
    """
    from pathlib import Path

    from repro.experiments.registry import default_registry

    registry = registry if registry is not None else default_registry()
    directory = Path(directory)
    loaded, problems = [], []
    seen: dict[str, Path] = {}
    for path in sorted(directory.glob("*.toml")) + sorted(directory.glob("*.json")):
        try:
            scenario = scenario_from_spec(load_spec_file(path))
        except (ValueError, KeyError, RuntimeError) as exc:
            problems.append(f"{path}: {exc}")
            continue
        if scenario.name in registry:
            problems.append(
                f"{path}: name {scenario.name!r} is already a registered "
                f"scenario"
            )
        elif scenario.name in seen:
            problems.append(
                f"{path}: name {scenario.name!r} is also declared by "
                f"{seen[scenario.name]}"
            )
        else:
            seen[scenario.name] = path
            loaded.append(scenario)
    if problems:
        raise ValueError(
            "spec directory has invalid file(s); nothing was registered: "
            + "; ".join(problems)
        )
    for scenario in loaded:
        registry.register(scenario)
    return [s.name for s in loaded]


class Simulation:
    """The facade: one experiment spec, materialized, run, and cached.

    >>> sim = Simulation(spec, seed=0, cache=ResultCache.default())
    >>> results = sim.run()           # list[RunResult]; cached on rerun
    >>> sim.payload                   # canonical JSON-safe document

    ``spec`` may be an :class:`ExperimentSpec`, a plain mapping, or a
    path to a ``.toml``/``.json`` spec file; component references are
    validated against the registry at construction, so a typo fails
    here, not mid-simulation.  Execution goes through a private scenario
    registry and an :class:`~repro.experiments.orchestrator
    .Orchestrator`, so the content-addressed result cache and the
    parallel machinery behave exactly as they do for built-in scenarios.
    ``cache`` defaults to the shared on-disk cache
    (:meth:`~repro.experiments.cache.ResultCache.default`: the
    ``$REPRO_CACHE_DIR`` / ``./.repro-cache`` the CLI uses); pass a
    :class:`~repro.experiments.cache.NullCache` to disable caching.
    ``retry`` (a :class:`~repro.experiments.supervision.RetryPolicy`)
    tunes supervised execution: per-run wall-clock timeouts and bounded
    retry with backoff for transient failures (see docs/robustness.md).
    """

    def __init__(
        self,
        spec: Union[ExperimentSpec, Mapping, str],
        *,
        seed: int = 0,
        cache: Optional[Any] = None,
        workers: int = 1,
        retry: Optional[Any] = None,
    ) -> None:
        if isinstance(spec, ExperimentSpec):
            self.spec = spec
        elif isinstance(spec, Mapping):
            self.spec = ExperimentSpec.from_dict(spec)
        else:
            self.spec = load_spec_file(spec)
        validate_spec(self.spec)
        self.seed = int(seed)
        self.workers = int(workers)
        self._cache = cache
        self._retry = retry
        self._run = None

    @classmethod
    def from_file(cls, path: Union[str, Any], **kwargs: Any) -> "Simulation":
        return cls(load_spec_file(path), **kwargs)

    @property
    def digest(self) -> str:
        return spec_digest(self.spec)

    # ------------------------------------------------------------------ #
    def run(self) -> list[RunResult]:
        """Execute (or replay from cache); returns structured results."""
        from repro.experiments.cache import ResultCache
        from repro.experiments.orchestrator import Orchestrator
        from repro.experiments.registry import ScenarioRegistry

        registry = ScenarioRegistry()
        registry.register(scenario_from_spec(self.spec))
        orch = Orchestrator(
            registry=registry,
            cache=self._cache if self._cache is not None
            else ResultCache.default(),
            workers=self.workers, seed=self.seed, retry=self._retry,
        )
        self._run = orch.run_one(self.spec.name)
        return self.results

    def _require_run(self):
        if self._run is None:
            raise RuntimeError("Simulation has not run yet; call .run() first")
        return self._run

    @property
    def payload(self) -> dict:
        """The canonical scenario payload of the last :meth:`run`."""
        return self._require_run().payload

    @property
    def results(self) -> list[RunResult]:
        return [RunResult.from_dict(r) for r in self.payload["results"]]

    @property
    def cached(self) -> bool:
        """Whether the last :meth:`run` was served from the result cache."""
        return self._require_run().cached


# --------------------------------------------------------------------- #
# the generic artifact interpreter (built-in scenarios' engine)
# --------------------------------------------------------------------- #
#: Artifact kinds :func:`run_artifact` understands.
ARTIFACT_KINDS = ("four-systems", "sweep", "analysis", "experiment")


def _billing_name(billing: Union[None, str, Mapping]) -> str:
    if billing is None:
        return "per-hour"
    if isinstance(billing, str):
        return billing
    return ComponentRef.from_value(billing, what="billing").name


def run_artifact(artifact: Mapping, seed: int = 0) -> Any:
    """One declarative artifact spec → its JSON payload.

    The four kinds cover every built-in scenario:

    * ``four-systems`` — one workload through DCS/SSP/DRP/DawningCloud
      (Tables 2-4; keys: ``workload``, ``policy``, ``capacity``,
      ``billing``);
    * ``sweep`` — DawningCloud over a B×R grid (Figures 9-11; keys:
      ``workload``, ``capacity``, ``B``, ``R``);
    * ``analysis`` — a registered analysis component (closed forms,
      ablations, extensions; keys: ``analysis``, ``params``);
    * ``experiment`` — a full :class:`ExperimentSpec` cross (every other
      key is the spec itself).
    """
    artifact = dict(artifact)
    kind = artifact.pop("kind", None)
    if kind == "four-systems":
        bundle = materialize_workload(artifact["workload"], seed)
        policy = ComponentRef.from_value(artifact["policy"], what="policy")
        meter = resolve_meter(artifact.get("billing"), bundle)
        results = run_four_systems(
            bundle,
            default_components().create("policy", policy.name, **policy.params),
            capacity=artifact["capacity"],
            meter=meter,
        )
        return {
            "workload": WorkloadSpec.from_value(artifact["workload"]).display,
            "kind": bundle.kind,
            "billing": _billing_name(artifact.get("billing")),
            "systems": {s: results[s].to_payload() for s in SYSTEM_ORDER},
        }
    if kind == "sweep":
        from repro.experiments.sweep import SweepPoint

        bundle = materialize_workload(artifact["workload"], seed)
        spec = ExperimentSpec(
            name="sweep",
            workloads=(artifact["workload"],),
            systems=({
                "runner": "dawningcloud",
                "policy": {"name": f"paper-{bundle.kind}"},
                "params": {"capacity": artifact["capacity"]},
            },),
            sweep={
                "policy.params.initial_nodes": artifact["B"],
                "policy.params.threshold_ratio": artifact["R"],
            },
        )
        return {
            "workload": WorkloadSpec.from_value(artifact["workload"]).display,
            "kind": bundle.kind,
            "points": [
                SweepPoint(
                    initial_nodes=r.point["policy.params.initial_nodes"],
                    threshold_ratio=r.point["policy.params.threshold_ratio"],
                    resource_consumption=r.metrics["resource_consumption"],
                    completed_jobs=r.metrics["completed_jobs"],
                    tasks_per_second=(
                        r.metrics["tasks_per_second"]
                        if bundle.kind == "mtc" else None
                    ),
                ).to_row()
                for r in run_experiment(spec, seed)
            ],
        }
    if kind == "analysis":
        component = default_components().get("analysis", artifact["analysis"])
        params = artifact.get("params") or {}
        component.validate_params(params)
        return component.factory(seed=seed, **params)
    if kind == "experiment":
        return run_spec_scenario(seed, artifact)
    raise ValueError(
        f"unknown artifact kind {kind!r}; known: {list(ARTIFACT_KINDS)}"
    )
