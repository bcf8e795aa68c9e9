"""The spec layer: experiments as plain, canonical, cache-keyable data.

A spec names registered components and their parameters — it contains no
code.  Three frozen dataclasses mirror the composition the paper's
evaluation crosses:

* :class:`WorkloadSpec` — one workload generator + parameters
  (``nasa-ipsc``, ``montage``, ``pegasus``, ``fork-join``, ``swf``, ...);
* :class:`SystemSpec` — one system runner (``dcs``, ``drp``,
  ``dawningcloud``, ``pooled-queue``, ...) with optional nested
  :class:`ComponentRef`s for its resource-management policy, scheduler
  and billing meter;
* :class:`ExperimentSpec` — workloads × systems × seeds × sweep grids.

All three round-trip through ``from_dict``/``to_dict`` using the same
canonical-JSON convention as the result cache
(:func:`repro.experiments.cache.canonical_json`): parameters are
canonicalized at construction (tuples become lists, keys become strings),
so ``from_dict(to_dict(s)) == s`` holds and :func:`spec_digest` is a
stable content address — the cache key under which
:class:`repro.api.run.Simulation` stores results.

Dict forms accept shorthand: a bare string is a component name with
default parameters (``"dcs"`` ≡ ``{"runner": "dcs"}``;
``"per-second"`` ≡ ``{"name": "per-second"}``).  Unknown keys are a loud
error naming the offender and the known schema — specs are user input
and must fail at parse time, not deep inside a simulation.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping, Optional, Sequence, Union

from repro.experiments.cache import canonical_json, canonicalize


def _check_keys(what: str, data: Mapping, known: Sequence[str]) -> None:
    unknown = set(data) - set(known)
    if unknown:
        raise ValueError(
            f"{what} has unknown key(s) {sorted(unknown)}; "
            f"known: {sorted(known)}"
        )


def _frozen_params(obj: Any, value: Optional[Mapping]) -> None:
    """Canonicalize and install a ``params`` mapping on a frozen instance."""
    params = canonicalize(dict(value or {}))
    object.__setattr__(obj, "params", params)


@dataclass(frozen=True)
class ComponentRef:
    """A reference to one registered component: name + parameters."""

    name: str
    params: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("component reference needs a non-empty name")
        _frozen_params(self, self.params)

    @classmethod
    def from_value(
        cls, value: Union[str, Mapping, "ComponentRef"], what: str = "component"
    ) -> "ComponentRef":
        if isinstance(value, ComponentRef):
            return value
        if isinstance(value, str):
            return cls(name=value)
        if isinstance(value, Mapping):
            _check_keys(what, value, ("name", "params"))
            if "name" not in value:
                raise ValueError(f"{what} needs a 'name' key, got {dict(value)!r}")
            return cls(name=value["name"], params=value.get("params") or {})
        raise TypeError(f"{what} must be a name or mapping, got {type(value).__name__}")

    def to_dict(self) -> dict:
        out: dict[str, Any] = {"name": self.name}
        if self.params:
            out["params"] = dict(self.params)
        return out


@dataclass(frozen=True)
class WorkloadSpec:
    """One workload: a registered generator plus its parameters.

    ``label`` names the workload in results (defaults to the generator
    key); the generated bundle's own name is what the metrics layer
    reports as the provider.
    """

    generator: str
    params: Mapping[str, Any] = field(default_factory=dict)
    label: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.generator:
            raise ValueError("workload spec needs a non-empty generator")
        _frozen_params(self, self.params)

    @property
    def display(self) -> str:
        return self.label or self.generator

    @classmethod
    def from_value(cls, value: Union[str, Mapping, "WorkloadSpec"]) -> "WorkloadSpec":
        if isinstance(value, WorkloadSpec):
            return value
        if isinstance(value, str):
            return cls(generator=value)
        if isinstance(value, Mapping):
            _check_keys("workload spec", value, ("generator", "params", "label"))
            if "generator" not in value:
                raise ValueError(
                    f"workload spec needs a 'generator' key, got {dict(value)!r}"
                )
            return cls(
                generator=value["generator"],
                params=value.get("params") or {},
                label=value.get("label"),
            )
        raise TypeError(
            f"workload spec must be a name or mapping, got {type(value).__name__}"
        )

    def to_dict(self) -> dict:
        out: dict[str, Any] = {"generator": self.generator}
        if self.params:
            out["params"] = dict(self.params)
        if self.label is not None:
            out["label"] = self.label
        return out


@dataclass(frozen=True)
class SystemSpec:
    """One system: a registered runner plus its composable parts.

    ``params`` are runner-specific knobs (``capacity``, ``pool_cap``,
    ``shared``, ...); ``policy``/``scheduler``/``billing``/``failures``/
    ``engine`` are nested :class:`ComponentRef`s resolved against the
    component registry at materialization time.  A billing ref of
    ``per-hour`` (or none) keeps the paper's default per-started-hour
    meter; no ``failures`` ref keeps the no-failure fast path (zero
    reliability machinery attached); no ``engine`` ref keeps the exact
    engine — and because optional fields are omitted from the dict form,
    every pre-existing spec digest is unchanged.  ``engine`` accepts
    ``exact`` (the default, explicit) or ``hybrid`` with optional
    ``kernel``/``materialize`` params (see
    :func:`repro.api.run.resolve_engine_kernel`).
    """

    runner: str
    params: Mapping[str, Any] = field(default_factory=dict)
    policy: Optional[ComponentRef] = None
    scheduler: Optional[ComponentRef] = None
    billing: Optional[ComponentRef] = None
    failures: Optional[ComponentRef] = None
    engine: Optional[ComponentRef] = None
    label: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.runner:
            raise ValueError("system spec needs a non-empty runner")
        _frozen_params(self, self.params)
        for attr in ("policy", "scheduler", "billing", "failures", "engine"):
            value = getattr(self, attr)
            if value is not None and not isinstance(value, ComponentRef):
                object.__setattr__(
                    self, attr, ComponentRef.from_value(value, what=attr)
                )

    @property
    def display(self) -> str:
        return self.label or self.runner

    @classmethod
    def from_value(cls, value: Union[str, Mapping, "SystemSpec"]) -> "SystemSpec":
        if isinstance(value, SystemSpec):
            return value
        if isinstance(value, str):
            return cls(runner=value)
        if isinstance(value, Mapping):
            _check_keys(
                "system spec", value,
                ("runner", "params", "policy", "scheduler", "billing",
                 "failures", "engine", "label"),
            )
            if "runner" not in value:
                raise ValueError(
                    f"system spec needs a 'runner' key, got {dict(value)!r}"
                )
            refs = {
                attr: ComponentRef.from_value(value[attr], what=attr)
                for attr in ("policy", "scheduler", "billing", "failures",
                             "engine")
                if value.get(attr) is not None
            }
            return cls(
                runner=value["runner"],
                params=value.get("params") or {},
                label=value.get("label"),
                **refs,
            )
        raise TypeError(
            f"system spec must be a name or mapping, got {type(value).__name__}"
        )

    def to_dict(self) -> dict:
        out: dict[str, Any] = {"runner": self.runner}
        if self.params:
            out["params"] = dict(self.params)
        for attr in ("policy", "scheduler", "billing", "failures", "engine"):
            ref = getattr(self, attr)
            if ref is not None:
                out[attr] = ref.to_dict()
        if self.label is not None:
            out["label"] = self.label
        return out


def _apply_path(data: dict, path: str, value: Any) -> None:
    """Set ``path`` (dotted) inside the nested dict form of a system spec.

    Intermediate segments must already exist as mappings; the final
    segment may be new (a parameter left at its default has no key yet).
    """
    node = data
    segments = path.split(".")
    for i, segment in enumerate(segments[:-1]):
        child = node.get(segment)
        if child is None and segment in (
            "params", "policy", "scheduler", "billing", "failures", "engine",
        ):
            child = node[segment] = {}
        if not isinstance(child, dict):
            raise ValueError(
                f"sweep path {path!r} does not resolve: "
                f"{'.'.join(segments[: i + 1])!r} is not a mapping in "
                f"{canonical_json(data)}"
            )
        node = child
    node[segments[-1]] = value


@dataclass(frozen=True)
class ExperimentSpec:
    """Workloads × systems × seeds × sweep grids, as one datum.

    ``sweep`` maps dotted paths *into each system spec's dict form* to
    value lists — e.g. ``{"policy.params.initial_nodes": [10, 20, 40]}``
    — and the experiment runs the cross product (paths in sorted order,
    values in listed order) against every workload and seed.  ``seeds``
    are offsets added to the base seed the runner supplies, so a spec is
    reproducible under any orchestrator ``--seed``.
    """

    name: str
    workloads: tuple[WorkloadSpec, ...]
    systems: tuple[SystemSpec, ...]
    seeds: tuple[int, ...] = (0,)
    sweep: Mapping[str, Any] = field(default_factory=dict)
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("experiment spec needs a non-empty name")
        object.__setattr__(
            self, "workloads",
            tuple(WorkloadSpec.from_value(w) for w in self.workloads),
        )
        object.__setattr__(
            self, "systems",
            tuple(SystemSpec.from_value(s) for s in self.systems),
        )
        if not self.workloads:
            raise ValueError(f"experiment {self.name!r} needs at least one workload")
        if not self.systems:
            raise ValueError(f"experiment {self.name!r} needs at least one system")
        object.__setattr__(self, "seeds", tuple(int(s) for s in self.seeds))
        if not self.seeds:
            raise ValueError(f"experiment {self.name!r} needs at least one seed")
        sweep = canonicalize(
            {path: list(values) for path, values in dict(self.sweep).items()}
        )
        for path, values in sweep.items():
            if not values:
                raise ValueError(
                    f"experiment {self.name!r}: sweep path {path!r} has no values"
                )
        object.__setattr__(self, "sweep", sweep)

    # ------------------------------------------------------------------ #
    @classmethod
    def from_dict(cls, data: Mapping) -> "ExperimentSpec":
        if not isinstance(data, Mapping):
            raise TypeError(
                f"experiment spec must be a mapping, got {type(data).__name__}"
            )
        _check_keys(
            "experiment spec", data,
            ("name", "workloads", "systems", "seeds", "sweep", "description"),
        )
        missing = {"name", "workloads", "systems"} - set(data)
        if missing:
            raise ValueError(
                f"experiment spec is missing required key(s) {sorted(missing)}"
            )
        return cls(
            name=data["name"],
            workloads=tuple(data["workloads"]),
            systems=tuple(data["systems"]),
            seeds=tuple(data.get("seeds", (0,))),
            sweep=data.get("sweep") or {},
            description=data.get("description", ""),
        )

    def to_dict(self) -> dict:
        out: dict[str, Any] = {
            "name": self.name,
            "workloads": [w.to_dict() for w in self.workloads],
            "systems": [s.to_dict() for s in self.systems],
        }
        if self.seeds != (0,):
            out["seeds"] = list(self.seeds)
        if self.sweep:
            out["sweep"] = dict(self.sweep)
        if self.description:
            out["description"] = self.description
        return out

    # ------------------------------------------------------------------ #
    def expand_systems(self) -> list[tuple[SystemSpec, dict]]:
        """The sweep-expanded system list: ``(system, assignment)`` pairs.

        Without a sweep this is ``[(system, {}), ...]``.  With one, each
        system is crossed with the grid; the assignment records the
        ``{path: value}`` choice so results stay self-describing.
        """
        if not self.sweep:
            return [(system, {}) for system in self.systems]
        paths = sorted(self.sweep)
        expanded = []
        for system in self.systems:
            for values in itertools.product(*(self.sweep[p] for p in paths)):
                data = system.to_dict()
                assignment = dict(zip(paths, values))
                for path, value in assignment.items():
                    _apply_path(data, path, value)
                expanded.append((SystemSpec.from_value(data), assignment))
        return expanded


@dataclass(frozen=True)
class ServiceSpec:
    """A long-lived simulation service, declared as data.

    The serving layer (:mod:`repro.serving`) boots one *empty* live
    system — ``machine_nodes`` wide, expected to live to ``horizon_s`` —
    and every job arrives later through the ingest API.  The remaining
    fields parameterize the online behaviour: ``window_s`` is the
    trailing window the rolling metrics report over, ``slo_wait_s`` the
    queueing-delay bound SLO attainment is measured against, and
    ``max_pending`` the ingest back-pressure bound (arrivals accepted
    but not yet fired).  Like every other spec, it is frozen, strict
    about unknown keys, and round-trips through ``from_dict``/
    ``to_dict`` so :func:`spec_digest` content-addresses it.
    """

    name: str
    system: SystemSpec
    machine_nodes: int
    horizon_s: float
    window_s: float = 3600.0
    slo_wait_s: float = 3600.0
    max_pending: int = 100_000
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("service spec needs a non-empty name")
        object.__setattr__(self, "system", SystemSpec.from_value(self.system))
        object.__setattr__(self, "machine_nodes", int(self.machine_nodes))
        object.__setattr__(self, "horizon_s", float(self.horizon_s))
        object.__setattr__(self, "window_s", float(self.window_s))
        object.__setattr__(self, "slo_wait_s", float(self.slo_wait_s))
        object.__setattr__(self, "max_pending", int(self.max_pending))
        if self.machine_nodes <= 0:
            raise ValueError(
                f"service {self.name!r}: machine_nodes must be positive"
            )
        for key, value in (
            ("horizon_s", self.horizon_s), ("window_s", self.window_s)
        ):
            if not 0 < value < math.inf:
                raise ValueError(
                    f"service {self.name!r}: {key} must be positive and "
                    f"finite, got {value}"
                )
        if not self.slo_wait_s >= 0:
            raise ValueError(
                f"service {self.name!r}: slo_wait_s must be non-negative, "
                f"got {self.slo_wait_s}"
            )
        if self.max_pending <= 0:
            raise ValueError(
                f"service {self.name!r}: max_pending must be positive"
            )

    @classmethod
    def from_dict(cls, data: Mapping) -> "ServiceSpec":
        if not isinstance(data, Mapping):
            raise TypeError(
                f"service spec must be a mapping, got {type(data).__name__}"
            )
        _check_keys(
            "service spec", data,
            ("name", "system", "machine_nodes", "horizon_s", "window_s",
             "slo_wait_s", "max_pending", "description"),
        )
        missing = {"name", "system", "machine_nodes", "horizon_s"} - set(data)
        if missing:
            raise ValueError(
                f"service spec is missing required key(s) {sorted(missing)}"
            )
        return cls(
            name=data["name"],
            system=SystemSpec.from_value(data["system"]),
            machine_nodes=data["machine_nodes"],
            horizon_s=data["horizon_s"],
            window_s=data.get("window_s", 3600.0),
            slo_wait_s=data.get("slo_wait_s", 3600.0),
            max_pending=data.get("max_pending", 100_000),
            description=data.get("description", ""),
        )

    def to_dict(self) -> dict:
        out: dict[str, Any] = {
            "name": self.name,
            "system": self.system.to_dict(),
            "machine_nodes": self.machine_nodes,
            "horizon_s": self.horizon_s,
        }
        if self.window_s != 3600.0:
            out["window_s"] = self.window_s
        if self.slo_wait_s != 3600.0:
            out["slo_wait_s"] = self.slo_wait_s
        if self.max_pending != 100_000:
            out["max_pending"] = self.max_pending
        if self.description:
            out["description"] = self.description
        return out


def spec_digest(spec: Union[ExperimentSpec, ServiceSpec]) -> str:
    """Stable content address of a spec (canonical-JSON SHA-256 prefix).

    Deterministic across processes and platforms: the digest covers the
    sorted-key canonical JSON of the spec's ``to_dict``, nothing
    ambient.
    """
    return hashlib.sha256(
        canonical_json(spec.to_dict()).encode()
    ).hexdigest()[:32]


def _load_structured_file(path: Union[str, Path]) -> tuple[Path, dict]:
    """Read a ``.toml`` or ``.json`` file into a plain dict."""
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"spec file {path} does not exist")
    if path.suffix == ".toml":
        try:
            import tomllib
        except ModuleNotFoundError:  # pragma: no cover - Python < 3.11
            try:
                import tomli as tomllib  # type: ignore[no-redef]
            except ModuleNotFoundError:
                raise RuntimeError(
                    "TOML spec files need Python >= 3.11 (tomllib) or the "
                    "'tomli' package; JSON spec files work on any version"
                ) from None

        with path.open("rb") as fh:
            data = tomllib.load(fh)
    elif path.suffix == ".json":
        data = json.loads(path.read_text())
    else:
        raise ValueError(
            f"spec file {path} must be .toml or .json, not {path.suffix!r}"
        )
    return path, data


def load_spec_file(path: Union[str, Path]) -> ExperimentSpec:
    """Parse a ``.toml`` or ``.json`` experiment spec file."""
    path, data = _load_structured_file(path)
    try:
        return ExperimentSpec.from_dict(data)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"invalid spec file {path}: {exc}") from exc


def load_service_file(path: Union[str, Path]) -> ServiceSpec:
    """Parse a ``.toml`` or ``.json`` service spec file."""
    path, data = _load_structured_file(path)
    try:
        return ServiceSpec.from_dict(data)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"invalid service spec file {path}: {exc}") from exc
