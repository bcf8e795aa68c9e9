"""The component registry: every pluggable piece under a string key.

The simulator is assembled from pluggable pieces — schedulers,
provisioning policies, billing meters, resource-management policies,
workload generators, system runners and whole-experiment analyses — and
before this module each kind kept its own ad-hoc name table (``SCHEDULER_REGISTRY``,
``METER_FACTORIES``, ``policy_catalog()``, the trace-store vocabulary,
...).  The :class:`ComponentRegistry` unifies them: components
*self-register* at import of their home module under ``(kind, name)``
with a declared parameter schema, so the whole catalog is introspectable
(``repro-experiments list-components``) and the spec layer
(:mod:`repro.api.spec`) can materialize any composition from plain data.

This module is deliberately dependency-free (no ``repro`` imports): the
subsystem modules that register components import *it*, never the other
way round, so registration can live next to each component without import
cycles.  :func:`default_components` imports
:mod:`repro.api.components`, which pulls in every registering module —
call it (rather than touching :data:`DEFAULT_COMPONENTS` directly)
whenever the full catalog is needed.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Mapping, Optional

#: The component kinds the spec layer composes (fixed vocabulary: an
#: unknown kind is a typo, not an extension point).
KINDS = (
    "scheduler",
    "provisioning-policy",
    "billing-meter",
    "policy",
    "workload",
    "system",
    "analysis",
    "failure-model",
)

#: Sentinel for "parameter has no default" (``None`` is a real default).
REQUIRED = object()


@dataclass(frozen=True)
class Param:
    """One declared parameter of a component factory."""

    name: str
    default: Any = REQUIRED
    annotation: str = ""

    @property
    def required(self) -> bool:
        return self.default is REQUIRED

    def describe(self) -> str:
        if self.required:
            return f"{self.name} (required)"
        return f"{self.name}={self.default!r}"


def params_from_signature(
    factory: Callable, skip: Iterable[str] = ()
) -> tuple[Param, ...]:
    """Introspect a factory's keyword parameters into :class:`Param`s.

    ``skip`` names positional collaborators (``bundle``, ``engine``,
    ``seed``, ...) that the runtime supplies rather than the spec author.
    ``**kwargs`` catch-alls are omitted — they carry no schema.
    """
    skip = set(skip)
    params = []
    for p in inspect.signature(factory).parameters.values():
        if p.name in skip or p.kind in (
            inspect.Parameter.VAR_POSITIONAL,
            inspect.Parameter.VAR_KEYWORD,
        ):
            continue
        annotation = "" if p.annotation is inspect.Parameter.empty else str(
            p.annotation
        )
        default = REQUIRED if p.default is inspect.Parameter.empty else p.default
        params.append(Param(name=p.name, default=default, annotation=annotation))
    return tuple(params)


@dataclass(frozen=True)
class Component:
    """One registered component: a named, parameterized factory."""

    kind: str
    name: str
    factory: Callable
    params: tuple[Param, ...] = ()
    description: str = ""
    #: names the runtime injects (not spec-settable); kept for doc output
    injected: tuple[str, ...] = ()

    def param_names(self) -> set[str]:
        return {p.name for p in self.params}

    def validate_params(
        self, params: Mapping[str, Any], require: bool = False
    ) -> None:
        """Reject unknown parameter names with a self-describing error.

        With ``require=True`` also reject *missing* required parameters —
        the spec-validation mode, where failing at parse time beats a
        ``TypeError`` deep inside a simulation.
        """
        unknown = set(params) - self.param_names()
        if unknown:
            raise ValueError(
                f"{self.kind} component {self.name!r} has no parameter(s) "
                f"{sorted(unknown)}; known: {sorted(self.param_names())}"
            )
        if require:
            missing = [
                p.name for p in self.params
                if p.required and p.name not in params
            ]
            if missing:
                raise ValueError(
                    f"{self.kind} component {self.name!r} is missing "
                    f"required parameter(s) {missing}"
                )

    def create(self, **params: Any) -> Any:
        """Instantiate with validated keyword parameters."""
        self.validate_params(params)
        return self.factory(**params)

    def to_row(self) -> dict:
        """Flat projection for the ``list-components`` table."""
        return {
            "kind": self.kind,
            "name": self.name,
            "params": ", ".join(p.describe() for p in self.params) or "—",
            "description": self.description,
        }

    def to_json(self) -> dict:
        """Structured projection for ``list-components --json``."""
        return {
            "kind": self.kind,
            "name": self.name,
            "description": self.description,
            "params": [
                {"name": p.name, "required": True}
                if p.required
                else {"name": p.name, "required": False, "default": p.default}
                for p in self.params
            ],
        }


class ComponentRegistry:
    """``(kind, name)`` → :class:`Component`, with validation and listing."""

    def __init__(self) -> None:
        self._components: dict[tuple[str, str], Component] = {}

    # ------------------------------------------------------------------ #
    def register(
        self,
        kind: str,
        name: str,
        factory: Optional[Callable] = None,
        *,
        params: Optional[Iterable[Param]] = None,
        skip_params: Iterable[str] = (),
        description: str = "",
    ) -> Callable:
        """Register ``factory`` under ``(kind, name)``.

        Usable directly or as a decorator (``@register("workload", "x")``).
        ``params`` declares the schema explicitly; otherwise it is
        introspected from the factory signature minus ``skip_params``
        (the collaborators the runtime injects).
        """
        if factory is None:  # decorator form
            def decorate(fn: Callable) -> Callable:
                self.register(
                    kind, name, fn, params=params, skip_params=skip_params,
                    description=description,
                )
                return fn

            return decorate

        if kind not in KINDS:
            raise ValueError(f"unknown component kind {kind!r}; known: {list(KINDS)}")
        key = (kind, name)
        if key in self._components:
            raise ValueError(f"{kind} component {name!r} already registered")
        doc = (description or (factory.__doc__ or "")).strip().splitlines()
        self._components[key] = Component(
            kind=kind,
            name=name,
            factory=factory,
            params=tuple(params) if params is not None
            else params_from_signature(factory, skip=skip_params),
            description=doc[0] if doc else "",
            injected=tuple(skip_params),
        )
        return factory

    # ------------------------------------------------------------------ #
    def get(self, kind: str, name: str) -> Component:
        try:
            return self._components[(kind, name)]
        except KeyError:
            known = self.names(kind)
            hint = f"known {kind} components: {known}" if known else (
                f"no {kind} components registered"
                if kind in KINDS
                else f"unknown kind {kind!r}; known kinds: {list(KINDS)}"
            )
            raise KeyError(f"unknown {kind} component {name!r}; {hint}") from None

    def create(self, kind: str, name: str, **params: Any) -> Any:
        """Instantiate the named component with validated parameters."""
        return self.get(kind, name).create(**params)

    def __contains__(self, key: tuple[str, str]) -> bool:
        return key in self._components

    def names(self, kind: str) -> list[str]:
        return sorted(n for k, n in self._components if k == kind)

    def kinds(self) -> list[str]:
        return [k for k in KINDS if any(key[0] == k for key in self._components)]

    def components(self, kind: Optional[str] = None) -> list[Component]:
        """All components (of one kind), ordered by (kind, name)."""
        keys = sorted(
            self._components,
            key=lambda key: (KINDS.index(key[0]), key[1]),
        )
        return [
            self._components[key]
            for key in keys
            if kind is None or key[0] == kind
        ]

    def __len__(self) -> int:
        return len(self._components)


#: The process-wide registry the built-in components populate on import of
#: their home modules (see :func:`default_components`).
DEFAULT_COMPONENTS = ComponentRegistry()

#: Registration hook bound to the default registry — what subsystem
#: modules import: ``from repro.api.registry import register_component``.
register_component = DEFAULT_COMPONENTS.register


def default_components() -> ComponentRegistry:
    """The default registry with every built-in component loaded."""
    import repro.api.components  # noqa: F401  (registers on import)

    return DEFAULT_COMPONENTS
