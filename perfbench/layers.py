"""Layer tracing for the benchmark's traced run.

:func:`install` replaces the public functions of each ``repro`` layer
(``simkit``, ``core``, ``scheduling``, ``workloads``, ``cluster``,
``provisioning``, ``systems``, ``serving``) with :class:`Span` wrappers
that count calls and time them.  Nothing in ``repro`` itself changes: the
wrappers are installed from the benchmark's own files, in the benchmark's
own process.

A span's *self time* is its duration minus the part its child spans
cover.  Private callbacks the engine fires (``REServer._scan``,
``._finish``, timer ticks) are not wrapped, so their time lands in the
self time of the engine loop that fired them, ``simkit.loop_self_s``.

Wrappers are callable objects, not closures: ``FixedLiveRun`` schedules
bound ``REServer.submit_job`` methods as events, and the snapshot layer
refuses to fork a heap whose bound methods wrap a closure.  A
``MethodType`` over a :class:`Span` passes that guard and deep-copies
through the memo like any bound method, while the span itself is shared
(copied as an atom, like a function).
"""

from __future__ import annotations

import statistics
import sys
import types
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = (
    "simkit", "core", "scheduling", "workloads",
    "cluster", "provisioning", "systems", "serving",
)


class Tracer:
    """Per-key call counts, self and inclusive times, plus layer counters."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.stack: list[list[float]] = []
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.incl_s: defaultdict = defaultdict(float)
        #: counters read at span boundaries (events, grants, picks, ...)
        self.counts: Counter = Counter()
        self.queue_lens: list[int] = []
        self._loops: dict[int, list[int]] = {}


class Span:
    """A traced stand-in for one function or method (see module doc)."""

    __slots__ = ("fn", "key", "tracer", "enter", "leave")

    def __init__(self, tracer, key, fn, enter=None, leave=None) -> None:
        self.fn = fn
        self.key = key
        self.tracer = tracer
        self.enter = enter
        self.leave = leave

    def __get__(self, obj, owner=None):
        return self if obj is None else types.MethodType(self, obj)

    def __deepcopy__(self, memo):
        return self

    def __call__(self, *args, **kwargs):
        tracer = self.tracer
        state = self.enter(tracer, args, kwargs) if self.enter else None
        stack = tracer.stack
        child = [0.0]
        stack.append(child)
        result = None
        t0 = perf_counter()
        try:
            result = self.fn(*args, **kwargs)
            return result
        finally:
            dt = perf_counter() - t0
            stack.pop()
            if stack:
                stack[-1][0] += dt
            key = self.key
            tracer.calls[key] += 1
            tracer.incl_s[key] += dt
            tracer.self_s[key] += dt - child[0]
            if self.leave:
                self.leave(tracer, args, result, state)


# --------------------------------------------------------------------- #
# counters read around spans
# --------------------------------------------------------------------- #
def _loop_enter(tracer, args, kwargs):
    # events are read around the outermost loop call on each engine
    # (advance_before calls step, which is wrapped too)
    engine = args[0]
    entry = tracer._loops.setdefault(id(engine), [0, engine.executed_events])
    entry[0] += 1
    return entry


def _loop_leave(tracer, args, result, entry):
    entry[0] -= 1
    if entry[0] == 0:
        engine = args[0]
        tracer.counts["events"] += engine.executed_events - entry[1]
        del tracer._loops[id(engine)]


def _cancel_enter(tracer, args, kwargs):
    return args[0].compactions


def _cancel_leave(tracer, args, result, before):
    tracer.counts["compactions"] += args[0].compactions - before


def _select_enter(tracer, args, kwargs):
    queued = args[2] if len(args) > 2 else kwargs["queued"]
    tracer.queue_lens.append(len(queued))


def _count_truthy(counter_name):
    def leave(tracer, args, result, state):
        if result:
            tracer.counts[counter_name] += 1
    return leave


def _select_leave(tracer, args, result, state):
    tracer.counts["picks"] += len(result or ())


# --------------------------------------------------------------------- #
# installation
# --------------------------------------------------------------------- #
def _subclasses(base) -> list[type]:
    found, todo = [], [base]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub not in found:
                found.append(sub)
                todo.append(sub)
    return found


def _wrap_method(tracer, cls, name, key, enter=None, leave=None) -> None:
    fn = cls.__dict__.get(name)
    if fn is not None:
        setattr(cls, name, Span(tracer, key, fn, enter, leave))


def _wrap_function(tracer, module, name, key, enter=None, leave=None) -> None:
    """Wrap a module-level function everywhere ``repro`` bound it by name."""
    original = getattr(module, name)
    span = Span(tracer, key, original, enter, leave)
    for mod in list(sys.modules.values()):
        if (
            getattr(mod, "__name__", "").startswith("repro")
            and getattr(mod, name, None) is original
        ):
            setattr(mod, name, span)


def install() -> Tracer:
    """Wrap every traced public function; returns the shared tracer."""
    import repro.provisioning.runner  # noqa: F401  (PooledQueueLiveRun)
    import repro.scheduling  # noqa: F401  (every Scheduler subclass)
    import repro.systems  # noqa: F401  (every LiveRun subclass)
    from repro.cluster.provision import ResourceProvisionService
    from repro.core.servers import REServer
    from repro.experiments import perfscale
    from repro.provisioning.billing import BillingMeter
    from repro.scheduling.base import Scheduler
    from repro.serving import metrics as serving_metrics
    from repro.serving.service import SimulationService
    from repro.serving.whatif import WhatIfEngine
    from repro.simkit import fluid, snapshot
    from repro.simkit.engine import SimulationEngine
    from repro.systems.base import LiveRun
    from repro.workloads import store
    from repro.workloads.workflow import Workflow

    t = Tracer()
    for name in ("run", "step", "advance_before"):
        _wrap_method(t, SimulationEngine, name, "simkit.loop",
                     _loop_enter, _loop_leave)
    for name in ("schedule_at", "schedule_batch"):
        _wrap_method(t, SimulationEngine, name, "simkit.schedule")
    _wrap_method(t, SimulationEngine, "cancel", "simkit.cancel",
                 _cancel_enter, _cancel_leave)
    for name in ("fork_world", "snapshot_world"):
        _wrap_function(t, snapshot, name, "simkit.fork")
    _wrap_function(t, fluid, "try_fluid_run", "simkit.fluid",
                   leave=_count_truthy("fluid_engaged"))

    for name in ("submit_job", "submit_workflow"):
        _wrap_method(t, REServer, name, "core.submit")
    _wrap_method(t, REServer, "dispatch", "core.dispatch",
                 leave=_count_truthy("dispatch_useful"))

    for cls in _subclasses(Scheduler):
        _wrap_method(t, cls, "select", "scheduling.select",
                     _select_enter, _select_leave)

    _wrap_method(t, ResourceProvisionService, "request", "cluster.request",
                 leave=_count_truthy("granted"))
    _wrap_method(t, ResourceProvisionService, "release", "cluster.release")

    for cls in _subclasses(BillingMeter):
        _wrap_method(t, cls, "charge", "provisioning.charge")

    for cls in _subclasses(LiveRun):
        _wrap_method(t, cls, "__init__", "systems.build")
        _wrap_method(t, cls, "finish", "systems.finish")

    for name in ("submit", "submit_batch"):
        _wrap_method(t, SimulationService, name, "serving.submit")
    _wrap_method(t, SimulationService, "advance_to", "serving.advance")
    _wrap_function(t, serving_metrics, "collect_rolling", "serving.rolling")
    _wrap_method(t, WhatIfEngine, "what_if", "serving.whatif")

    for name in ("ready_tasks", "completed", "clone"):
        _wrap_method(t, Workflow, name, f"workloads.{name}")
    for name in ("paper_trace", "montage_workflow"):
        _wrap_function(t, store, name, "workloads.generate")
    _wrap_function(t, perfscale, "build_uniform_trace", "workloads.generate")
    return t


# --------------------------------------------------------------------- #
# per-layer metrics
# --------------------------------------------------------------------- #
#: name -> (unit, better); the order is the report order.
METRICS = {
    "workloads.ready_tasks_calls": ("count", "lower"),
    "workloads.ready_tasks_self_s": ("s", "lower"),
    "workloads.completed_calls": ("count", "lower"),
    "workloads.completed_self_s": ("s", "lower"),
    "workloads.clone_s": ("s", "lower"),
    "workloads.generate_s": ("s", "lower"),
    "simkit.events": ("count", "lower"),
    "simkit.events_per_job": ("events/job", "lower"),
    "simkit.loop_self_s": ("s", "lower"),
    "simkit.schedule_calls": ("count", "lower"),
    "simkit.cancel_calls": ("count", "lower"),
    "simkit.compactions": ("count", "lower"),
    "simkit.fork_calls": ("count", "lower"),
    "simkit.fork_s": ("s", "lower"),
    "simkit.fluid_calls": ("count", "lower"),
    "simkit.fluid_engaged_ratio": ("ratio", "higher"),
    "simkit.fluid_s": ("s", "lower"),
    "core.submit_calls": ("count", "lower"),
    "core.submit_self_s": ("s", "lower"),
    "core.dispatch_calls": ("count", "lower"),
    "core.dispatch_self_s": ("s", "lower"),
    "core.dispatch_useful_ratio": ("ratio", "higher"),
    "scheduling.select_calls": ("count", "lower"),
    "scheduling.select_self_s": ("s", "lower"),
    "scheduling.picks_per_select": ("jobs/call", "higher"),
    "scheduling.queue_len_p50": ("jobs", "lower"),
    "scheduling.queue_len_max": ("jobs", "lower"),
    "cluster.request_calls": ("count", "lower"),
    "cluster.request_self_s": ("s", "lower"),
    "cluster.grant_ratio": ("ratio", "higher"),
    "cluster.release_calls": ("count", "lower"),
    "cluster.release_self_s": ("s", "lower"),
    "provisioning.charge_calls": ("count", "lower"),
    "provisioning.charge_self_s": ("s", "lower"),
    "systems.build_s": ("s", "lower"),
    "systems.finish_self_s": ("s", "lower"),
    "serving.submit_self_s": ("s", "lower"),
    "serving.advance_self_s": ("s", "lower"),
    "serving.rolling_s": ("s", "lower"),
    "serving.whatif_self_s": ("s", "lower"),
    **{f"{layer}.self_share": ("ratio", "lower") for layer in LAYERS},
    "trace.overhead_ratio": ("ratio", "lower"),
}

#: Metrics that must repeat exactly between two traced passes.
EXACT = tuple(
    name for name, (unit, _) in METRICS.items()
    if unit != "s" and not name.endswith((".self_share", ".overhead_ratio"))
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    t: Tracer, jobs: int, wall_s: float, setup_self_s: dict
) -> dict[str, float]:
    """Every per-layer metric but ``trace.overhead_ratio``, for one pass.

    ``wall_s`` is the pass without its set-up; ``setup_self_s`` holds the
    self times the set-up spent, which the layer shares leave out.
    """
    calls, self_s, incl_s, counts = t.calls, t.self_s, t.incl_s, t.counts
    lens = t.queue_lens
    out = {
        "workloads.ready_tasks_calls": calls["workloads.ready_tasks"],
        "workloads.ready_tasks_self_s": self_s["workloads.ready_tasks"],
        "workloads.completed_calls": calls["workloads.completed"],
        "workloads.completed_self_s": self_s["workloads.completed"],
        "workloads.clone_s": incl_s["workloads.clone"],
        "workloads.generate_s": incl_s["workloads.generate"],
        "simkit.events": counts["events"],
        "simkit.events_per_job": _ratio(counts["events"], jobs),
        "simkit.loop_self_s": self_s["simkit.loop"],
        "simkit.schedule_calls": calls["simkit.schedule"],
        "simkit.cancel_calls": calls["simkit.cancel"],
        "simkit.compactions": counts["compactions"],
        "simkit.fork_calls": calls["simkit.fork"],
        "simkit.fork_s": incl_s["simkit.fork"],
        "simkit.fluid_calls": calls["simkit.fluid"],
        "simkit.fluid_engaged_ratio": _ratio(
            counts["fluid_engaged"], calls["simkit.fluid"]
        ),
        "simkit.fluid_s": incl_s["simkit.fluid"],
        "core.submit_calls": calls["core.submit"],
        "core.submit_self_s": self_s["core.submit"],
        "core.dispatch_calls": calls["core.dispatch"],
        "core.dispatch_self_s": self_s["core.dispatch"],
        "core.dispatch_useful_ratio": _ratio(
            counts["dispatch_useful"], calls["core.dispatch"]
        ),
        "scheduling.select_calls": calls["scheduling.select"],
        "scheduling.select_self_s": self_s["scheduling.select"],
        "scheduling.picks_per_select": _ratio(
            counts["picks"], calls["scheduling.select"]
        ),
        "scheduling.queue_len_p50": statistics.median(lens) if lens else 0,
        "scheduling.queue_len_max": max(lens, default=0),
        "cluster.request_calls": calls["cluster.request"],
        "cluster.request_self_s": self_s["cluster.request"],
        "cluster.grant_ratio": _ratio(
            counts["granted"], calls["cluster.request"]
        ),
        "cluster.release_calls": calls["cluster.release"],
        "cluster.release_self_s": self_s["cluster.release"],
        "provisioning.charge_calls": calls["provisioning.charge"],
        "provisioning.charge_self_s": self_s["provisioning.charge"],
        "systems.build_s": incl_s["systems.build"],
        "systems.finish_self_s": self_s["systems.finish"],
        "serving.submit_self_s": self_s["serving.submit"],
        "serving.advance_self_s": self_s["serving.advance"],
        "serving.rolling_s": incl_s["serving.rolling"],
        "serving.whatif_self_s": self_s["serving.whatif"],
    }
    for layer in LAYERS:
        layer_self = sum(
            s - setup_self_s.get(key, 0.0) for key, s in self_s.items()
            if key.startswith(layer + ".")
        )
        out[f"{layer}.self_share"] = _ratio(layer_self, wall_s)
    return out
