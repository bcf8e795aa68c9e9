"""Whole-engine snapshot/restore with mid-run branching.

An :class:`EngineSnapshot` freezes an entire simulation *world* — the
engine (heap entries, clock, executed/cancelled counters), every timer
riding on it (grid epoch, armed tick index, suspension state), the seeded
RNG streams, cluster/ledger/billing state and the runners' server/queue
state — as protocol-5 pickle bytes of the world's root object.
:meth:`EngineSnapshot.restore` unpickles those bytes, so a single
snapshot can branch arbitrarily many what-if continuations, each with its
own disjoint mutable state.  Taking a snapshot is one ``dump``; each
restore is one ``load``.

Determinism argument
--------------------
The engine is a pure function of its heap and clock: events fire in
``(time, priority, seq)`` order and scheduling happens only from event
callbacks.  Pickling maps every reachable object — including the
callables inside heap entries, which is why they must be *bound methods*
or :class:`functools.partial` objects (both pickle their ``__self__``/args
with the world) rather than closures or lambdas.  Pickle refuses those
wherever they sit in the world, on the heap or in any attribute, and
:func:`snapshot_world` reports the refusal as :class:`SnapshotAliasError`.

Jobs and completion logs
------------------------
The pickler's ``reducer_override`` hook sees every object outside
pickle's fast paths (not ints, floats, strings, or objects already
written) and writes three kinds of them its own way:

* a :class:`~repro.workloads.job.Job` that is COMPLETED at the snapshot
  instant is not pickled: it is written as an index into the snapshot's
  list of such jobs, and every restore hands back the very same object;
* any other job is written as one call over its fields
  (:func:`~repro.workloads.job.job_fields` and
  :func:`~repro.workloads.job.job_from_fields`), not as a state dict;
* a :class:`~repro.workloads.job.CompletionLog` (a system's completed
  jobs, or a service's per-completion metrics) is written as an index
  into the snapshot's tuple copies of the logs, and every restore builds
  a fresh log from its tuple.

Pickle memoizes what the hook reduces, so an object the world reaches
twice (a job in a queue and in a workflow) is written once and restores
as one object.  A long-lived world's history is therefore never copied,
and a snapshot's cost is the size of its *open* state.  Sharing is safe
because COMPLETED is terminal: ``mark_queued``, ``mark_running``,
``mark_completed`` and ``mark_requeued`` all refuse a completed job, and
nothing else writes a job's fields, so the original run and every branch
read the same frozen ``(state, start_time, finish_time)``.  A log only
grows by entries that never change again (such jobs, floats, bools), and
its tuple is copied at snapshot time, so entries the live run or a branch
appends later never reach a restore.

The shared jobs and log tuples live beside the bytes, not in them: the
bytes name module-level stand-ins that the restore's ``find_class``
resolves to the snapshot's lists, and that refuse a plain
:func:`pickle.loads`.  ``find_class`` returns callables over those lists,
never methods of the unpickler: the unpickler's memo keeps them, and a
method would tie every restored object into a reference cycle that only
a cyclic collection frees.

Two pieces of process-global state survive on purpose:

* ``Lease._ids`` — the class-level lease id counter.  Only the *relative*
  order of lease ids is observable (the provider shrinks the
  youngest-first), and ids allocated after a restore are always larger
  than any pre-snapshot id, so branches bill identically even though
  their absolute ids differ from an uninterrupted run's.
* interned immutables (strings, small ints) — shared by design.
"""

from __future__ import annotations

import io
import pickle
from functools import partial
from typing import Any, Optional

from repro.simkit.engine import SimulationEngine
from repro.workloads.job import (
    CompletionLog,
    Job,
    JobState,
    job_fields,
    job_from_fields,
)


class SnapshotAliasError(RuntimeError):
    """The world holds an object a snapshot cannot carry (a closure, ...)."""


_PLAIN_LOAD = (
    "these are EngineSnapshot bytes: the completed jobs and completion logs "
    "they refer to are kept beside them, so restore them through "
    "EngineSnapshot.restore(), not pickle.loads"
)


# What the bytes call for a shared COMPLETED job and for a completion log,
# each with an index; a restore resolves both names to its own lists.
def _shared_job(index: int) -> Job:
    raise pickle.UnpicklingError(_PLAIN_LOAD)


def _completion_log(index: int) -> CompletionLog:
    raise pickle.UnpicklingError(_PLAIN_LOAD)


def _fresh_log(logs: list[tuple[Job, ...]], index: int) -> CompletionLog:
    return CompletionLog(logs[index])


class _WorldPickler(pickle.Pickler):
    """Pickles a world: COMPLETED jobs and completion logs by reference,
    every other job as its fields."""

    def __init__(self, file: io.BytesIO) -> None:
        super().__init__(file, protocol=5)
        #: the shared COMPLETED jobs, in reference order
        self.shared: list[Job] = []
        #: one tuple copy per completion log, in reference order
        self.logs: list[tuple[Job, ...]] = []

    def reducer_override(self, obj: Any) -> Any:
        cls = type(obj)
        if cls is Job:
            if obj.state is JobState.COMPLETED:
                self.shared.append(obj)
                return _shared_job, (len(self.shared) - 1,)
            return job_from_fields, job_fields(obj)
        if cls is CompletionLog:
            self.logs.append(tuple(obj))
            return _completion_log, (len(self.logs) - 1,)
        return NotImplemented


class _WorldUnpickler(pickle.Unpickler):
    """Loads snapshot bytes against the snapshot's shared jobs and logs."""

    def __init__(
        self, data: bytes, shared: list[Job], logs: list[tuple[Job, ...]]
    ) -> None:
        super().__init__(io.BytesIO(data))
        # bound to the lists, not to self (see the module docstring)
        self._resolved = {
            "_shared_job": shared.__getitem__,
            "_completion_log": partial(_fresh_log, logs),
        }

    def find_class(self, module: str, name: str) -> Any:
        if module == __name__ and name in self._resolved:
            return self._resolved[name]
        return super().find_class(module, name)


class EngineSnapshot:
    """A simulation world frozen at one instant, as pickle bytes.

    Bytes are immutable, the shared jobs are COMPLETED (terminal) and the
    log tuples are copies, so neither the original run nor any branch can
    change what a later :meth:`restore` returns; each builds a fresh world
    from the bytes.
    """

    __slots__ = ("_data", "_shared", "_logs", "time", "label")

    def __init__(
        self,
        data: bytes,
        shared: list[Job],
        logs: list[tuple[Job, ...]],
        time: float,
        label: str = "",
    ) -> None:
        self._data = data
        self._shared = shared
        self._logs = logs
        self.time = time
        self.label = label

    def restore(self) -> Any:
        """A fresh copy of the world, ready to continue; the jobs that
        were COMPLETED at the snapshot instant are shared, not copied, and
        each completion log is a fresh log of the same jobs."""
        return _WorldUnpickler(self._data, self._shared, self._logs).load()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        tag = f" {self.label!r}" if self.label else ""
        entries = sum(len(log) for log in self._logs)
        return (
            f"<EngineSnapshot{tag} t={self.time:.3f} {len(self._data)} B "
            f"shared_jobs={len(self._shared)} logs={len(self._logs)} "
            f"log_entries={entries}>"
        )


def snapshot_world(
    world: Any,
    engine: Optional[SimulationEngine] = None,
    label: str = "",
) -> EngineSnapshot:
    """Snapshot ``world`` (anything whose ``engine`` attribute — or the
    ``engine`` argument — is the simulation engine the world runs on)."""
    if engine is None:
        engine = world.engine
    if engine._disposed:
        raise engine._disposed_error()
    if engine._running:
        raise RuntimeError(
            "cannot fork while the engine is running; fork between "
            "run()/advance_before() calls"
        )
    buffer = io.BytesIO()
    pickler = _WorldPickler(buffer)
    try:
        pickler.dump(world)
    except (pickle.PicklingError, TypeError, AttributeError) as exc:
        raise SnapshotAliasError(
            f"cannot snapshot the world at t={engine.now}: {exc}; keep "
            f"closures and lambdas out of simulation state (use a bound "
            f"method or functools.partial) so branches do not alias the "
            f"original run"
        ) from exc
    return EngineSnapshot(
        buffer.getvalue(), pickler.shared, pickler.logs, engine.now, label
    )


def fork_world(world: Any, engine: Optional[SimulationEngine] = None) -> Any:
    """One live branch of ``world``: ``snapshot_world(world).restore()``.

    Use it for one branch (:meth:`~repro.systems.base.LiveRun.fork`);
    keep an :class:`EngineSnapshot` when several branches start from one
    instant, as a what-if does, so the world is pickled once.
    """
    return snapshot_world(world, engine).restore()
