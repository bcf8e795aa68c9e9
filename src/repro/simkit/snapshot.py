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

Shared completed jobs
---------------------
A :class:`~repro.workloads.job.Job` that is COMPLETED at the snapshot
instant is not pickled: the pickler emits it as a persistent id (an index
into the snapshot's list of such jobs, one entry per object however often
the world reaches it), and every restore hands back the very same object.
A long-lived world's history is therefore never copied, and a snapshot's
cost is the size of its *open* state.  This is safe because COMPLETED is
terminal: ``mark_queued``, ``mark_running``, ``mark_completed`` and
``mark_requeued`` all refuse a completed job, and nothing else writes a
job's fields, so the original run and every branch read the same frozen
``(state, start_time, finish_time)``.

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
from typing import Any, Optional

from repro.simkit.engine import SimulationEngine
from repro.workloads.job import Job, JobState


class SnapshotAliasError(RuntimeError):
    """The world holds an object a snapshot cannot carry (a closure, ...)."""


class _WorldPickler(pickle.Pickler):
    """Pickles a world, passing its COMPLETED jobs by reference."""

    def __init__(self, file: io.BytesIO) -> None:
        super().__init__(file, protocol=5)
        #: the completed jobs, in persistent-id order
        self.shared: list[Job] = []
        self._index: dict[int, int] = {}

    def persistent_id(self, obj: Any) -> Optional[int]:
        if type(obj) is Job and obj.state is JobState.COMPLETED:
            index = self._index.get(id(obj))
            if index is None:
                index = self._index[id(obj)] = len(self.shared)
                self.shared.append(obj)
            return index
        return None


class EngineSnapshot:
    """A simulation world frozen at one instant, as pickle bytes.

    Bytes are immutable and the shared jobs are COMPLETED (terminal), so
    neither the original run nor any branch can change what a later
    :meth:`restore` returns; each builds a fresh world from the bytes.
    """

    __slots__ = ("_data", "_shared", "time", "label")

    def __init__(
        self, data: bytes, shared: list[Job], time: float, label: str = ""
    ) -> None:
        self._data = data
        self._shared = shared
        self.time = time
        self.label = label

    def restore(self) -> Any:
        """A fresh copy of the world, ready to continue; the jobs that
        were COMPLETED at the snapshot instant are shared, not copied."""
        unpickler = pickle.Unpickler(io.BytesIO(self._data))
        unpickler.persistent_load = self._shared.__getitem__
        return unpickler.load()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        tag = f" {self.label!r}" if self.label else ""
        return (
            f"<EngineSnapshot{tag} t={self.time:.3f} {len(self._data)} B "
            f"shared_jobs={len(self._shared)}>"
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
    return EngineSnapshot(buffer.getvalue(), pickler.shared, engine.now, label)


def fork_world(world: Any, engine: Optional[SimulationEngine] = None) -> Any:
    """One live branch of ``world``: ``snapshot_world(world).restore()``.

    Use it when branches are consumed immediately (prefix-shared sweeps);
    keep an :class:`EngineSnapshot` when several branches start from one
    instant, so the world is pickled once.
    """
    return snapshot_world(world, engine).restore()
