"""Job and trace data model.

A :class:`Job` is the unit every emulated system schedules: an HTC batch job
(independent, sized in nodes) or one task of an MTC workflow (size 1 node in
the Montage evaluation, with dependencies).  A :class:`Trace` is an ordered
collection of jobs plus the machine context they were recorded on.

Jobs carry *immutable workload facts* (submit time, size, runtime,
dependencies) set by generators/parsers, and *mutable execution state*
(state, start/finish time) written by the simulators through the
``mark_*`` transitions.  COMPLETED is terminal: no transition leaves it, so
a completed job is frozen (world snapshots share such jobs between
branches instead of copying them).  A replay takes fresh jobs
(:meth:`Trace.copy`, :func:`clone_job`) rather than rewinding used ones.

Columnar storage
----------------
:class:`TraceArrays` is the canonical in-memory form of a trace's immutable
facts: one numpy column per field.  Generators emit it directly (no
per-job Python objects on the generation path), the
:class:`~repro.workloads.store.TraceStore` shares it across sweep points
and pool workers, and aggregate queries (total work, max size, subsetting)
run vectorized on it.  :class:`Job` objects exist only where a simulator
actually schedules them: a :class:`Trace` built
:meth:`from arrays <Trace.from_arrays>` materializes its job list lazily —
and each :meth:`Trace.copy` re-materializes fresh jobs from the shared,
immutable columns instead of copying Python objects.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np


class JobState(enum.Enum):
    """Lifecycle of a job inside a simulated system."""

    PENDING = "pending"  # created, not yet submitted to any system
    QUEUED = "queued"  # submitted, waiting for resources / dependencies
    RUNNING = "running"
    COMPLETED = "completed"


@dataclass
class Job:
    """One schedulable job (or workflow task).

    Parameters
    ----------
    job_id:
        Unique within a trace/workflow.
    submit_time:
        Seconds from trace start at which the job enters the system.  For
        workflow tasks this is the workflow submission instant; dependency
        readiness additionally gates execution.
    size:
        Number of nodes the job occupies while running (the evaluation
        normalizes every platform to one CPU per node, per §4.4).
    runtime:
        Execution duration in seconds once started.
    user_id:
        Submitting end user (DRP accounts per end user).
    task_type:
        Free-form label; Montage uses the transformation name
        (``mProjectPP``, ``mDiffFit``, ...), batch traces use ``batch``.
    workflow_id:
        Identifier of the enclosing workflow, or ``None`` for independent
        jobs.
    dependencies:
        Job ids (same trace) that must complete before this job may start.
    """

    job_id: int
    submit_time: float
    size: int
    runtime: float
    user_id: int = 0
    task_type: str = "batch"
    workflow_id: Optional[int] = None
    dependencies: tuple[int, ...] = ()

    # --- mutable execution state (frozen once COMPLETED) ---
    state: JobState = field(default=JobState.PENDING, compare=False)
    start_time: Optional[float] = field(default=None, compare=False)
    finish_time: Optional[float] = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ValueError(f"job {self.job_id}: size must be >= 1, got {self.size}")
        if self.runtime < 0:
            raise ValueError(
                f"job {self.job_id}: runtime must be >= 0, got {self.runtime}"
            )
        if self.submit_time < 0:
            raise ValueError(
                f"job {self.job_id}: submit_time must be >= 0, got {self.submit_time}"
            )
        self.dependencies = tuple(self.dependencies)

    # ------------------------------------------------------------------ #
    @property
    def work(self) -> float:
        """Node-seconds of computation (size × runtime)."""
        return self.size * self.runtime

    @property
    def wait_time(self) -> Optional[float]:
        """Queueing delay, available once the job has started."""
        if self.start_time is None:
            return None
        return self.start_time - self.submit_time

    @property
    def is_workflow_task(self) -> bool:
        return self.workflow_id is not None

    def mark_queued(self, now: float) -> None:
        if self.state not in (JobState.PENDING,):
            raise RuntimeError(f"job {self.job_id}: cannot queue from {self.state}")
        self.state = JobState.QUEUED

    def mark_running(self, now: float) -> None:
        if self.state is not JobState.QUEUED:
            raise RuntimeError(f"job {self.job_id}: cannot start from {self.state}")
        self.state = JobState.RUNNING
        self.start_time = now

    def mark_completed(self, now: float) -> None:
        if self.state is not JobState.RUNNING:
            raise RuntimeError(f"job {self.job_id}: cannot complete from {self.state}")
        self.state = JobState.COMPLETED
        self.finish_time = now

    def mark_requeued(self, now: float) -> None:
        """A node failure killed the job: back to the queue, start cleared.

        Submission facts are untouched (``submit_time`` keeps the original
        instant, so wait-time metrics count the full delay); how much work
        survives the kill is the server's checkpoint bookkeeping, not the
        job's.
        """
        if self.state is not JobState.RUNNING:
            raise RuntimeError(f"job {self.job_id}: cannot requeue from {self.state}")
        self.state = JobState.QUEUED
        self.start_time = None


def job_fields(job: Job) -> tuple:
    """A job's fields in declaration order: the argument tuple of
    :func:`job_from_fields`, which is how world snapshots write an open
    job (:mod:`repro.simkit.snapshot`)."""
    return (
        job.job_id, job.submit_time, job.size, job.runtime, job.user_id,
        job.task_type, job.workflow_id, job.dependencies,
        job.state, job.start_time, job.finish_time,
    )


def job_from_fields(
    job_id: int,
    submit_time: float,
    size: int,
    runtime: float,
    user_id: int,
    task_type: str,
    workflow_id: Optional[int],
    dependencies: tuple[int, ...],
    state: JobState,
    start_time: Optional[float],
    finish_time: Optional[float],
) -> Job:
    """The job :func:`job_fields` describes, execution state included.

    Skips the dataclass constructor and its validation: the fields come
    from a job that already passed it.
    """
    job = Job.__new__(Job)
    job.job_id = job_id
    job.submit_time = submit_time
    job.size = size
    job.runtime = runtime
    job.user_id = user_id
    job.task_type = task_type
    job.workflow_id = workflow_id
    job.dependencies = dependencies
    job.state = state
    job.start_time = start_time
    job.finish_time = finish_time
    return job


class CompletionLog(list):
    """Per-completion entries, in completion order, frozen once appended.

    A system's completed jobs (each appended right after its
    ``mark_completed``; COMPLETED is terminal) or a service's
    per-completion metrics (floats and bools): a log only ever grows by
    entries that never change again.  World snapshots rely on that: they
    carry a log as a reference to a tuple copy of its entries instead of
    pickling them one by one, and every restore starts a fresh log from
    that tuple.
    """

    __slots__ = ()


class TraceArrays:
    """Columnar (structure-of-arrays) storage for a trace's immutable facts.

    One numpy column per :class:`Job` fact, plus a small string vocabulary
    for task types and a flattened ragged representation for dependencies
    (``dep_flat``/``dep_offsets``, CSR-style; both empty for independent
    batch jobs).  Instances are treated as immutable once built: sharing
    one between traces, sweep points and (forked) pool workers is safe, and
    every consumer that needs mutable :class:`Job` objects materializes its
    own via :meth:`to_jobs`.
    """

    __slots__ = (
        "job_id", "submit", "size", "runtime", "user",
        "task_type_code", "task_types", "workflow_id", "workflow_col",
        "dep_flat", "dep_offsets",
    )

    def __init__(
        self,
        job_id: np.ndarray,
        submit: np.ndarray,
        size: np.ndarray,
        runtime: np.ndarray,
        user: Optional[np.ndarray] = None,
        task_type_code: Optional[np.ndarray] = None,
        task_types: tuple[str, ...] = ("batch",),
        workflow_id: Optional[int] = None,
        dep_flat: Optional[np.ndarray] = None,
        dep_offsets: Optional[np.ndarray] = None,
        workflow_col: Optional[np.ndarray] = None,
    ) -> None:
        n = len(job_id)
        self.job_id = np.ascontiguousarray(job_id, dtype=np.int64)
        self.submit = np.ascontiguousarray(submit, dtype=np.float64)
        self.size = np.ascontiguousarray(size, dtype=np.int64)
        self.runtime = np.ascontiguousarray(runtime, dtype=np.float64)
        self.user = (
            np.zeros(n, dtype=np.int64)
            if user is None
            else np.ascontiguousarray(user, dtype=np.int64)
        )
        self.task_type_code = (
            np.zeros(n, dtype=np.int64)
            if task_type_code is None
            else np.ascontiguousarray(task_type_code, dtype=np.int64)
        )
        self.task_types = tuple(task_types)
        #: the trace-wide workflow id (the common case: every job shares
        #: one value, possibly None).  Mixed traces carry ``workflow_col``
        #: instead: an int64 column with -1 encoding "no workflow".
        self.workflow_id = workflow_id
        self.workflow_col = (
            None
            if workflow_col is None
            else np.ascontiguousarray(workflow_col, dtype=np.int64)
        )
        if self.workflow_col is not None and len(self.workflow_col) != n:
            raise ValueError("workflow_col length disagrees with job count")
        self.dep_flat = (
            np.empty(0, dtype=np.int64)
            if dep_flat is None
            else np.ascontiguousarray(dep_flat, dtype=np.int64)
        )
        self.dep_offsets = (
            np.zeros(n + 1, dtype=np.int64)
            if dep_offsets is None
            else np.ascontiguousarray(dep_offsets, dtype=np.int64)
        )
        lengths = {
            len(self.submit), len(self.size), len(self.runtime),
            len(self.user), len(self.task_type_code),
        }
        if lengths != {n}:
            raise ValueError(f"column lengths disagree: {sorted(lengths | {n})}")
        if len(self.dep_offsets) != n + 1:
            raise ValueError("dep_offsets must have n_jobs + 1 entries")

    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self.job_id)

    @property
    def has_dependencies(self) -> bool:
        return len(self.dep_flat) > 0

    def validate(self) -> None:
        """Vectorized equivalent of the per-job/per-trace invariants."""
        if len(self) and int(self.size.min()) <= 0:
            bad = int(self.job_id[int(np.argmin(self.size))])
            raise ValueError(f"job {bad}: size must be >= 1")
        if len(self) and float(self.runtime.min()) < 0:
            bad = int(self.job_id[int(np.argmin(self.runtime))])
            raise ValueError(f"job {bad}: runtime must be >= 0")
        if len(self) and float(self.submit.min()) < 0:
            bad = int(self.job_id[int(np.argmin(self.submit))])
            raise ValueError(f"job {bad}: submit_time must be >= 0")
        ids = np.sort(self.job_id)
        if (ids[1:] == ids[:-1]).any():
            raise ValueError("duplicate job ids")
        codes = self.task_type_code
        if len(self) and not (
            0 <= int(codes.min()) and int(codes.max()) < len(self.task_types)
        ):
            raise ValueError("task_type_code out of vocabulary range")

    # ------------------------------------------------------------------ #
    # conversions
    # ------------------------------------------------------------------ #
    @classmethod
    def from_jobs(cls, jobs: Sequence[Job]) -> "TraceArrays":
        """Column-ize materialized jobs (facts only; execution state drops)."""
        n = len(jobs)
        vocab: dict[str, int] = {}
        codes = np.empty(n, dtype=np.int64)
        dep_offsets = np.zeros(n + 1, dtype=np.int64)
        dep_flat: list[int] = []
        wf_ids = {j.workflow_id for j in jobs}
        if len(wf_ids) <= 1:
            workflow_id = wf_ids.pop() if wf_ids else None
            workflow_col = None
        else:  # mixed-workflow trace: keep the per-job ids (-1 = None)
            workflow_id = None
            workflow_col = np.fromiter(
                (-1 if j.workflow_id is None else j.workflow_id for j in jobs),
                np.int64,
                n,
            )
        for i, j in enumerate(jobs):
            codes[i] = vocab.setdefault(j.task_type, len(vocab))
            dep_flat.extend(j.dependencies)
            dep_offsets[i + 1] = len(dep_flat)
        return cls(
            job_id=np.fromiter((j.job_id for j in jobs), np.int64, n),
            submit=np.fromiter((j.submit_time for j in jobs), np.float64, n),
            size=np.fromiter((j.size for j in jobs), np.int64, n),
            runtime=np.fromiter((j.runtime for j in jobs), np.float64, n),
            user=np.fromiter((j.user_id for j in jobs), np.int64, n),
            task_type_code=codes,
            task_types=tuple(vocab) or ("batch",),
            workflow_id=workflow_id,
            dep_flat=np.asarray(dep_flat, dtype=np.int64),
            dep_offsets=dep_offsets,
            workflow_col=workflow_col,
        )

    def to_jobs(self) -> list[Job]:
        """Materialize fresh, pristine :class:`Job` objects.

        The hot path of every replay: bypasses the dataclass constructor
        (per-field validation already ran vectorized in :meth:`validate`)
        and converts columns with ``tolist`` so each job carries plain
        Python scalars.
        """
        ids = self.job_id.tolist()
        submits = self.submit.tolist()
        sizes = self.size.tolist()
        runtimes = self.runtime.tolist()
        users = self.user.tolist()
        codes = self.task_type_code.tolist()
        types = self.task_types
        wf = self.workflow_id
        wf_col = (
            None if self.workflow_col is None else self.workflow_col.tolist()
        )
        pending = JobState.PENDING
        new = Job.__new__
        jobs: list[Job] = []
        append = jobs.append
        if self.has_dependencies:
            flat = self.dep_flat.tolist()
            offs = self.dep_offsets.tolist()
        for i in range(len(ids)):
            job = new(Job)
            job.job_id = ids[i]
            job.submit_time = submits[i]
            job.size = sizes[i]
            job.runtime = runtimes[i]
            job.user_id = users[i]
            job.task_type = types[codes[i]]
            if wf_col is None:
                job.workflow_id = wf
            else:
                wfi = wf_col[i]
                job.workflow_id = None if wfi == -1 else wfi
            job.dependencies = (
                tuple(flat[offs[i]:offs[i + 1]]) if self.has_dependencies else ()
            )
            job.state = pending
            job.start_time = None
            job.finish_time = None
            append(job)
        return jobs

    # ------------------------------------------------------------------ #
    # vectorized queries
    # ------------------------------------------------------------------ #
    def total_work(self) -> float:
        return float(np.sum(self.size * self.runtime))

    def max_size(self) -> int:
        return int(self.size.max()) if len(self) else 0

    def sorted_by_submit(self) -> "TraceArrays":
        """Rows ordered by (submit, job_id); self if already ordered."""
        order = np.lexsort((self.job_id, self.submit))
        if np.array_equal(order, np.arange(len(self))):
            return self
        return self.take(order)

    def take(self, indices: np.ndarray) -> "TraceArrays":
        """Row subset/permutation (dependencies re-flattened per row)."""
        if self.has_dependencies:
            offs = self.dep_offsets
            parts = [self.dep_flat[offs[i]:offs[i + 1]] for i in indices]
            dep_flat = (
                np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)
            )
            dep_offsets = np.zeros(len(indices) + 1, dtype=np.int64)
            np.cumsum([len(p) for p in parts], out=dep_offsets[1:])
        else:
            dep_flat = None
            dep_offsets = None
        return TraceArrays(
            job_id=self.job_id[indices],
            submit=self.submit[indices],
            size=self.size[indices],
            runtime=self.runtime[indices],
            user=self.user[indices],
            task_type_code=self.task_type_code[indices],
            task_types=self.task_types,
            workflow_id=self.workflow_id,
            dep_flat=dep_flat,
            dep_offsets=dep_offsets,
            workflow_col=(
                None if self.workflow_col is None else self.workflow_col[indices]
            ),
        )

    def shifted(self, dt: float) -> "TraceArrays":
        """A copy with ``submit + dt`` (used by window re-basing)."""
        out = self.take(np.arange(len(self)))
        out.submit = self.submit + dt
        return out

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<TraceArrays n={len(self)} types={len(self.task_types)} "
            f"deps={len(self.dep_flat)}>"
        )


class Trace:
    """An ordered job collection with machine context.

    Parameters
    ----------
    name:
        Human-readable label (``nasa-ipsc``, ``sdsc-blue``, ``montage``).
    jobs:
        Jobs sorted (or sortable) by submit time.
    machine_nodes:
        Node count of the platform the trace targets — also the fixed
        configuration the DCS/SSP systems use (per §4.4 the paper sizes
        them to the trace's maximum resource requirement).
    duration:
        Nominal trace period in seconds.  Metrics such as "completed jobs"
        are evaluated at this horizon.
    """

    def __init__(
        self,
        name: str,
        jobs: Iterable[Job],
        machine_nodes: int,
        duration: float,
        metadata: Optional[dict] = None,
    ) -> None:
        self.name = name
        self._jobs: Optional[list[Job]] = sorted(
            jobs, key=lambda j: (j.submit_time, j.job_id)
        )
        self._arrays: Optional[TraceArrays] = None
        self.machine_nodes = int(machine_nodes)
        self.duration = float(duration)
        self.metadata = dict(metadata or {})
        self._check_shape()
        ids = [j.job_id for j in self._jobs]
        if len(set(ids)) != len(ids):
            raise ValueError(f"trace {name!r}: duplicate job ids")
        oversized = [j.job_id for j in self._jobs if j.size > self.machine_nodes]
        if oversized:
            raise ValueError(
                f"trace {name!r}: jobs {oversized[:5]} exceed machine size "
                f"{self.machine_nodes}"
            )

    @classmethod
    def from_arrays(
        cls,
        name: str,
        arrays: TraceArrays,
        machine_nodes: int,
        duration: float,
        metadata: Optional[dict] = None,
        validated: bool = False,
    ) -> "Trace":
        """Build a trace on columnar storage; jobs materialize lazily.

        The rows are put in (submit, job_id) order and validated
        vectorized.  ``validated=True`` skips both and keeps ``arrays``
        as given: pass it only for another trace's arrays, which are
        checked and in that order already (:meth:`copy` does).  The
        arrays are shared, never copied — they are immutable by
        convention.
        """
        self = cls.__new__(cls)
        self.name = name
        self._jobs = None
        self._arrays = arrays if validated else arrays.sorted_by_submit()
        self.machine_nodes = int(machine_nodes)
        self.duration = float(duration)
        self.metadata = dict(metadata or {})
        self._check_shape()
        if not validated:
            self._arrays.validate()
            if len(arrays) and self._arrays.size.max() > self.machine_nodes:
                over = self._arrays.job_id[
                    self._arrays.size > self.machine_nodes
                ]
                raise ValueError(
                    f"trace {name!r}: jobs {over[:5].tolist()} exceed machine "
                    f"size {self.machine_nodes}"
                )
        return self

    def _check_shape(self) -> None:
        if self.machine_nodes <= 0:
            raise ValueError("machine_nodes must be positive")
        if self.duration <= 0:
            raise ValueError("duration must be positive")

    # ------------------------------------------------------------------ #
    @property
    def jobs(self) -> list[Job]:
        """The job list (materialized from the columns on first access)."""
        if self._jobs is None:
            self._jobs = self._arrays.to_jobs()  # type: ignore[union-attr]
        return self._jobs

    @property
    def arrays(self) -> TraceArrays:
        """Columnar view of the immutable facts (built once, then cached)."""
        if self._arrays is None:
            self._arrays = TraceArrays.from_jobs(self._jobs or [])
        return self._arrays

    def __len__(self) -> int:
        if self._jobs is not None:
            return len(self._jobs)
        return len(self._arrays)  # type: ignore[arg-type]

    def __iter__(self) -> Iterator[Job]:
        return iter(self.jobs)

    def __getitem__(self, idx: int) -> Job:
        return self.jobs[idx]

    def job_by_id(self, job_id: int) -> Job:
        for job in self.jobs:
            if job.job_id == job_id:
                return job
        raise KeyError(job_id)

    # ------------------------------------------------------------------ #
    @property
    def total_work(self) -> float:
        """Total node-seconds demanded by the trace."""
        if self._arrays is not None:
            return self._arrays.total_work()
        return sum(j.work for j in self.jobs)

    @property
    def utilization(self) -> float:
        """Offered load relative to ``machine_nodes`` over ``duration``."""
        return self.total_work / (self.machine_nodes * self.duration)

    @property
    def max_size(self) -> int:
        if self._arrays is not None:
            return self._arrays.max_size()
        return max((j.size for j in self.jobs), default=0)

    @property
    def duration_hours(self) -> float:
        return self.duration / 3600.0

    def subset(self, start: float, end: float, name: Optional[str] = None) -> "Trace":
        """Jobs submitted in ``[start, end)``, re-based to t=0."""
        if not (0 <= start < end):
            raise ValueError("need 0 <= start < end")
        arrays = self.arrays
        mask = (arrays.submit >= start) & (arrays.submit < end)
        picked = arrays.take(np.flatnonzero(mask)).shifted(-start)
        return Trace.from_arrays(
            name or f"{self.name}[{start:.0f}:{end:.0f}]",
            picked,
            self.machine_nodes,
            min(end - start, self.duration),
            metadata=dict(self.metadata),
        )

    def copy(self) -> "Trace":
        """Replay copy: shares the immutable columns, fresh execution state.

        The copy materializes its own pristine :class:`Job` objects on
        first use, so two copies never alias mutable state.
        """
        return Trace.from_arrays(
            self.name,
            self.arrays,
            self.machine_nodes,
            self.duration,
            dict(self.metadata),
            validated=True,
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Trace {self.name!r} jobs={len(self.jobs)} "
            f"nodes={self.machine_nodes} util={self.utilization:.3f}>"
        )


def clone_job(job: Job) -> Job:
    """Fresh pristine copy of a job's immutable facts.

    Replay hot path: skips the dataclass constructor and its per-field
    validation (the source job was already validated at creation).
    """
    new = Job.__new__(Job)
    new.job_id = job.job_id
    new.submit_time = job.submit_time
    new.size = job.size
    new.runtime = job.runtime
    new.user_id = job.user_id
    new.task_type = job.task_type
    new.workflow_id = job.workflow_id
    new.dependencies = job.dependencies
    new.state = JobState.PENDING
    new.start_time = None
    new.finish_time = None
    return new


def hour_ceil(seconds: float, unit: float = 3600.0) -> int:
    """Billing helper: round a duration up to whole lease units.

    Zero-length durations are charged one unit (a lease was still opened),
    matching EC2-style per-started-hour billing.
    """
    if seconds < 0:
        raise ValueError(f"negative duration {seconds!r}")
    # A lease opened at a non-representable instant and held for exactly
    # k units closes at open+held, whose float round-off can land a hair
    # above k*unit; without the epsilon that bills a whole extra unit.
    units = math.ceil(seconds / unit - 1e-9)
    return max(1, int(units))


def validate_dependencies(jobs: Sequence[Job]) -> None:
    """Check that job ids are unique, dependencies reference known jobs
    and form no cycle."""
    by_id: dict[int, Job] = {}
    for job in jobs:
        if job.job_id in by_id:
            raise ValueError(f"duplicate job id {job.job_id}")
        by_id[job.job_id] = job
    for job in jobs:
        for dep in job.dependencies:
            if dep not in by_id:
                raise ValueError(f"job {job.job_id} depends on unknown job {dep}")
    # Kahn's algorithm for cycle detection.
    indegree = {j.job_id: len(j.dependencies) for j in jobs}
    children: dict[int, list[int]] = {j.job_id: [] for j in jobs}
    for job in jobs:
        for dep in job.dependencies:
            children[dep].append(job.job_id)
    ready = [jid for jid, deg in indegree.items() if deg == 0]
    seen = 0
    while ready:
        jid = ready.pop()
        seen += 1
        for child in children[jid]:
            indegree[child] -= 1
            if indegree[child] == 0:
                ready.append(child)
    if seen != len(jobs):
        raise ValueError("dependency graph contains a cycle")
