"""Workflow (DAG) model on top of the job record.

A :class:`Workflow` bundles a set of dependent :class:`~repro.workloads.job.Job`
tasks and exposes the structural queries the MTC server and the experiment
harness need: topological levels, critical-path length, ready-set
computation, and validation.  The DAG itself is a :class:`networkx.DiGraph`
whose nodes are job ids.

Dependency release is incremental: the servers call :meth:`Workflow.release`
once at submission and once per task completion, and each call costs
O(out-degree) rather than a rescan of every task and dependency edge.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

import networkx as nx

from repro.workloads.job import Job, JobState, clone_job, validate_dependencies


class Workflow:
    """A validated DAG of tasks submitted as one unit."""

    def __init__(
        self,
        workflow_id: int,
        tasks: Iterable[Job],
        name: str = "workflow",
        submit_time: float = 0.0,
    ) -> None:
        self.workflow_id = int(workflow_id)
        self.name = name
        self.submit_time = float(submit_time)
        self.tasks: list[Job] = sorted(tasks, key=lambda t: t.job_id)
        if not self.tasks:
            raise ValueError("workflow must contain at least one task")
        for task in self.tasks:
            if task.workflow_id != self.workflow_id:
                raise ValueError(
                    f"task {task.job_id} carries workflow_id {task.workflow_id!r}, "
                    f"expected {self.workflow_id}"
                )
        validate_dependencies(self.tasks)
        #: job id -> index in ``tasks``; shared by every clone
        self._position = {t.job_id: i for i, t in enumerate(self.tasks)}
        self.graph = nx.DiGraph()
        self.graph.add_nodes_from(self._position)
        for task in self.tasks:
            for dep in task.dependencies:
                self.graph.add_edge(dep, task.job_id)
        if not nx.is_directed_acyclic_graph(self.graph):  # defensive; validated above
            raise ValueError("workflow graph is not acyclic")
        # Release tables, read-only and shared by every clone like
        # ``graph``: each task's successors as indices into ``tasks`` (so
        # in id order), and per index the number of distinct dependencies
        # (``(1, 1)`` is a single edge).
        position = self._position
        self._successors = {
            jid: tuple(sorted(position[s] for s in succ))
            for jid, succ in self.graph.succ.items()
        }
        self._indegree = tuple(len(self.graph.pred[jid]) for jid in position)
        self._rewind()

    # ------------------------------------------------------------------ #
    # structure
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self.tasks)

    def task(self, job_id: int) -> Job:
        return self.tasks[self._position[job_id]]

    def levels(self) -> list[list[int]]:
        """Topological generations (task ids), entry tasks first."""
        return [sorted(gen) for gen in nx.topological_generations(self.graph)]

    def level_widths(self) -> list[int]:
        return [len(level) for level in self.levels()]

    def max_width(self) -> int:
        """Widest topological level — peak no-queue parallelism."""
        return max(self.level_widths())

    def critical_path_length(self) -> float:
        """Longest runtime-weighted path; lower bound on any makespan."""
        longest: dict[int, float] = {}
        for gen in nx.topological_generations(self.graph):
            for jid in gen:
                preds = list(self.graph.predecessors(jid))
                base = max((longest[p] for p in preds), default=0.0)
                longest[jid] = base + self.task(jid).runtime
        return max(longest.values())

    def total_work(self) -> float:
        return sum(t.work for t in self.tasks)

    def mean_task_runtime(self) -> float:
        return sum(t.runtime for t in self.tasks) / len(self.tasks)

    def type_census(self) -> dict[str, int]:
        census: dict[str, int] = {}
        for t in self.tasks:
            census[t.task_type] = census.get(t.task_type, 0) + 1
        return census

    # ------------------------------------------------------------------ #
    # execution support
    # ------------------------------------------------------------------ #
    def ready_tasks(self) -> list[Job]:
        """Tasks whose dependencies are all completed and which have not
        started, in id order."""
        out = []
        for t in self.tasks:
            if t.state in (JobState.PENDING, JobState.QUEUED) and all(
                self.task(d).state is JobState.COMPLETED for d in t.dependencies
            ):
                out.append(t)
        return out

    def release(self, task: Optional[Job] = None) -> list[Job]:
        """PENDING tasks that just became ready, in id order.

        ``release()`` returns the PENDING tasks with no unmet dependency
        (at submission: the entry tasks).  ``release(task)``, called once
        after ``task`` completed, counts it off its successors' unmet
        dependencies and returns the PENDING successors that reached zero.
        A task becomes ready only when its last dependency completes, so
        this is exactly what a :meth:`ready_tasks` rescan would newly find,
        in the same order, at O(out-degree) per completion.
        """
        tasks, unmet = self.tasks, self._unmet
        pending = JobState.PENDING
        if task is None:
            return [t for t, n in zip(tasks, unmet) if not n and t.state is pending]
        ready = []
        for i in self._successors[task.job_id]:
            left = unmet[i] - 1
            unmet[i] = left
            if not left and tasks[i].state is pending:
                ready.append(tasks[i])
        return ready

    def completed(self) -> bool:
        """Every task is COMPLETED.

        COMPLETED is terminal, so the check advances a cursor over the
        completed prefix of ``tasks``: polling after every engine step
        (``systems.base.run_until``) is amortised O(1).
        """
        tasks = self.tasks
        done = self._done
        n = len(tasks)
        while done < n and tasks[done].state is JobState.COMPLETED:
            done += 1
        self._done = done
        return done == n

    def _rewind(self) -> None:
        """Fresh per-run release state: unmet counts and completed prefix."""
        self._unmet = list(self._indegree)
        self._done = 0

    def clone(self) -> "Workflow":
        """Replay copy: fresh pristine tasks, shared immutable topology.

        Skips re-validation and the DiGraph rebuild — the structure was
        proven acyclic at construction, and the graph (job ids only), the
        id index and the release tables are never mutated, so clones may
        share them.
        """
        new = Workflow.__new__(Workflow)
        new.workflow_id = self.workflow_id
        new.name = self.name
        new.submit_time = self.submit_time
        new.tasks = [clone_job(t) for t in self.tasks]
        new._position = self._position
        new.graph = self.graph
        new._successors = self._successors
        new._indegree = self._indegree
        new._rewind()
        return new

    def makespan(self) -> Optional[float]:
        """Finish of the last task minus workflow submit, once complete."""
        if not self.completed():
            return None
        finish = max(t.finish_time for t in self.tasks)  # type: ignore[arg-type]
        return finish - self.submit_time

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Workflow {self.name!r} id={self.workflow_id} tasks={len(self.tasks)} "
            f"levels={len(self.level_widths())} width={self.max_width()}>"
        )


def relabel_tasks(
    tasks: Sequence[Job], id_offset: int, workflow_id: int, submit_time: float
) -> list[Job]:
    """Clone tasks with shifted ids — used when embedding a workflow in a
    trace that already contains other jobs."""
    mapping = {t.job_id: t.job_id + id_offset for t in tasks}
    return [
        Job(
            job_id=mapping[t.job_id],
            submit_time=submit_time,
            size=t.size,
            runtime=t.runtime,
            user_id=t.user_id,
            task_type=t.task_type,
            workflow_id=workflow_id,
            dependencies=tuple(mapping[d] for d in t.dependencies),
        )
        for t in tasks
    ]
