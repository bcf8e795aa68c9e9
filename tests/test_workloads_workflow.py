"""Tests for the workflow DAG model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.policies import ResourceManagementPolicy
from repro.experiments.config import montage_bundle
from repro.reliability.failures import ExponentialFailures
from repro.systems.drp import DrpMtcLiveRun
from repro.systems.dsp_runner import DawningCloudMtcLiveRun
from repro.systems.fixed import FixedLiveRun
from repro.workloads.job import JobState
from repro.workloads.workflow import Workflow, relabel_tasks
from tests.conftest import HOUR, make_job


class TestConstruction:
    def test_empty_workflow_rejected(self):
        with pytest.raises(ValueError):
            Workflow(1, [])

    def test_mismatched_workflow_id_rejected(self):
        with pytest.raises(ValueError):
            Workflow(1, [make_job(1, workflow_id=2)])

    def test_cycle_rejected(self):
        tasks = [
            make_job(1, deps=(2,), workflow_id=1),
            make_job(2, deps=(1,), workflow_id=1),
        ]
        with pytest.raises(ValueError):
            Workflow(1, tasks)

    def test_duplicate_task_id_rejected(self):
        task = make_job(1, workflow_id=1)
        with pytest.raises(ValueError, match="duplicate job id 1"):
            Workflow(1, [task, task])


class TestStructure:
    def test_levels_of_diamond(self, diamond_workflow):
        assert diamond_workflow.levels() == [[1], [2, 3], [4]]

    def test_level_widths_and_max_width(self, diamond_workflow):
        assert diamond_workflow.level_widths() == [1, 2, 1]
        assert diamond_workflow.max_width() == 2

    def test_critical_path_takes_longest_branch(self, diamond_workflow):
        # 100 + max(200, 50) + 100
        assert diamond_workflow.critical_path_length() == pytest.approx(400)

    def test_total_work(self, diamond_workflow):
        assert diamond_workflow.total_work() == pytest.approx(450)

    def test_mean_task_runtime(self, diamond_workflow):
        assert diamond_workflow.mean_task_runtime() == pytest.approx(450 / 4)

    def test_type_census(self, diamond_workflow):
        assert diamond_workflow.type_census() == {"batch": 4}


class TestExecutionSupport:
    def test_initial_ready_set_is_entry_tasks(self, diamond_workflow):
        assert [t.job_id for t in diamond_workflow.ready_tasks()] == [1]

    def test_ready_set_grows_as_dependencies_complete(self, diamond_workflow):
        t1 = diamond_workflow.task(1)
        t1.mark_queued(0)
        t1.mark_running(0)
        t1.mark_completed(100)
        ready = [t.job_id for t in diamond_workflow.ready_tasks()]
        assert ready == [2, 3]

    def test_join_waits_for_all_parents(self, diamond_workflow):
        for jid, t_done in ((1, 100), (2, 300)):
            t = diamond_workflow.task(jid)
            t.mark_queued(0)
            t.mark_running(0)
            t.mark_completed(t_done)
        assert [t.job_id for t in diamond_workflow.ready_tasks()] == [3]

    def test_completed_and_makespan(self, diamond_workflow):
        assert not diamond_workflow.completed()
        times = {1: 100, 2: 300, 3: 150, 4: 400}
        for jid in (1, 2, 3, 4):
            t = diamond_workflow.task(jid)
            t.mark_queued(0)
            t.mark_running(0)
            t.mark_completed(times[jid])
        assert diamond_workflow.completed()
        assert diamond_workflow.makespan() == pytest.approx(400)

    def test_makespan_none_while_incomplete(self, diamond_workflow):
        assert diamond_workflow.makespan() is None

    def test_release_walks_the_diamond(self, diamond_workflow):
        wf = diamond_workflow
        assert _ids(wf.release()) == [1]
        _complete(wf.task(1))
        assert _ids(wf.release(wf.task(1))) == [2, 3]
        _complete(wf.task(3))
        assert wf.release(wf.task(3)) == []  # the join still waits on 2
        _complete(wf.task(2))
        assert _ids(wf.release(wf.task(2))) == [4]
        assert not wf.completed()
        _complete(wf.task(4))
        assert wf.release(wf.task(4)) == []
        assert wf.completed()


class TestRelabel:
    def test_relabel_shifts_ids_and_deps(self, diamond_workflow):
        clones = relabel_tasks(diamond_workflow.tasks, 100, 9, submit_time=50.0)
        wf = Workflow(9, clones, submit_time=50.0)
        assert wf.levels() == [[101], [102, 103], [104]]
        assert all(t.submit_time == 50.0 for t in wf.tasks)


# ---------------------------------------------------------------------- #
# incremental release vs the state-derived oracles
# ---------------------------------------------------------------------- #
def _ids(tasks):
    return [t.job_id for t in tasks]


def _complete(task, now=0.0):
    if task.state is JobState.PENDING:
        task.mark_queued(now)
    task.mark_running(now)
    task.mark_completed(now)


def _newly_ready(wf):
    """Oracle for :meth:`Workflow.release`: the PENDING part of a rescan."""
    return [t for t in wf.ready_tasks() if t.state is JobState.PENDING]


def _all_completed(wf):
    return all(t.state is JobState.COMPLETED for t in wf.tasks)


@st.composite
def random_dags(draw):
    """Random DAGs with several roots, wide joins and repeated
    dependency ids; ids are a random permutation of the topological
    order, so id order and dependency order disagree."""
    n = draw(st.integers(min_value=1, max_value=30))
    ids = draw(st.lists(st.integers(0, 10_000), min_size=n, max_size=n, unique=True))
    tasks = []
    for i, jid in enumerate(ids):
        shape = draw(st.sampled_from(("root", "some", "join"))) if i else "root"
        if shape == "join":  # depends on every earlier task
            deps = tuple(ids[:i])
        elif shape == "some":  # duplicates such as (1, 1) included
            picks = draw(st.lists(st.integers(0, i - 1), min_size=1, max_size=4))
            deps = tuple(ids[k] for k in picks)
        else:
            deps = ()
        tasks.append(make_job(jid, deps=deps, workflow_id=5))
    return Workflow(5, tasks)


def _drive(wf, data, clone_at=-1):
    """Run ``wf`` to completion in a drawn valid order, checking release
    and ``completed()`` against the oracles at every step; returns the
    clone taken after ``clone_at`` completions (None if never reached)."""
    assert wf.completed() == _all_completed(wf)
    queued = wf.release()
    assert _ids(queued) == _ids(_newly_ready(wf))
    for t in queued:
        t.mark_queued(0.0)
    clone = None
    step = 0
    while queued:
        if step == clone_at:
            clone = wf.clone()
        task = queued.pop(data.draw(st.integers(0, len(queued) - 1)))
        task.mark_running(float(step))
        task.mark_completed(float(step))
        expected = _newly_ready(wf)
        released = wf.release(task)
        assert _ids(released) == _ids(expected)
        assert all(wf.task(t.job_id) is t for t in released)
        for t in released:
            t.mark_queued(float(step))
        queued += released
        assert wf.completed() == _all_completed(wf)
        step += 1
    assert step == len(wf) and wf.completed()
    return clone


class TestIncrementalRelease:
    @settings(max_examples=60, deadline=None)
    @given(random_dags(), st.data())
    def test_release_and_completed_match_oracles(self, wf, data):
        clone_at = data.draw(st.integers(0, len(wf) - 1))
        mid_run = _drive(wf, data, clone_at)
        assert mid_run is not None
        # a clone taken mid-run starts fresh, whatever its source did since
        assert all(t.state is JobState.PENDING for t in mid_run.tasks)
        _drive(mid_run, data)
        _drive(wf.clone(), data)

    def test_wide_join_released_by_its_last_dependency_only(self):
        fan = [make_job(i, workflow_id=2) for i in range(1, 663)]
        join = make_job(1000, deps=tuple(range(1, 663)), workflow_id=2)
        wf = Workflow(2, fan + [join])
        assert len(wf.release()) == 662
        for task in reversed(fan):
            _complete(task)
            released = wf.release(task)
            assert released == ([join] if task.job_id == 1 else [])


def _rescan_release(self, task=None):
    """Dependency release as a full rescan after every completion."""
    return [t for t in self.ready_tasks() if t.state is JobState.PENDING]


def _rescan_completed(self):
    return all(t.state is JobState.COMPLETED for t in self.tasks)


def _dawningcloud(bundle, failures=None):
    return DawningCloudMtcLiveRun(
        bundle, ResourceManagementPolicy.for_mtc(), capacity=420,
        failures=failures, seed=3,
    )


MONTAGE_SYSTEMS = {
    "DCS": lambda bundle: FixedLiveRun(bundle, "DCS"),
    "SSP": lambda bundle: FixedLiveRun(bundle, "SSP"),
    "DRP": DrpMtcLiveRun,
    "DawningCloud": _dawningcloud,
    "DawningCloud-failures": lambda bundle: _dawningcloud(
        bundle, ExponentialFailures(mtbf_s=HOUR, mttr_s=600.0)
    ),
}


def _montage_run(system):
    run = MONTAGE_SYSTEMS[system](montage_bundle(0))
    run.complete()
    payload = run.finish().to_payload()
    times = [(t.start_time, t.finish_time) for t in run.workflow.tasks]
    return times, payload


@pytest.mark.slow  # the rescan oracle takes ~1.5 s per Montage run
@pytest.mark.parametrize("system", sorted(MONTAGE_SYSTEMS))
def test_montage_release_matches_rescan(monkeypatch, system):
    times, payload = _montage_run(system)
    if system == "DawningCloud-failures":
        assert payload["reliability"]["killed_jobs"] > 0
    monkeypatch.setattr(Workflow, "release", _rescan_release)
    monkeypatch.setattr(Workflow, "completed", _rescan_completed)
    assert _montage_run(system) == (times, payload)
