"""Tests for generic workflow generators."""

import networkx as nx
import pytest

from repro.workloads.workflowgen import bag_of_tasks, chain, fork_join, layered_random


class TestBagOfTasks:
    def test_count_and_independence(self):
        wf = bag_of_tasks(20, seed=0)
        assert len(wf.tasks) == 20
        assert all(not t.dependencies for t in wf.tasks)
        assert wf.max_width() == 20

    def test_invalid_count(self):
        with pytest.raises(ValueError):
            bag_of_tasks(0)


class TestChain:
    def test_strictly_sequential(self):
        wf = chain(6, seed=0)
        assert wf.level_widths() == [1] * 6
        assert wf.critical_path_length() == pytest.approx(wf.total_work())


class TestForkJoin:
    def test_shape(self):
        wf = fork_join(8, seed=0)
        assert wf.level_widths() == [1, 8, 1]
        join = wf.task(10)
        assert len(join.dependencies) == 8


class TestLayeredRandom:
    def test_layer_widths_respected(self):
        wf = layered_random([3, 5, 2], seed=1)
        assert wf.level_widths() == [3, 5, 2]

    def test_acyclic(self):
        wf = layered_random([4, 4, 4, 4], seed=2)
        assert nx.is_directed_acyclic_graph(wf.graph)

    def test_every_non_entry_task_has_dependency(self):
        wf = layered_random([2, 6, 6], seed=3)
        entry = set(wf.levels()[0])
        for t in wf.tasks:
            if t.job_id not in entry:
                assert t.dependencies

    def test_bad_widths_rejected(self):
        with pytest.raises(ValueError):
            layered_random([])
        with pytest.raises(ValueError):
            layered_random([3, 0])

