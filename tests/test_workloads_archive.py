"""Tests for the workload archive catalog (workloads.archive)."""

import pytest

from repro.workloads.archive import (
    ARCHIVE,
    ARCHIVE_MAX_UTILIZATION,
    ARCHIVE_MIN_UTILIZATION,
    archive_names,
    spec_with_utilization,
    utilization_family,
)
from repro.workloads.stats import summarize
from repro.workloads.store import paper_trace
from repro.workloads.traces import NASA_IPSC


class TestCatalog:
    def test_contains_the_papers_traces(self):
        assert "nasa-ipsc" in ARCHIVE
        assert "sdsc-blue" in ARCHIVE

    def test_names_sorted_by_load(self):
        names = archive_names()
        utils = [ARCHIVE[n].target_utilization for n in names]
        assert utils == sorted(utils)
        assert names[0] == "low-load-dept"
        assert names[-1] == "high-load-prod"

    def test_every_spec_validates(self):
        for spec in ARCHIVE.values():
            spec.validate()

    def test_catalog_spans_the_archives_range(self):
        utils = [s.target_utilization for s in ARCHIVE.values()]
        assert min(utils) == ARCHIVE_MIN_UTILIZATION == 0.244
        assert max(utils) == ARCHIVE_MAX_UTILIZATION == 0.865

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown trace"):
            paper_trace("bigred")


@pytest.mark.parametrize("name", sorted(ARCHIVE))
class TestGeneration:
    def test_utilization_calibrated(self, name):
        trace = paper_trace(name, seed=3)
        spec = ARCHIVE[name]
        s = summarize(trace)
        assert s.utilization == pytest.approx(spec.target_utilization, rel=0.02)

    def test_sizes_bounded_and_machine_filling_job_exists(self, name):
        trace = paper_trace(name, seed=3)
        spec = ARCHIVE[name]
        sizes = [j.size for j in trace]
        assert max(sizes) == spec.machine_nodes
        assert all(1 <= s <= spec.machine_nodes for s in sizes)

    def test_deterministic_in_seed(self, name):
        a = paper_trace(name, seed=11)
        b = paper_trace(name, seed=11)
        assert [(j.submit_time, j.size, j.runtime) for j in a] == [
            (j.submit_time, j.size, j.runtime) for j in b
        ]

    def test_different_seeds_differ(self, name):
        a = paper_trace(name, seed=1)
        b = paper_trace(name, seed=2)
        assert [j.runtime for j in a] != [j.runtime for j in b]

    def test_all_jobs_finish_inside_window(self, name):
        trace = paper_trace(name, seed=3)
        assert all(j.submit_time + j.runtime <= trace.duration for j in trace)


class TestLanlPartitions:
    def test_cm5_widths_are_partition_multiples(self):
        trace = paper_trace("lanl-cm5", seed=0)
        assert all(j.size >= 32 and (j.size & (j.size - 1)) == 0 for j in trace)


class TestUtilizationFamily:
    def test_family_varies_only_load(self):
        family = utilization_family(NASA_IPSC, (0.3, 0.5, 0.7))
        for spec, u in zip(family, (0.3, 0.5, 0.7)):
            assert spec.target_utilization == u
            assert spec.size_pmf == NASA_IPSC.size_pmf
            assert spec.runtime_mixture == NASA_IPSC.runtime_mixture
            assert spec.arrival_profile == NASA_IPSC.arrival_profile

    def test_default_grid_includes_papers_point_and_extremes(self):
        utils = [s.target_utilization for s in utilization_family()]
        assert ARCHIVE_MIN_UTILIZATION in utils
        assert ARCHIVE_MAX_UTILIZATION in utils
        assert 0.466 in utils

    def test_family_traces_monotone_in_work(self):
        family = utilization_family(NASA_IPSC, (0.3, 0.6, 0.85))
        works = []
        for spec in family:
            from repro.workloads.traces import generate_htc_trace

            t = generate_htc_trace(spec, seed=5)
            works.append(sum(j.work for j in t))
        assert works == sorted(works)

    def test_names_are_distinct(self):
        names = [s.name for s in utilization_family()]
        assert len(names) == len(set(names))

    def test_utilization_bounds_checked(self):
        with pytest.raises(ValueError):
            spec_with_utilization(NASA_IPSC, 0.0)
        with pytest.raises(ValueError):
            spec_with_utilization(NASA_IPSC, 1.0)
