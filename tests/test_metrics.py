"""Tests for usage time series, accounting formulas and result records."""

import pytest

from repro.metrics.accounting import (
    dcs_consumption_node_hours,
    drp_htc_consumption_node_hours,
    savings_vs_baseline,
    work_node_hours,
)
from repro.metrics.results import ProviderMetrics, ResourceProviderMetrics
from repro.metrics.timeseries import UsageRecorder, merge_usage
from tests.conftest import make_job, make_trace

HOUR = 3600.0


class TestUsageRecorder:
    def test_integral_of_step_function(self):
        rec = UsageRecorder()
        rec.record(0.0, 10)
        rec.record(100.0, -4)
        rec.record(200.0, -6)
        assert rec.integral_node_seconds(300.0) == pytest.approx(
            10 * 100 + 6 * 100
        )

    def test_integral_extends_open_level_to_horizon(self):
        rec = UsageRecorder()
        rec.record(0.0, 5)
        assert rec.integral_node_seconds(100.0) == pytest.approx(500)

    def test_hourly_peak_series(self):
        rec = UsageRecorder()
        rec.record(0.0, 3)
        rec.record(1800.0, 7)  # peak 10 inside hour 0
        rec.record(1900.0, -7)
        rec.record(2 * HOUR + 10, -3)
        peaks = rec.hourly_peak_series(3 * HOUR)
        assert list(peaks) == [10, 3, 3]

    def test_peak(self):
        rec = UsageRecorder()
        rec.record(10.0, 4)
        rec.record(20.0, 8)
        rec.record(30.0, -12)
        assert rec.peak(HOUR) == 12

    def test_simultaneous_events_merge(self):
        rec = UsageRecorder()
        rec.record(10.0, 5)
        rec.record(10.0, -5)
        times, levels = rec.level_steps()
        assert list(levels) == [0]

    def test_zero_delta_ignored(self):
        rec = UsageRecorder()
        rec.record(1.0, 0)
        assert rec.events == []

    def test_empty_recorder(self):
        rec = UsageRecorder()
        assert rec.integral_node_seconds(100.0) == 0.0
        assert rec.peak(HOUR) == 0.0

    def test_current_level(self):
        rec = UsageRecorder()
        rec.record(0.0, 4)
        rec.record(1.0, -1)
        assert rec.current_level() == 3

    def test_merge(self):
        a, b = UsageRecorder("a"), UsageRecorder("b")
        a.record(0.0, 3)
        b.record(0.0, 4)
        merged = merge_usage([a, b])
        assert merged.peak(HOUR) == 7


class TestAccountingFormulas:
    def test_dcs_nasa_number(self):
        assert dcs_consumption_node_hours(128, 336 * HOUR) == 43008

    def test_dcs_montage_number(self):
        # a few-hundred-second makespan rounds to one hour
        assert dcs_consumption_node_hours(166, 410.0) == 166

    def test_dcs_blue_number(self):
        assert dcs_consumption_node_hours(144, 336 * HOUR) == 48384

    def test_drp_closed_form(self):
        trace = make_trace(
            [make_job(1, size=4, runtime=100), make_job(2, size=2, runtime=HOUR + 1)],
            duration=3 * HOUR,
        )
        # 4×1 + 2×2
        assert drp_htc_consumption_node_hours(trace) == 8

    def test_work_node_hours(self):
        trace = make_trace([make_job(1, size=2, runtime=HOUR)], duration=2 * HOUR)
        assert work_node_hours(trace) == pytest.approx(2.0)

    def test_savings_sign_convention(self):
        assert savings_vs_baseline(70, 100) == pytest.approx(0.3)
        assert savings_vs_baseline(130, 100) == pytest.approx(-0.3)

    def test_savings_needs_positive_baseline(self):
        with pytest.raises(ValueError):
            savings_vs_baseline(1, 0)


class TestResultRecords:
    def _provider(self, name, cons, peak):
        usage = UsageRecorder(name)
        usage.record(0.0, int(peak))
        usage.record(HOUR, -int(peak))
        return ProviderMetrics(
            provider=name,
            system="X",
            workload=name,
            resource_consumption=cons,
            completed_jobs=10,
            submitted_jobs=10,
            peak_nodes=peak,
            usage=usage,
        )

    def test_aggregate_sums_consumption_and_peaks(self):
        providers = [self._provider("a", 100, 5), self._provider("b", 50, 7)]
        agg = ResourceProviderMetrics.from_providers("X", providers, 2 * HOUR)
        assert agg.total_consumption == 150
        assert agg.peak_nodes == 12  # capacity-planning sum
        assert agg.concurrent_peak_nodes == 12  # both in hour 0 here

    def test_to_row_shapes(self):
        p = self._provider("a", 100.04, 5)
        row = p.to_row()
        assert row["resource_consumption"] == 100.0
        agg = ResourceProviderMetrics.from_providers("X", [p], HOUR)
        assert set(agg.to_row()) == {
            "system",
            "total_consumption",
            "peak_nodes",
            "concurrent_peak_nodes",
            "adjusted_nodes",
        }
