"""The ``perf_smoke.py`` regression gate compares only shared timings.

A retired bench point (``prefix-shared-sweep``) stays in the committed
``BENCH_*.json`` baselines as history.  The gate must skip a timing only
the baseline holds, and still fail a timing both reports hold once it
regresses past the limit.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

PERF_SMOKE = (
    Path(__file__).resolve().parent.parent / "benchmarks" / "perf_smoke.py"
)


@pytest.fixture(scope="module")
def perf_smoke():
    spec = importlib.util.spec_from_file_location("perf_smoke", PERF_SMOKE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _report(engine_s: float, sweeps: dict[str, float]) -> dict:
    return {
        "engine": {"wall_s": engine_s},
        "sweeps": [
            {"scenario": name, "wall_s": wall} for name, wall in sweeps.items()
        ],
    }


#: the baseline's retired point is tiny, so comparing it would fail
BASELINE = _report(
    8.0, {"fig10-sweep-nasa": 1.0, "prefix-shared-sweep": 0.001}
)


@pytest.mark.parametrize("normalize", [False, True])
def test_a_timing_only_the_baseline_holds_is_skipped(perf_smoke, normalize):
    current = _report(8.0, {"fig10-sweep-nasa": 1.2})
    assert perf_smoke.check_regressions(
        current, BASELINE, 0.25, normalize_by_engine=normalize
    ) == []


@pytest.mark.parametrize("normalize", [False, True])
def test_a_shared_timing_over_the_limit_still_fails(perf_smoke, normalize):
    current = _report(8.0, {"fig10-sweep-nasa": 1.3})
    failures = perf_smoke.check_regressions(
        current, BASELINE, 0.25, normalize_by_engine=normalize
    )
    assert len(failures) == 1
    assert failures[0].startswith("fig10-sweep-nasa: 1.300s vs baseline")
