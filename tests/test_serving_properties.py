"""Property-based pins for the serving layer (PR 9).

Two invariants hold for *every* workload and fork instant, not just the
hand-picked ones in ``test_serving``:

* **No-delta neutrality** — forking the live world at an arbitrary
  instant and running the continuation changes nothing: the what-if
  baseline and scenario are byte-identical to each other *and* to the
  undisturbed service running on to the same horizon.  This is the
  serving layer's version of the snapshot layer's non-perturbation
  guarantee, composed through ingest counters, pending-arrival events
  and rolling-metric cursors.
* **Snapshot oracle** — a what-if answered from one pickle snapshot
  equals the answer built from two ``copy.deepcopy`` forks of the
  service (the serializer the snapshot replaced), for an empty delta and
  for a load delta, at arbitrary session instants.
* **Window conservation** — trailing windows sampled every ``W`` tile
  the timeline exactly: per-window counts, sums and attainment-weighted
  counts add up to the cumulative totals, for arbitrary event times and
  window widths (the ``(now - W, now]`` boundary convention, first
  window inclusive of ``t = 0``).
"""

from __future__ import annotations

import copy
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics.rolling import (
    attainment_in_window,
    count_in_window,
    effective_window_s,
    sum_in_window,
    window_start,
)
from repro.serving import ScenarioDelta, WhatIfEngine, build_service
from repro.serving.service import SERVED_RUNNERS
from repro.serving.whatif import apply_delta
from repro.api.spec import ServiceSpec
from repro.workloads.job import Job

pytestmark = pytest.mark.timeout(300)

DAY = 86400.0
HOUR = 3600.0


def _spec(nodes: int = 8, system: str = "dcs") -> ServiceSpec:
    return ServiceSpec.from_dict(
        {"name": "prop", "system": system, "machine_nodes": nodes,
         "horizon_s": DAY}
    )


# (submit offset, size, runtime) triples, deliberately collision-heavy:
# simultaneous arrivals and scan-tick-straddling runtimes included.
job_specs = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=20_000.0, allow_nan=False),
        st.integers(min_value=1, max_value=8),
        st.floats(min_value=30.0, max_value=15_000.0, allow_nan=False),
    ),
    min_size=1,
    max_size=25,
)


def _jobs(specs) -> list[Job]:
    return [
        Job(job_id=i, submit_time=offset, size=size, runtime=runtime,
            user_id=0, task_type="htc")
        for i, (offset, size, runtime) in enumerate(specs)
    ]


class TestNoDeltaNeutrality:
    @given(specs=job_specs, fork_frac=st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=20, deadline=None)
    def test_empty_whatif_reproduces_the_undisturbed_run(
        self, specs, fork_frac
    ):
        jobs = _jobs(specs)
        last_arrival = max(j.submit_time for j in jobs)
        fork_at = fork_frac * (last_arrival + 1.0)

        service = build_service(_spec())
        service.submit_batch(jobs)
        service.advance_to(fork_at)

        result = WhatIfEngine(service).what_if(
            None, DAY - service.now, label="noop"
        )
        # the two branches are byte-identical...
        assert result.scenario == result.baseline
        assert result.diff == {}
        # ...the live service did not move while being queried...
        assert service.now == fork_at
        # ...and the branch continuation equals the undisturbed service
        # run to the very same horizon
        assert service.shutdown(drain=True) == result.baseline

    @given(specs=job_specs, steps=st.integers(min_value=1, max_value=4))
    @settings(max_examples=15, deadline=None)
    def test_forks_along_the_run_never_perturb_the_final_payload(
        self, specs, steps
    ):
        # jobs are mutable simulation state: each service gets its own
        reference = build_service(_spec())
        reference.submit_batch(_jobs(specs))
        expected = reference.shutdown(drain=True)

        jobs = _jobs(specs)
        service = build_service(_spec())
        service.submit_batch(jobs)
        horizon = max(j.submit_time for j in jobs) + 1.0
        for k in range(1, steps + 1):
            service.advance_to(horizon * k / steps)
            service.metrics()  # metric reads must not perturb either
            branch = service.fork()
            assert branch.now == service.now
        assert service.shutdown(drain=True) == expected


def _deepcopy_what_if(service, delta: dict, horizon_s: float) -> tuple:
    """A what-if answered from two deepcopy forks of the live service."""
    t_end = service.now + horizon_s
    scenario, baseline = copy.deepcopy(service), copy.deepcopy(service)
    stats = apply_delta(
        scenario, ScenarioDelta.from_dict(delta), seed=service.seed
    )
    payloads = []
    for branch in (baseline, scenario):
        branch.live.horizon = t_end
        payloads.append(branch.shutdown(drain=True))
    return (*payloads, stats["cloned_jobs"], stats["shed_jobs"])


class TestSnapshotOracle:
    @pytest.mark.parametrize("system", SERVED_RUNNERS)
    @pytest.mark.parametrize("delta", [{}, {"load_multiplier": 1.5}],
                             ids=["empty", "load-1.5"])
    @given(
        specs=job_specs,
        pick=st.integers(min_value=0),
        into=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
    )
    @settings(max_examples=20, deadline=None)
    def test_whatif_equals_two_deepcopy_forks(self, specs, pick, into,
                                              delta, system):
        # a session: each hour, ingest that hour's arrivals and advance.
        # The what-if comes part way into the hour of a picked job,
        # before that job arrives, so the load delta has jobs to clone.
        jobs = _jobs(specs)
        due = jobs[pick % len(jobs)].submit_time
        hour_start = due // HOUR * HOUR
        at = hour_start + into * (due - hour_start)
        service = build_service(_spec(system=system))
        for hour in range(int(hour_start // HOUR) + 1):
            service.submit_batch(
                [j for j in jobs if hour * HOUR <= j.submit_time
                 < (hour + 1) * HOUR]
            )
            service.advance_to(min((hour + 1) * HOUR, at))
        # the reference first: deepcopy forks leave the live world as is
        expected = _deepcopy_what_if(service, delta, HOUR)
        answer = WhatIfEngine(service).what_if(delta, HOUR)
        assert (
            answer.baseline, answer.scenario,
            answer.cloned_jobs, answer.shed_jobs,
        ) == expected


class TestWindowConservation:
    event_streams = st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=5_000.0, allow_nan=False),
            st.floats(min_value=-10.0, max_value=10.0, allow_nan=False),
            st.booleans(),
        ),
        min_size=0,
        max_size=60,
    ).map(lambda triples: sorted(triples, key=lambda e: e[0]))

    @given(
        events=event_streams,
        window_s=st.floats(min_value=7.0, max_value=2_000.0,
                           allow_nan=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_consecutive_windows_tile_the_timeline(self, events, window_s):
        times = [t for t, _v, _ok in events]
        values = [v for _t, v, _ok in events]
        flags = [ok for _t, _v, ok in events]
        end = max(times) if times else 0.0
        n_windows = max(1, math.ceil(end / window_s))
        # sampling right at k*W for every k must see each event once
        total_count = 0
        total_sum = 0.0
        total_ok = 0
        for k in range(1, n_windows + 1):
            now = k * window_s
            count = count_in_window(times, now, window_s)
            total_count += count
            total_sum += sum_in_window(times, values, now, window_s)
            attainment = attainment_in_window(times, flags, now, window_s)
            if attainment is None:
                assert count == 0
            else:
                total_ok += round(attainment * count)
        assert total_count == len(times)
        assert total_sum == pytest.approx(sum(values), abs=1e-9)
        assert total_ok == sum(flags)

    @given(
        now=st.floats(min_value=0.0, max_value=10_000.0, allow_nan=False),
        window_s=st.floats(min_value=1e-3, max_value=10_000.0,
                           allow_nan=False),
    )
    def test_window_start_convention(self, now, window_s):
        start = window_start(now, window_s)
        if start is None:
            assert now - window_s <= 0
        else:
            assert start == pytest.approx(now - window_s)
            assert start > 0

    def test_window_start_rejects_nonpositive_width(self):
        with pytest.raises(ValueError, match="window_s"):
            window_start(10.0, 0.0)

    @given(events=event_streams)
    @settings(max_examples=30, deadline=None)
    def test_whole_history_window_sees_everything(self, events):
        times = [t for t, _v, _ok in events]
        end = (max(times) if times else 0.0) + 1.0
        assert count_in_window(times, end, end + 1.0) == len(times)


class TestPartialFirstWindow:
    """Rates in the partial first window normalize by elapsed time.

    Before ``t = W`` the trailing window only covers ``[0, now]``;
    dividing its counts by the full width ``W`` would under-report every
    early rate by ``now / W``.  :func:`effective_window_s` is the one
    place that knows this, and the service's rolling sample must agree
    with a from-scratch recompute over the full (short) history.
    """

    @given(
        now=st.floats(min_value=1e-3, max_value=10_000.0, allow_nan=False),
        window_s=st.floats(min_value=1e-3, max_value=10_000.0,
                           allow_nan=False),
    )
    def test_effective_width_is_elapsed_capped_at_w(self, now, window_s):
        assert effective_window_s(now, window_s) == pytest.approx(
            min(now, window_s)
        )

    @given(
        events=TestWindowConservation.event_streams,
        window_s=st.floats(min_value=7.0, max_value=2_000.0,
                           allow_nan=False),
        frac=st.floats(min_value=0.05, max_value=1.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_early_rate_matches_full_history_recompute(
        self, events, window_s, frac
    ):
        # sample strictly inside the first window: everything seen so
        # far is in scope, so rate == cumulative count / elapsed
        times = [t for t, _v, _ok in events]
        now = frac * window_s
        count = count_in_window(times, now, window_s)
        assert count == sum(1 for t in times if t <= now)
        rate = count / effective_window_s(now, window_s)
        assert rate == pytest.approx(count / now)

    def test_service_rates_use_elapsed_in_first_window(self):
        # one job done well inside the first (hour-long) window: the
        # sample's throughput must be completions/elapsed, not /W
        jobs = [Job(job_id=0, submit_time=0.0, size=1, runtime=60.0,
                    user_id=0, task_type="htc")]
        service = build_service(_spec())
        service.submit_batch(jobs)
        now = 300.0
        service.advance_to(now)
        sample = service.metrics()
        assert sample["completed_in_window"] == 1
        assert sample["throughput_jobs_per_s"] == pytest.approx(1.0 / now)
        assert sample["avg_owned_nodes"] == pytest.approx(
            sample["owned_nodes"]
        )
