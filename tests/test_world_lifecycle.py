"""A finished world frees itself; what-ifs run with the collector paused.

A world is built, snapshotted and restored, finished, then disposed
(``SimulationEngine.dispose`` after the teardown methods ``finish()``
calls).  These fast tests pin the end of that lifecycle on every served
runner:

* **branches die by reference counting**: with the cyclic collector off,
  both branches of an empty, a load and an MTBF what-if (their service,
  server and engine) are freed once the query returns, with arrivals
  still pending past the query horizon, and on a service booted with a
  failure model; so is the engine of a shut-down live service;
* **the collector is left as found**: a what-if runs with the collector
  paused and restores the state it found it in, enabled or disabled, also
  when the query raises.
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.api.spec import ServiceSpec
from repro.serving import WhatIfEngine, WhatIfError, build_service, whatif
from repro.serving.service import SERVED_RUNNERS
from repro.workloads.job import Job

DAY = 86400.0
#: the what-if instant and lookahead: arrivals run to t=11,800 s, so many
#: are still pending when a branch stops at AT + HORIZON_S
AT = 2000.0
HORIZON_S = 3600.0

DELTAS = {
    "empty": {},
    "load": {"load_multiplier": 1.5},
    "mtbf": {"mtbf_hours": 1.0},
}


def _service(runner: str, failures: bool = False):
    """A 16-node service at t=AT, busy, with arrivals pending far ahead."""
    system: dict = {"runner": runner}
    if runner == "dawningcloud":
        system["policy"] = {"name": "paper-htc", "params": {"initial_nodes": 4}}
    if failures:
        system["failures"] = {
            "name": "exponential", "params": {"mtbf_hours": 5.0},
        }
    service = build_service(ServiceSpec.from_dict({
        "name": "svc", "system": system, "machine_nodes": 16,
        "horizon_s": 2 * DAY,
    }))
    service.submit_batch([
        Job(i, 100.0 + 300.0 * i, 2 + i % 3, 3600.0, 0, "htc")
        for i in range(40)
    ])
    service.advance_to(AT)
    assert service.server.running
    assert max(j.submit_time for j in service.pending_jobs()) > AT + HORIZON_S
    return service


@pytest.fixture
def collector_off():
    enabled = gc.isenabled()
    gc.disable()
    yield
    if enabled:
        gc.enable()


@pytest.fixture
def branches(monkeypatch):
    """Weak references to (service, server, engine) of each branch run."""
    seen = []
    run = whatif._run_continuation

    def spy(branch, t_end):
        seen.append(tuple(
            weakref.ref(part)
            for part in (branch, branch.server, branch.engine)
        ))
        return run(branch, t_end)

    monkeypatch.setattr(whatif, "_run_continuation", spy)
    return seen


def _cases():
    for runner in SERVED_RUNNERS:
        for name in DELTAS:
            yield pytest.param(runner, name, False, id=f"{runner}-{name}")
        # an armed failure model refuses an MTBF delta
        for name in ("empty", "load"):
            yield pytest.param(
                runner, name, True, id=f"{runner}-{name}-failure-model"
            )


@pytest.mark.parametrize("runner, delta, failures", _cases())
def test_whatif_branches_die_by_reference_counting(
    runner, delta, failures, branches, collector_off
):
    service = _service(runner, failures)
    WhatIfEngine(service).what_if(DELTAS[delta], HORIZON_S)
    assert len(branches) == 2
    alive = [
        [ref() is not None for ref in branch] for branch in branches
    ]
    assert alive == [[False] * 3] * 2, "(service, server, engine) per branch"
    assert service.now == AT  # the live world is untouched
    service.advance_to(AT + 60.0)


@pytest.mark.parametrize("drain", [True, False], ids=["drain", "no-drain"])
@pytest.mark.parametrize("runner", SERVED_RUNNERS)
def test_a_shut_down_service_frees_its_engine(runner, drain, collector_off):
    service = _service(runner)
    engine = weakref.ref(service.engine)
    service.shutdown(drain=drain)
    del service
    assert engine() is None


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_a_whatif_leaves_the_collector_as_it_found_it(enabled, monkeypatch):
    during = []
    run = whatif._run_continuation

    def spy(branch, t_end):
        during.append(gc.isenabled())
        return run(branch, t_end)

    monkeypatch.setattr(whatif, "_run_continuation", spy)
    service = _service("dcs")
    found = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        WhatIfEngine(service).what_if({}, HORIZON_S)
        assert gc.isenabled() is enabled
        # a query that raises restores it too
        with pytest.raises(WhatIfError, match="owned, not metered"):
            WhatIfEngine(service).what_if({"billing": "per-second"}, HORIZON_S)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if found else gc.disable)()
    assert during == [False, False]  # both branches ran paused
