"""Scheduling substrate: queues and scheduling policies.

The paper configures (§4.4):

* **first-fit** for HTC — "scans all the queued jobs in the order of job
  arrival and chooses the first job whose resources requirement can be met
  by the system" (:mod:`repro.scheduling.firstfit`);
* **FCFS** for MTC — tasks released in dependency order, started strictly
  in arrival order (:mod:`repro.scheduling.fcfs`);
* the DRP system takes no scheduling policy (jobs run at submission).

Extensions beyond the paper, used by the ablation benchmarks:

* :mod:`repro.scheduling.backfill` — EASY backfilling;
* :mod:`repro.scheduling.conservative` — conservative backfilling (every
  queued job holds a reservation);
* :mod:`repro.scheduling.sjf` — shortest-job-first with optional aging;
* :mod:`repro.scheduling.fairshare` — Winks-style weighted fair sharing
  across end users (the related-work scheduler the paper contrasts with).
"""

from repro.api.registry import register_component
from repro.scheduling.backfill import EasyBackfillScheduler
from repro.scheduling.base import RunningJob, Scheduler
from repro.scheduling.conservative import ConservativeBackfillScheduler
from repro.scheduling.fairshare import WeightedFairShareScheduler
from repro.scheduling.fcfs import FcfsScheduler
from repro.scheduling.firstfit import FirstFitScheduler
from repro.scheduling.queue import JobQueue
from repro.scheduling.sjf import SjfScheduler

SCHEDULER_REGISTRY = {
    "first-fit": FirstFitScheduler,
    "fcfs": FcfsScheduler,
    "easy-backfill": EasyBackfillScheduler,
    "conservative-backfill": ConservativeBackfillScheduler,
    "sjf": SjfScheduler,
    "weighted-fair-share": WeightedFairShareScheduler,
}

for _name, _cls in SCHEDULER_REGISTRY.items():
    register_component("scheduler", _name, _cls, skip_params=("self",))
del _name, _cls


__all__ = [
    "ConservativeBackfillScheduler",
    "EasyBackfillScheduler",
    "FcfsScheduler",
    "FirstFitScheduler",
    "JobQueue",
    "RunningJob",
    "SCHEDULER_REGISTRY",
    "Scheduler",
    "SjfScheduler",
    "WeightedFairShareScheduler",
]
