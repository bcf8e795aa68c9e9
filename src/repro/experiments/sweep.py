"""B×R sweep points (Figures 9-11, §4.5.1).

The paper tunes DawningCloud's two policy parameters per workload by
sweeping the initial resources B and the threshold ratio R and plotting
resource consumption together with throughput (completed jobs for HTC,
tasks per second for MTC).  The grid itself runs as an experiment spec
(the ``sweep`` artifact in :func:`repro.api.run.run_artifact`); this
module holds the point record, its payload projection and the paper's
selection rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional


@dataclass(frozen=True)
class SweepPoint:
    """One (B, R) configuration's outcome."""

    initial_nodes: int
    threshold_ratio: float
    resource_consumption: float
    completed_jobs: int
    tasks_per_second: Optional[float] = None

    @property
    def label(self) -> str:
        r = self.threshold_ratio
        r_str = f"{r:g}"
        return f"B{self.initial_nodes}_R{r_str}"

    def to_row(self) -> dict:
        """The scenario-payload row (the inverse of :meth:`from_row`)."""
        return {
            "B": self.initial_nodes,
            "R": self.threshold_ratio,
            "label": self.label,
            "resource_consumption": self.resource_consumption,
            "completed_jobs": self.completed_jobs,
            "tasks_per_second": self.tasks_per_second,
        }

    @classmethod
    def from_row(cls, row: dict) -> "SweepPoint":
        """Rebuild a point from a scenario-payload row (see scenarios.py)."""
        return cls(
            initial_nodes=row["B"],
            threshold_ratio=row["R"],
            resource_consumption=row["resource_consumption"],
            completed_jobs=row["completed_jobs"],
            tasks_per_second=row.get("tasks_per_second"),
        )


def points_from_payload(payload: dict) -> list[SweepPoint]:
    """Sweep-scenario payload → :class:`SweepPoint` list."""
    return [SweepPoint.from_row(row) for row in payload["points"]]


def best_point(
    points: Iterable[SweepPoint], throughput_tolerance: float = 0.005
) -> SweepPoint:
    """The paper's selection rule: "to save the resource consumption and
    improve the throughputs" — among points whose throughput is within
    ``throughput_tolerance`` of the best, pick the cheapest."""
    points = list(points)
    if not points:
        raise ValueError("empty sweep")

    def throughput(p: SweepPoint) -> float:
        return p.tasks_per_second if p.tasks_per_second is not None else p.completed_jobs

    best_thr = max(throughput(p) for p in points)
    eligible = [
        p for p in points if throughput(p) >= best_thr * (1.0 - throughput_tolerance)
    ]
    return min(eligible, key=lambda p: p.resource_consumption)
