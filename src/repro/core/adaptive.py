"""Alternative resource-management policies (the paper's future work).

Section 6 closes with "we investigate the optimal resource management and
scheduling policies in the context of cloud computing".  This module
explores that space: every class here is duck-compatible with
:class:`repro.core.policies.ResourceManagementPolicy` — it exposes
``initial_nodes``, ``scan_interval_s``, ``release_check_interval_s`` and
``dynamic_request_size(queue_demand, biggest_job, owned)`` — so it drops
into :class:`repro.provisioning.policies.ConsolidatedAllocation`,
:class:`repro.core.dawningcloud.DawningCloud` and every experiment runner
unchanged.

Policies
--------
* :class:`DemandTrackingPolicy` — requests ``demand - owned`` whenever the
  queue outgrows the owned resources, ignoring the threshold ratio.  The
  most aggressive growth rule: throughput-optimal, lease-churn-heavy.
* :class:`EwmaPredictivePolicy` — smooths the observed queue demand with an
  exponentially weighted moving average and provisions to the prediction
  (plus headroom).  Damps the burst-chasing the paper observes on the BLUE
  trace ("the resource utilization of DawningCloud fluctuates too").
* :class:`ChunkedHysteresisPolicy` — grows in fixed node chunks once the
  obtain ratio crosses the threshold.  Models providers that only lease
  whole instance groups; bounds the per-adjustment setup overhead.
* :class:`StaticPolicy` — never requests dynamic resources.  A DawningCloud
  TRE under this policy behaves like an SSP runtime environment sized at B,
  which is exactly the bridge the policy-ablation benchmark needs.

The module also ships :func:`policy_catalog`, the named set the
policy-comparison ablation sweeps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from repro.core.policies import (
    HTC_SCAN_INTERVAL_S,
    MTC_SCAN_INTERVAL_S,
    HOUR,
    ResourceManagementPolicy,
)


def _validate_common(initial_nodes: int, scan_interval_s: float,
                     release_check_interval_s: float) -> None:
    if initial_nodes < 1:
        raise ValueError("initial_nodes (B) must be >= 1")
    if scan_interval_s <= 0:
        raise ValueError("scan_interval_s must be positive")
    if release_check_interval_s <= 0:
        raise ValueError("release_check_interval_s must be positive")


@dataclass(frozen=True)
class DemandTrackingPolicy:
    """Provision to the queue demand every scan (no threshold ratio).

    Equivalent to the paper's rule with R → 0⁺ plus DR2 folded in: the
    request is ``max(demand, biggest_job) - owned`` whenever positive.
    """

    initial_nodes: int = 10
    scan_interval_s: float = HTC_SCAN_INTERVAL_S
    release_check_interval_s: float = HOUR
    name: str = "demand-tracking"

    #: pure rule, inert at zero demand: no-op scans may be skipped
    quiescence_safe = True

    def __post_init__(self) -> None:
        _validate_common(
            self.initial_nodes, self.scan_interval_s, self.release_check_interval_s
        )

    def dynamic_request_size(
        self, queue_demand: int, biggest_job: int, owned: int
    ) -> int:
        if queue_demand <= 0:
            return 0
        target = max(queue_demand, biggest_job)
        return max(target - owned, 0)


class EwmaPredictivePolicy:
    """Provision to a smoothed demand estimate.

    Keeps ``ewma ← alpha·demand + (1-alpha)·ewma`` across scans and
    requests ``ceil(headroom · ewma) - owned`` when the *smoothed* demand
    exceeds what the TRE owns and the instantaneous queue cannot fit (the
    widest queued job is still honoured immediately so nothing deadlocks).

    Stateful by design — one instance per TRE run.  ``reset()`` clears the
    estimate so a policy object can be reused across replays.
    """

    #: the EWMA decays on *every* scan, including zero-demand ones, so no
    #: scan is skippable: idle-gap fast-forward must stay off
    quiescence_safe = False

    def __init__(
        self,
        initial_nodes: int = 10,
        alpha: float = 0.3,
        headroom: float = 1.0,
        scan_interval_s: float = HTC_SCAN_INTERVAL_S,
        release_check_interval_s: float = HOUR,
    ) -> None:
        _validate_common(initial_nodes, scan_interval_s, release_check_interval_s)
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        if headroom < 1.0:
            raise ValueError("headroom must be >= 1 (under-provisioning on "
                             "purpose would starve the widest job)")
        self.initial_nodes = int(initial_nodes)
        self.alpha = float(alpha)
        self.headroom = float(headroom)
        self.scan_interval_s = float(scan_interval_s)
        self.release_check_interval_s = float(release_check_interval_s)
        self.name = f"ewma(a={alpha:g},h={headroom:g})"
        self._ewma = 0.0

    @property
    def smoothed_demand(self) -> float:
        return self._ewma

    def reset(self) -> None:
        self._ewma = 0.0

    def dynamic_request_size(
        self, queue_demand: int, biggest_job: int, owned: int
    ) -> int:
        self._ewma = self.alpha * queue_demand + (1.0 - self.alpha) * self._ewma
        if queue_demand <= 0:
            return 0
        # never let the widest job starve, whatever the smoothing says
        if biggest_job > owned:
            return biggest_job - owned
        target = math.ceil(self.headroom * self._ewma)
        return max(target - owned, 0)


@dataclass(frozen=True)
class ChunkedHysteresisPolicy:
    """Grow in fixed chunks once the obtain ratio crosses the threshold.

    ``chunk_nodes`` models instance-group leasing: every grant and release
    moves whole chunks, so the accumulated adjustment count (Figure 14's
    metric) is bounded by ``chunk_nodes × grants`` with far fewer, larger
    grants than demand tracking produces.
    """

    initial_nodes: int = 10
    threshold_ratio: float = 1.5
    chunk_nodes: int = 16
    scan_interval_s: float = HTC_SCAN_INTERVAL_S
    release_check_interval_s: float = HOUR
    name: str = "chunked-hysteresis"

    quiescence_safe = True

    def __post_init__(self) -> None:
        _validate_common(
            self.initial_nodes, self.scan_interval_s, self.release_check_interval_s
        )
        if self.threshold_ratio <= 0:
            raise ValueError("threshold_ratio must be positive")
        if self.chunk_nodes < 1:
            raise ValueError("chunk_nodes must be >= 1")

    def dynamic_request_size(
        self, queue_demand: int, biggest_job: int, owned: int
    ) -> int:
        if queue_demand <= 0:
            return 0
        ratio = queue_demand / owned if owned > 0 else float("inf")
        shortfall = 0
        if ratio > self.threshold_ratio:
            shortfall = queue_demand - owned
        elif biggest_job > owned:
            shortfall = biggest_job - owned
        if shortfall <= 0:
            return 0
        chunks = math.ceil(shortfall / self.chunk_nodes)
        return chunks * self.chunk_nodes


@dataclass(frozen=True)
class StaticPolicy:
    """Never resize: the TRE lives on its initial resources.

    DawningCloud with a static policy *is* the SSP model on shared
    infrastructure — the policy ablation uses it to separate what dynamic
    negotiation buys from what consolidation buys.
    """

    initial_nodes: int = 128
    scan_interval_s: float = HTC_SCAN_INTERVAL_S
    release_check_interval_s: float = HOUR
    name: str = "static"

    quiescence_safe = True

    def __post_init__(self) -> None:
        _validate_common(
            self.initial_nodes, self.scan_interval_s, self.release_check_interval_s
        )

    def dynamic_request_size(
        self, queue_demand: int, biggest_job: int, owned: int
    ) -> int:
        return 0


#: Factory signature used by :func:`policy_catalog`: B → policy object.
PolicyFactory = Callable[[int], object]


def policy_catalog(kind: str = "htc") -> dict[str, PolicyFactory]:
    """Named policy factories for the policy-comparison ablation.

    Each factory takes the initial resources B and returns a fresh policy
    object (fresh because :class:`EwmaPredictivePolicy` is stateful).
    ``kind`` selects the scan cadence (per-minute HTC, per-3-s MTC).
    """
    if kind not in ("htc", "mtc"):
        raise ValueError(f"kind must be 'htc' or 'mtc', got {kind!r}")
    scan = HTC_SCAN_INTERVAL_S if kind == "htc" else MTC_SCAN_INTERVAL_S
    paper_ratio = 1.5 if kind == "htc" else 8.0

    return {
        "paper(B,R)": lambda b: ResourceManagementPolicy(
            initial_nodes=b, threshold_ratio=paper_ratio, scan_interval_s=scan
        ),
        "demand-tracking": lambda b: DemandTrackingPolicy(
            initial_nodes=b, scan_interval_s=scan
        ),
        "ewma-predictive": lambda b: EwmaPredictivePolicy(
            initial_nodes=b, alpha=0.3, headroom=1.2, scan_interval_s=scan
        ),
        "chunked-hysteresis": lambda b: ChunkedHysteresisPolicy(
            initial_nodes=b,
            threshold_ratio=paper_ratio,
            chunk_nodes=16,
            scan_interval_s=scan,
        ),
        "static": lambda b: StaticPolicy(initial_nodes=b, scan_interval_s=scan),
    }


def _register_adaptive_policies() -> None:
    """Self-register the beyond-paper resize rules as policy components."""
    from repro.api.registry import register_component

    for name, cls in (
        ("demand-tracking", DemandTrackingPolicy),
        ("ewma-predictive", EwmaPredictivePolicy),
        ("chunked-hysteresis", ChunkedHysteresisPolicy),
        ("static", StaticPolicy),
    ):
        register_component("policy", name, cls, skip_params=("self", "name"))


_register_adaptive_policies()
