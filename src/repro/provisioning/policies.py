"""Provisioning policies: how a workload holds nodes on the shared cluster.

Before this module existed, every system runner hand-rolled the same three
concerns — when to open a lease, how long to keep it, when to hand it back
— in five near-identical copies (``systems/drp.py``, ``systems/fixed.py``,
``systems/dsp_runner.py``, ``systems/consolidation.py`` and the
DawningCloud core).  Each strategy is now one :class:`ProvisioningPolicy`:

* :class:`PerJobLease` — DRP's rule: a fresh lease per job, returned at
  completion (the hour-rounding penalty of Table 2 in one class);
* :class:`PooledLease` — the cost-aware manual strategy: keyed idle
  buckets of paid-for leases, drained before leasing anew, returned at
  the hourly check when idle (DRP-MTC's user pool and both DRP-pooling
  ablation rungs are this policy under different bucket keys);
* :class:`FixedAllocation` — DCS/SSP: one block for the whole workload
  period, owned (DCS) or leased through the provision service (SSP);
* :class:`ConsolidatedAllocation` — DawningCloud's dynamic negotiation
  (§3.2.1): initial resources at TRE startup, DR1/DR2 requests on every
  server scan, once-per-hour idle-release checks per granted request.

Two attachment shapes exist, mirroring how the paper's systems consume
nodes.  *Task-attached* policies (:class:`PerJobLease`,
:class:`PooledLease`) hand leases directly to jobs — there is no runtime
environment, so the policy is the whole resource story.  *Server-attached*
policies (:class:`FixedAllocation`, :class:`ConsolidatedAllocation`) feed
an :class:`~repro.core.servers.REServer`'s owned-node count and let the
queue/scheduler dispatch onto it.  All of them bill through the provision
service's :class:`~repro.provisioning.billing.BillingMeter` and record
usage deltas for the metrics layer, so any policy × any meter × any
scheduler composes into a runnable system (see
:mod:`repro.provisioning.runner`).
"""

from __future__ import annotations

import abc
from typing import Any, Hashable, Optional, TYPE_CHECKING

from repro.api.registry import register_component
from repro.cluster.lease import HOUR, Lease
from repro.metrics.timeseries import UsageRecorder
from repro.simkit.engine import SimulationEngine
from repro.simkit.timers import PeriodicTimer

#: Collaborators the runtime injects into provisioning policies; only the
#: remaining keyword parameters are spec-settable data.
_INJECTED = ("engine", "provision", "client", "usage", "server", "policy")

if TYPE_CHECKING:  # pragma: no cover - cluster.provision imports billing
    from repro.cluster.provision import ResourceProvisionService


class ProvisioningPolicy(abc.ABC):
    """Common contract: a named node-holding strategy with teardown.

    Construction binds the policy to its collaborators (engine, provision
    service, usage recorder, and — for server-attached policies — the
    server); :meth:`teardown` returns every held node and must be safe to
    call once the run is over.
    """

    name: str = "abstract"

    @abc.abstractmethod
    def teardown(self) -> None:
        """Return every held lease/node (run finished or TRE destroyed)."""

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} {self.name}>"


# --------------------------------------------------------------------- #
# task-attached policies
# --------------------------------------------------------------------- #
class PerJobLease(ProvisioningPolicy):
    """One fresh lease per job, returned the instant the job completes.

    The paper's DRP rule (§4.1): "all jobs run immediately without
    queuing", every job pays at least one billing unit per node.
    """

    name = "per-job"

    def __init__(
        self,
        engine: SimulationEngine,
        provision: ResourceProvisionService,
        client: str,
        usage: UsageRecorder,
    ) -> None:
        self.engine = engine
        self.provision = provision
        self.client = client
        self.usage = usage

    def acquire(self, n_nodes: int) -> Lease:
        lease = self.provision.request(self.client, n_nodes, self.engine.now)
        if lease is None:  # pragma: no cover - capacity effectively infinite
            raise RuntimeError(f"{self.client}: provisioning pool exhausted")
        self.usage.record(self.engine.now, n_nodes)
        return lease

    def release(self, lease: Lease) -> None:
        self.provision.release(lease, self.engine.now)
        self.usage.record(self.engine.now, -lease.n_nodes)

    def teardown(self) -> None:
        """Nothing pooled: open leases belong to still-running jobs."""


class PooledLease(ProvisioningPolicy):
    """Keyed idle buckets of paid leases, reclaimed at the periodic check.

    The manual cost-aware strategy under per-started-hour billing: a task
    drains its bucket before opening a new lease, finished tasks return
    leases to the bucket, and a per-lease timer releases leases that sit
    idle at the check boundary.  The bucket key decides the sharing scope:

    * ``size`` (default) — one pool per lease width (DRP's MTC end user);
    * ``(user, size)`` — per-end-user pools (the ``DRP-pooled`` ablation);
    * ``(0, size)`` — one community pool (the ``DRP-shared-pool`` rung).
    """

    name = "pooled"

    def __init__(
        self,
        engine: SimulationEngine,
        provision: ResourceProvisionService,
        client: str,
        usage: UsageRecorder,
        reclaim_interval_s: float = HOUR,
    ) -> None:
        self.engine = engine
        self.provision = provision
        self.client = client
        self.usage = usage
        self.reclaim_interval_s = float(reclaim_interval_s)
        self._idle: dict[Hashable, list[Lease]] = {}
        self._timers: dict[int, PeriodicTimer] = {}
        self._keys: dict[int, Hashable] = {}  # lease_id -> acquire bucket

    # -------------------------------------------------------------- #
    def acquire(self, n_nodes: int, key: Optional[Hashable] = None) -> Lease:
        """A lease of ``n_nodes``: from the ``key`` bucket, else fresh."""
        key = n_nodes if key is None else key
        bucket = self._idle.get(key)
        if bucket:
            return bucket.pop()
        lease = self.provision.request(self.client, n_nodes, self.engine.now)
        if lease is None:  # pragma: no cover - capacity effectively infinite
            raise RuntimeError(f"{self.client}: provisioning pool exhausted")
        self.usage.record(self.engine.now, n_nodes)
        self._keys[lease.lease_id] = key
        timer = PeriodicTimer(
            self.engine, self.reclaim_interval_s, self._reclaim_check,
            lease, key,
        )
        timer.start()
        self._timers[lease.lease_id] = timer
        return lease

    def release(self, lease: Lease) -> None:
        """Task done: the lease goes back to its bucket, still paid for.

        The bucket is the one the lease was acquired under — remembered
        per lease, so it can never land where its reclaim timer does not
        look.
        """
        self._idle.setdefault(self._keys[lease.lease_id], []).append(lease)

    def _reclaim_check(self, lease: Lease, key: Hashable) -> None:
        """Per-lease periodic check: release if it sits idle right now."""
        bucket = self._idle.get(key, [])
        if lease in bucket:
            bucket.remove(lease)
            self._close(lease)

    def _close(self, lease: Lease) -> None:
        timer = self._timers.pop(lease.lease_id, None)
        if timer is not None:
            timer.stop()
        self._keys.pop(lease.lease_id, None)
        self.provision.release(lease, self.engine.now)
        self.usage.record(self.engine.now, -lease.n_nodes)

    def idle_count(self) -> int:
        """Idle pooled nodes across all buckets."""
        return sum(
            lease.n_nodes for bucket in self._idle.values() for lease in bucket
        )

    def teardown(self) -> None:
        """Run over: every idle pooled lease goes back to the provider."""
        for bucket in self._idle.values():
            for lease in list(bucket):
                self._close(lease)
        self._idle.clear()


# --------------------------------------------------------------------- #
# server-attached policies
# --------------------------------------------------------------------- #
class FixedAllocation(ProvisioningPolicy):
    """One fixed block for the whole workload period (DCS and SSP, §4.1).

    With a provision service the block is *leased* (SSP): one initial
    grant, one release at finalization — exactly ``2 × nodes`` adjusted
    nodes, Figure 14's "SSP has the lowest management overhead" — and the
    billed node-hours come from the meter.  Without one the block is
    *owned* (DCS): no leases, no adjustments; consumption is the closed
    form ``size × period`` accounted by the caller.
    """

    name = "fixed"

    def __init__(
        self,
        engine: SimulationEngine,
        server: Any,
        nodes: int,
        provision: Optional[ResourceProvisionService] = None,
    ) -> None:
        if nodes <= 0:
            raise ValueError("fixed allocation must be positive")
        self.engine = engine
        self.server = server
        self.nodes = int(nodes)
        self.provision = provision
        self.lease: Optional[Lease] = None
        self._started = False

    @property
    def leased(self) -> bool:
        return self.provision is not None

    def start(self) -> None:
        """Acquire the block (machine delivery / RE startup)."""
        if self._started:
            raise RuntimeError("fixed allocation already started")
        self._started = True
        if self.provision is not None:
            lease = self.provision.request(
                self.server.name, self.nodes, self.engine.now, kind="initial"
            )
            if lease is None:
                raise RuntimeError(
                    f"{self.server.name}: provider could not supply the "
                    f"fixed {self.nodes} nodes"
                )
            self.lease = lease
        self.server.add_nodes(self.nodes)

    def teardown(self) -> None:
        """Finalization: the leased block goes back; an owned one just stops.

        Closes *every* open lease of the server's client, not only the
        initial block: under a failure model the initial lease shrinks as
        nodes die and per-node ``"repair"`` re-leases accumulate beside
        it, and all of them must be billed at finalization.
        """
        if self.provision is not None and self._started:
            self.provision.shutdown_client(self.server.name, self.engine.now)
            self.lease = None


class ConsolidatedAllocation(ProvisioningPolicy):
    """DawningCloud's dynamic resource negotiation (§3.2.1).

    Connects one TRE server to the resource provision service:

    1. at startup it obtains the **initial resources** (B), which "will
       not be reclaimed by the resource provision service until the TRE
       is destroyed";
    2. on every server scan it evaluates the resource management policy
       and sends DR1/DR2 requests for **dynamic resources**;
    3. for every granted dynamic request it registers a once-per-hour
       timer that releases exactly that amount back when the TRE has that
       much idle capacity (§3.2.2.1 steps 2-3);
    4. at TRE destruction it releases everything and closes the leases.

    The negotiation is deliberately all-or-nothing on the provider side
    (§3.2.2.3): a rejected request simply leaves the queue to drain on
    what the TRE already owns, and a later scan may retry with a fresh
    demand estimate.
    """

    name = "consolidated"

    def __init__(
        self,
        engine: SimulationEngine,
        server: Any,
        provision: ResourceProvisionService,
        policy: Any,
    ) -> None:
        self.engine = engine
        self.server = server
        self.provision = provision
        self.policy = policy
        self.initial_lease: Optional[Lease] = None
        self._release_timers: dict[int, PeriodicTimer] = {}
        self._release_leases: dict[int, Lease] = {}
        self._releases_suspended = False
        self.dynamic_grants = 0
        self.dynamic_rejections = 0
        self._started = False
        server.pre_dispatch_hooks.append(self._on_scan)
        server.idle_increase_hooks.append(self._on_idle_increase)
        provision.on_lease_shrink.append(self._on_lease_shrink)
        # Idle-gap fast-forward is only sound when skipped scans are
        # provable no-ops; a stateful policy (its estimate evolves on
        # every scan) pins the server to the full cadence.
        if not getattr(policy, "quiescence_safe", False):
            server.idle_scan_suspend = False

    # -------------------------------------------------------------- #
    def start(self) -> None:
        """Obtain the initial resources (TRE startup)."""
        if self._started:
            raise RuntimeError("already started")
        self._started = True
        lease = self.provision.request(
            self.server.name, self.policy.initial_nodes, self.engine.now,
            kind="initial",
        )
        if lease is None:
            raise RuntimeError(
                f"{self.server.name}: provider could not supply the initial "
                f"{self.policy.initial_nodes} nodes"
            )
        self.initial_lease = lease
        self.server.add_nodes(lease.n_nodes)

    # -------------------------------------------------------------- #
    def _on_scan(self) -> bool:
        """Policy evaluation, run by the server just before dispatch.

        Returns True when a dynamic request was issued (granted *or*
        rejected — a rejection must be retried next scan against the
        provider's then-current pool, so it counts as activity).
        """
        if not self._started:
            return False
        queue = self.server.queue
        request = self.policy.dynamic_request_size(
            queue.total_demand,
            queue.biggest_demand,
            self.server.owned,
        )
        if request > 0:
            self._request_dynamic(request)
            return True
        return False

    def _request_dynamic(self, n_nodes: int) -> None:
        lease = self.provision.request(
            self.server.name, n_nodes, self.engine.now, kind="dynamic"
        )
        if lease is None:
            self.dynamic_rejections += 1
            return
        self.dynamic_grants += 1
        self.server.add_nodes(lease.n_nodes)
        timer = PeriodicTimer(
            self.engine,
            self.policy.release_check_interval_s,
            self._check_release,
            lease,
            silent_suspend=True,
        )
        timer.start()
        self._release_timers[lease.lease_id] = timer
        self._release_leases[lease.lease_id] = lease

    def _check_release(self, lease: Lease) -> None:
        """Hourly idle check for one dynamic grant (§3.2.2.1).

        "If there are idle resources with the size equal with or more than
        the value of DR1, the server will release the resources with the
        size of the DR1 to the resource provision service."
        """
        if not lease.open:  # already force-released at shutdown
            self._drop_timer(lease)
            return
        if self.server.idle >= lease.n_nodes:
            self._drop_timer(lease)
            self.server.remove_nodes(lease.n_nodes)
            self.provision.release(lease, self.engine.now)
        else:
            self._maybe_suspend_releases()

    # -------------------------------------------------------------- #
    # release-check fast-forward
    # -------------------------------------------------------------- #
    # Hourly release ticks are no-ops while the TRE is busier than its
    # smallest dynamic grant.  Once a (no-op) check observes that *every*
    # open grant is unreleasable, the whole cadence suspends, and any
    # event that can flip ``idle >= n_nodes`` back on resumes it: an idle
    # increase (grant, completion, kill) or a lease shrinking under a
    # node failure.  The timers suspend *silently*
    # (:class:`~repro.simkit.timers.PeriodicTimer` with
    # ``silent_suspend=True``): their grid slots — and the sequence
    # numbers those armings consume — stay in the heap exactly as in the
    # un-suspended run, only the callback work is skipped, so the check
    # can never drift against same-instant scans, completions or sibling
    # checks.  An hourly tick is armed a full interval ahead of time; no
    # re-armed event could reproduce that heap position after the slot
    # lapsed, which is why these timers do not use the scans' lapsing-
    # ghost suspension.  ``server.idle_scan_suspend = False`` opts out
    # of this fast-forward too.
    def _maybe_suspend_releases(self) -> None:
        if not self.server.idle_scan_suspend:
            return
        idle = self.server.idle
        if any(idle >= l.n_nodes for l in self._release_leases.values()):
            return
        self._releases_suspended = True
        for timer in self._release_timers.values():
            timer.suspend()

    def _on_lease_shrink(self, lease: Lease) -> None:
        # a node failure shrank a lease: ``idle >= n_nodes`` can flip true
        # with no idle change at all, so re-run the resume check
        self._on_idle_increase()

    def _on_idle_increase(self) -> None:
        if not self._releases_suspended:
            return
        idle = self.server.idle
        if all(idle < l.n_nodes for l in self._release_leases.values()):
            return
        self._releases_suspended = False
        for timer in self._release_timers.values():
            timer.resume()  # flag flip: silent timers still own their slot

    def _drop_timer(self, lease: Lease) -> None:
        timer = self._release_timers.pop(lease.lease_id, None)
        if timer is not None:
            timer.stop()
        self._release_leases.pop(lease.lease_id, None)

    # -------------------------------------------------------------- #
    def shutdown(self) -> None:
        """TRE destruction: stop timers, return every lease (§2.2 step 8).

        Also unregisters from the provision service, whose hook list would
        otherwise keep this allocation (and its server) alive in a cycle.
        """
        for timer in self._release_timers.values():
            timer.stop()
        self._release_timers.clear()
        self._release_leases.clear()
        self._releases_suspended = False
        self.provision.shutdown_client(self.server.name, self.engine.now)
        hooks = self.provision.on_lease_shrink
        if self._on_lease_shrink in hooks:  # a second shutdown is a no-op
            hooks.remove(self._on_lease_shrink)
        self.server.stop()

    def teardown(self) -> None:
        self.shutdown()

    @property
    def open_dynamic_nodes(self) -> int:
        initial = self.initial_lease.n_nodes if self.initial_lease else 0
        return self.provision.allocated_nodes(self.server.name) - initial


for _cls in (PerJobLease, PooledLease, FixedAllocation, ConsolidatedAllocation):
    register_component(
        "provisioning-policy", _cls.name, _cls, skip_params=_INJECTED
    )
del _cls
