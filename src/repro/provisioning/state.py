"""Shared cluster state: the provisioning kernel's node inventory.

:class:`ClusterState` is what every system runner provisions against.
It keeps counts and identity ranges, never per-node objects:

* the free set is a **sorted list of disjoint id ranges** — ``assign`` and
  ``reclaim`` move whole ranges with :mod:`bisect` indexing, so granting a
  500-node lease touches O(log segments) list entries instead of 500
  per-node objects (and a DRP-sized pool of 10^6 nodes costs one range,
  not 10^6 allocations);
* per-owner holdings are range stacks (LIFO: reclaim takes the most
  recently assigned nodes first);
* **failed nodes** live in a third range index alongside free and busy
  (see :mod:`repro.reliability`): :meth:`ClusterState.fail_free` /
  :meth:`ClusterState.fail_owned` move nodes out of service,
  :meth:`ClusterState.repair` returns them to the free index, and the
  conservation invariant ``free + allocated + failed == capacity`` holds
  at every instant (property-tested);
* aggregate counts, the adjustment counter, and the **busy node-second
  integral** accumulate incrementally at each assign/reclaim instant, so
  accounting reads are O(1) instead of a scan over recorded events.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Optional

#: One contiguous block of node ids, as a half-open ``(start, stop)`` pair.
Range = tuple[int, int]


class ClusterStateError(RuntimeError):
    """Raised for invalid inventory operations."""


class ClusterState:
    """Range-indexed node inventory with incremental accounting."""

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self._capacity = int(capacity)
        self._free: list[Range] = [(0, self._capacity)]
        self._free_count = self._capacity
        self._owned: dict[str, list[Range]] = {}
        self._owned_count: dict[str, int] = {}
        self._failed: list[Range] = []  # stack of out-of-service ranges
        self._failed_count = 0
        self._adjustments = 0
        # incremental busy-time integral
        self._busy_node_seconds = 0.0
        self._last_t = 0.0

    # ------------------------------------------------------------------ #
    # counts
    # ------------------------------------------------------------------ #
    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def free_count(self) -> int:
        return self._free_count

    @property
    def allocated_count(self) -> int:
        return self._capacity - self._free_count - self._failed_count

    @property
    def failed_count(self) -> int:
        """Nodes currently out of service (failed, awaiting repair)."""
        return self._failed_count

    def owned_count(self, owner: str) -> int:
        return self._owned_count.get(owner, 0)

    def owned_ranges(self, owner: str) -> list[Range]:
        """The owner's current id ranges (copies; safe to mutate)."""
        return list(self._owned.get(owner, []))

    def total_adjustments(self) -> int:
        """Assign + reclaim node counts accumulated so far."""
        return self._adjustments

    # ------------------------------------------------------------------ #
    # accounting
    # ------------------------------------------------------------------ #
    def _accrue(self, t: float) -> None:
        if t < self._last_t:
            raise ClusterStateError(
                f"time went backwards: {t} < {self._last_t}"
            )
        self._busy_node_seconds += self.allocated_count * (t - self._last_t)
        self._last_t = t

    def busy_node_seconds(self, now: Optional[float] = None) -> float:
        """Exact ∫ allocated(t) dt, accumulated incrementally.

        A pure read: extrapolates from the last mutation instant without
        advancing the internal clock, so mid-run probes never make a later
        assign/reclaim look like time running backwards.
        """
        if now is None:
            return self._busy_node_seconds
        if now < self._last_t:
            raise ClusterStateError(
                f"cannot read occupancy at {now} < last event {self._last_t}"
            )
        return self._busy_node_seconds + self.allocated_count * (
            now - self._last_t
        )

    def fast_forward(self, t: float) -> None:
        """Advance the accounting clock to ``t`` with no inventory change.

        The fluid tier's hook: across a quiescent window the allocation
        level is constant, so the busy-node-second integral accrues in
        closed form — exactly what :meth:`_accrue` computes — and the next
        mutation sees time already at the window boundary.
        """
        self._accrue(t)

    # ------------------------------------------------------------------ #
    # assignment
    # ------------------------------------------------------------------ #
    def assign(self, owner: str, n: int, t: float = 0.0) -> list[Range]:
        """Atomically assign ``n`` free nodes to ``owner`` at time ``t``.

        Raises :class:`ClusterStateError` if fewer than ``n`` are free (the
        provision policy decides grant-or-reject *before* calling this).
        Returns the assigned ranges.
        """
        if n <= 0:
            raise ClusterStateError("must assign at least one node")
        if n > self._free_count:
            raise ClusterStateError(
                f"only {self._free_count} free nodes, requested {n}"
            )
        self._accrue(t)
        taken = self._pop_from(self._free, n)
        self._free_count -= n
        bucket = self._owned.setdefault(owner, [])
        bucket.extend(taken)
        self._owned_count[owner] = self._owned_count.get(owner, 0) + n
        self._adjustments += n
        return taken

    def reclaim(self, owner: str, n: int, t: float = 0.0) -> list[Range]:
        """Reclaim ``n`` nodes from ``owner`` (most recently assigned first)."""
        held = self._owned_count.get(owner, 0)
        if n <= 0 or n > held:
            raise ClusterStateError(
                f"{owner!r} owns {held} nodes, cannot reclaim {n}"
            )
        self._accrue(t)
        bucket = self._owned[owner]
        freed = self._pop_from(bucket, n)
        self._owned_count[owner] = held - n
        if not bucket:
            del self._owned[owner]
            self._owned_count.pop(owner, None)
        self._free_count += n
        for rng in freed:
            self._insert_free(rng)
        self._adjustments += n
        return freed

    # ------------------------------------------------------------------ #
    # failure / repair (the reliability subsystem's hooks)
    # ------------------------------------------------------------------ #
    def fail_free(self, n: int, t: float = 0.0) -> list[Range]:
        """Move ``n`` free nodes out of service at time ``t``."""
        if n <= 0:
            raise ClusterStateError("must fail at least one node")
        if n > self._free_count:
            raise ClusterStateError(
                f"only {self._free_count} free nodes, cannot fail {n}"
            )
        self._accrue(t)
        failed = self._pop_from(self._free, n)
        self._free_count -= n
        self._failed.extend(failed)
        self._failed_count += n
        return failed

    def fail_owned(self, owner: str, n: int, t: float = 0.0) -> list[Range]:
        """Move ``n`` of ``owner``'s nodes out of service at time ``t``.

        The nodes leave the owner's holdings entirely (the lease layer
        stops metering them, see :meth:`repro.cluster.lease.LeaseLedger
        .shrink_lease`); repair returns them to the *free* index — the
        owner re-acquires capacity through its normal provisioning path.
        """
        held = self._owned_count.get(owner, 0)
        if n <= 0 or n > held:
            raise ClusterStateError(
                f"{owner!r} owns {held} nodes, cannot fail {n}"
            )
        self._accrue(t)
        bucket = self._owned[owner]
        failed = self._pop_from(bucket, n)
        self._owned_count[owner] = held - n
        if not bucket:
            del self._owned[owner]
            self._owned_count.pop(owner, None)
        self._failed.extend(failed)
        self._failed_count += n
        return failed

    def repair(self, n: int, t: float = 0.0) -> list[Range]:
        """Return ``n`` repaired nodes to the free index at time ``t``."""
        if n <= 0 or n > self._failed_count:
            raise ClusterStateError(
                f"{self._failed_count} nodes failed, cannot repair {n}"
            )
        self._accrue(t)
        repaired = self._pop_from(self._failed, n)
        self._failed_count -= n
        self._free_count += n
        for rng in repaired:
            self._insert_free(rng)
        return repaired

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    @staticmethod
    def _pop_from(ranges: list[Range], n: int) -> list[Range]:
        """Pop ``n`` nodes off a range stack (LIFO), splitting as needed."""
        taken: list[Range] = []
        remaining = n
        while remaining:
            start, stop = ranges[-1]
            width = stop - start
            if width <= remaining:
                ranges.pop()
                taken.append((start, stop))
                remaining -= width
            else:
                ranges[-1] = (start, stop - remaining)
                taken.append((stop - remaining, stop))
                remaining = 0
        return taken

    def _insert_free(self, rng: Range) -> None:
        """Insert a range into the free index, merging adjacent blocks."""
        start, stop = rng
        free = self._free
        i = bisect_left(free, (start, stop))
        # merge with predecessor
        if i > 0 and free[i - 1][1] == start:
            start = free[i - 1][0]
            i -= 1
            free.pop(i)
        # merge with successor
        if i < len(free) and free[i][0] == stop:
            stop = free[i][1]
            free.pop(i)
        free.insert(i, (start, stop))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<ClusterState cap={self._capacity} free={self._free_count} "
            f"segments={len(self._free)} owners={len(self._owned)}>"
        )
