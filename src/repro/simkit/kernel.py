"""The vectorized batch kernel: column operations for homogeneous windows.

The exact engine executes one event at a time.  For *provably homogeneous*
event windows — pure arrival-drain phases in which every event is a grid
scan, a pre-scheduled arrival, or a completion whose instant was fixed at
dispatch — the same state evolution can be computed as numpy column
operations over :class:`~repro.workloads.job.TraceArrays` slices.  This
module holds those operations; :mod:`repro.simkit.fluid` decides *when*
they may replace the event loop (the eligibility gates) and applies the
results to the live world.

Each operation has one implementation, in numpy.  Elementwise float64
arithmetic in numpy is IEEE-754-identical to CPython's float arithmetic,
so the results equal the scalar computation the exact engine performs
bit for bit; ``tests/test_differential_kernel.py`` keeps those scalar
loops as oracles and asserts it.  The contention gate,
:func:`demand_fits`, answers exactly what the :func:`peak_concurrency`
sweep would, in two stages: a linear bound from per-window start sums,
and the sweep itself only where that bound does not clear the machine.
:func:`grid_starts` and the bound's longest-job pass run in blocks of
:data:`BLOCK_ROWS` rows: each writes into at most one full-size result
and reuses one set of block-sized scratch arrays, so a pass over
millions of rows does not fault in fresh full-size temporaries.

Selection (lower to higher precedence):

1. the ``REPRO_KERNEL`` environment variable: ``numpy`` enables the
   hybrid core process-wide; ``off``/``exact``/unset keep the exact
   engine;
2. an explicit ``kernel=`` argument on a runner: ``"numpy"``, a
   ``{"kernel": ..., "materialize": ...}`` mapping, or ``"off"`` to force
   the exact engine.  The spec layer's ``engine`` reference maps onto it.

Any other value raises :class:`KernelConfigError`.  The default
everywhere is **off**: the pure-Python exact engine remains canonical,
and every golden pin runs against it.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Any, Mapping, Optional, Union

import numpy as np

#: The value that enables the hybrid core.
KERNEL_NAME = "numpy"

#: Flag values that mean "exact engine, no kernel".
OFF_VALUES = ("", "off", "exact")

#: The environment flag the hybrid core is gated behind.
KERNEL_ENV_VAR = "REPRO_KERNEL"


class KernelConfigError(ValueError):
    """Raised for unrecognised kernel selections."""


def _enabled(name: object, what: str = "kernel") -> bool:
    """True for ``"numpy"``, False for an off value; anything else raises."""
    if name == KERNEL_NAME:
        return True
    if name in OFF_VALUES:
        return False
    raise KernelConfigError(
        f"unknown {what} {name!r}; accepted: {KERNEL_NAME!r} (hybrid core) "
        f"or {list(OFF_VALUES[1:])} (exact engine)"
    )


@dataclass(frozen=True)
class KernelSpec:
    """One resolved hybrid-core request.

    ``materialize=True`` (the default) keeps full job-object fidelity:
    the fluid tier produces the same :class:`~repro.workloads.job.Job`
    states, server queues and completion lists as the exact engine, so
    any downstream consumer (snapshots, reliability finalization) sees an
    indistinguishable world.  ``materialize=False`` is the columnar fast
    path for scale runs (the ``million-node-year`` scenario): per-job
    Python objects are never created and only aggregate metrics exist.
    """

    materialize: bool = True


def resolve_kernel_spec(
    value: Union[None, str, Mapping[str, Any]],
) -> Optional[KernelSpec]:
    """A runner's ``kernel=`` argument → a :class:`KernelSpec` or None.

    ``None`` defers to ``REPRO_KERNEL``; ``"off"``/``"exact"`` force the
    exact engine regardless of it.
    """
    if value is None:
        env = os.environ.get(KERNEL_ENV_VAR, "")
        return KernelSpec() if _enabled(env, f"${KERNEL_ENV_VAR}") else None
    if isinstance(value, str):
        return KernelSpec() if _enabled(value) else None
    if isinstance(value, Mapping):
        unknown = set(value) - {"kernel", "materialize"}
        if unknown:
            raise KernelConfigError(
                f"unknown kernel option(s) {sorted(unknown)}; "
                f"valid: ['kernel', 'materialize']"
            )
        if not _enabled(value.get("kernel", KERNEL_NAME)):
            return None
        return KernelSpec(bool(value.get("materialize", True)))
    raise KernelConfigError(
        f"kernel must be a name or mapping, got {type(value).__name__}"
    )


# --------------------------------------------------------------------- #
# column operations
# --------------------------------------------------------------------- #
#: Rows per block of the blocked column passes (:func:`grid_starts` and
#: the gate bound's longest-job pass).  Their temporaries hold one block
#: and are reused block after block, so a pass over millions of rows
#: touches no fresh memory beyond its full-size result.
BLOCK_ROWS = 1 << 15


def _blocks(n: int, *dtypes):
    """``(rows, scratch)`` per block of at most :data:`BLOCK_ROWS` rows
    covering ``[0, n)``: ``rows`` is the block's slice, ``scratch`` one
    uninitialised array per dtype, allocated once and cut to the block."""
    step = BLOCK_ROWS
    buffers = [np.empty(min(n, step), dtype=dtype) for dtype in dtypes]
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        yield slice(lo, hi), [buffer[: hi - lo] for buffer in buffers]


def _grid_indices(
    submit: np.ndarray,
    interval: float,
    epoch: float,
    out: np.ndarray,
    n: np.ndarray,
    below: np.ndarray,
    mask: np.ndarray,
) -> None:
    """One block of :func:`grid_starts`, written into ``out``.

    ``n`` receives the per-job first-eligible-tick indices; ``below`` and
    ``mask`` are scratch.  ``out`` doubles as the float scratch: the last
    upward guard pass leaves ``epoch + n*interval`` in it, the result.
    """
    np.subtract(submit, epoch, out=out)
    np.divide(out, interval, out=out)
    np.ceil(out, out=out)
    np.copyto(n, out, casting="unsafe")
    np.maximum(n, 1, out=n)
    # The float-edge guards: the ceil candidate is corrected against the
    # product form in both directions.  Each masked pass moves every
    # off-by-one index one step; they converge in <= 2 passes because
    # ceil is off by at most one ulp-step.
    while True:
        np.subtract(n, 1, out=below)
        np.multiply(below, interval, out=out)
        np.add(epoch, out, out=out)
        np.greater_equal(out, submit, out=mask)
        # below = n - 1 is nonzero exactly where n > 1
        np.logical_and(mask, below, out=mask)
        if not mask.any():
            break
        np.subtract(n, mask, out=n)
    while True:
        np.multiply(n, interval, out=out)
        np.add(epoch, out, out=out)
        np.less(out, submit, out=mask)
        if not mask.any():
            break
        np.add(n, mask, out=n)


def grid_starts(
    submit: np.ndarray, interval: float, epoch: float = 0.0
) -> np.ndarray:
    """Dispatch instants for uncontended jobs under a grid-pinned scan.

    With no contention, every job starts at the first scan tick at or
    after its submission: ``epoch + n*interval`` with
    ``n = min{n >= 1 : epoch + n*interval >= submit}``.  This replicates
    :meth:`repro.simkit.timers.PeriodicTimer.resume` for an
    ``include_now=True`` waker (arrivals are pre-scheduled events, so a
    submission landing exactly on a grid instant is dispatched by that
    instant's tick), and tick 0 never dispatches (the timer's first
    firing is tick 1).  The product form ``epoch + n*interval`` is the
    exact float the timer computes in
    :meth:`~repro.simkit.timers.PeriodicTimer._arm`, and the elementwise
    ``+``/``*`` below are IEEE-identical to the scalar ops, so the
    returned instants equal the exact engine's bit for bit.  The indices
    stay int64 (a float index stops stepping once ``q - 1.0 == q``).
    """
    submit = np.ascontiguousarray(submit, dtype=np.float64)
    interval = float(interval)
    epoch = float(epoch)
    starts = np.empty_like(submit)
    for rows, scratch in _blocks(len(submit), np.int64, np.int64, bool):
        _grid_indices(submit[rows], interval, epoch, starts[rows], *scratch)
    return starts


def peak_concurrency(
    starts: np.ndarray, finishes: np.ndarray, sizes: np.ndarray
) -> int:
    """Maximum simultaneous node demand of the (start, finish, size) set.

    Sweep line with starts ordered *before* finishes at equal instants —
    a conservative overestimate of the true concurrency (a job finishing
    exactly when another starts briefly counts twice), so a window this
    deems uncontended is uncontended under any event interleaving.
    """
    n = len(starts)
    if n == 0:
        return 0
    sizes = np.ascontiguousarray(sizes, dtype=np.int64)
    times = np.concatenate([starts, finishes])
    deltas = np.concatenate([sizes, -sizes])
    # tiekey 0 = start, 1 = finish: at equal times, adds come first
    tiekey = np.concatenate(
        [np.zeros(n, dtype=np.int8), np.ones(n, dtype=np.int8)]
    )
    order = np.lexsort((tiekey, times))
    ordered = deltas[order]
    return int(np.cumsum(ordered).max())


def _start_window_bound(
    starts: np.ndarray, finishes: np.ndarray, sizes: np.ndarray
) -> Optional[int]:
    """An upper bound on :func:`peak_concurrency` from per-window start
    sums, for ``starts`` in non-decreasing order; None where it cannot
    help.

    Let D be the longest ``finish - start`` as float64 computes it, W the
    smallest power of two above D, and w = W/4 the window width.  Then
    k = floor(D/w) + 1 (3 or 4, since W/2 <= D < W) is the smallest
    integer with k*w > D, and every job's real duration is below k*w:
    rounding is monotone and k*w is a float, so a real duration of k*w or
    more would round to at least k*w > D.  The edges are the multiples of
    w above the first start, up to the last; each is an integer below
    2**53 times a power of two, so it is exact, and consecutive edges lie
    exactly w apart.  They cut the starts into windows (the first and
    last unbounded).  A job running at an instant x started in
    ``(x - k*w, x]``, which meets x's window and at most the k before it,
    so no instant sees more demand than the fullest run of k + 1 adjacent
    windows: no slack window is needed, because no edge is rounded.  No
    row gets a window index: ``searchsorted`` of the edges into the
    sorted starts gives each window's first row, ``add.reduceat`` its
    summed sizes, and differences of their running total each run's sum.

    Hands over (None) when D is zero or not finite, when W overflows or w
    underflows to zero (a subnormal D), when the multipliers leave the
    exact integer range, or when there would be more windows than jobs
    (jobs far apart).
    """
    n = len(starts)
    longest = np.float64(0.0)
    for rows, (length,) in _blocks(n, np.float64):
        np.subtract(finishes[rows], starts[rows], out=length)
        longest = np.maximum(longest, length.max())  # keeps a NaN
    if not 0.0 < longest < np.inf:
        return None
    _, exponent = math.frexp(longest)  # longest < 2**exponent
    # W/4: the coarsest split whose bound clears perf_smoke.py's
    # hybrid-kernel machine (65,536 nodes; W/2 reads 78,565 there)
    width = math.ldexp(1.0, exponent - 2)
    if exponent > 1023 or width == 0.0:
        return None
    first = float(starts[0]) / width
    last = float(starts[-1]) / width
    if not (-(2.0**53) < first and last < 2.0**53 and last - first < n - 1):
        return None
    edges = np.arange(math.floor(first) + 1, math.floor(last) + 1) * width
    rows = np.searchsorted(starts, edges)
    # each window's first row; a window past the last start is empty
    heads = np.concatenate(([0], rows[rows < n]))
    sizes = np.ascontiguousarray(sizes, dtype=np.int64)
    sums = np.add.reduceat(sizes, heads)
    # reduceat yields one row's size, not 0, for an empty window
    sums[:-1][heads[1:] == heads[:-1]] = 0
    k = math.floor(longest / width) + 1
    total = np.concatenate(([0], np.cumsum(sums)))
    span = min(k + 1, len(sums))  # fewer windows: one run holds them all
    return int((total[span:] - total[:-span]).max())


def demand_fits(
    starts: np.ndarray, finishes: np.ndarray, sizes: np.ndarray, nodes: int
) -> bool:
    """``peak_concurrency(starts, finishes, sizes) <= nodes``, from a
    linear bound where it clears the machine.

    ``starts`` must be non-decreasing (the fluid tier passes the grid
    starts of a trace in submit order, and :func:`grid_starts` is
    monotone); anything else raises ``ValueError``.
    :func:`_start_window_bound`, one read of the columns, is an upper
    bound on the exact peak, so it decides alone when it clears the
    machine; otherwise the exact :func:`peak_concurrency` sweep, a
    lexsort of 2n events, decides.
    """
    if not (starts[1:] >= starts[:-1]).all():
        raise ValueError("demand_fits needs starts in non-decreasing order")
    bound = _start_window_bound(starts, finishes, sizes)
    if bound is not None and bound <= nodes:
        return True
    return peak_concurrency(starts, finishes, sizes) <= nodes
