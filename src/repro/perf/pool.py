"""Fork-pool substrate for the sharded execution layer.

The hot inputs (the raw trace lines, the parsed trace list) are large;
pickling them to every worker would eat the parallel win.  Instead the
parent stashes the shared payload in a module global immediately before
creating a ``fork`` pool — forked children inherit the parent's address
space copy-on-write, so workers receive only ``(start, end)`` index
ranges and read the payload for free via :func:`shared_payload`.  Only
the (much smaller) per-shard results are pickled back.

The pooled path runs under the supervisor in
:mod:`repro.robust.supervise`: per-shard deadlines, dead/hung-worker
detection, retries with backoff, and inline degradation on the final
attempt.  When jobs <= 1, the item list is empty, or the platform has
no ``fork`` start method, :func:`fork_map` degrades to running the
worker inline in the parent — the degraded path is bit-for-bit the
parallel path minus the processes, so callers never branch on platform.

A SIGTERM (or Ctrl-C) during a pooled map terminates the children
promptly, restores the payload stash, and surfaces as
``KeyboardInterrupt`` so the CLI can exit 130 — no traceback spray
from every worker.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.obs.observer import NULL_OBS, Observability

#: shard index range: [start, end) over the shared payload's items
Shard = Tuple[int, int]

_PAYLOAD: Any = None


def shared_payload() -> Any:
    """The parent's payload, as inherited by a forked worker."""
    return _PAYLOAD


def default_jobs() -> int:
    """The worker count used when a caller does not pass one.

    Reads ``MAPIT_JOBS`` (the CI matrix and batch jobs set it) and
    falls back to 1 — the serial path stays the default everywhere.
    ``MAPIT_JOBS=0`` means *auto*: every available core, mirroring
    ``--jobs 0`` (docs/CLI.md).  Negative or unparseable values fall
    back to 1 — the environment cannot usage-error a run the way a
    flag can.
    """
    try:
        value = int(os.environ.get("MAPIT_JOBS", "1"))
    except ValueError:
        return 1
    if value == 0:
        return os.cpu_count() or 1
    return max(1, value)


def resolve_jobs(value: Optional[int]) -> int:
    """Resolve a caller-supplied worker count to an effective one.

    ``None`` defers to :func:`default_jobs` (the ``$MAPIT_JOBS``
    fallback), ``0`` means auto — ``os.cpu_count()`` clamped to at
    least 1 — and negatives raise ``ValueError`` so CLI layers can
    reject them as a usage error instead of silently clamping.
    """
    if value is None:
        return default_jobs()
    if value < 0:
        raise ValueError(f"jobs must be >= 0 (0 = auto), got {value}")
    if value == 0:
        return os.cpu_count() or 1
    return value


def shard_ranges(count: int, shards: int) -> List[Shard]:
    """Split ``range(count)`` into at most *shards* contiguous ranges.

    Ranges are returned in order and cover every index exactly once, so
    an order-preserving concatenation of per-shard results equals the
    serial result.  Sizes differ by at most one.  ``count == 0``
    returns no ranges at all — an empty input must never dispatch a
    worker over zero items.  O(shards); allocates nothing that crosses
    a process boundary except the tuples themselves.
    """
    if count <= 0:
        return []
    shards = max(1, min(shards, count))
    base, extra = divmod(count, shards)
    ranges: List[Shard] = []
    start = 0
    for index in range(shards):
        size = base + (1 if index < extra else 0)
        ranges.append((start, start + size))
        start += size
    return ranges


def fork_available() -> bool:
    """True when the ``fork`` start method exists on this platform."""
    return "fork" in multiprocessing.get_all_start_methods()


def _sigterm_to_interrupt(signum, frame):
    """Make SIGTERM follow the SIGINT path: unwind, clean up, exit 130."""
    raise KeyboardInterrupt


class _graceful_sigterm:
    """Route SIGTERM through ``KeyboardInterrupt`` while a pool runs.

    Only the main thread can re-bind signal handlers; elsewhere this is
    a no-op and SIGTERM keeps its default hard-kill semantics.
    """

    def __enter__(self):
        self._previous = None
        if threading.current_thread() is threading.main_thread():
            try:
                self._previous = signal.signal(
                    signal.SIGTERM, _sigterm_to_interrupt
                )
            except (ValueError, OSError):
                self._previous = None
        return self

    def __exit__(self, *exc_info):
        if self._previous is not None:
            signal.signal(signal.SIGTERM, self._previous)
        return False


def fork_map(
    worker: Callable[[Shard], Any],
    payload: Any,
    count: int,
    jobs: int,
    shards: Optional[Sequence[Shard]] = None,
    *,
    timeout: Optional[float] = None,
    obs: Observability = NULL_OBS,
    budget=None,
    on_result: Optional[Callable[[int, Any], None]] = None,
) -> List[Any]:
    """Run *worker* over index shards of *payload*, in processes.

    *worker* must be a module-level function (pickled by reference)
    that reads the payload through :func:`shared_payload`.  Results
    come back in shard order.  With ``jobs <= 1`` — or without fork
    support — the shards run inline in the parent.  *on_result*, when
    given, fires with ``(shard_index, value)`` as each shard completes
    (exactly once per shard, completion order) — on the inline path it
    fires after each serial shard, so checkpointing callers behave the
    same with and without a pool.

    *timeout* is the per-shard deadline in seconds; when ``None`` it
    falls back to ``MAPIT_SHARD_TIMEOUT``.  Pooled shards that time
    out, crash, or raise are retried and finally degraded to inline
    execution by the supervisor; *budget*, when armed, counts the
    rescued-shard fraction against the run's
    :class:`~repro.robust.errors.ErrorBudget`.

    What pickles: *nothing* of the payload (copy-on-write through the
    module global), one small shard tuple per task going out, and each
    worker's return value coming back — keep returns to packed
    ``bytes``/counter bundles (:mod:`repro.perf.flat`), as every byte
    returned is pickled in the worker and unpickled in the parent.
    Cost beyond the workers' own time: one ``fork`` per pool worker
    plus O(total result bytes) for the return trip.
    """
    from repro.robust.supervise import (
        SuperviseConfig,
        default_shard_timeout,
        supervised_pool_map,
    )

    global _PAYLOAD
    ranges = list(shards) if shards is not None else shard_ranges(count, jobs)
    # an inline worker may itself call fork_map (a sweep cell loading its
    # world): the inner map must hand the outer payload back, not None
    outer_payload = _PAYLOAD
    # mapitlint: disable=FORK001 -- parent-side CoW stash, set pre-fork
    _PAYLOAD = payload
    try:
        if jobs <= 1 or count == 0 or len(ranges) <= 1 or not fork_available():
            results = []
            for index, shard in enumerate(ranges):
                value = worker(shard)
                results.append(value)
                if on_result is not None:
                    on_result(index, value)
            return results
        if timeout is None:
            timeout = default_shard_timeout()
        with _graceful_sigterm():
            return supervised_pool_map(
                worker,
                ranges,
                jobs,
                config=SuperviseConfig(timeout=timeout),
                obs=obs,
                budget=budget,
                on_result=on_result,
            )
    finally:
        # mapitlint: disable=FORK001 -- parent-side cleanup post-join
        _PAYLOAD = outer_payload
