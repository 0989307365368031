"""Sharded sanitize + neighbor-set fold over columnar traces.

Trace shards are independent under both pipeline stages: sanitization
(section 4.1) is per-trace, and the neighbor-set fold (section 4.3)
records *membership*, not multiplicity — so a worker folds its
trace-index range of a :class:`~repro.perf.flat.FlatTraces` block with
:func:`~repro.perf.flat.accumulate_flat` and returns partial N_F/N_B
tables, and the parent merges them by set union.  The partial tables
cross the boundary as packed ``uint32`` buffers
(:class:`repro.perf.flat.FlatGraphBundle`), so the result pickle is a
handful of ``bytes`` objects; the block itself reaches workers
copy-on-write.  At ``jobs=1`` the one shard runs inline.

Determinism: set-union is commutative and associative, so the merged
tables contain exactly the serial members for every address regardless
of shard count; the merged dicts are rebuilt with sorted keys so even
their iteration order is a pure function of the input.  (The inference
engine is insensitive to neighbor-table iteration order — every
result-affecting traversal sorts — but canonical order makes the
graph reproducible byte-for-byte on its own terms.)  The shared tail
:func:`repro.graph.neighbors.finish_interface_graph` computes
other-sides and emits the same ``graph.built`` observability as the
serial object builder.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.graph.neighbors import InterfaceGraph, finish_interface_graph
from repro.net.special import default_special_registry
from repro.obs.observer import NULL_OBS, Observability
from repro.perf.flat import (
    FlatGraphBundle,
    FlatTraces,
    accumulate_flat,
    bundle_tables,
    merge_graph_bundles,
    pack_traces,
    special_memo,
)
from repro.perf.pool import Shard, fork_map, shared_payload
from repro.traceroute.model import Trace


def _flat_graph_shard(shard: Shard) -> FlatGraphBundle:
    """Fold one trace-index range of a columnar block into a packed
    partial-table bundle (runs in a worker process, or inline).

    The copy-on-write payload is a :class:`FlatTraces` — a handful of
    flat buffers, so the fork inherits it without touching per-object
    refcounts.  O(hops in range); pickles back only packed buffers.
    """
    flat: FlatTraces = shared_payload()
    start, end = shard
    is_special = special_memo(default_special_registry().is_special)
    forward = {}
    backward = {}
    seen = set()
    universe = set()
    counts = accumulate_flat(
        flat, start, end, forward, backward, seen, universe, is_special
    )
    return bundle_tables(forward, backward, seen, universe, counts)


def finish_graph_from_bundles(
    bundles: List[FlatGraphBundle], obs: Observability = NULL_OBS
) -> InterfaceGraph:
    """Merge worker bundles and finish the interface graph.

    Deterministic parent-side tail: set-union merge with sorted-key
    rebuild, the serial sanitize gauges, ``perf.flat.*`` transfer
    accounting, and the shared :func:`finish_interface_graph` (same
    ``graph.built`` event as the serial builder).  O(total members) in
    the merged tables.
    """
    forward, backward, seen, universe, counts = merge_graph_bundles(bundles)
    retained, discarded, buggy = counts
    universe.update(seen)
    if obs.enabled:
        obs.gauge("sanitize.retained", retained)
        obs.gauge("sanitize.discarded", discarded)
        obs.gauge("sanitize.buggy_hops_removed", buggy)
        obs.gauge("perf.flat.shards", len(bundles))
        obs.inc(
            "perf.flat.bundle_bytes", sum(bundle.nbytes for bundle in bundles)
        )
    return finish_interface_graph(
        InterfaceGraph(forward=forward, backward=backward),
        seen,
        universe,
        default_special_registry().is_special,
        obs,
    )


def build_graph_flat(
    flat: FlatTraces,
    jobs: int,
    obs: Observability = NULL_OBS,
    shard_timeout: Optional[float] = None,
) -> InterfaceGraph:
    """Sanitize and fold a columnar block into the interface graph.

    Shards the trace-index space across *jobs* workers, each folding
    its range with the flat kernel — no :class:`Trace`/``Hop`` object
    is created on either side of the fork.  Equal downstream to
    ``sanitize_traces`` + ``build_interface_graph`` over the decoded
    traces (``tests/test_perf_flat.py`` and the golden suites hold the
    kernels equal).  *shard_timeout* is the supervisor's per-shard
    deadline (docs/ROBUSTNESS.md).
    """
    with obs.span("fold"):
        bundles = fork_map(
            _flat_graph_shard, flat, len(flat), jobs, timeout=shard_timeout, obs=obs
        )
    return finish_graph_from_bundles(bundles, obs)


def build_graph_parallel(
    traces: Sequence[Trace],
    jobs: int,
    obs: Observability = NULL_OBS,
    shard_timeout: Optional[float] = None,
) -> InterfaceGraph:
    """:func:`build_graph_flat` over trace objects: packs them into
    columns first (O(total hops)).

    Raises :class:`~repro.perf.flat.FlatEncodeError` for a hand-built
    trace whose fields do not fit the columns; parsed traces always do.
    """
    return build_graph_flat(pack_traces(traces), jobs, obs, shard_timeout)
