"""Flat int-keyed hot-path structures (the ``repro.perf.flat`` layer).

The expensive objects in a MAP-IT run are the *per-hop* Python objects:
a dense dataset holds hundreds of thousands of :class:`Hop` /
:class:`Trace` instances whose creation, refcount traffic, and pickling
dominate the parallel layer's cost.  Addresses are already integers
(``repro.net``), and every pipeline stage downstream of parsing only
needs integer adjacency — so this module provides the flat twins the
sharded execution layer moves around instead:

* :class:`FlatTraces` — a columnar, ``array``/``bytes``-backed encoding
  of a parsed trace list (one buffer per column, no per-hop objects).
  It round-trips exactly (``unpack_traces(pack_traces(ts)) == ts``),
  serializes to a self-describing binary block (the ``.mapitc`` v2
  cache payload), and supports O(1) slicing into trace index ranges so
  workers can decode or fold *their shard only*.
* :class:`FlatBuilder` — columns that grow one record at a time: the
  parsers of :mod:`repro.perf.ingest` append to it directly, and
  :func:`pack_traces` / :func:`concat_flat` are built on the same
  layout.
* :func:`accumulate_flat` — the §4.1 sanitize + §4.3 neighbor-set fold
  executed directly over the columns, producing exactly the tallies of
  ``sanitize_traces`` + ``accumulate_neighbors`` without materializing
  a single ``Hop`` (property-tested against the object kernel in
  ``tests/test_perf_flat.py``); its callers pass the RFC 6890 check
  as one bisect into :data:`repro.net.special.RFC6890_TABLE`.
* :func:`encode_table` / :func:`merge_table_blob` /
  :func:`encode_addresses` / :func:`merge_address_blob` — the counter
  bundle codec: neighbor tables and address sets as packed ``uint32``
  runs.  A worker's entire result pickles as a handful of ``bytes``
  objects (near-memcpy) instead of an object graph.
* :class:`FlatGraphBundle` / :func:`merge_graph_bundles` — what one
  worker returns across the fork boundary and the deterministic
  parent-side merge (set union + sorted key rebuild, so worker
  scheduling order cannot leak into results).
* :func:`graph_address_universe` — every address the passes can ask
  the IP2AS mapper about, which the engine resolves in one merge walk
  (:meth:`repro.core.engine.Engine.prime_origins`) before the passes.

Everything here is an optimization, never a semantic change: the
golden-bundle, oracle-differential, and chaos harnesses hold every
consumer to byte-identity with the object pipeline.
"""

from __future__ import annotations

import struct
import sys
from array import array
from dataclasses import dataclass
from itertools import accumulate, compress
from operator import itemgetter
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.net.table import U32
from repro.traceroute.model import Hop, Trace

#: signed 8-byte items (quoted TTLs and flow ids are unbounded ints)
I64 = "q"
#: IEEE double items (RTTs round-trip exactly)
F64 = "d"
#: single-byte flag items
U8 = "B"

#: hop flag bit: the hop responded (address column is meaningful)
_RESPONDED = 0x01

_BLOCK_MAGIC = b"FTC1"
_LITTLE, _BIG = 1, 2
_NATIVE_ENDIAN = _LITTLE if sys.byteorder == "little" else _BIG
_BLOCK_HEADER = struct.Struct("<4sBxxxIII")


class FlatEncodeError(ValueError):
    """A trace field does not fit the flat encoding's integer ranges.

    Raised by :func:`pack_traces` for out-of-range fields (an address
    outside u32, a quoted TTL or flow id outside i64, a monitor string
    over 4 GiB).  Every field the trace parsers produce fits (they
    bound addresses to u32 and TTLs to 0–255), so only hand-built
    traces can raise it.
    """


@dataclass
class FlatTraces:
    """A parsed trace list as parallel columns.

    Per trace: ``monitor_off`` (n+1 cumulative byte offsets into
    ``monitors``), ``dst``, ``flow``, and ``hop_start`` (n+1 cumulative
    hop indices).  Per hop: ``hop_flags`` (bit 0 = responded),
    ``hop_addr`` (0 when unresponsive), ``hop_quoted``, ``hop_rtt``.
    Memory is a handful of flat buffers regardless of trace count —
    forked workers inherit them copy-on-write without the per-object
    refcount writes that make large object heaps fork-hostile.
    """

    monitor_off: array
    monitors: bytes
    dst: array
    flow: array
    hop_start: array
    hop_flags: array
    hop_addr: array
    hop_quoted: array
    hop_rtt: array

    def __len__(self) -> int:
        return len(self.dst)

    @property
    def hop_count(self) -> int:
        return len(self.hop_flags)

    @property
    def nbytes(self) -> int:
        """Total buffer size in bytes (the ``perf.flat.*`` accounting)."""
        return (
            len(self.monitors)
            + sum(
                column.itemsize * len(column)
                for column in (
                    self.monitor_off,
                    self.dst,
                    self.flow,
                    self.hop_start,
                    self.hop_flags,
                    self.hop_addr,
                    self.hop_quoted,
                    self.hop_rtt,
                )
            )
        )

    # -- binary block -------------------------------------------------------

    def to_bytes(self) -> bytes:
        """Serialize to a self-describing binary block.

        Layout: a 16-byte header (magic, endianness tag, trace count,
        hop count, monitor-blob length) followed by the columns in
        declaration order, each a raw native-endian array dump.  O(total
        bytes); produces the ``.mapitc`` v2 payload and the shard blobs
        pickled back from workers.
        """
        header = _BLOCK_HEADER.pack(
            _BLOCK_MAGIC,
            _NATIVE_ENDIAN,
            len(self.dst),
            len(self.hop_flags),
            len(self.monitors),
        )
        parts = [header, self.monitor_off.tobytes(), self.monitors]
        parts.extend(
            column.tobytes()
            for column in (
                self.dst,
                self.flow,
                self.hop_start,
                self.hop_flags,
                self.hop_addr,
                self.hop_quoted,
                self.hop_rtt,
            )
        )
        return b"".join(parts)

    @classmethod
    def from_bytes(cls, blob: bytes) -> "FlatTraces":
        """Decode a :meth:`to_bytes` block (O(total bytes), C-speed
        ``array.frombytes`` per column; byte-swapped when the block was
        written on an opposite-endian host).

        Raises :class:`ValueError` on a malformed or truncated block —
        cache readers treat that as a verification failure.
        """
        if len(blob) < _BLOCK_HEADER.size:
            raise ValueError("flat trace block shorter than its header")
        magic, endian, n_traces, n_hops, monitors_len = _BLOCK_HEADER.unpack_from(blob)
        if magic != _BLOCK_MAGIC:
            raise ValueError("flat trace block has a bad magic")
        if endian not in (_LITTLE, _BIG):
            raise ValueError("flat trace block has a bad endianness tag")
        swap = endian != _NATIVE_ENDIAN
        offset = _BLOCK_HEADER.size

        def take(typecode: str, count: int, itemsize: int) -> array:
            nonlocal offset
            column = array(typecode)
            end = offset + count * itemsize
            if end > len(blob):
                raise ValueError("flat trace block truncated")
            column.frombytes(blob[offset:end])
            if swap and itemsize > 1:
                column.byteswap()
            offset = end
            return column

        monitor_off = take(U32, n_traces + 1, 4)
        monitors_end = offset + monitors_len
        if monitors_end > len(blob):
            raise ValueError("flat trace block truncated")
        monitors = bytes(blob[offset:monitors_end])
        offset = monitors_end
        flat = cls(
            monitor_off=monitor_off,
            monitors=monitors,
            dst=take(U32, n_traces, 4),
            flow=take(I64, n_traces, 8),
            hop_start=take(U32, n_traces + 1, 4),
            hop_flags=take(U8, n_hops, 1),
            hop_addr=take(U32, n_hops, 4),
            hop_quoted=take(I64, n_hops, 8),
            hop_rtt=take(F64, n_hops, 8),
        )
        if offset != len(blob):
            raise ValueError("flat trace block has trailing bytes")
        return flat


#: one hop as the columns store it: (flags, address, quoted TTL, RTT)
HopRow = Tuple[int, int, int, float]


def hop_row(hop: Hop) -> HopRow:
    """The column row of one :class:`Hop`."""
    if hop.address is None:
        return (0, 0, hop.quoted_ttl, float(hop.rtt_ms))
    return (_RESPONDED, hop.address, hop.quoted_ttl, float(hop.rtt_ms))


class FlatBuilder:
    """Traces appended one at a time, frozen into a :class:`FlatTraces`
    by :meth:`finish`.

    Appending only records references — one per trace, one per hop row
    — so a parser that reuses memoized rows allocates nothing per hop;
    :meth:`finish` transposes the rows into the typed columns in C.  A
    value outside a column's range raises ``OverflowError`` from
    ``array`` there.  Monitors are stored as UTF-8 with
    ``surrogatepass``, so a lone surrogate decoded from a JSON escape
    round-trips instead of failing.
    """

    def __init__(self) -> None:
        #: per trace: (monitor, dst, flow, hop count)
        self._traces: List[Tuple[str, int, int, int]] = []
        self._rows: List[HopRow] = []

    def append(
        self, monitor: str, dst: int, hops: Sequence[HopRow], flow: int = 0
    ) -> None:
        """Append one trace given its hop rows."""
        self._traces.append((monitor, dst, flow, len(hops)))
        self._rows.extend(hops)

    def append_trace(self, trace: Trace) -> None:
        """Append one parsed :class:`Trace`."""
        self.append(
            trace.monitor, trace.dst, [hop_row(hop) for hop in trace.hops], trace.flow_id
        )

    def finish(self) -> FlatTraces:
        """The columns of everything appended (O(traces + hops))."""
        traces, rows = self._traces, self._rows
        monitors = [
            monitor.encode("utf-8", "surrogatepass") for monitor, _, _, _ in traces
        ]
        return FlatTraces(
            monitor_off=array(U32, accumulate(map(len, monitors), initial=0)),
            monitors=b"".join(monitors),
            dst=array(U32, map(itemgetter(1), traces)),
            flow=array(I64, map(itemgetter(2), traces)),
            hop_start=array(U32, accumulate(map(itemgetter(3), traces), initial=0)),
            hop_flags=array(U8, map(itemgetter(0), rows)),
            hop_addr=array(U32, map(itemgetter(1), rows)),
            hop_quoted=array(I64, map(itemgetter(2), rows)),
            hop_rtt=array(F64, map(itemgetter(3), rows)),
        )


def pack_traces(traces: Iterable[Trace]) -> FlatTraces:
    """Encode parsed traces into columns.

    O(total hops).  Raises :class:`FlatEncodeError` when a field falls
    outside the binary ranges (u32 addresses, i64 TTL/flow).
    """
    builder = FlatBuilder()
    for trace in traces:
        builder.append_trace(trace)
    try:
        return builder.finish()
    except OverflowError as exc:
        raise FlatEncodeError(f"trace field out of column range: {exc}") from exc


def unpack_traces(
    flat: FlatTraces, start: int = 0, end: Optional[int] = None
) -> List[Trace]:
    """Materialize ``flat[start:end]`` back into :class:`Trace` objects.

    O(hops in range).  The inverse of :func:`pack_traces`: the returned
    traces compare equal to the originals field-for-field (floats are
    stored as IEEE doubles, so RTTs round-trip bit-exactly).
    """
    if end is None:
        end = len(flat)
    monitor_off, monitors = flat.monitor_off, flat.monitors
    dst, flow, hop_start = flat.dst, flat.flow, flat.hop_start
    flags, addr, quoted, rtt = (
        flat.hop_flags,
        flat.hop_addr,
        flat.hop_quoted,
        flat.hop_rtt,
    )
    traces: List[Trace] = []
    for index in range(start, end):
        monitor = monitors[monitor_off[index]:monitor_off[index + 1]].decode(
            "utf-8", "surrogatepass"
        )
        first, last = hop_start[index], hop_start[index + 1]
        hops = tuple(
            Hop(
                addr[i] if flags[i] & _RESPONDED else None,
                quoted[i],
                rtt[i],
            )
            for i in range(first, last)
        )
        traces.append(Trace(monitor, dst[index], hops, flow[index]))
    return traces


def concat_flat(parts: Sequence[FlatTraces]) -> FlatTraces:
    """Concatenate blocks in order into one block (a lone part is
    returned as is).

    Pure column splicing — array extends plus cumulative-offset fixups
    — so per-span parse results merge without a trace object.
    O(total bytes).
    """
    if len(parts) == 1:
        return parts[0]
    merged = pack_traces(())
    for part in parts:
        monitor_base = len(merged.monitors)
        hop_base = merged.hop_start[-1]
        merged.monitor_off.extend(
            monitor_base + offset for offset in part.monitor_off[1:]
        )
        merged.monitors += part.monitors
        merged.dst.extend(part.dst)
        merged.flow.extend(part.flow)
        merged.hop_start.extend(hop_base + offset for offset in part.hop_start[1:])
        merged.hop_flags.extend(part.hop_flags)
        merged.hop_addr.extend(part.hop_addr)
        merged.hop_quoted.extend(part.hop_quoted)
        merged.hop_rtt.extend(part.hop_rtt)
    return merged


# ----------------------------------------------------------------------
# the flat sanitize + neighbor-set kernel


#: traces per fold chunk: bounds the transient per-hop lists and the
#: distinct-pair set (the stress tier's blocks are this size too)
_FOLD_CHUNK = 4096


def accumulate_flat(
    flat: FlatTraces,
    start: int,
    end: int,
    forward: Dict[int, Set[int]],
    backward: Dict[int, Set[int]],
    seen: Set[int],
    universe: Set[int],
    is_special: Callable[[int], bool],
    dirty: Optional[Set[Tuple[int, bool]]] = None,
) -> Tuple[int, int, int]:
    """Sanitize and fold ``flat[start:end]`` into neighbor tables.

    The columnar twin of ``sanitize_traces`` + ``accumulate_neighbors``
    (§4.1 + §4.3), run over the hop columns without constructing a
    single :class:`Hop`:

    * responsive hops land in *universe* before any stripping (the
      other-side heuristic deliberately sees discarded traces);
    * quoted-TTL-0 hops become gaps and are counted as buggy removals
      (counted even when the trace is later discarded, exactly like the
      serial sanitizer);
    * a trace with an interface cycle (same address twice, separated by
      more than one position, over the *stripped* hops) is discarded;
    * retained adjacency folds into *forward*/*backward* with special
      addresses breaking adjacency and excluded from *seen*.

    Neighbor sets record membership, not multiplicity, so each chunk of
    traces first collects its *distinct* adjacent pairs and addresses
    (C-speed set updates) and only those reach the tables, and
    *is_special* sees each distinct address once per chunk — a dataset
    repeats the same few links across many traces.  Returns
    ``(retained, discarded, buggy_hops_removed)``.  O(hops in range);
    equality with the object kernel is property-tested in
    ``tests/test_perf_flat.py``.

    *dirty*, when given, collects the interface halves whose neighbor
    set actually gained a member — ``(address, FORWARD)`` when a
    forward set grew, ``(address, BACKWARD)`` when a backward set grew
    — which is exactly the structural-dirtiness input
    :meth:`repro.core.mapit.MapIt.run_incremental` needs (the serve
    daemon's dirty-region tracking, docs/SERVE.md).
    """
    retained = discarded = buggy = 0
    for chunk_start in range(start, end, _FOLD_CHUNK):
        chunk_end = min(end, chunk_start + _FOLD_CHUNK)
        counts = _accumulate_chunk(
            flat, chunk_start, chunk_end, forward, backward, seen, universe,
            is_special, dirty,
        )
        retained += counts[0]
        discarded += counts[1]
        buggy += counts[2]
    return retained, discarded, buggy


#: a gap in :func:`_accumulate_chunk`'s hop lists.  Not ``None``: its
#: hash is address-based before Python 3.12, which would make the
#: pair set's iteration order (and so table insertion order) vary
#: from run to run.
_GAP = -1


def _accumulate_chunk(
    flat, start, end, forward, backward, seen, universe, is_special, dirty
) -> Tuple[int, int, int]:
    """:func:`accumulate_flat` over one chunk of traces."""
    hop_start = flat.hop_start
    low, high = hop_start[start], hop_start[end]
    addresses = flat.hop_addr[low:high].tolist()
    # flags hold 0 or _RESPONDED, so a flag's truth is "responded"
    responded = flat.hop_flags[low:high]
    universe.update(compress(addresses, responded))
    stripped = [
        address if flag and ttl else _GAP
        for address, flag, ttl in zip(addresses, responded, flat.hop_quoted[low:high])
    ]
    # every gap is an unresponsive hop or a stripped buggy one
    buggy = stripped.count(_GAP) - responded.count(0)
    retained = discarded = 0
    addresses_kept: Set[int] = set()
    pairs: Set[Tuple[int, int]] = set()
    for index in range(start, end):
        hops = stripped[hop_start[index] - low : hop_start[index + 1] - low]
        distinct = set(hops)
        distinct.discard(_GAP)
        # only a repeated address can form a cycle
        if len(distinct) != len(hops) - hops.count(_GAP) and _has_cycle(hops):
            discarded += 1
            continue
        retained += 1
        addresses_kept |= distinct
        pairs.update(zip(hops, hops[1:]))
    # what breaks adjacency: gaps, and special-purpose addresses (asked
    # once per distinct address of the chunk, not once per pair end)
    blocked = {_GAP}
    for address in addresses_kept:
        if is_special(address):
            blocked.add(address)
        else:
            seen.add(address)
    for previous, address in pairs:
        if previous in blocked or address in blocked:
            continue
        if dirty is None:
            forward.setdefault(previous, set()).add(address)
            backward.setdefault(address, set()).add(previous)
        else:
            members = forward.setdefault(previous, set())
            if address not in members:
                members.add(address)
                dirty.add((previous, True))
            members = backward.setdefault(address, set())
            if previous not in members:
                members.add(previous)
                dirty.add((address, False))
    return retained, discarded, buggy


def _has_cycle(hops: List[int]) -> bool:
    """The same address twice, more than one position apart (gaps
    count as positions) — :func:`repro.traceroute.sanitize.find_cycle`."""
    last_position: Dict[int, int] = {}
    for position, address in enumerate(hops):
        if address == _GAP:
            continue
        previous = last_position.get(address)
        if previous is not None and position - previous > 1:
            return True
        last_position[address] = position
    return False


# ----------------------------------------------------------------------
# counter-bundle codec


def encode_table(table: Dict[int, Set[int]]) -> bytes:
    """Pack a neighbor table as ``[address, count, members...]*`` u32 runs.

    Keys and members are emitted sorted, so the blob is a pure function
    of the table's *contents*.  O(entries + members log members).
    """
    packed = array(U32)
    for address in sorted(table):
        members = table[address]
        packed.append(address)
        packed.append(len(members))
        packed.extend(sorted(members))
    return packed.tobytes()


def merge_table_blob(blob: bytes, into: Dict[int, Set[int]]) -> None:
    """Union an :func:`encode_table` blob into *into* (O(members)).

    Set union is commutative and associative, so merging shard blobs in
    any order produces the members a serial fold would.
    """
    packed = array(U32)
    packed.frombytes(blob)
    index, length = 0, len(packed)
    while index < length:
        address, count = packed[index], packed[index + 1]
        index += 2
        members = into.get(address)
        chunk = packed[index:index + count]
        if members is None:
            into[address] = set(chunk)
        else:
            members.update(chunk)
        index += count


def encode_addresses(addresses: Set[int]) -> bytes:
    """Pack an address set as a sorted u32 array (O(n log n))."""
    return array(U32, sorted(addresses)).tobytes()


def merge_address_blob(blob: bytes, into: Set[int]) -> None:
    """Union an :func:`encode_addresses` blob into *into* (O(n))."""
    packed = array(U32)
    packed.frombytes(blob)
    into.update(packed)


@dataclass
class FlatGraphBundle:
    """What one graph worker sends back across the fork boundary.

    Four packed buffers (forward table, backward table, seen set,
    pre-sanitize address universe) plus three ints — the whole bundle
    pickles as plain ``bytes`` (near-memcpy), which is the point:
    parsed traces never cross the boundary, only integer tallies do.
    """

    forward: bytes
    backward: bytes
    seen: bytes
    universe: bytes
    retained: int = 0
    discarded: int = 0
    buggy_hops_removed: int = 0

    @property
    def nbytes(self) -> int:
        """Payload size crossing the fork boundary, in bytes."""
        return (
            len(self.forward)
            + len(self.backward)
            + len(self.seen)
            + len(self.universe)
        )


def bundle_tables(
    forward: Dict[int, Set[int]],
    backward: Dict[int, Set[int]],
    seen: Set[int],
    universe: Set[int],
    counts: Tuple[int, int, int],
) -> FlatGraphBundle:
    """Pack one shard's accumulated tables into a transfer bundle."""
    retained, discarded, buggy = counts
    return FlatGraphBundle(
        forward=encode_table(forward),
        backward=encode_table(backward),
        seen=encode_addresses(seen),
        universe=encode_addresses(universe),
        retained=retained,
        discarded=discarded,
        buggy_hops_removed=buggy,
    )


def merge_graph_bundles(
    bundles: Sequence[FlatGraphBundle],
) -> Tuple[
    Dict[int, Set[int]], Dict[int, Set[int]], Set[int], Set[int], Tuple[int, int, int]
]:
    """Merge shard bundles into canonical tables.

    Returns ``(forward, backward, seen, universe, (retained, discarded,
    buggy))`` with both tables rebuilt in sorted-key order — the same
    canonical form the serial builder's consumers observe, so no worker
    scheduling order can leak into results.  O(total members).
    """
    forward: Dict[int, Set[int]] = {}
    backward: Dict[int, Set[int]] = {}
    seen: Set[int] = set()
    universe: Set[int] = set()
    retained = discarded = buggy = 0
    for bundle in bundles:
        merge_table_blob(bundle.forward, forward)
        merge_table_blob(bundle.backward, backward)
        merge_address_blob(bundle.seen, seen)
        merge_address_blob(bundle.universe, universe)
        retained += bundle.retained
        discarded += bundle.discarded
        buggy += bundle.buggy_hops_removed
    forward = {address: forward[address] for address in sorted(forward)}
    backward = {address: backward[address] for address in sorted(backward)}
    return forward, backward, seen, universe, (retained, discarded, buggy)


# ----------------------------------------------------------------------
# the origin universe


def graph_address_universe(graph) -> Set[int]:
    """Every address an inference pass can ask the IP2AS mapper about:
    neighbor-table keys plus every neighbor-set member (O(edges))."""
    addresses: Set[int] = set()
    for table in (graph.forward, graph.backward):
        addresses.update(table)
        for members in table.values():
            addresses.update(members)
    return addresses
