"""One flat address-classification table: sorted intervals, one bisect.

The paper's IP2AS tool (section 5) answers in layers: special-purpose
prefixes first, then IXP LANs, then the BGP longest-prefix match with
the Cymru fallback.  Instead of walking one bit-by-bit trie per layer,
:class:`AddressTable` flattens every layer into disjoint intervals of
the 32-bit address space, built once by a sweep over the layers'
prefixes:

* ``starts`` — sorted interval starts as packed ``uint32`` (the ``U32``
  convention :mod:`repro.perf.flat` shares); ``starts[0]`` is always 0,
  so every address falls in exactly one interval;
* ``asns`` — the resolved AS per interval (signed 8-byte, so the
  negative IP2AS markers fit);
* ``layers`` — the code of the layer that answers for the interval
  (:data:`NO_LAYER` where nothing covers it).

A lookup is ``bisect_right(starts, address) - 1``; a sorted batch
resolves in one merge walk (:meth:`AddressTable.resolve_sorted`).  The
columns are plain arrays, so a forked worker reads the parent's table
copy-on-write without touching a refcount per interval.  The tables are
never mutated after :meth:`AddressTable.build`; a registry that grows
builds a new one.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from operator import itemgetter
from typing import Iterable, Iterator, List, Sequence, Tuple

#: array typecode with a 4-byte unsigned item (u32 addresses)
U32 = "I" if array("I").itemsize == 4 else "L"
if array(U32).itemsize != 4:  # pragma: no cover - no such CPython platform
    raise ImportError("repro.net.table requires a 4-byte unsigned array type")

#: layer codes of the ``layers`` column
NO_LAYER = 0
SPECIAL = 1
IXP = 2
BGP = 3
CYMRU = 4
PAIRS = 5
#: the name :meth:`repro.bgp.ip2as.IP2AS.source` reports per layer code
LAYER_NAMES = ("unknown", "special", "ixp", "bgp", "cymru", "pairs")

_SPACE_END = 1 << 32
#: the merge walk's cursor bound past the last interval start
_PAST = float("inf")

#: one prefix of a layer: ``(network address, prefix length, resolved
#: AS, layer code)``, the address canonical (host bits clear)
Entry = Tuple[int, int, int, int]


class AddressTable:
    """Disjoint sorted intervals of the address space with the AS and
    layer code that answer for each (immutable once built)."""

    __slots__ = ("starts", "asns", "layers")

    def __init__(self, starts: array, asns: array, layers: array) -> None:
        self.starts = starts
        self.asns = asns
        self.layers = layers

    @classmethod
    def build(
        cls, layers: Sequence[Iterable[Entry]], default_asn: int = 0
    ) -> "AddressTable":
        """Flatten prefix layers into intervals.

        *layers* is ordered highest priority first: an address covered
        by an earlier layer is answered there whatever a later layer
        holds, and within a layer the longest matching prefix answers
        (a prefix listed twice in one layer keeps its last entry, like a
        trie insert).  Uncovered space answers *default_asn* with
        :data:`NO_LAYER`.

        CIDR prefixes nest or are disjoint, so one sweep in (start,
        length) order with a stack of the open prefixes finds every
        boundary; each stack entry carries the best answer among itself
        and the prefixes around it.  O(p log p) for p prefixes; at most
        2p + 1 intervals.
        """
        # level orders answers like (-rank, length): an earlier layer
        # beats any length, a longer prefix wins within a layer
        entries = [
            (address, length, length - 64 * rank, asn, code)
            for rank, layer in enumerate(layers)
            for address, length, asn, code in layer
        ]
        # stable: a prefix repeated within a layer keeps its entry order,
        # and the later entry, pushed last, wins the tie below
        entries.sort(key=itemgetter(0, 1, 2))
        bounds: List[int] = [0]
        values: List[Tuple[int, int]] = [(default_asn, NO_LAYER)]
        uncovered = (default_asn, NO_LAYER)

        def mark(position: int, value: Tuple[int, int]) -> None:
            if bounds[-1] == position:
                values[-1] = value
            else:
                bounds.append(position)
                values.append(value)

        # (end, level, (asn, code)) of the best answer inside each open prefix
        stack: List[Tuple[int, int, Tuple[int, int]]] = []
        for address, length, level, asn, code in entries:
            while stack and stack[-1][0] <= address:
                end = stack.pop()[0]
                mark(end, stack[-1][2] if stack else uncovered)
            end = address + (1 << (32 - length))
            if stack and stack[-1][1] > level:
                stack.append((end, stack[-1][1], stack[-1][2]))
            else:
                stack.append((end, level, (asn, code)))
            mark(address, stack[-1][2])
        while stack:
            end = stack.pop()[0]
            if end < _SPACE_END:
                mark(end, stack[-1][2] if stack else uncovered)
        starts = array(U32)
        asns = array("q")
        codes = array("B")
        previous = None
        for position, value in zip(bounds, values):
            if value != previous:
                starts.append(position)
                asns.append(value[0])
                codes.append(value[1])
                previous = value
        return cls(starts, asns, codes)

    def __len__(self) -> int:
        return len(self.starts)

    def asn(self, address: int) -> int:
        """The AS answering for *address*."""
        return self.asns[bisect_right(self.starts, address) - 1]

    def covers(self, address: int) -> bool:
        """True when some layer covers *address*."""
        return self.layers[bisect_right(self.starts, address) - 1] != NO_LAYER

    def resolve_sorted(self, addresses: Iterable[int]) -> Iterator[int]:
        """The AS of each address of an ascending sequence, in order.

        One merge walk: the interval cursor only moves forward, so n
        sorted addresses over k intervals cost O(n + k) steps instead
        of n bisects.  Equal to ``asn`` per address.
        """
        starts = self.starts
        asns = self.asns
        last = len(starts) - 1
        index = 0
        following = starts[1] if last else _PAST
        for address in addresses:
            while address >= following:
                index += 1
                following = starts[index + 1] if index < last else _PAST
            yield asns[index]
