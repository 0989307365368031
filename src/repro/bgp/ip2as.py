"""Composite IP-to-AS mapper (the "IP2AS tool" of the paper).

Lookup layering mirrors section 5 of the paper:

1. special-purpose/private prefixes (RFC 6890) — not mappable, the
   algorithm must ignore such addresses entirely;
2. IXP prefixes (PeeringDB/PCH plus IXP ASNs found in BGP) — flagged so
   MAP-IT can skip other-side updates on multipoint IXP LANs;
3. BGP-derived longest-prefix match over the merged collector view;
4. Team Cymru-style fallback for prefixes absent from the BGP dumps.

Addresses covered by none of these map to :data:`UNKNOWN_AS`; the paper
reports 99.2% coverage of usable interfaces, and explicitly declines to
update mappings of unannounced addresses.

The layers arrive as tries (the builders' construction input) and are
flattened once, when the :class:`IP2AS` is made, into one
:class:`~repro.net.table.AddressTable`: every query is then a single
bisect, and a sorted batch one merge walk.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from repro.bgp.cymru import CymruTable
from repro.bgp.origins import OriginTable
from repro.ixp.dataset import IXPDataset
from repro.net.prefix import Prefix
from repro.net.special import SpecialPurposeRegistry, default_special_registry
from repro.net.table import (
    BGP,
    CYMRU,
    IXP,
    LAYER_NAMES,
    PAIRS,
    SPECIAL,
    AddressTable,
)
from repro.net.trie import PrefixTrie

#: Sentinel for addresses no layer covers.
UNKNOWN_AS = 0
#: Sentinel for special-purpose/private addresses.
PRIVATE_AS = -1
#: Sentinel for IXP LAN addresses without a known IXP ASN.
IXP_AS = -2


@dataclass
class _Entry:
    origin: int
    source: str


_SOURCE_LAYERS = {"bgp": BGP, "cymru": CYMRU, "pairs": PAIRS}


class IP2AS:
    """Immutable composite address-to-AS mapper.

    Use :class:`IP2ASBuilder` to construct one from datasets, or
    :meth:`from_pairs` in tests.  The datasets are read once, here:
    later changes to *special* or *ixp* do not reach the mapper.
    """

    def __init__(
        self,
        trie: PrefixTrie,
        special: SpecialPurposeRegistry,
        ixp: Optional[IXPDataset] = None,
    ) -> None:
        self._ixp = IXPDataset(ixp or ())
        table = AddressTable.build(
            (
                (
                    (prefix.address, prefix.length, PRIVATE_AS, SPECIAL)
                    for prefix in special.prefixes()
                ),
                (
                    (
                        record.prefix.address,
                        record.prefix.length,
                        IXP_AS if record.asn is None else record.asn,
                        IXP,
                    )
                    for record in self._ixp
                ),
                (
                    (address, length, entry.origin, _SOURCE_LAYERS[entry.source])
                    for address, length, entry in trie.raw_items()
                ),
            ),
            default_asn=UNKNOWN_AS,
        )
        self._table = table
        self._starts = table.starts
        self._asns = table.asns
        self._layers = table.layers

    @classmethod
    def from_pairs(
        cls,
        pairs: Iterable,
        ixp: Optional[IXPDataset] = None,
        special: Optional[SpecialPurposeRegistry] = None,
    ) -> "IP2AS":
        """Build a mapper directly from ``(prefix, asn)`` pairs.

        Prefixes may be :class:`Prefix` objects or ``"a.b.c.d/len"``
        strings.  Intended for tests and small examples.
        """
        trie = PrefixTrie()
        for prefix, asn in pairs:
            if isinstance(prefix, str):
                prefix = Prefix.parse(prefix)
            trie.insert(prefix, _Entry(asn, "pairs"))
        return cls(trie, default_special_registry() if special is None else special, ixp)

    def asn(self, address: int) -> int:
        """The origin AS for *address*.

        Returns :data:`PRIVATE_AS` for special-purpose addresses,
        :data:`IXP_AS` (or the IXP's ASN when known) for IXP LAN
        addresses, and :data:`UNKNOWN_AS` when nothing covers the
        address.
        """
        return self._asns[bisect_right(self._starts, address) - 1]

    def resolve_sorted(self, addresses: Iterable[int]) -> Iterator[int]:
        """:meth:`asn` of each address of an ascending sequence, in
        order, by one merge walk over the table (O(n + intervals))."""
        return self._table.resolve_sorted(addresses)

    def is_private(self, address: int) -> bool:
        """True for special-purpose/private addresses."""
        return self._layers[bisect_right(self._starts, address) - 1] == SPECIAL

    def is_ixp(self, address: int) -> bool:
        """True for addresses on known IXP LAN prefixes."""
        layer = self._layers[bisect_right(self._starts, address) - 1]
        if layer == SPECIAL:
            # an IXP LAN inside special-purpose space answers "special"
            # in the table; only the IXP directory itself can tell
            return self._ixp.covers(address)
        return layer == IXP

    def is_mapped(self, address: int) -> bool:
        """True when some layer resolves *address* to an AS or marker."""
        return self.asn(address) != UNKNOWN_AS

    def source(self, address: int) -> str:
        """Which layer resolved *address* (for diagnostics)."""
        return LAYER_NAMES[self._layers[bisect_right(self._starts, address) - 1]]

    def coverage(self, addresses: Iterable[int]) -> float:
        """Fraction of *addresses* that resolve to something known."""
        total = 0
        covered = 0
        for address in addresses:
            total += 1
            if self.asn(address) != UNKNOWN_AS:
                covered += 1
        return covered / total if total else 0.0


class IP2ASBuilder:
    """Assemble an :class:`IP2AS` from the constituent datasets."""

    def __init__(self) -> None:
        self._trie = PrefixTrie()
        self._special = default_special_registry()
        self._ixp: Optional[IXPDataset] = None

    def add_bgp(self, origins: OriginTable) -> "IP2ASBuilder":
        """Layer in the merged BGP collector view (highest priority)."""
        for prefix, origin in origins.best_origins().items():
            self._trie.insert(prefix, _Entry(origin, "bgp"))
        return self

    def add_cymru(self, table: CymruTable) -> "IP2ASBuilder":
        """Layer in the fallback table.

        Only prefixes not already present from BGP are added, matching
        the paper's "for prefixes not seen in the BGP announcements".
        """
        for prefix, origin in table.items():
            if self._trie.exact(prefix) is None:
                self._trie.insert(prefix, _Entry(origin, "cymru"))
        return self

    def set_ixp(self, dataset: IXPDataset) -> "IP2ASBuilder":
        """Attach the IXP prefix dataset."""
        self._ixp = dataset
        return self

    def set_special(self, registry: SpecialPurposeRegistry) -> "IP2ASBuilder":
        """Replace the special-purpose registry (tests only)."""
        self._special = registry
        return self

    def build(self) -> IP2AS:
        return IP2AS(self._trie, self._special, self._ixp)
