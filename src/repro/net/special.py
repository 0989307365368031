"""RFC 6890 special-purpose address registry.

MAP-IT excludes private/shared addresses from neighbor sets (section
4.3) because they are not globally routable or unique and can be reused
by many ASes, so no inference may be drawn from or about them.  This
module provides the registry of such prefixes and a fast membership
test: one bisect into the registry's :class:`~repro.net.table.AddressTable`.
The default registry's table is built once, at import, as
:data:`RFC6890_TABLE`; the fold kernels consult it directly.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, Iterable, Iterator, Optional

from repro.net.prefix import Prefix
from repro.net.table import NO_LAYER, SPECIAL, AddressTable
from repro.net.trie import PrefixTrie

#: Special-purpose registries per RFC 6890 (plus conventional extras)
#: as ``(prefix, name)`` pairs.
SPECIAL_PURPOSE_PREFIXES = (
    ("0.0.0.0/8", "this host on this network"),
    ("10.0.0.0/8", "private-use"),
    ("100.64.0.0/10", "shared address space (CGN)"),
    ("127.0.0.0/8", "loopback"),
    ("169.254.0.0/16", "link local"),
    ("172.16.0.0/12", "private-use"),
    ("192.0.0.0/24", "IETF protocol assignments"),
    ("192.0.2.0/24", "documentation (TEST-NET-1)"),
    ("192.88.99.0/24", "6to4 relay anycast"),
    ("192.168.0.0/16", "private-use"),
    ("198.18.0.0/15", "benchmarking"),
    ("198.51.100.0/24", "documentation (TEST-NET-2)"),
    ("203.0.113.0/24", "documentation (TEST-NET-3)"),
    ("224.0.0.0/4", "multicast"),
    ("240.0.0.0/4", "reserved"),
    ("255.255.255.255/32", "limited broadcast"),
)


def _special_table(prefixes: Iterable[Prefix]) -> AddressTable:
    """One-layer table marking *prefixes* :data:`~repro.net.table.SPECIAL`."""
    return AddressTable.build(
        [((prefix.address, prefix.length, 0, SPECIAL) for prefix in prefixes)]
    )


_RFC6890 = tuple((Prefix.parse(text), name) for text, name in SPECIAL_PURPOSE_PREFIXES)

#: The RFC 6890 registry as one interval table, built once at import
RFC6890_TABLE = _special_table(prefix for prefix, _ in _RFC6890)


class SpecialPurposeRegistry:
    """Membership test for special-purpose (non-routable) addresses."""

    def __init__(self, prefixes: Optional[Iterable[Prefix]] = None) -> None:
        self._trie = PrefixTrie()
        self._names: Dict[Prefix, str] = {}
        for prefix in prefixes or ():
            self._insert(prefix, "custom")
        self._table = _special_table(self._names)

    def _insert(self, prefix: Prefix, name: str) -> None:
        self._trie.insert(prefix, name)
        self._names[prefix] = name

    def add(self, prefix: Prefix, name: str = "") -> None:
        """Register a special-purpose prefix (rebuilds the table)."""
        self._insert(prefix, name)
        self._table = _special_table(self._names)

    def is_special(self, address: int) -> bool:
        """True when *address* falls in any registered prefix."""
        table = self._table
        return table.layers[bisect_right(table.starts, address) - 1] != NO_LAYER

    def prefixes(self) -> Iterator[Prefix]:
        """The registered prefixes, in registration order."""
        return iter(self._names)

    def name_for(self, address: int) -> Optional[str]:
        """Registry name covering *address*, or None."""
        return self._trie.lookup_value(address)

    def __len__(self) -> int:
        return len(self._names)


def default_special_registry() -> SpecialPurposeRegistry:
    """The RFC 6890 registry used by the paper's sanitization (its
    table is the shared :data:`RFC6890_TABLE`)."""
    registry = SpecialPurposeRegistry()
    for prefix, name in _RFC6890:
        registry._insert(prefix, name)
    registry._table = RFC6890_TABLE
    return registry
