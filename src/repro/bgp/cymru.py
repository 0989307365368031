"""Team Cymru-style IP-to-AS fallback table.

The paper consults the Team Cymru mapping service for prefixes that do
not appear in any of its BGP dumps.  We model that service as a static
``prefix -> origin AS`` table (which is what the service is, operationally:
an aggregated view built from many more peering sessions than any single
research collector set).  The table is loaded from a simple text format
and queried by longest-prefix match.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Tuple

from repro.net.ipv4 import parse_asn
from repro.net.prefix import Prefix
from repro.net.trie import PrefixTrie


class CymruTable:
    """A fallback longest-prefix-match ``address -> AS`` table."""

    def __init__(self) -> None:
        self._trie = PrefixTrie()

    def add(self, prefix: Prefix, origin: int) -> None:
        """Map *prefix* to *origin*."""
        self._trie.insert(prefix, origin)

    def lookup(self, address: int) -> Optional[int]:
        """Origin AS for *address*, or None when uncovered."""
        return self._trie.lookup_value(address)

    def __len__(self) -> int:
        return len(self._trie)

    def items(self) -> Iterator[Tuple[Prefix, int]]:
        return self._trie.items()

    def dump_lines(self) -> Iterator[str]:
        """Serialize as ``prefix|asn`` lines."""
        for prefix, origin in self._trie.items():
            yield f"{prefix}|{origin}"

    @classmethod
    def from_lines(cls, lines: Iterable[str]) -> "CymruTable":
        """Parse the format produced by :meth:`dump_lines`."""
        table = cls()
        for line in lines:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            prefix_text, _, asn_text = line.partition("|")
            table.add(Prefix.parse(prefix_text), parse_asn(asn_text))
        return table
