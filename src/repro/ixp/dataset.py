"""IXP prefix directory, in the style of PeeringDB and PCH exports.

The paper combines IXP prefix lists from PeeringDB and Packet Clearing
House, plus IXP AS numbers that PeeringDB provides for some exchanges,
to avoid drawing point-to-point conclusions about multipoint IXP LANs.
The data is known to be "sometimes stale and incomplete"; the simulator
can deliberately withhold records to exercise that failure mode.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional

from repro.net.ipv4 import parse_asn
from repro.net.prefix import Prefix
from repro.net.trie import PrefixTrie


@dataclass(frozen=True)
class IXPRecord:
    """One IXP LAN: its peering prefix, optional IXP ASN, and a name."""

    prefix: Prefix
    asn: Optional[int] = None
    name: str = ""

    def to_line(self) -> str:
        asn_text = str(self.asn) if self.asn is not None else "-"
        return f"{self.prefix}|{asn_text}|{self.name}"

    @classmethod
    def from_line(cls, line: str) -> "IXPRecord":
        prefix_text, asn_text, name = (line.strip().split("|", 2) + ["", ""])[:3]
        asn = None if asn_text in ("", "-") else parse_asn(asn_text)
        return cls(Prefix.parse(prefix_text), asn, name)


class IXPDataset:
    """Queryable collection of IXP LAN prefixes."""

    def __init__(self, records: Iterable[IXPRecord] = ()) -> None:
        self._trie = PrefixTrie()
        self._records: List[IXPRecord] = []
        for record in records:
            self.add(record)

    def add(self, record: IXPRecord) -> None:
        """Register one IXP LAN."""
        self._trie.insert(record.prefix, record)
        self._records.append(record)

    def add_prefix(self, prefix: Prefix, asn: Optional[int] = None, name: str = "") -> None:
        self.add(IXPRecord(prefix, asn, name))

    def covers(self, address: int) -> bool:
        """True when *address* is on a known IXP LAN."""
        return address in self._trie

    def record_for(self, address: int) -> Optional[IXPRecord]:
        """The IXP record covering *address*, or None."""
        return self._trie.lookup_value(address)

    def asn_for(self, address: int) -> Optional[int]:
        """The IXP's ASN when the directory knows it."""
        record = self._trie.lookup_value(address)
        return record.asn if record is not None else None

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[IXPRecord]:
        return iter(self._records)

    def dump_lines(self) -> Iterator[str]:
        """Serialize as ``prefix|asn|name`` lines."""
        for record in self._records:
            yield record.to_line()

    @classmethod
    def from_lines(cls, lines: Iterable[str]) -> "IXPDataset":
        """Parse the format produced by :meth:`dump_lines`."""
        dataset = cls()
        for line in lines:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            dataset.add(IXPRecord.from_line(line))
        return dataset

    def merged_with(self, other: "IXPDataset") -> "IXPDataset":
        """Union of two directories (PeeringDB + PCH in the paper).

        Duplicate prefixes keep the first record seen that carries an
        ASN, otherwise the first record.
        """
        by_prefix = {}
        for record in list(self) + list(other):
            existing = by_prefix.get(record.prefix)
            if existing is None or (existing.asn is None and record.asn is not None):
                by_prefix[record.prefix] = record
        return IXPDataset(by_prefix.values())
