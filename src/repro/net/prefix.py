"""IPv4 prefixes and point-to-point link arithmetic.

MAP-IT section 4.2: the two interfaces of a layer-3 point-to-point link
are addressed out of the same /30 or /31 prefix.  In a /30 only the two
middle addresses are usable hosts (network and broadcast addresses are
reserved); RFC 3021 permits both addresses of a /31 to be hosts.  The
``p2p_other_side_*`` helpers compute the opposite endpoint under each
assumption.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.net.ipv4 import MAX_ADDRESS, format_address, parse_address


@dataclass(frozen=True, order=True)
class Prefix:
    """An IPv4 prefix: a network address and a prefix length.

    The network address is canonicalized (host bits cleared) on
    construction, so two prefixes covering the same block always
    compare equal.
    """

    address: int
    length: int

    def __post_init__(self) -> None:
        if not 0 <= self.length <= 32:
            raise ValueError(f"prefix length {self.length} out of range")
        if not 0 <= self.address <= MAX_ADDRESS:
            raise ValueError(f"address {self.address} out of range")
        canonical = self.address & self.mask
        if canonical != self.address:
            object.__setattr__(self, "address", canonical)

    @classmethod
    def parse(cls, text: str) -> "Prefix":
        """Parse ``"a.b.c.d/len"`` notation.

        >>> Prefix.parse("192.0.2.0/24").length
        24
        """
        addr_text, _, len_text = text.partition("/")
        if not len_text:
            raise ValueError(f"missing prefix length: {text!r}")
        # ASCII digits only: int() also takes "+8", " 8", "0_8" and "٨"
        if not len_text.isascii() or not len_text.isdigit():
            raise ValueError(f"bad prefix length in {text!r}")
        return cls(parse_address(addr_text), int(len_text))

    @property
    def mask(self) -> int:
        """The network mask as an integer."""
        if self.length == 0:
            return 0
        return (MAX_ADDRESS << (32 - self.length)) & MAX_ADDRESS

    @property
    def broadcast(self) -> int:
        """The highest address covered by this prefix."""
        return self.address | (~self.mask & MAX_ADDRESS)

    @property
    def size(self) -> int:
        """Number of addresses covered."""
        return 1 << (32 - self.length)

    def contains(self, address: int) -> bool:
        """Return True when *address* falls inside this prefix."""
        return (address & self.mask) == self.address

    def contains_prefix(self, other: "Prefix") -> bool:
        """Return True when *other* is equal to or more specific than us."""
        return other.length >= self.length and self.contains(other.address)

    def subnets(self, new_length: int) -> Iterator["Prefix"]:
        """Yield the subnets of this prefix at *new_length*."""
        if new_length < self.length:
            raise ValueError("new_length shorter than prefix length")
        step = 1 << (32 - new_length)
        for base in range(self.address, self.broadcast + 1, step):
            yield Prefix(base, new_length)

    def __str__(self) -> str:
        return f"{format_address(self.address)}/{self.length}"

    def __iter__(self) -> Iterator[int]:
        return iter(range(self.address, self.broadcast + 1))


def prefix_of(address: int, length: int) -> Prefix:
    """The prefix of the given length containing *address*."""
    return Prefix(address & Prefix(0, length).mask, length)


def host_addresses(prefix: Prefix) -> Iterator[int]:
    """Yield the usable host addresses of a prefix.

    For /31 both addresses are hosts (RFC 3021); for /32 the single
    address is a host; otherwise the network and broadcast addresses
    are excluded.
    """
    if prefix.length >= 31:
        yield from prefix
    else:
        yield from range(prefix.address + 1, prefix.broadcast)


def p2p_other_side_31(address: int) -> int:
    """Other endpoint assuming the link is addressed from a /31.

    The two hosts of a /31 differ only in the low bit.
    """
    return address ^ 1


def p2p_other_side_30(address: int) -> int:
    """Other endpoint assuming the link is addressed from a /30.

    The usable hosts of a /30 are the two middle addresses
    (``base+1`` and ``base+2``).  Raises ValueError when *address* is a
    reserved (network/broadcast) address of its /30, since such an
    address cannot be a /30 host at all.
    """
    low2 = address & 3
    if low2 == 1:
        return address + 1
    if low2 == 2:
        return address - 1
    raise ValueError(
        f"{format_address(address)} is a reserved address in its /30"
    )


def is_reserved_in_30(address: int) -> bool:
    """True when *address* is the network or broadcast address of its /30."""
    return (address & 3) in (0, 3)
