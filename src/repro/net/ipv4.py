"""IPv4 address parsing and formatting.

All hot-path code in the library passes addresses around as integers.
These helpers are the only place where string forms are produced or
consumed, which keeps parsing bugs in one spot and the rest of the code
fast and allocation-free.
"""

from __future__ import annotations

MAX_ADDRESS = (1 << 32) - 1
#: the largest 4-byte AS number (RFC 6793)
MAX_ASN = (1 << 32) - 1


class AddressError(ValueError):
    """Raised when a dotted-quad string cannot be parsed."""


def parse_address(text: str) -> int:
    """Parse a dotted-quad IPv4 address into an integer.

    >>> parse_address("10.0.0.1")
    167772161

    Raises :class:`AddressError` for malformed input, including octets
    out of range, wrong octet counts, and non-numeric octets.
    """
    parts = text.split(".")
    if len(parts) != 4:
        raise AddressError(f"expected 4 octets, got {len(parts)}: {text!r}")
    value = 0
    for part in parts:
        # isascii() matters: str.isdigit() accepts Unicode digits like
        # '³', which int() then rejects (or worse, silently converts).
        if (
            not part
            or not part.isascii()
            or not part.isdigit()
            or (len(part) > 1 and part[0] == "0")
        ):
            raise AddressError(f"bad octet {part!r} in {text!r}")
        octet = int(part)
        if octet > 255:
            raise AddressError(f"octet {octet} out of range in {text!r}")
        value = (value << 8) | octet
    return value


def format_address(value: int) -> str:
    """Format an integer as a dotted-quad IPv4 address.

    >>> format_address(167772161)
    '10.0.0.1'
    """
    if not 0 <= value <= MAX_ADDRESS:
        raise AddressError(f"address {value} out of range")
    return ".".join(
        str((value >> shift) & 0xFF) for shift in (24, 16, 8, 0)
    )


def parse_asn(text: str) -> int:
    """Parse an AS number field of a dataset file.

    ASCII digits only (no sign, ``_``, whitespace or leading zero) and
    1..:data:`MAX_ASN`: ``int()`` alone would accept ``"-1"`` and
    ``"0"``, which collide with the IP2AS markers, and ``"١"`` or
    ``" 7"``.  Raises ValueError otherwise.

    >>> parse_asn("64512")
    64512
    """
    if not text.isascii() or not text.isdigit() or text[0] == "0" or len(text) > 10:
        raise ValueError(f"bad AS number {text!r}")
    value = int(text)
    if value > MAX_ASN:
        raise ValueError(f"AS number {value} out of range")
    return value


def is_valid_address(text: str) -> bool:
    """Return True when *text* parses as a dotted-quad IPv4 address."""
    try:
        parse_address(text)
    except AddressError:
        return False
    return True
