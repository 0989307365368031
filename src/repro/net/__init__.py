"""IPv4 network primitives used throughout the MAP-IT reproduction.

Addresses are represented as plain ``int`` values (0..2**32-1) on hot
paths; the helpers here convert between dotted-quad strings and ints,
model prefixes, implement the point-to-point /30 vs /31 "other side"
arithmetic from MAP-IT section 4.2, provide a longest-prefix-match trie
and the flat interval table every address classification is answered
from, and expose the RFC 6890 special-purpose address registry used to
filter private/shared addresses out of neighbor sets.
"""

from repro.net.ipv4 import (
    MAX_ADDRESS,
    MAX_ASN,
    format_address,
    is_valid_address,
    parse_address,
    parse_asn,
)
from repro.net.prefix import (
    Prefix,
    host_addresses,
    p2p_other_side_30,
    p2p_other_side_31,
    prefix_of,
)
from repro.net.special import RFC6890_TABLE, SpecialPurposeRegistry, default_special_registry
from repro.net.table import AddressTable
from repro.net.trie import PrefixTrie

__all__ = [
    "MAX_ADDRESS",
    "MAX_ASN",
    "RFC6890_TABLE",
    "AddressTable",
    "Prefix",
    "PrefixTrie",
    "SpecialPurposeRegistry",
    "default_special_registry",
    "format_address",
    "host_addresses",
    "is_valid_address",
    "p2p_other_side_30",
    "p2p_other_side_31",
    "parse_address",
    "parse_asn",
    "prefix_of",
]
