"""Tests for prefixes and point-to-point link arithmetic."""

import pytest

from repro.net.ipv4 import parse_address
from repro.net.prefix import (
    Prefix,
    host_addresses,
    is_reserved_in_30,
    p2p_other_side_30,
    p2p_other_side_31,
    prefix_of,
)


def addr(text: str) -> int:
    return parse_address(text)


class TestPrefix:
    def test_parse(self):
        prefix = Prefix.parse("192.0.2.0/24")
        assert prefix.address == addr("192.0.2.0")
        assert prefix.length == 24

    def test_parse_requires_length(self):
        with pytest.raises(ValueError):
            Prefix.parse("192.0.2.0")

    @pytest.mark.parametrize(
        "text",
        [
            "10.0.0.0/\u0668",  # ARABIC-INDIC DIGIT EIGHT
            "10.0.0.0/+8",
            "10.0.0.0/ 8",
            "10.0.0.0/8 ",
            "10.0.0.0/0_8",
            "10.0.0.0/-0",
            "10.0.0.0/\u00b2",  # SUPERSCRIPT TWO
            "10.0.0.0/33",
            "10.0.0.0/8/8",
        ],
    )
    def test_parse_rejects_malformed_length(self, text):
        with pytest.raises(ValueError):
            Prefix.parse(text)

    def test_parse_length_bounds(self):
        assert Prefix.parse("0.0.0.0/0").length == 0
        assert Prefix.parse("192.0.2.1/32").length == 32

    def test_canonicalizes_host_bits(self):
        assert Prefix.parse("192.0.2.77/24") == Prefix.parse("192.0.2.0/24")

    def test_bad_length(self):
        with pytest.raises(ValueError):
            Prefix(0, 33)
        with pytest.raises(ValueError):
            Prefix(0, -1)

    def test_mask(self):
        assert Prefix.parse("0.0.0.0/0").mask == 0
        assert Prefix.parse("128.0.0.0/1").mask == 0x80000000
        assert Prefix.parse("1.2.3.4/32").mask == 0xFFFFFFFF

    def test_broadcast_and_size(self):
        prefix = Prefix.parse("10.0.0.0/30")
        assert prefix.broadcast == addr("10.0.0.3")
        assert prefix.size == 4

    def test_contains(self):
        prefix = Prefix.parse("198.71.44.0/22")
        assert prefix.contains(addr("198.71.46.180"))
        assert not prefix.contains(addr("198.71.48.1"))

    def test_contains_prefix(self):
        outer = Prefix.parse("10.0.0.0/8")
        inner = Prefix.parse("10.5.0.0/16")
        assert outer.contains_prefix(inner)
        assert not inner.contains_prefix(outer)
        assert outer.contains_prefix(outer)

    def test_subnets(self):
        subs = list(Prefix.parse("10.0.0.0/30").subnets(31))
        assert subs == [Prefix.parse("10.0.0.0/31"), Prefix.parse("10.0.0.2/31")]

    def test_subnets_shorter_raises(self):
        with pytest.raises(ValueError):
            list(Prefix.parse("10.0.0.0/24").subnets(16))

    def test_str(self):
        assert str(Prefix.parse("192.0.2.0/24")) == "192.0.2.0/24"

    def test_iteration(self):
        assert list(Prefix.parse("10.0.0.0/31")) == [addr("10.0.0.0"), addr("10.0.0.1")]

    def test_ordering_is_deterministic(self):
        prefixes = sorted([Prefix.parse("10.1.0.0/16"), Prefix.parse("10.0.0.0/8")])
        assert prefixes[0] == Prefix.parse("10.0.0.0/8")

    def test_prefix_of(self):
        assert prefix_of(addr("198.71.46.181"), 31) == Prefix.parse("198.71.46.180/31")


class TestHostAddresses:
    def test_slash_30_excludes_reserved(self):
        hosts = list(host_addresses(Prefix.parse("10.0.0.0/30")))
        assert hosts == [addr("10.0.0.1"), addr("10.0.0.2")]

    def test_slash_31_both_hosts(self):
        """RFC 3021: both /31 addresses are usable hosts."""
        hosts = list(host_addresses(Prefix.parse("10.0.0.0/31")))
        assert hosts == [addr("10.0.0.0"), addr("10.0.0.1")]

    def test_slash_32(self):
        assert list(host_addresses(Prefix.parse("10.0.0.1/32"))) == [addr("10.0.0.1")]


class TestOtherSide:
    def test_31_pairs(self):
        assert p2p_other_side_31(addr("10.0.0.0")) == addr("10.0.0.1")
        assert p2p_other_side_31(addr("10.0.0.1")) == addr("10.0.0.0")

    def test_31_involution(self):
        address = addr("198.71.46.180")
        assert p2p_other_side_31(p2p_other_side_31(address)) == address

    def test_30_pairs(self):
        assert p2p_other_side_30(addr("10.0.0.1")) == addr("10.0.0.2")
        assert p2p_other_side_30(addr("10.0.0.2")) == addr("10.0.0.1")

    def test_30_rejects_reserved(self):
        with pytest.raises(ValueError):
            p2p_other_side_30(addr("10.0.0.0"))
        with pytest.raises(ValueError):
            p2p_other_side_30(addr("10.0.0.3"))

    def test_paper_example(self):
        """Section 3.1: the other side of 109.105.98.10 is 109.105.98.9."""
        assert p2p_other_side_30(addr("109.105.98.10")) == addr("109.105.98.9")

    def test_is_reserved(self):
        assert is_reserved_in_30(addr("10.0.0.0"))
        assert is_reserved_in_30(addr("10.0.0.3"))
        assert not is_reserved_in_30(addr("10.0.0.1"))
        assert not is_reserved_in_30(addr("10.0.0.2"))
