"""Tests for BGP announcement records and collector dumps."""

import pytest

from repro.bgp.cymru import CymruTable
from repro.bgp.table import Announcement, CollectorDump
from repro.net.prefix import Prefix


class TestAnnouncement:
    def test_origin_is_last_hop(self):
        announcement = Announcement(Prefix.parse("10.0.0.0/8"), (100, 200, 300))
        assert announcement.origin == 300

    def test_empty_path_rejected(self):
        with pytest.raises(ValueError):
            Announcement(Prefix.parse("10.0.0.0/8"), ())

    def test_line_roundtrip(self):
        announcement = Announcement(Prefix.parse("192.0.2.0/24"), (64500, 64501))
        assert Announcement.from_line(announcement.to_line()) == announcement

    def test_from_line_malformed(self):
        with pytest.raises(ValueError):
            Announcement.from_line("192.0.2.0/24")

    @pytest.mark.parametrize(
        "token", ["-1", "0", "+5", "007", "1_0", "\u0663", "4294967296", "5.0"]
    )
    def test_from_line_rejects_bad_asn(self, token):
        with pytest.raises(ValueError):
            Announcement.from_line(f"192.0.2.0/24|64500 {token}")

    def test_from_line_rejects_bad_prefix_length(self):
        with pytest.raises(ValueError):
            Announcement.from_line("192.0.2.0/+24|64500")

    def test_from_line_asn_bounds(self):
        parsed = Announcement.from_line("192.0.2.0/24|1 4294967295")
        assert parsed.as_path == (1, 4294967295)


class TestCymruLines:
    @pytest.mark.parametrize(
        "line", ["1.0.0.0/24|-1", "2.0.0.0/24|0", "3.0.0.0/24|+7", "4.0.0.0/24| 7",
                 "5.0.0.0/24|07", "6.0.0.0/\u0668|7", "7.0.0.0/24|"]
    )
    def test_rejects_malformed_numbers(self, line):
        with pytest.raises(ValueError):
            CymruTable.from_lines([line])

    def test_sentinel_asns_are_not_stored(self):
        with pytest.raises(ValueError):
            CymruTable.from_lines(["1.0.0.0/24|-1", "2.0.0.0/24|0"])


class TestCollectorDump:
    def test_add_route(self):
        dump = CollectorDump(name="rv", location="ams")
        dump.add_route(Prefix.parse("10.0.0.0/8"), [1, 2, 3])
        assert len(dump) == 1
        assert next(iter(dump)).origin == 3

    def test_prefixes(self):
        dump = CollectorDump(name="rv")
        dump.add_route(Prefix.parse("10.0.0.0/8"), [1])
        dump.add_route(Prefix.parse("10.0.0.0/8"), [2, 1])
        dump.add_route(Prefix.parse("11.0.0.0/8"), [2])
        assert dump.prefixes() == {Prefix.parse("10.0.0.0/8"), Prefix.parse("11.0.0.0/8")}

    def test_dump_lines_roundtrip(self):
        dump = CollectorDump(name="rrc00", location="Amsterdam NL")
        dump.add_route(Prefix.parse("10.0.0.0/8"), [10, 20])
        dump.add_route(Prefix.parse("192.0.2.0/24"), [10, 30, 40])
        parsed = CollectorDump.from_lines(dump.dump_lines())
        assert parsed.name == "rrc00"
        assert parsed.location == "Amsterdam NL"
        assert parsed.announcements == dump.announcements

    def test_from_lines_skips_blanks(self):
        parsed = CollectorDump.from_lines(["", "#collector x", "10.0.0.0/8|5"])
        assert parsed.name == "x"
        assert len(parsed) == 1
