"""Tests for the IXP directory dataset."""

import pytest

from repro.ixp.dataset import IXPDataset, IXPRecord
from repro.net.ipv4 import parse_address
from repro.net.prefix import Prefix


def addr(text: str) -> int:
    return parse_address(text)


class TestIXPRecord:
    def test_line_roundtrip(self):
        record = IXPRecord(Prefix.parse("80.81.192.0/21"), 6695, "DE-CIX Frankfurt")
        assert IXPRecord.from_line(record.to_line()) == record

    def test_line_roundtrip_no_asn(self):
        record = IXPRecord(Prefix.parse("80.81.192.0/21"), None, "mystery")
        assert IXPRecord.from_line(record.to_line()) == record

    @pytest.mark.parametrize(
        "line",
        [
            "80.81.192.0/21|-1|DE-CIX",  # would equal PRIVATE_AS
            "80.81.192.0/21|-2|DE-CIX",
            "80.81.192.0/21|0|DE-CIX",
            "80.81.192.0/21|+6695|DE-CIX",
            "80.81.192.0/21|06695|DE-CIX",
            "80.81.192.0/21|6_695|DE-CIX",
            "80.81.192.0/21| 6695|DE-CIX",
            "80.81.192.0/21|\u0666\u0666\u0669\u0665|DE-CIX",
            "80.81.192.0/21|4294967296|DE-CIX",
            "80.81.192.0/+21|6695|DE-CIX",
        ],
    )
    def test_from_line_rejects_malformed_numbers(self, line):
        with pytest.raises(ValueError):
            IXPRecord.from_line(line)


class TestIXPDataset:
    def _dataset(self):
        return IXPDataset(
            [
                IXPRecord(Prefix.parse("80.81.192.0/21"), 6695, "decix"),
                IXPRecord(Prefix.parse("195.66.224.0/22"), None, "linx"),
            ]
        )

    def test_covers(self):
        dataset = self._dataset()
        assert dataset.covers(addr("80.81.193.5"))
        assert dataset.covers(addr("195.66.225.1"))
        assert not dataset.covers(addr("8.8.8.8"))

    def test_asn_for(self):
        dataset = self._dataset()
        assert dataset.asn_for(addr("80.81.193.5")) == 6695
        assert dataset.asn_for(addr("195.66.225.1")) is None
        assert dataset.asn_for(addr("8.8.8.8")) is None

    def test_record_for(self):
        dataset = self._dataset()
        assert dataset.record_for(addr("80.81.193.5")).name == "decix"

    def test_lines_roundtrip(self):
        dataset = self._dataset()
        parsed = IXPDataset.from_lines(dataset.dump_lines())
        assert len(parsed) == 2
        assert parsed.covers(addr("80.81.193.5"))

    def test_merged_with_prefers_asn(self):
        """PeeringDB + PCH union: a record carrying the ASN wins."""
        pch = IXPDataset([IXPRecord(Prefix.parse("80.81.192.0/21"), None, "pch-view")])
        pdb = IXPDataset([IXPRecord(Prefix.parse("80.81.192.0/21"), 6695, "pdb-view")])
        merged = pch.merged_with(pdb)
        assert len(merged) == 1
        assert merged.asn_for(addr("80.81.192.1")) == 6695

    def test_merged_with_union(self):
        a = IXPDataset([IXPRecord(Prefix.parse("80.81.192.0/21"), 1, "a")])
        b = IXPDataset([IXPRecord(Prefix.parse("195.66.224.0/22"), 2, "b")])
        merged = a.merged_with(b)
        assert merged.covers(addr("80.81.192.1"))
        assert merged.covers(addr("195.66.224.1"))
