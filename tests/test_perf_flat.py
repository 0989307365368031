"""Unit and property tests for the flat-array data layer.

``repro.perf.flat`` re-implements the §4.1 sanitize and §4.3 neighbor
fold over columnar buffers; these tests hold the flat kernels to exact
equality with the object-based oracles (``sanitize_traces`` +
``accumulate_neighbors``) over seeded random datasets, and pin the
binary block codec's round-trip and rejection behaviour.
"""

import random

import pytest

from repro.bgp.ip2as import IP2AS
from repro.core.engine import Engine
from repro.graph.neighbors import InterfaceGraph, accumulate_neighbors
from repro.perf.flat import (
    FlatEncodeError,
    FlatTraces,
    accumulate_flat,
    concat_flat,
    encode_addresses,
    encode_table,
    merge_address_blob,
    merge_graph_bundles,
    merge_table_blob,
    bundle_tables,
    pack_traces,
    unpack_traces,
)
from repro.traceroute.model import Hop, Trace
from repro.traceroute.sanitize import sanitize_traces


def _sample_traces():
    return [
        Trace("mon-a", 0x0A000001, (Hop(0x0A000002, 1, 1.5), Hop(None), Hop(0x0A000003, 1, 20.25)), 7),
        Trace("mönïtor-β", 0xFFFFFFFF, (Hop(0xFFFFFFFF, 0, 0.0), Hop(0x01020304, 255, 3.125)), -3),
        Trace("m", 1, (), 0),
        Trace("mon-a", 0x0A000001, (Hop(0, 1, 0.0625),), 2**40),
    ]


def _random_traces(rng, n_traces=40, address_pool=24):
    """Seeded random dataset exercising gaps, buggy hops, and cycles."""
    addresses = [rng.randrange(1, 2**32) for _ in range(address_pool)]
    traces = []
    for _ in range(n_traces):
        hops = []
        for _ in range(rng.randrange(0, 9)):
            if rng.random() < 0.15:
                hops.append(Hop(None))
            else:
                hops.append(
                    Hop(
                        rng.choice(addresses),
                        0 if rng.random() < 0.1 else rng.randrange(1, 5),
                        round(rng.random() * 100, 3),
                    )
                )
        traces.append(
            Trace(
                f"monitor-{rng.randrange(4)}",
                rng.choice(addresses),
                tuple(hops),
                rng.randrange(-(2**20), 2**20),
            )
        )
    return traces


class TestBlockCodec:
    def test_pack_unpack_round_trip(self):
        traces = _sample_traces()
        flat = pack_traces(traces)
        assert len(flat) == len(traces)
        assert flat.hop_count == sum(len(t.hops) for t in traces)
        assert unpack_traces(flat) == traces

    def test_unpack_slicing(self):
        traces = _sample_traces()
        flat = pack_traces(traces)
        assert unpack_traces(flat, 1, 3) == traces[1:3]
        assert unpack_traces(flat, 4, 4) == []

    def test_to_bytes_round_trip(self):
        traces = _sample_traces()
        blob = pack_traces(traces).to_bytes()
        assert unpack_traces(FlatTraces.from_bytes(blob)) == traces

    def test_empty_round_trip(self):
        blob = pack_traces([]).to_bytes()
        flat = FlatTraces.from_bytes(blob)
        assert len(flat) == 0 and flat.hop_count == 0
        assert unpack_traces(flat) == []

    def test_from_bytes_rejects_malformed(self):
        blob = pack_traces(_sample_traces()).to_bytes()
        with pytest.raises(ValueError):
            FlatTraces.from_bytes(b"XXXX" + blob[4:])  # bad magic
        with pytest.raises(ValueError):
            FlatTraces.from_bytes(blob[:7])  # shorter than the header
        with pytest.raises(ValueError):
            FlatTraces.from_bytes(blob[:-1])  # truncated column
        with pytest.raises(ValueError):
            FlatTraces.from_bytes(blob + b"\x00")  # trailing bytes
        doctored = bytearray(blob)
        doctored[4] = 9  # endianness tag out of range
        with pytest.raises(ValueError):
            FlatTraces.from_bytes(bytes(doctored))

    def test_concat_equals_whole_pack(self):
        rng = random.Random(20260809)
        traces = _random_traces(rng)
        blocks = [
            pack_traces(traces[start:start + 7])
            for start in range(0, len(traces), 7)
        ]
        merged = concat_flat(blocks)
        assert unpack_traces(merged) == traces
        assert merged.to_bytes() == pack_traces(traces).to_bytes()

    def test_concat_empty(self):
        assert concat_flat([]).to_bytes() == pack_traces([]).to_bytes()

    def test_out_of_range_fields_raise(self):
        with pytest.raises(FlatEncodeError):
            pack_traces([Trace("m", 2**32, (), 0)])
        with pytest.raises(FlatEncodeError):
            pack_traces([Trace("m", 1, (Hop(2**32, 1, 0.0),), 0)])
        with pytest.raises(FlatEncodeError):
            pack_traces([Trace("m", 1, (Hop(1, 2**63, 0.0),), 0)])
        with pytest.raises(FlatEncodeError):
            pack_traces([Trace("m", 1, (), 2**63)])


class TestFlatKernelOracle:
    """accumulate_flat == sanitize_traces + accumulate_neighbors."""

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_object_oracle(self, seed):
        rng = random.Random(1_000_003 * (seed + 1))
        traces = _random_traces(rng)
        special = {a for a in {t.dst for t in traces} if a % 5 == 0}
        special.update(
            hop.address
            for trace in traces
            for hop in trace.hops
            if hop.address is not None and hop.address % 5 == 0
        )
        is_special = special.__contains__

        report = sanitize_traces(traces)
        oracle_forward, oracle_backward = {}, {}
        oracle_seen = set()
        accumulate_neighbors(
            report.traces, oracle_forward, oracle_backward, oracle_seen, is_special
        )

        flat = pack_traces(traces)
        forward, backward = {}, {}
        seen, universe = set(), set()
        counts = accumulate_flat(
            flat, 0, len(flat), forward, backward, seen, universe, is_special
        )

        assert counts == (
            len(report.traces),
            report.discarded,
            report.buggy_hops_removed,
        )
        assert forward == oracle_forward
        assert backward == oracle_backward
        assert seen == oracle_seen
        assert universe == report.all_addresses

    @pytest.mark.parametrize("seed", range(4))
    def test_sharded_bundles_merge_to_serial(self, seed):
        """Per-shard bundles merged == one whole-range accumulation."""
        rng = random.Random(7_654_321 + seed)
        traces = _random_traces(rng, n_traces=60)
        is_special = (lambda a: a % 7 == 0)
        flat = pack_traces(traces)

        whole_forward, whole_backward = {}, {}
        whole_seen, whole_universe = set(), set()
        whole_counts = accumulate_flat(
            flat, 0, len(flat), whole_forward, whole_backward,
            whole_seen, whole_universe, is_special,
        )

        bundles = []
        for start in range(0, len(flat), 13):
            forward, backward = {}, {}
            seen, universe = set(), set()
            counts = accumulate_flat(
                flat, start, min(start + 13, len(flat)),
                forward, backward, seen, universe, is_special,
            )
            bundles.append(bundle_tables(forward, backward, seen, universe, counts))

        forward, backward, seen, universe, counts = merge_graph_bundles(bundles)
        assert counts == whole_counts
        assert forward == whole_forward
        assert backward == whole_backward
        assert seen == whole_seen
        assert universe == whole_universe
        assert list(forward) == sorted(forward)
        assert list(backward) == sorted(backward)

    @pytest.mark.parametrize("seed", range(6))
    def test_dirty_reports_exactly_the_grown_halves(self, seed):
        """The ``dirty`` out-param names precisely the (address, forward)
        halves whose neighbor set gained a member — the serve layer's
        dirty-region invalidation depends on this being exact."""
        rng = random.Random(31_337 + seed)
        traces = _random_traces(rng, n_traces=80)
        is_special = (lambda a: a % 7 == 0)
        flat = pack_traces(traces)

        forward, backward = {}, {}
        seen, universe = set(), set()
        split = len(flat) // 2
        accumulate_flat(
            flat, 0, split, forward, backward, seen, universe, is_special
        )
        before_forward = {a: set(m) for a, m in forward.items()}
        before_backward = {a: set(m) for a, m in backward.items()}

        dirty = set()
        accumulate_flat(
            flat, split, len(flat), forward, backward, seen, universe,
            is_special, dirty=dirty,
        )

        expected = set()
        for address, members in forward.items():
            if members != before_forward.get(address, set()):
                expected.add((address, True))
        for address, members in backward.items():
            if members != before_backward.get(address, set()):
                expected.add((address, False))
        assert dirty == expected

    def test_dirty_empty_on_refold(self):
        """Re-folding the same block grows nothing: dirty stays empty."""
        traces = _sample_traces()
        flat = pack_traces(traces)
        forward, backward = {}, {}
        seen, universe = set(), set()
        accumulate_flat(
            flat, 0, len(flat), forward, backward, seen, universe, lambda a: False
        )
        dirty = set()
        accumulate_flat(
            flat, 0, len(flat), forward, backward, seen, universe,
            lambda a: False, dirty=dirty,
        )
        assert dirty == set()


class TestBundleCodec:
    def test_table_blob_round_trip(self):
        table = {5: {1, 9, 3}, 2: {2}, 0xFFFFFFFF: {0}}
        merged = {}
        merge_table_blob(encode_table(table), merged)
        assert merged == table

    def test_table_blob_union(self):
        merged = {}
        merge_table_blob(encode_table({1: {2}, 3: {4}}), merged)
        merge_table_blob(encode_table({1: {5}, 6: {7}}), merged)
        assert merged == {1: {2, 5}, 3: {4}, 6: {7}}

    def test_address_blob_round_trip(self):
        addresses = {0, 1, 0xFFFFFFFF, 42}
        merged = set()
        merge_address_blob(encode_addresses(addresses), merged)
        assert merged == addresses

    def test_encode_table_is_content_deterministic(self):
        a = {2: {9, 1}, 1: {3}}
        b = {1: {3}, 2: {1, 9}}
        assert encode_table(a) == encode_table(b)


class TestResolveOrigins:
    def test_matches_per_address_lookups(self):
        ip2as = IP2AS.from_pairs(
            [("0.0.0.0/0", 1), ("9.0.0.0/8", 9), ("9.9.0.0/16", 99), ("11.0.0.0/31", 11)]
        )
        addresses = [
            0, 1, 0x09000000, 0x0908FFFF, 0x09090000, 0x0909FFFF, 0x090A0000,
            0x0A000001, 0x0B000000, 0x0B000001, 0x0B000002, 0xFFFFFFFF,
        ]
        assert list(ip2as.resolve_sorted(addresses)) == [ip2as.asn(a) for a in addresses]
        engine = Engine(InterfaceGraph(), ip2as)
        assert engine.prime_origins(addresses + addresses[:3]) == len(addresses)
        assert engine._origin_cache == {a: ip2as.asn(a) for a in addresses}
