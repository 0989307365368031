"""Property tests: the flat address table answers exactly like the tries.

The reference is the layered lookup the table replaced, rebuilt here
from one :class:`PrefixTrie` per layer: special-purpose first, then IXP
LANs, then the BGP longest-prefix match with the Cymru fallback.  Prefix
sets are drawn around a few shared anchor addresses so that they nest,
repeat across layers and include /0 and /32; queries are every prefix's
first and last address, each +-1, plus both ends of the address space.
"""

from bisect import bisect_right

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp.cymru import CymruTable
from repro.bgp.ip2as import IP2AS, IP2ASBuilder, IXP_AS, PRIVATE_AS, UNKNOWN_AS
from repro.bgp.origins import OriginTable
from repro.ixp.dataset import IXPDataset, IXPRecord
from repro.net.ipv4 import MAX_ADDRESS, parse_address
from repro.net.prefix import Prefix, prefix_of
from repro.net.special import (
    SPECIAL_PURPOSE_PREFIXES,
    RFC6890_TABLE,
    SpecialPurposeRegistry,
    default_special_registry,
)
from repro.net.table import NO_LAYER, SPECIAL, AddressTable
from repro.net.trie import PrefixTrie

_LENGTHS = st.one_of(st.sampled_from([0, 1, 8, 16, 24, 31, 32]), st.integers(0, 32))
_ASNS = st.integers(1, 2**32 - 1)


@st.composite
def _prefixes(draw, anchors, max_size=12):
    return [
        prefix_of(draw(st.sampled_from(anchors)), draw(_LENGTHS))
        for _ in range(draw(st.integers(0, max_size)))
    ]


@st.composite
def _worlds(draw):
    anchors = draw(
        st.lists(
            st.one_of(st.integers(0, MAX_ADDRESS), st.sampled_from([0, MAX_ADDRESS])),
            min_size=1,
            max_size=5,
        )
    )
    special = draw(_prefixes(anchors, max_size=4))
    ixp = [
        (prefix, draw(st.one_of(st.none(), _ASNS)))
        for prefix in draw(_prefixes(anchors, max_size=6))
    ]
    origins = OriginTable()
    for prefix in draw(_prefixes(anchors)):
        # several records per prefix make MOAS prefixes, sometimes tied
        for _ in range(draw(st.integers(1, 3))):
            origins.record(prefix, draw(st.integers(1, 6)), draw(st.integers(1, 2)))
    cymru = [(prefix, draw(_ASNS)) for prefix in draw(_prefixes(anchors))]
    return special, ixp, origins, cymru


def _queries(prefixes):
    queries = {0, MAX_ADDRESS}
    for prefix in prefixes:
        for edge in (prefix.address, prefix.broadcast):
            queries.update(q for q in (edge - 1, edge, edge + 1) if 0 <= q <= MAX_ADDRESS)
    return sorted(queries)


class _TrieComposite:
    """The per-layer trie lookup the table replaced."""

    def __init__(self, special, ixp, origins, cymru):
        self.special = PrefixTrie()
        for prefix in special:
            self.special.insert(prefix, True)
        self.ixp = IXPDataset(IXPRecord(prefix, asn) for prefix, asn in ixp)
        self.trie = PrefixTrie()
        for prefix, origin in origins.best_origins().items():
            self.trie.insert(prefix, (origin, "bgp"))
        for prefix, origin in _cymru_table(cymru).items():
            if self.trie.exact(prefix) is None:
                self.trie.insert(prefix, (origin, "cymru"))

    def asn(self, address):
        if address in self.special:
            return PRIVATE_AS
        if self.ixp.covers(address):
            asn = self.ixp.asn_for(address)
            return IXP_AS if asn is None else asn
        entry = self.trie.lookup_value(address)
        return UNKNOWN_AS if entry is None else entry[0]

    def source(self, address):
        if address in self.special:
            return "special"
        if self.ixp.covers(address):
            return "ixp"
        entry = self.trie.lookup_value(address)
        return "unknown" if entry is None else entry[1]


def _cymru_table(cymru):
    table = CymruTable()
    for prefix, origin in cymru:
        table.add(prefix, origin)
    return table


def _mapper(special, ixp, origins, cymru):
    return (
        IP2ASBuilder()
        .set_special(SpecialPurposeRegistry(special))
        .set_ixp(IXPDataset(IXPRecord(prefix, asn) for prefix, asn in ixp))
        .add_bgp(origins)
        .add_cymru(_cymru_table(cymru))
        .build()
    )


class TestTableEqualsTries:
    @settings(max_examples=300, deadline=None)
    @given(_worlds())
    def test_composite_lookups(self, world):
        special, ixp, origins, cymru = world
        reference = _TrieComposite(*world)
        mapper = _mapper(*world)
        prefixes = special + [p for p, _ in ixp] + list(origins.observations)
        prefixes += [p for p, _ in cymru]
        queries = _queries(prefixes)
        for address in queries:
            assert mapper.asn(address) == reference.asn(address), address
            assert mapper.source(address) == reference.source(address), address
            assert mapper.is_private(address) == (address in reference.special)
            assert mapper.is_ixp(address) == reference.ixp.covers(address)
            assert mapper.is_mapped(address) == (reference.asn(address) != UNKNOWN_AS)
        assert list(mapper.resolve_sorted(queries)) == [mapper.asn(a) for a in queries]

    @settings(max_examples=200, deadline=None)
    @given(_worlds(), st.data())
    def test_registry_add_after_query_is_honored(self, world, data):
        special = world[0]
        registry = SpecialPurposeRegistry(special)
        reference = PrefixTrie()
        for prefix in special:
            reference.insert(prefix, True)
        added = data.draw(_prefixes([p.address for p in special] or [0, MAX_ADDRESS]))
        queries = _queries(special + added)
        assert [registry.is_special(a) for a in queries] == [a in reference for a in queries]
        for prefix in added:
            registry.add(prefix, "late")
            reference.insert(prefix, True)
            assert [registry.is_special(a) for a in queries] == [
                a in reference for a in queries
            ]

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, MAX_ADDRESS), _LENGTHS, _ASNS), max_size=20))
    def test_table_intervals_are_canonical(self, entries):
        layer = [
            (prefix_of(address, length).address, length, asn, 3)
            for address, length, asn in entries
        ]
        table = AddressTable.build([layer])
        starts = list(table.starts)
        assert starts[0] == 0
        assert starts == sorted(set(starts))
        values = list(zip(table.asns, table.layers))
        # adjacent intervals always differ: the table holds no redundant boundary
        assert all(a != b for a, b in zip(values, values[1:]))
        assert len(table) <= 2 * len(layer) + 1


class TestTableEdges:
    def test_empty_table_is_one_uncovered_interval(self):
        table = AddressTable.build([], default_asn=UNKNOWN_AS)
        assert list(table.starts) == [0]
        assert table.asn(MAX_ADDRESS) == UNKNOWN_AS
        assert list(table.layers) == [NO_LAYER]
        assert list(table.resolve_sorted([0, 5, MAX_ADDRESS])) == [0, 0, 0]

    def test_default_route_and_host_route(self):
        mapper = IP2AS.from_pairs(
            [("0.0.0.0/0", 7), ("255.255.255.254/32", 9)],
            special=SpecialPurposeRegistry(),
        )
        assert mapper.asn(0) == 7
        assert mapper.asn(MAX_ADDRESS - 1) == 9
        assert mapper.asn(MAX_ADDRESS) == 7
        assert list(mapper.resolve_sorted([0, MAX_ADDRESS - 1, MAX_ADDRESS])) == [7, 9, 7]

    def test_ixp_inside_special_space_stays_ixp(self):
        ixp = IXPDataset([IXPRecord(Prefix.parse("10.1.0.0/16"), 6695, "lan")])
        mapper = IP2AS.from_pairs([("10.0.0.0/8", 5)], ixp=ixp)
        address = parse_address("10.1.2.3")
        assert mapper.asn(address) == PRIVATE_AS
        assert mapper.is_private(address) and mapper.is_ixp(address)
        assert mapper.source(address) == "special"

    def test_mapper_snapshots_its_datasets(self):
        ixp = IXPDataset()
        registry = SpecialPurposeRegistry()
        mapper = IP2AS.from_pairs([("80.0.0.0/8", 5)], ixp=ixp, special=registry)
        ixp.add_prefix(Prefix.parse("80.81.0.0/16"), 6695)
        registry.add(Prefix.parse("80.82.0.0/16"))
        assert mapper.asn(parse_address("80.81.0.1")) == 5
        assert mapper.asn(parse_address("80.82.0.1")) == 5


class TestRFC6890Table:
    def test_constant_table_matches_the_registry_trie(self):
        trie = PrefixTrie()
        for text, name in SPECIAL_PURPOSE_PREFIXES:
            trie.insert(Prefix.parse(text), name)
        registry = default_special_registry()
        for address in _queries(prefix for prefix, _ in trie.items()):
            expected = address in trie
            assert RFC6890_TABLE.covers(address) == expected
            assert registry.is_special(address) == expected
            index = bisect_right(RFC6890_TABLE.starts, address) - 1
            assert (RFC6890_TABLE.layers[index] == SPECIAL) == expected

    def test_default_registry_add_leaves_the_constant_alone(self):
        registry = default_special_registry()
        address = parse_address("8.8.8.8")
        registry.add(Prefix.parse("8.8.8.0/24"), "test")
        assert registry.is_special(address)
        assert not RFC6890_TABLE.covers(address)
        assert not default_special_registry().is_special(address)
