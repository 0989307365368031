"""Neighbor-set extraction (paper section 4.3) and the interface graph.

For every interface address, the forward neighbor set N_F holds the
*unique* addresses seen exactly one hop after it across all sanitized
traces, and the backward neighbor set N_B the unique addresses one hop
before it.  Null (unresponsive) hops break adjacency — addresses
either side of a gap are *not* neighbors — and private/shared addresses
are excluded both as subjects and as members, since they are neither
globally routable nor unique.

Multiplicity is deliberately not recorded: an address appearing in a
thousand traces contributes one member, exactly as in Fig 3.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, Iterable, Optional, Set

from repro.graph.othersides import OtherSideTable, infer_other_sides
from repro.net.special import RFC6890_TABLE, SpecialPurposeRegistry
from repro.obs.observer import NULL_OBS, Observability
from repro.traceroute.model import Trace

_EMPTY: FrozenSet[int] = frozenset()


@dataclass
class InterfaceGraph:
    """Per-interface neighbor sets plus other-side assignments.

    This is the complete input MAP-IT's passes operate on: N_F and N_B
    per address, and the /30-vs-/31 other-side table computed from every
    address observed anywhere in the dataset (section 4.2).
    """

    forward: Dict[int, Set[int]] = field(default_factory=dict)
    backward: Dict[int, Set[int]] = field(default_factory=dict)
    other_sides: Optional[OtherSideTable] = None

    def addresses(self) -> Set[int]:
        """Every address owning at least one neighbor set."""
        return set(self.forward) | set(self.backward)

    def n_forward(self, address: int) -> FrozenSet[int]:
        """N_F for *address* (empty when never seen with a successor)."""
        members = self.forward.get(address)
        return frozenset(members) if members else _EMPTY

    def n_backward(self, address: int) -> FrozenSet[int]:
        """N_B for *address* (empty when never seen with a predecessor)."""
        members = self.backward.get(address)
        return frozenset(members) if members else _EMPTY

    def neighbors(self, address: int, forward: bool) -> FrozenSet[int]:
        """The neighbor set for one half of *address*."""
        table = self.forward if forward else self.backward
        members = table.get(address)
        return frozenset(members) if members else _EMPTY

    def other_side(self, address: int) -> Optional[int]:
        """The inferred point-to-point partner of *address*."""
        if self.other_sides is None:
            return None
        return self.other_sides.other_side.get(address)

    def count_multi_neighbor(self) -> Dict[str, int]:
        """How many interfaces have |N_F| > 1 and |N_B| > 1 (section 4.3)."""
        return {
            "forward": sum(1 for members in self.forward.values() if len(members) > 1),
            "backward": sum(1 for members in self.backward.values() if len(members) > 1),
        }

    def overlap_fraction(self) -> float:
        """Fraction of interfaces with an address in both Ns.

        The paper's footnote reports 0.3%, caused by per-packet load
        balancing and outgoing-interface responses.
        """
        addresses = self.addresses()
        if not addresses:
            return 0.0
        overlapping = sum(
            1
            for address in addresses
            if self.forward.get(address)
            and self.backward.get(address)
            and self.forward[address] & self.backward[address]
        )
        return overlapping / len(addresses)


def accumulate_neighbors(
    traces: Iterable[Trace],
    forward: Dict[int, Set[int]],
    backward: Dict[int, Set[int]],
    seen: Set[int],
    is_special: Callable[[int], bool],
) -> None:
    """Fold *traces* into partial N_F/N_B tables and the seen-set.

    This is the single accumulation kernel behind both the serial
    :func:`build_interface_graph` and the sharded workers of
    :mod:`repro.perf.graph`: one adjacency contributes one member
    regardless of multiplicity, so partial tables built over disjoint
    trace shards merge into exactly the serial result by set union.
    """
    for trace in traces:
        previous: Optional[int] = None
        for hop in trace.hops:
            address = hop.address
            if address is None:
                previous = None
                continue
            if is_special(address):
                # Private/shared addresses neither own neighbor sets nor
                # appear inside them, but they still break adjacency: the
                # public addresses either side of one are not neighbors.
                previous = None
                continue
            seen.add(address)
            if previous is not None:
                forward.setdefault(previous, set()).add(address)
                backward.setdefault(address, set()).add(previous)
            previous = address


def build_interface_graph(
    traces: Iterable[Trace],
    all_addresses: Optional[Iterable[int]] = None,
    special: Optional[SpecialPurposeRegistry] = None,
    obs: Observability = NULL_OBS,
) -> InterfaceGraph:
    """Build N_F/N_B from sanitized traces and assign other sides.

    *all_addresses*, when given, is the address universe for the
    other-side heuristic — the paper includes addresses from discarded
    traces there.  It defaults to the addresses seen in *traces*.
    """
    is_special = RFC6890_TABLE.covers if special is None else special.is_special
    graph = InterfaceGraph()
    forward, backward = graph.forward, graph.backward
    seen: Set[int] = set()
    with obs.span("neighbor_sets"):
        accumulate_neighbors(traces, forward, backward, seen, is_special)
    universe = set(all_addresses) if all_addresses is not None else seen
    universe.update(seen)
    return finish_interface_graph(graph, seen, universe, is_special, obs)


def finish_interface_graph(
    graph: InterfaceGraph,
    seen: Set[int],
    universe: Set[int],
    is_special: Callable[[int], bool],
    obs: Observability = NULL_OBS,
) -> InterfaceGraph:
    """Assign other sides and emit the graph-built observability.

    Shared tail of graph construction: the serial builder and the
    sharded merge of :mod:`repro.perf.graph` both end here, so the
    ``graph.built`` event and gauges are byte-identical however the
    neighbor tables were produced.
    """
    with obs.span("other_sides"):
        graph.other_sides = infer_other_sides(
            address for address in universe if not is_special(address)
        )
    if obs.enabled:
        obs.event(
            "graph.built",
            addresses=len(seen),
            forward_sets=len(graph.forward),
            backward_sets=len(graph.backward),
            universe=len(universe),
        )
        obs.gauge("graph.addresses", len(seen))
        obs.gauge("graph.forward_sets", len(graph.forward))
        obs.gauge("graph.backward_sets", len(graph.backward))
    return graph
