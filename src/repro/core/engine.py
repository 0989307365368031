"""Shared machinery for the add, remove, and stub passes.

The :class:`Engine` binds together the interface graph, the original
IP-to-AS mapper, sibling data, relationships, the config, and the
mutable state, and implements the neighbor-set AS counting that every
pass relies on (Alg 2 lines 2–3).

Counting rules, from the paper:

* a neighbor of the half ``(a, forward)`` is the *backward* half of
  each member of N_F(a), and vice versa (Fig 3) — mappings are per
  half, so the direction matters;
* sibling ASes count as one AS (section 4.4.1); when a sibling group
  wins, the recorded connected AS is the group's most frequent member;
* unannounced addresses (and IXP/private markers) are not inferable
  ASes, but they do occupy the denominator and compete for the
  plurality — a neighbor set made "primarily of unannounced addresses"
  must not yield an inference (section 5.4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.bgp.ip2as import IP2AS
from repro.core.config import MapItConfig
from repro.core.state import MapItState
from repro.graph.halves import BACKWARD, FORWARD, Half
from repro.graph.neighbors import InterfaceGraph
from repro.obs.observer import NULL_OBS, Observability
from repro.org.as2org import AS2Org
from repro.rel.relationships import RelationshipDataset


def most_frequent_member(members: Dict[int, int], default: int) -> int:
    """The most frequent AS in a member tally, lowest ASN on ties.

    Section 4.4.1: when a sibling group wins a count, the recorded
    connected AS is the group's most frequent member.  Both the add
    step's plurality and the remove step's dominance tally go through
    this one helper so the two passes can never disagree about which
    member AS a sibling group stands for.
    """
    if not members:
        return default
    top = max(members.values())
    return min(asn for asn, count in members.items() if count == top)


@dataclass(frozen=True)
class Plurality:
    """Outcome of counting a neighbor set (the Alg 2 line 3–5 tally).

    ``canonical_as`` is the winning organization's representative;
    ``member_as`` the most frequent actual AS inside it; ``count`` its
    tally; ``total`` the neighbor-set size (the f denominator).
    """

    canonical_as: int
    member_as: int
    count: int
    total: int

    def satisfies_f(self, f: float) -> bool:
        """Alg 2 line 3: COUNT(AS_N) >= COUNT(neighbors) * f."""
        return self.count >= self.total * f

    def is_majority(self) -> bool:
        """Section 4.5's remove test: more than half of N."""
        return 2 * self.count > self.total


#: A positive Alg 2 outcome: ``(local_as, remote_as, count, total)``.
Decision = Tuple[int, int, int, int]


class Engine:
    """Bound context for one MAP-IT run (the state Alg 1 threads
    through its add/remove steps): the interface graph, the IP2AS /
    sibling / relationship datasets, the config, and the mutable
    :class:`~repro.core.state.MapItState`."""

    def __init__(
        self,
        graph: InterfaceGraph,
        ip2as: IP2AS,
        org: Optional[AS2Org] = None,
        rel: Optional[RelationshipDataset] = None,
        config: Optional[MapItConfig] = None,
        obs: Optional[Observability] = None,
    ) -> None:
        self.graph = graph
        self.ip2as = ip2as
        self.org = org or AS2Org()
        self.rel = rel or RelationshipDataset()
        self.config = config or MapItConfig()
        self.obs = obs if obs is not None else NULL_OBS
        self.state = MapItState()
        self._origin_cache: Dict[int, int] = {}
        # The run's Alg 2 decision table (docs/SERVE.md).  A half's direct
        # test reads only its neighbor set, its own snapshot entry and its
        # neighbors' snapshot entries (§4.4.5), so an outcome computed
        # against ``_decided_on`` — the snapshot the last direct pass read —
        # is reused until one of those inputs changes.  ``decisions``
        # holds the positive outcomes (updated in place by the direct
        # pass); ``_pending`` the candidate halves that must be recounted,
        # or None when every candidate must be.
        self.decisions: Dict[Half, Decision] = {}
        self._decided_on: Dict[Half, int] = {}
        self._pending: Optional[Set[Half]] = None
        #: the candidate addresses per direction (backward, forward),
        #: built by the first pass of a run that recounts every candidate
        #: and grown by :meth:`invalidate_halves`
        self._candidates: Tuple[Set[int], Set[int]] = (set(), set())
        # Serve mode (:meth:`enable_incremental`) also keeps, across runs,
        # the positive decisions of the last pass that read an empty
        # snapshot (``_base``: original mappings only) and the candidate
        # halves whose neighbor set changed since (``_stale``).
        self._incremental = False
        self._base: Optional[Dict[Half, Decision]] = None
        self._stale: Set[Half] = set()

    # -- mappings -----------------------------------------------------------

    def original_asn(self, address: int) -> int:
        """BGP-derived origin for *address* (cached; Alg 1 input IP2AS)."""
        asn = self._origin_cache.get(address)
        if asn is None:
            asn = self.ip2as.asn(address)
            self._origin_cache[address] = asn
        return asn

    def prime_origins(self, addresses) -> int:
        """Warm the origin cache with one merge walk over the sorted
        addresses (:meth:`repro.bgp.ip2as.IP2AS.resolve_sorted`).

        The walk visits each interval of the IP2AS table at most once
        instead of bisecting per address, and fills the cache before
        the passes start instead of faulting lookups in one neighbor at
        a time mid-pass.  Purely a cache warm: each entry is exactly
        what :meth:`original_asn` would compute on demand.  Returns how
        many addresses were new to the cache.
        """
        cache = self._origin_cache
        before = len(cache)
        ordered = sorted(addresses)
        cache.update(zip(ordered, self.ip2as.resolve_sorted(ordered)))
        return len(cache) - before

    def half_asn(self, half: Half) -> int:
        """Current (snapshot) mapping of *half* (section 4.4.1's per-half
        IP2AS view: direct inference, else indirect, else BGP origin)."""
        return self.state.visible_asn(half, self.original_asn(half[0]))

    def canonical(self, asn: int) -> int:
        """Organization identity (section 4.4.1 sibling merging);
        sentinels map to themselves."""
        if asn <= 0:
            return asn
        return self.org.canonical(asn)

    # -- the decision table (docs/SERVE.md) -----------------------------------

    def enable_incremental(self) -> None:
        """Keep base decisions across runs for the serve daemon.

        After this, each run starts its decision table from the base
        decisions and recounts only the halves :meth:`invalidate_halves`
        marked stale (plus those its snapshot deltas name).  Results are
        byte-identical to a run that recounts everything.
        """
        self._incremental = True

    def reset_incremental(self) -> None:
        """Drop the base decisions (still incremental).

        Used after wholesale graph replacement (checkpoint restore): the
        next run recounts every candidate, like the first one did.
        """
        self._base = None
        self._stale = set()

    def invalidate_halves(self, halves: Iterable[Half]) -> int:
        """Mark *halves* structurally dirty: their neighbor-set
        membership changed, so their base decisions are void.  Returns
        how many candidate halves were invalidated.
        """
        if self._base is None:
            return 0
        stale = 0
        minimum = self.config.min_neighbors
        for half in halves:
            self._base.pop(half, None)
            address, direction = half
            table = self.graph.forward if direction else self.graph.backward
            if len(table.get(address, ())) >= minimum:
                self._candidates[direction].add(address)
                self._stale.add(half)
                stale += 1
        return stale

    def seed_decisions(self) -> None:
        """Start a run's decision table: from the base decisions with
        the stale halves pending when serve mode has them, otherwise
        with every candidate pending."""
        self._decided_on = {}
        if self._base is None:
            self.decisions = {}
            self._pending = None
        else:
            self.decisions = dict(self._base)
            self._pending = set(self._stale)

    def pass_work(self) -> Tuple[List[Half], Optional[Set[Half]]]:
        """The halves the next direct pass visits, sorted, and the
        pending set among them (None: every candidate is pending).

        Folds the snapshot delta since the last direct pass into the
        pending set first.  A changed half ``(n, e)`` is pending itself,
        and so is every half that tallies it: ``(a, not e)`` for ``a`` in
        its neighbor set (``a`` follows ``n`` exactly when ``n`` precedes
        ``a``).  The pass visits the pending halves and the cached
        positives; every other candidate provably decides nothing.
        """
        visible = self.state.visible
        previous, self._decided_on = self._decided_on, visible
        pending = self._pending
        if pending is None:
            with self.obs.span("add/candidates"):
                work = self.candidate_halves()
            self._candidates = (
                {address for address, direction in work if not direction},
                {address for address, direction in work if direction},
            )
            return work, None
        forward, backward = self.graph.forward, self.graph.backward
        candidates = self._candidates
        # Only set insertions follow, so the visiting order cannot leak.
        changed = {half for half, _ in visible.items() ^ previous.items()}
        for half in changed:
            address, direction = half
            if address in candidates[direction]:
                pending.add(half)
            members = (forward if direction else backward).get(address, set())
            for reader in candidates[not direction] & members:
                pending.add((reader, not direction))
        return sorted(pending.union(self.decisions)), pending

    def finish_pass(self, carry: Set[Half]) -> None:
        """Close a direct pass: *carry* holds the pending halves it
        skipped, which stay pending until they are evaluated.  A pass
        that read an empty snapshot refreshes the serve base."""
        self._pending = carry
        if self._incremental and not self._decided_on:
            self._base = dict(self.decisions)
            self._stale = set(carry)

    # -- candidates -----------------------------------------------------------

    def candidate_halves(self) -> List[Half]:
        """Halves eligible for direct inference: |N| >= min_neighbors
        (Alg 2 line 1's iteration set; the paper requires at least 2).

        Sorted for determinism; the algorithm's results do not depend
        on the order (section 4.4.5) but reproducible diagnostics do.
        """
        minimum = self.config.min_neighbors
        halves: List[Half] = []
        for address, members in self.graph.forward.items():
            if len(members) >= minimum:
                halves.append((address, FORWARD))
        for address, members in self.graph.backward.items():
            if len(members) >= minimum:
                halves.append((address, BACKWARD))
        halves.sort()
        return halves

    # -- counting -----------------------------------------------------------

    def count_groups(self, half: Half) -> Tuple[Dict[int, int], Dict[int, Dict[int, int]], int]:
        """Tally the neighbor set of *half* by organization (Alg 2
        line 2's COUNT, with section 4.4.1 sibling merging).

        Returns ``(group_counts, member_counts, total)`` where group
        keys are canonical ASes (or non-positive sentinels) and
        ``member_counts[group]`` tallies actual ASes inside it.
        """
        address, forward = half
        neighbors = (self.graph.forward if forward else self.graph.backward).get(
            address, ()
        )
        neighbor_direction = not forward
        group_counts: Dict[int, int] = {}
        member_counts: Dict[int, Dict[int, int]] = {}
        for neighbor in neighbors:
            asn = self.half_asn((neighbor, neighbor_direction))
            group = self.canonical(asn)
            group_counts[group] = group_counts.get(group, 0) + 1
            members = member_counts.setdefault(group, {})
            members[asn] = members.get(asn, 0) + 1
        return group_counts, member_counts, len(neighbors)

    def plurality(self, half: Half) -> Optional[Plurality]:
        """The AS appearing strictly more than all others in N(half)
        (Alg 2 line 2's AS_N; the f test of line 3 is applied by the
        caller via :meth:`Plurality.satisfies_f`).

        Returns None when the set is empty, when no real AS (positive
        number) wins, or when the top count is tied.
        """
        group_counts, member_counts, total = self.count_groups(half)
        if not group_counts:
            return None
        best_group = None
        best_count = 0
        tied = False
        for group, count in group_counts.items():
            if count > best_count:
                best_group, best_count, tied = group, count, False
            elif count == best_count:
                tied = True
        if tied or best_group is None or best_group <= 0:
            return None
        member_as = most_frequent_member(member_counts[best_group], best_group)
        return Plurality(best_group, member_as, best_count, total)

    def dominance(self, half: Half, canonical_as: int) -> Plurality:
        """Tally for a *specific* organization in N(half) — the remove
        step's section 4.5 dominance test (Alg 3 line 4)."""
        group_counts, member_counts, total = self.count_groups(half)
        count = group_counts.get(canonical_as, 0)
        member_as = most_frequent_member(
            member_counts.get(canonical_as, {}), canonical_as
        )
        return Plurality(canonical_as, member_as, count, total)

    # -- other sides ---------------------------------------------------------

    def other_side_half(self, half: Half) -> Optional[Half]:
        """The link partner of *half*: other address, opposite direction
        (section 4.2's /30-vs-/31 other-side judgement)."""
        other = self.graph.other_side(half[0])
        if other is None:
            return None
        return (other, not half[1])
