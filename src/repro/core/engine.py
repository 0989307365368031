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

from bisect import insort
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
        # Incremental (dirty-region) machinery, enabled by
        # :meth:`enable_incremental` for the serve daemon.  ``_base_memo``
        # caches, per candidate half, the outcome of the Alg 2 direct test
        # evaluated against *original* BGP mappings only (the iteration-1
        # pass-1 condition): either None (no inference) or the
        # ``(local_as, remote_as, count, total)`` it would add.  The memo
        # stays valid until the half's own neighbor-set membership changes,
        # because the base test reads only that set and static datasets
        # (ip2as / org / config).  ``_memo_positive`` indexes the non-None
        # entries; ``_memo_stale`` the halves whose memo must be refreshed.
        self._base_memo: Optional[Dict[Half, Optional[Tuple[int, int, int, int]]]] = None
        self._memo_positive: Set[Half] = set()
        self._memo_stale: Set[Half] = set()
        self._candidate_list: Optional[List[Half]] = None
        self._candidate_set: Set[Half] = set()

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

    # -- incremental (dirty-region) mode -------------------------------------

    @property
    def incremental(self) -> bool:
        """True once :meth:`enable_incremental` armed the memo tables."""
        return self._base_memo is not None

    def enable_incremental(self) -> None:
        """Arm the dirty-region machinery (docs/SERVE.md).

        After this, :meth:`candidate_halves` is cached and maintained by
        :meth:`invalidate_halves`, and the add step's direct pass skips
        halves whose memoized base decision is still valid.  Results are
        byte-identical to non-incremental runs — the memo only elides
        recomputation whose inputs are provably unchanged.
        """
        if self._base_memo is None:
            self._base_memo = {}

    def reset_incremental(self) -> None:
        """Drop every memo and the candidate cache (still incremental).

        Used after wholesale graph replacement (checkpoint restore):
        the next run rebuilds the caches from the live tables, exactly
        like the first incremental run did.
        """
        if self._base_memo is None:
            return
        self._base_memo = {}
        self._memo_positive = set()
        self._memo_stale = set()
        self._candidate_list = None
        self._candidate_set = set()

    def invalidate_halves(self, halves: Iterable[Half]) -> int:
        """Mark *halves* structurally dirty: their neighbor-set
        membership changed, so their memoized base decisions are void
        and their candidate eligibility must be re-judged.  Returns how
        many candidate halves were actually invalidated.
        """
        if self._base_memo is None:
            return 0
        minimum = self.config.min_neighbors
        stale = 0
        for half in halves:
            self._base_memo.pop(half, None)
            self._memo_positive.discard(half)
            if self._candidate_list is None:
                continue
            if half in self._candidate_set:
                self._memo_stale.add(half)
                stale += 1
            elif len(self.graph.neighbors(half[0], half[1])) >= minimum:
                self._candidate_set.add(half)
                insort(self._candidate_list, half)
                self._memo_stale.add(half)
                stale += 1
        return stale

    def memoize_base(self, half: Half, decision: Optional[Tuple[int, int, int, int]]) -> None:
        """Record the base (original-mapping) direct-test outcome for
        *half* and clear its stale mark."""
        self._base_memo[half] = decision
        self._memo_stale.discard(half)
        if decision is None:
            self._memo_positive.discard(half)
        else:
            self._memo_positive.add(half)

    # -- candidates -----------------------------------------------------------

    def candidate_halves(self) -> List[Half]:
        """Halves eligible for direct inference: |N| >= min_neighbors
        (Alg 2 line 1's iteration set; the paper requires at least 2).

        Sorted for determinism; the algorithm's results do not depend
        on the order (section 4.4.5) but reproducible diagnostics do.
        In incremental mode the list is computed once and maintained by
        :meth:`invalidate_halves` — eligibility is monotone there
        because serve ingestion only ever grows neighbor sets.
        """
        if self._candidate_list is not None:
            return self._candidate_list
        minimum = self.config.min_neighbors
        halves: List[Half] = []
        for address, members in self.graph.forward.items():
            if len(members) >= minimum:
                halves.append((address, FORWARD))
        for address, members in self.graph.backward.items():
            if len(members) >= minimum:
                halves.append((address, BACKWARD))
        halves.sort()
        if self._base_memo is not None:
            self._candidate_list = halves
            self._candidate_set = set(halves)
            self._memo_stale = set(halves)
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
        neighbors = self.graph.neighbors(address, forward)
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
