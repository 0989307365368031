"""Persistent fold state + dirty-region re-inference.

:class:`IncrementalIndex` is the serve daemon's heart: it owns the
mutable neighbor tables an arriving trace folds into (via the columnar
:func:`~repro.perf.flat.accumulate_flat` kernel, which reports exactly
which interface halves gained a member) and a persistent
:class:`~repro.core.mapit.MapIt` whose engine memoizes base direct-pass
decisions across quiesces.  A quiesce refreshes the other-side table if
the address universe grew, then calls
:meth:`~repro.core.mapit.MapIt.run_incremental` with the accumulated
dirty halves — producing a result byte-identical to a batch run over
every trace folded so far (docs/SERVE.md proves why).

Folding is order-independent (set unions), so permuted arrival orders
quiesce to identical states; the differential layer in
:mod:`repro.serve.verify` holds this to byte-identity.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.bgp.ip2as import IP2AS
from repro.core.config import MapItConfig
from repro.core.mapit import MapIt
from repro.core.results import MapItResult
from repro.graph.halves import BACKWARD, FORWARD
from repro.graph.neighbors import InterfaceGraph, accumulate_neighbors
from repro.graph.othersides import infer_other_sides
from repro.net.special import SpecialPurposeRegistry, default_special_registry
from repro.obs.observer import NULL_OBS, Observability
from repro.org.as2org import AS2Org
from repro.perf.flat import (
    FlatEncodeError,
    FlatTraces,
    accumulate_flat,
    pack_traces,
    special_memo,
)
from repro.rel.relationships import RelationshipDataset
from repro.traceroute.model import Trace
from repro.traceroute.sanitize import sanitize_traces


class IncrementalIndex:
    """Streaming MAP-IT state: fold traces in, quiesce results out."""

    def __init__(
        self,
        ip2as: IP2AS,
        org: Optional[AS2Org] = None,
        rel: Optional[RelationshipDataset] = None,
        config: Optional[MapItConfig] = None,
        obs: Observability = NULL_OBS,
        special: Optional[SpecialPurposeRegistry] = None,
    ) -> None:
        self.forward: Dict[int, Set[int]] = {}
        self.backward: Dict[int, Set[int]] = {}
        self.seen: Set[int] = set()
        self.universe: Set[int] = set()
        self.retained = 0
        self.discarded = 0
        self.buggy = 0
        self.obs = obs
        # the memo lives exactly as long as the tables it feeds
        self._is_special = special_memo(
            (special or default_special_registry()).is_special
        )
        self._dirty: Set[Tuple[int, bool]] = set()
        #: universe size when the other-side table was last computed;
        #: -1 forces the first quiesce to build it
        self._other_sides_at = -1
        self.graph = InterfaceGraph(forward=self.forward, backward=self.backward)
        self._mapit = MapIt(self.graph, ip2as, org=org, rel=rel, config=config, obs=obs)
        self._mapit.engine.enable_incremental()
        self.result: Optional[MapItResult] = None

    # -- folding ------------------------------------------------------------

    def fold(self, traces: List[Trace]) -> int:
        """Sanitize and fold *traces* into the neighbor tables.

        Returns the number of traces retained (§4.1 may discard).  The
        interface halves whose neighbor set actually grew accumulate in
        the dirty set consumed by the next :meth:`quiesce`.
        """
        if not traces:
            return 0
        try:
            flat = pack_traces(traces)
        except FlatEncodeError:
            # A field outside the columnar ranges (legal but rare):
            # fall back to the object kernels for this batch.
            return self._fold_objects(traces)
        return self.fold_flat(flat, 0, len(flat))

    def fold_flat(self, flat: FlatTraces, start: int, end: int) -> int:
        """Fold a pre-packed columnar block (the ``.mapitc`` v2
        warm-start path folds a cache hit's payload directly)."""
        with self.obs.span("serve/fold"):
            retained, discarded, buggy = accumulate_flat(
                flat,
                start,
                end,
                self.forward,
                self.backward,
                self.seen,
                self.universe,
                self._is_special,
                dirty=self._dirty,
            )
        self.retained += retained
        self.discarded += discarded
        self.buggy += buggy
        return retained

    def _fold_objects(self, traces: List[Trace]) -> int:
        """Object-kernel fallback fold with the same dirty tracking."""
        report = sanitize_traces(traces)
        self.universe.update(report.all_addresses)
        staged_forward: Dict[int, Set[int]] = {}
        staged_backward: Dict[int, Set[int]] = {}
        accumulate_neighbors(
            report.traces, staged_forward, staged_backward, self.seen, self._is_special
        )
        for address, members in staged_forward.items():
            current = self.forward.setdefault(address, set())
            if not members <= current:
                current |= members
                self._dirty.add((address, FORWARD))
        for address, members in staged_backward.items():
            current = self.backward.setdefault(address, set())
            if not members <= current:
                current |= members
                self._dirty.add((address, BACKWARD))
        self.retained += len(report.traces)
        self.discarded += report.discarded
        self.buggy += report.buggy_hops_removed
        return len(report.traces)

    # -- quiescing ----------------------------------------------------------

    @property
    def dirty_halves(self) -> int:
        """Interface halves touched since the last quiesce."""
        return len(self._dirty)

    def quiesce(self) -> MapItResult:
        """Re-run inference over the current graph, dirty region only.

        Byte-identical to a batch run over every trace folded so far:
        the other-side table is recomputed from the (possibly grown)
        address universe exactly as :func:`finish_interface_graph`
        would, and the multipass restarts from an empty state with the
        engine's base-decision memo confining recomputation to the
        frontier (docs/SERVE.md).
        """
        if self._other_sides_at != len(self.universe):
            with self.obs.span("serve/other_sides"):
                self.graph.other_sides = infer_other_sides(
                    address
                    for address in self.universe
                    if not self._is_special(address)
                )
            self._other_sides_at = len(self.universe)
        dirty, self._dirty = self._dirty, set()
        with self.obs.span("serve/quiesce"):
            self.result = self._mapit.run_incremental(dirty)
        return self.result

    def fingerprint(self) -> str:
        """The §4.6 state fingerprint of the last quiesce."""
        return self._mapit.engine.state.fingerprint()

    # -- checkpoint plumbing -------------------------------------------------

    def export_state(self) -> Dict[str, object]:
        """The picklable fold state a checkpoint captures.

        Inference state is deliberately absent: it is a pure function
        of the graph and is recomputed (memo cold) on the first quiesce
        after a restore.
        """
        return {
            "forward": self.forward,
            "backward": self.backward,
            "seen": self.seen,
            "universe": self.universe,
            "retained": self.retained,
            "discarded": self.discarded,
            "buggy": self.buggy,
        }

    def restore_state(self, state: Dict[str, object]) -> None:
        """Adopt fold state captured by :meth:`export_state`.

        The dicts are updated in place so the engine's graph alias
        stays valid; memo and dirty tracking reset — the next quiesce
        recomputes from scratch, which is exactly the batch trajectory.
        """
        self.forward.clear()
        self.forward.update(state["forward"])
        self.backward.clear()
        self.backward.update(state["backward"])
        self.seen.clear()
        self.seen.update(state["seen"])
        self.universe.clear()
        self.universe.update(state["universe"])
        self.retained = int(state["retained"])
        self.discarded = int(state["discarded"])
        self.buggy = int(state["buggy"])
        self._dirty = set()
        self._other_sides_at = -1
        self._mapit.engine.reset_incremental()
        self.result = None
