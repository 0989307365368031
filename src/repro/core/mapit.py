"""MAP-IT driver: Alg 1 plus the section 4.6 convergence rule.

The outer loop alternates the add step and the remove step until the
inference state at the end of a remove step repeats — the paper's
stopping criterion, needed because uncertain inference pairs may be
added and removed forever.  The stub heuristic runs once afterwards.

:class:`MapIt` operates on a pre-built interface graph; the
:func:`run_mapit` convenience function goes all the way from raw traces
(sanitizing them first) to a :class:`~repro.core.results.MapItResult`.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional, Tuple

from repro.bgp.ip2as import IP2AS
from repro.core.add import add_step
from repro.core.config import MapItConfig
from repro.core.engine import Engine
from repro.core.remove import remove_step
from repro.core.results import (
    Checkpoint,
    DIRECT,
    EngineSnapshot,
    INDIRECT,
    LinkInference,
    MapItResult,
    STUB,
)
from repro.core.state import MapItState
from repro.core.stub import stub_step
from repro.graph.halves import Half
from repro.graph.neighbors import InterfaceGraph, build_interface_graph
from repro.obs.observer import Observability
from repro.org.as2org import AS2Org
from repro.rel.relationships import RelationshipDataset
from repro.traceroute.model import Trace
from repro.traceroute.sanitize import sanitize_traces


class MapIt:
    """One configured MAP-IT run over an interface graph (Alg 1)."""

    def __init__(
        self,
        graph: InterfaceGraph,
        ip2as: IP2AS,
        org: Optional[AS2Org] = None,
        rel: Optional[RelationshipDataset] = None,
        config: Optional[MapItConfig] = None,
        obs: Optional[Observability] = None,
    ) -> None:
        self.engine = Engine(graph, ip2as, org, rel, config, obs=obs)
        self._checkpoints: List[Checkpoint] = []

    # -- checkpointing (Fig 7) ------------------------------------------------

    def _checkpoint(self, label: str) -> None:
        if not self.engine.config.record_checkpoints:
            return
        inferences, uncertain = self._collect()
        self._checkpoints.append(Checkpoint(label, inferences + uncertain))
        if self.engine.obs.enabled:
            self.engine.obs.event(
                "checkpoint", label=label, inferences=len(inferences) + len(uncertain)
            )

    # -- main loop ------------------------------------------------------------

    def run(
        self,
        on_iteration: Optional[Callable[[int, EngineSnapshot], None]] = None,
        resume: Optional[EngineSnapshot] = None,
    ) -> MapItResult:
        """Execute Alg 1 (add step, remove step, section 4.6 repeated-
        state convergence, then the Alg 4 stub heuristic) and return
        the results.

        *on_iteration* is called after each completed (non-repeating)
        iteration with a resumable :class:`EngineSnapshot` — the run
        journal's hook.  *resume* continues the outer loop from such a
        snapshot instead of a fresh state; because each iteration is a
        pure function of the state it starts from, the continuation is
        byte-identical to the uninterrupted run.
        """
        engine = self.engine
        config = engine.config
        obs = engine.obs
        if obs.enabled:
            obs.event(
                "run.start",
                f=config.f,
                min_neighbors=config.min_neighbors,
                remove_rule=config.remove_rule,
                max_iterations=config.max_iterations,
                stub_heuristic=config.enable_stub_heuristic,
                resumed_from=resume.iterations if resume is not None else None,
            )
        if resume is not None:
            engine.state = resume.state
            self._checkpoints = list(resume.checkpoints)
            seen_fingerprints = set(resume.seen_fingerprints)
            iterations = resume.iterations
        else:
            seen_fingerprints = {engine.state.fingerprint()}
            iterations = 0
        engine.state.refresh_visible()
        converged = False
        while iterations < config.max_iterations:
            iterations += 1
            if obs.enabled:
                obs.event("iteration.start", iteration=iterations)
            first = iterations == 1 and config.record_checkpoints
            hook = (lambda stage: self._checkpoint(f"add 1: {stage}")) if first else None
            with obs.span("pass/add"):
                add_step(engine, hook)
            if first:
                self._checkpoint("add 1: all passes")
            if config.enable_remove_step:
                with obs.span("pass/remove"):
                    remove_step(engine)
            self._checkpoint(f"iteration {iterations}")
            fingerprint = engine.state.fingerprint()
            repeated = fingerprint in seen_fingerprints
            if obs.enabled:
                obs.event(
                    "iteration.end",
                    iteration=iterations,
                    direct=len(engine.state.direct),
                    indirect=len(engine.state.indirect),
                    repeated=repeated,
                )
            if repeated:
                converged = True
                break
            seen_fingerprints.add(fingerprint)
            if on_iteration is not None:
                on_iteration(
                    iterations,
                    EngineSnapshot(
                        iterations=iterations,
                        state=engine.state,
                        seen_fingerprints=sorted(seen_fingerprints),
                        checkpoints=list(self._checkpoints),
                    ),
                )
        if config.enable_stub_heuristic:
            with obs.span("pass/stub"):
                stub_step(engine)
            self._checkpoint("stub heuristic")
        with obs.span("collect"):
            inferences, uncertain = self._collect()
        state = engine.state
        if obs.enabled:
            obs.event(
                "run.end",
                iterations=iterations,
                converged=converged,
                direct=len(state.direct),
                indirect=len(state.indirect),
                uncertain=len(uncertain),
            )
            obs.inc("mapit.runs")
            obs.inc("mapit.iterations", iterations)
            obs.gauge("mapit.inferences", len(inferences))
            obs.gauge("mapit.uncertain", len(uncertain))
        return MapItResult(
            inferences=inferences,
            uncertain=uncertain,
            iterations=iterations,
            converged=converged,
            diagnostics={
                "dual_resolved": state.dual_resolved,
                "dual_same_as": state.dual_same_as,
                "divergent_other_sides": state.divergent_other_sides,
                "inverse_removed": state.inverse_removed,
                "uncertain_pairs": state.uncertain_pairs,
                "direct": len(state.direct),
                "indirect": len(state.indirect),
            },
            checkpoints=self._checkpoints,
        )

    # -- incremental entry point (docs/SERVE.md) -------------------------------

    def run_incremental(self, dirty_halves: Iterable[Half] = ()) -> MapItResult:
        """Re-run the multipass over a graph that grew since the last
        call, recomputing only the dirty region.

        *dirty_halves* are the interface halves whose neighbor-set
        membership changed (as reported by
        :func:`repro.perf.flat.accumulate_flat`).  The run restarts from
        an empty :class:`~repro.core.state.MapItState` — iteration
        counts, diagnostics, and the uncertain log are trajectory
        properties, so only the batch trajectory reproduces the batch
        result byte-for-byte — but the engine keeps its memo of base
        direct-pass decisions, so each pass touches only the frontier:
        hot halves (those that can see a visible override), stale halves
        (structurally dirty), and memoized positives.  The returned
        result is byte-identical to a fresh batch run over the same
        graph.
        """
        engine = self.engine
        engine.enable_incremental()
        with engine.obs.span("serve/invalidate"):
            stale = engine.invalidate_halves(dirty_halves)
        engine.obs.inc("serve.halves.invalidated", stale)
        engine.state = MapItState()
        self._checkpoints = []
        return self.run()

    # -- output ---------------------------------------------------------------

    def _collect(self) -> Tuple[List[LinkInference], List[LinkInference]]:
        """Materialize inference records from the live state (the two
        output lists of section 4.4.4: confident and uncertain).

        When a half carries both a direct and an indirect inference the
        direct one wins.  Detached indirects (divergent other sides)
        are dropped.  Indirect inferences inherit the uncertainty of
        their supporting direct.
        """
        engine = self.engine
        state = engine.state
        confident: List[LinkInference] = []
        uncertain: List[LinkInference] = []
        # Uncertain pairs are typically added and removed forever (the
        # section 4.6 cycle), so halves from the uncertain log that are
        # not currently held as direct inferences are reported from the
        # log.
        for half, direct in sorted(state.uncertain_log.items()):
            if half in state.direct:
                continue
            uncertain.append(
                LinkInference(
                    address=half[0],
                    forward=half[1],
                    local_as=direct.local_as,
                    remote_as=direct.remote_as,
                    kind=STUB if direct.via_stub else DIRECT,
                    other_side=engine.graph.other_side(half[0]),
                    uncertain=True,
                )
            )
        for half, direct in sorted(state.direct.items()):
            record = LinkInference(
                address=half[0],
                forward=half[1],
                local_as=direct.local_as,
                remote_as=direct.remote_as,
                kind=STUB if direct.via_stub else DIRECT,
                other_side=engine.graph.other_side(half[0]),
                uncertain=direct.uncertain,
            )
            (uncertain if direct.uncertain else confident).append(record)
        for half, indirect in sorted(state.indirect.items()):
            if half in state.direct or indirect.detached:
                continue
            source = state.direct.get(indirect.source)
            source_uncertain = source.uncertain if source is not None else False
            record = LinkInference(
                address=half[0],
                forward=half[1],
                local_as=indirect.local_as,
                remote_as=indirect.remote_as,
                kind=INDIRECT,
                other_side=indirect.source[0],
                uncertain=source_uncertain,
            )
            (uncertain if source_uncertain else confident).append(record)
        return confident, uncertain


def run_mapit_graph(
    graph: InterfaceGraph,
    ip2as: IP2AS,
    org: Optional[AS2Org] = None,
    rel: Optional[RelationshipDataset] = None,
    config: Optional[MapItConfig] = None,
    obs: Optional[Observability] = None,
) -> MapItResult:
    """Run MAP-IT over a pre-built interface graph.

    The tail of every dataset run (:meth:`repro.io.InputBundle.run_mapit`,
    docs/PERFORMANCE.md): the graph was folded from the loaded columns,
    so this skips sanitize/build and, before the passes start, warms
    the engine's origin cache with one sorted batched LPM sweep over
    every address the passes can query (``Engine.prime_origins``) —
    amortizing ip2as resolution per run instead of per neighbor lookup.  The result is identical to
    :func:`run_mapit` over the traces that produced *graph*.
    """
    from repro.perf.flat import graph_address_universe

    mapit = MapIt(graph, ip2as, org=org, rel=rel, config=config, obs=obs)
    warmed = mapit.engine.prime_origins(graph_address_universe(graph))
    mapit.engine.obs.inc("perf.flat.origins_warmed", warmed)
    return mapit.run()


def run_mapit(
    traces: Iterable[Trace],
    ip2as: IP2AS,
    org: Optional[AS2Org] = None,
    rel: Optional[RelationshipDataset] = None,
    config: Optional[MapItConfig] = None,
    obs: Optional[Observability] = None,
    jobs: int = 1,
    shard_timeout: Optional[float] = None,
) -> MapItResult:
    """Sanitize *traces* (section 4.1), build the interface graph
    (sections 4.2–4.3), and run MAP-IT (Alg 1).

    *obs*, when given, receives structured trace events, metrics, and
    profiling spans for the whole pipeline (docs/OBSERVABILITY.md).

    At ``jobs=1`` this is the serial object reference the golden,
    differential and serve-vs-batch harnesses compare against.  *jobs >
    1* packs the traces into columns and shards the sanitize + neighbor
    fold across worker processes (:mod:`repro.perf.graph`); the
    inference passes themselves are serial either way, and the result
    is identical (docs/PERFORMANCE.md).  *shard_timeout* is the
    supervisor's per-shard deadline for the pooled stages
    (docs/ROBUSTNESS.md).
    """
    if jobs > 1:
        from repro.obs.observer import NULL_OBS
        from repro.perf.graph import build_graph_parallel

        graph = build_graph_parallel(
            traces,
            jobs,
            obs=obs if obs is not None else NULL_OBS,
            shard_timeout=shard_timeout,
        )
        return MapIt(graph, ip2as, org=org, rel=rel, config=config, obs=obs).run()
    if obs is not None:
        with obs.span("sanitize"):
            report = sanitize_traces(traces)
        graph = build_interface_graph(
            report.traces, all_addresses=report.all_addresses, obs=obs
        )
        return MapIt(graph, ip2as, org=org, rel=rel, config=config, obs=obs).run()
    report = sanitize_traces(traces)
    graph = build_interface_graph(report.traces, all_addresses=report.all_addresses)
    return MapIt(graph, ip2as, org=org, rel=rel, config=config).run()
