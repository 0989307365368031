"""The delta-driven Alg 2 direct pass against a full recount.

Under §4.4.5 a half's direct-test outcome is a pure function of its
neighbor set, its own snapshot entry and its neighbors' snapshot
entries, so the pass recounts only the halves whose inputs changed
since their last tally and replays every other cached decision
(docs/SERVE.md).  These tests hold every pass of batch runs and serve
quiesces to a reference that evaluates every candidate against the
snapshot, check that a pending half skipped while already inferred is
recounted once it is eligible again, and check that a resumed run and
a run after ``reset_incremental`` recount everything.
"""

from __future__ import annotations

import copy

import pytest

import repro.core.add as add
from repro.bgp.ip2as import IP2AS
from repro.core.add import AddStepReport
from repro.core.config import REMOVE_ADD_RULE, REMOVE_MAJORITY, MapItConfig
from repro.core.engine import Engine
from repro.core.mapit import MapIt
from repro.core.state import IndirectInference
from repro.diff.worlds import world_from_preset
from repro.graph.halves import BACKWARD, FORWARD
from repro.graph.neighbors import build_interface_graph
from repro.io import load_bundle
from repro.net.ipv4 import parse_address
from repro.robust.faults import ChaosInjector, SimulatedCrash, chaos
from repro.robust.journal import RunJournal, journaled_run
from repro.serve.incremental import IncrementalIndex
from repro.serve.verify import batch_state
from repro.traceroute.parse import parse_text_traces
from repro.traceroute.sanitize import sanitize_traces

WORLDS = [("tiny", 0), ("tiny", 1), ("tiny", 2), ("small", 0)]
RULES = [REMOVE_MAJORITY, REMOVE_ADD_RULE]


def _eligible(engine):
    """Candidates the pass may evaluate now (not already inferred)."""
    state = engine.state
    return [
        half
        for half in engine.candidate_halves()
        if half not in state.direct and half not in state.inferred_this_step
    ]


def _full_recount(engine):
    """Alg 2 evaluated for every eligible candidate against the snapshot."""
    expected = []
    for half in _eligible(engine):
        plurality = engine.plurality(half)
        if plurality is None or not plurality.satisfies_f(engine.config.f):
            continue
        previous = engine.half_asn(half)
        if engine.canonical(previous) == plurality.canonical_as:
            continue
        expected.append((half, previous, plurality.member_as))
    return expected


class _PassLog:
    """Wraps the direct pass: checks each pass against the reference
    and records ``(eligible, recounted, reused)`` per pass."""

    def __init__(self, monkeypatch):
        self.passes = []
        real = add._direct_pass

        def checked(engine, report):
            expected = _full_recount(engine)
            eligible = len(_eligible(engine))
            recounted, reused = report.recounted, report.reused
            added = real(engine, report)
            got = [(d.half, d.local_as, d.remote_as) for d in added]
            assert got == expected, f"pass {len(self.passes) + 1} diverged"
            self.passes.append(
                (eligible, report.recounted - recounted, report.reused - reused)
            )
            return added

        monkeypatch.setattr(add, "_direct_pass", checked)


def _batch_mapit(world, config):
    report = sanitize_traces(world.traces)
    graph = build_interface_graph(report.traces, all_addresses=report.all_addresses)
    return MapIt(
        graph, world.ip2as(), org=world.as2org, rel=world.relationships, config=config
    )


@pytest.mark.parametrize("rule", RULES)
@pytest.mark.parametrize("preset,seed", WORLDS)
def test_batch_passes_equal_full_recount(monkeypatch, preset, seed, rule):
    world = world_from_preset(preset, seed)
    log = _PassLog(monkeypatch)
    _batch_mapit(world, MapItConfig(remove_rule=rule)).run()
    assert len(log.passes) > 1
    eligible, recounted, reused = log.passes[0]
    assert recounted == eligible and reused == 0
    # later passes recount only the halves whose evidence changed
    assert sum(r for _, r, _ in log.passes[1:]) < sum(e for e, _, _ in log.passes[1:])


@pytest.mark.parametrize("rule", RULES)
@pytest.mark.parametrize("preset,seed", WORLDS)
def test_serve_passes_equal_full_recount(monkeypatch, preset, seed, rule):
    world = world_from_preset(preset, seed)
    config = MapItConfig(remove_rule=rule)
    index = IncrementalIndex(
        world.ip2as(), org=world.as2org, rel=world.relationships, config=config
    )
    log = _PassLog(monkeypatch)
    step = max(1, len(world.traces) // 6)
    for start in range(0, len(world.traces), step):
        index.fold(list(world.traces[start : start + step]))
        index.quiesce()
    assert sum(reused for _, _, reused in log.passes) > 0
    fingerprint, payload = batch_state(world, len(world.traces), config)
    assert index.fingerprint() == fingerprint
    assert index.result.to_json(indent=2) == payload


# -- a pending half skipped while inferred stays pending --------------------


def _addr(text):
    return parse_address(text)


HALF = (_addr("9.0.0.1"), FORWARD)
READS = [(_addr(f"9.1.0.{i}"), BACKWARD) for i in (1, 2, 3)]


def _fan_engine():
    """9.0.0.1 (AS100) followed by three AS200 addresses: its forward
    half infers AS100 -> AS200 until its neighbors turn AS100."""
    lines = [f"m|9.9.9.{i}|9.0.0.1 9.1.0.{i}" for i in (1, 2, 3)]
    graph = build_interface_graph(parse_text_traces(lines))
    ip2as = IP2AS.from_pairs([("9.0.0.0/16", 100), ("9.1.0.0/16", 200)])
    engine = Engine(graph, ip2as)
    engine.state.refresh_visible()
    return engine


def _turn_neighbors_to_as100(state):
    for half in READS:
        state.add_indirect(
            IndirectInference(half=half, local_as=200, remote_as=100, source=half)
        )


def _new_add_step_pass(engine, report):
    engine.state.inferred_this_step = set()
    expected = _full_recount(engine)
    added = add._direct_pass(engine, report)
    assert [(d.half, d.local_as, d.remote_as) for d in added] == expected
    return added


def test_skipped_inferred_half_is_recounted_when_eligible():
    engine = _fan_engine()
    state, report = engine.state, AddStepReport()
    state.inferred_this_step = set()
    assert [d.half for d in add._direct_pass(engine, report)] == [HALF]
    # a contradiction fix discards the inference within the same pass,
    # so the half's own snapshot entry never changes
    state.remove_direct(HALF)
    _turn_neighbors_to_as100(state)
    state.refresh_visible()
    assert add._direct_pass(engine, report) == []  # skipped: inferred this step
    state.refresh_visible()
    before = report.recounted
    assert _new_add_step_pass(engine, report) == []
    assert report.recounted == before + 1


def test_skipped_direct_half_is_recounted_when_eligible():
    engine = _fan_engine()
    state, report = engine.state, AddStepReport()
    state.inferred_this_step = set()
    add._direct_pass(engine, report)
    # an indirect with the same mapping keeps the half's snapshot entry
    # at AS200 when the direct goes, so only its neighbors' entries move
    partner = (_addr("9.9.0.1"), BACKWARD)
    state.add_indirect(
        IndirectInference(half=HALF, local_as=100, remote_as=200, source=partner)
    )
    state.refresh_visible()
    state.inferred_this_step = set()
    assert add._direct_pass(engine, report) == []  # skipped: in direct
    _turn_neighbors_to_as100(state)
    state.refresh_visible()
    assert add._direct_pass(engine, report) == []  # still in direct
    state.remove_direct(HALF)
    state.refresh_visible()
    assert state.visible[HALF] == 200
    # neighbors at AS100 against the half's AS200: AS100 now wins
    added = _new_add_step_pass(engine, report)
    assert [(d.half, d.local_as, d.remote_as) for d in added] == [(HALF, 200, 100)]


def test_own_entry_change_is_recounted():
    engine = _fan_engine()
    state, report = engine.state, AddStepReport()
    state.inferred_this_step = set()
    add._direct_pass(engine, report)
    # the next add step finds the half mapped to AS200 by an indirect
    # inference: its own entry moved, none of its neighbors' did
    state.remove_direct(HALF)
    partner = (_addr("9.9.0.1"), BACKWARD)
    state.add_indirect(
        IndirectInference(half=HALF, local_as=100, remote_as=200, source=partner)
    )
    state.refresh_visible()
    assert _new_add_step_pass(engine, report) == []


# -- resumed and reset runs recount everything ---------------------------------


def test_journaled_resume_recounts_every_candidate(monkeypatch, tmp_bundle, tmp_path):
    bundle = load_bundle(tmp_bundle(seed=3))
    plain = bundle.run_mapit()
    with chaos(ChaosInjector(crash_at_iteration=1)):
        with pytest.raises(SimulatedCrash):
            journaled_run(bundle, journal=RunJournal(tmp_path, "delta"))
    log = _PassLog(monkeypatch)
    resumed = journaled_run(bundle, journal=RunJournal(tmp_path, "delta"), resume=True)
    assert resumed.to_json() == plain.to_json()
    eligible, recounted, reused = log.passes[0]
    assert eligible > 0 and recounted == eligible and reused == 0


def test_resume_on_a_used_engine_recounts_every_candidate(monkeypatch):
    world = world_from_preset("small", 0)
    mapit = _batch_mapit(world, MapItConfig())
    snapshots = []
    full = mapit.run(
        on_iteration=lambda _, snapshot: snapshots.append(copy.deepcopy(snapshot))
    )
    # the engine's table now reflects the end of that run
    log = _PassLog(monkeypatch)
    resumed = mapit.run(resume=snapshots[0])
    assert resumed.to_json() == full.to_json()
    eligible, recounted, reused = log.passes[0]
    assert eligible > 0 and recounted == eligible and reused == 0


def test_reset_incremental_recounts_every_candidate(monkeypatch):
    world = world_from_preset("small", 0)
    config = MapItConfig()
    index = IncrementalIndex(
        world.ip2as(), org=world.as2org, rel=world.relationships, config=config
    )
    half = len(world.traces) // 2
    index.fold(list(world.traces[:half]))
    index.quiesce()
    index.fold(list(world.traces[half:]))
    index.quiesce()
    index.restore_state(copy.deepcopy(index.export_state()))  # resets the engine
    log = _PassLog(monkeypatch)
    index.quiesce()
    eligible, recounted, reused = log.passes[0]
    assert eligible > 0 and recounted == eligible and reused == 0
    fingerprint, payload = batch_state(world, len(world.traces), config)
    assert index.fingerprint() == fingerprint
    assert index.result.to_json(indent=2) == payload
