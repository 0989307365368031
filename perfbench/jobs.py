"""Jobs the benchmark runs, each in a fresh interpreter.

Usage (from the root of a checkout, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/jobs.py scenario-world WORKDIR PRESET SEED
    python3 perfbench/jobs.py stress-blocks WORKDIR SEED
    python3 perfbench/jobs.py stress-reference WORKDIR SEED
    python3 perfbench/jobs.py stress-cell WORKDIR SEED OUTPUT
    python3 perfbench/jobs.py serve-stream WORKDIR JOURNAL_DIR

Each prints one JSON object on stdout.  The first three make a world's
inputs and reference, once per checkout and code version:
``scenario-world`` simulates a scenario preset, writes it as a dataset
and computes its reference; ``stress-blocks`` writes the stress
campaign as length-prefixed ``FlatTraces`` blocks and
``stress-reference`` computes its reference, and the two run at once.
``stress-cell`` streams the blocks through the columnar fold and the
engine and writes the result JSON.  ``serve-stream`` builds a
serve daemon and drives one closed-loop pass of the dataset's trace
lines through it, then reads the whole query mix from the final
snapshot and checks every answer.

The query helpers (:func:`read_mix`, :func:`answer_digest`,
:func:`expected_answers`) are shared with ``run.py``, which reads each
batch job's own result through the same ``QueryAPI``.

The traced run (``tracing.py``) imports this module and calls the same
functions in-process, so traced and untraced jobs run the same code.
Every call into the program goes through a module attribute
(``ingest.fold_graph_from_blocks``, not a name bound at import), which
is where the tracer wraps it.
"""

from __future__ import annotations

import hashlib
import json
import resource
import struct
import sys
import time
from pathlib import Path

#: refreshes per serve pass: the stream is cut into this many chunks
#: (plus a remainder), with a quiesce and a checkpoint after each
SERVE_REFRESHES = 100

#: QueryAPI reads after every serve refresh
SERVE_QUERIES_PER_REFRESH = 20

#: the payload fields that carry a read's answer, per QueryAPI route;
#: ``seq`` and ``fingerprint`` name the snapshot, not the answer
ANSWER_FIELDS = {
    "links_by_address": ("links",),
    "links_by_as": ("links",),
    "explain": ("records", "other_side"),
}

_HEADER = struct.Struct("<Q")


def _digest(body: dict) -> str:
    return hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest()


def answer_digest(route: str, payload) -> str:
    """A read's answer as a digest; ``None`` (a read that raised) has none."""
    if payload is None:
        return ""
    return _digest({field: payload.get(field) for field in ANSWER_FIELDS[route]})


def expected_answers(result, partners, mix):
    """The digests of the answers *result* should give to *mix*.

    Worked out from the result's records directly, not through the
    serve layer: an address's links are its records, an AS's links
    are the records with it at either end, both in result order, and
    ``explain`` adds the address's point-to-point partner from
    *partners*, a map of address to address (empty when there is no
    table).
    """
    from repro.net.ipv4 import format_address, parse_address

    by_address, by_as = {}, {}
    for inference in list(result.inferences) + list(result.uncertain):
        record = inference.to_dict()
        by_address.setdefault(inference.address, []).append(record)
        for asn in {inference.local_as, inference.remote_as}:
            by_as.setdefault(asn, []).append(record)
    answers = []
    for route, argument in mix:
        if route == "links_by_as":
            body = {"links": by_as.get(argument, [])}
        else:
            address = parse_address(argument)
            links = by_address.get(address, [])
            if route == "links_by_address":
                body = {"links": links}
            else:
                other = partners.get(address)
                body = {"records": links,
                        "other_side": format_address(other) if other is not None else None}
        answers.append(_digest(body))
    return answers


def read_mix(api, mix):
    """Send every ``(route, argument)`` read of *mix* through *api*.

    Returns each read's latency in ns and its payload (``None`` when
    the read raised).
    """
    latencies, payloads = [], []
    for route, argument in mix:
        call = getattr(api, route)
        sent = time.perf_counter_ns()
        try:
            payload = call(argument)
        except Exception:  # noqa: BLE001 - a failed read is counted, not fatal
            payload = None
        latencies.append(time.perf_counter_ns() - sent)
        payloads.append(payload)
    return latencies, payloads


def wrong_answers(mix, payloads, expected) -> int:
    """Reads whose answer differs from the expected digest."""
    return sum(
        answer_digest(route, payload) != want
        for (route, _), payload, want in zip(mix, payloads, expected)
    )


def result_bytes(result) -> bytes:
    """A result serialized the way ``mapit run --json --output`` writes it."""
    return (result.to_json(indent=2) + "\n").encode()


def scenario_world(work: Path, preset: str, seed: int) -> dict:
    """Simulate a scenario preset and write it as a dataset; then the
    reference, by the serial uncached object pipeline over the traces
    parsed back from it, and the point-to-point table that ``explain``
    answers carry, by serial graph construction over the same traces."""
    from repro import run_mapit
    from repro.graph.neighbors import build_interface_graph
    from repro.io import load_bundle, save_scenario
    from repro.sim import presets
    from repro.sim.scenario import build_scenario
    from repro.traceroute.sanitize import sanitize_traces

    start = time.perf_counter()
    config = getattr(presets, f"{preset}_config")(seed)
    save_scenario(build_scenario(config), work / "dataset")
    gen_s = time.perf_counter() - start
    bundle = load_bundle(work / "dataset")
    reference = run_mapit(
        bundle.traces, bundle.ip2as, org=bundle.as2org, rel=bundle.relationships
    )
    (work / "reference.json").write_bytes(result_bytes(reference))
    report = sanitize_traces(bundle.traces)
    graph = build_interface_graph(report.traces, all_addresses=report.all_addresses)
    pairs = sorted(graph.other_sides.other_side.items())
    (work / "other_sides.json").write_text(json.dumps(pairs))
    return {"gen_s": gen_s, "traces": len(bundle.traces)}


def stress_write_blocks(work: Path, seed: int) -> dict:
    """Write the stress campaign as :func:`repro.sim.stress.stress_blocks`
    yields it: one file of length-prefixed ``FlatTraces`` blocks."""
    from repro.sim import stress
    from repro.sim.presets import stress_config

    start = time.perf_counter()
    traces = 0
    with open(work / "stress.blocks", "wb") as handle:
        for block in stress.stress_blocks(stress_config(seed)):
            blob = block.to_bytes()
            handle.write(_HEADER.pack(len(blob)))
            handle.write(blob)
            traces += len(block)
    return {"gen_s": time.perf_counter() - start, "traces": traces}


def stress_reference(work: Path, seed: int) -> dict:
    """The stress reference: the serial object pipeline over
    ``stress_traces``, generated on its own, beside the blocks."""
    from repro import run_mapit
    from repro.sim import stress
    from repro.sim.presets import stress_config

    config = stress_config(seed)
    traces = [trace for shard in stress.stress_traces(config) for trace in shard]
    reference = run_mapit(
        traces,
        stress.stress_ip2as(config),
        org=stress.stress_org(config),
        rel=stress.stress_relationships(config),
    )
    (work / "reference.json").write_bytes(result_bytes(reference))
    return {"traces": len(traces)}


def _read_blocks(path: Path):
    from repro.perf.flat import FlatTraces

    with open(path, "rb") as handle:
        while True:
            header = handle.read(_HEADER.size)
            if not header:
                return
            (size,) = _HEADER.unpack(header)
            yield FlatTraces.from_bytes(handle.read(size))


def stress_cell(work: Path, seed: int, output: Path) -> dict:
    """One sweep cell without world generation: stream-fold, infer, emit."""
    from repro.core import mapit
    from repro.perf import ingest
    from repro.sim import stress
    from repro.sim.presets import stress_config

    config = stress_config(seed)
    graph, stats = ingest.fold_graph_from_blocks(_read_blocks(work / "stress.blocks"))
    ip2as = stress.stress_ip2as(config)
    org = stress.stress_org(config)
    rel = stress.stress_relationships(config)
    result = mapit.run_mapit_graph(graph, ip2as, org=org, rel=rel)
    write_result(result, output)
    return {"traces": stats.traces, "blocks": stats.shards}


def write_result(result, output: Path) -> None:
    output.write_bytes(result_bytes(result))


def serve_build(work: Path) -> dict:
    """What a serve pass needs before its first record: the mapping
    datasets (no traces), the stream's lines, the query mix and the
    reference answers to it."""
    from repro.io import bundle

    dataset = work / "dataset"
    loaded = bundle.load_bundle(dataset, skip_traces=True)
    lines = (dataset / "traces.txt").read_text().splitlines()
    queries = json.loads((work / "queries.json").read_text())
    return {"bundle": loaded, "lines": lines, "queries": queries["mix"],
            "answers": queries["answers"]}


def serve_pass(state: dict, journal_dir: Path) -> dict:
    """One closed-loop stream pass through a fresh daemon.

    Per chunk: offer the lines, pump them (parse + fold), quiesce
    (timed from the chunk's last fold to the published snapshot),
    checkpoint to the run journal, then answer this refresh's share of
    the query mix against the published snapshot; each of those reads
    must name the snapshot just published.  After the stream, the whole
    mix is read from the final snapshot and every answer is compared
    with the reference's.
    """
    from repro.robust.journal import RunJournal
    from repro.serve.api import QueryAPI
    from repro.serve.daemon import ServeDaemon
    from repro.serve.incremental import IncrementalIndex

    loaded, lines, queries = state["bundle"], state["lines"], state["queries"]
    chunk = max(1, len(lines) // SERVE_REFRESHES)
    started = time.perf_counter()
    cpu_started = _cpu_seconds()
    index = IncrementalIndex(
        loaded.ip2as, org=loaded.as2org, rel=loaded.relationships
    )
    daemon = ServeDaemon(
        index,
        format="text",
        on_error="lenient",
        journal=RunJournal(journal_dir, "perfbench"),
        quiesce_every=0,
        queue_limit=max(1024, chunk),
    )
    api = QueryAPI(daemon)
    refresh_s = []
    query_ns = []
    stale_reads = 0
    cursor = 0
    for begin in range(0, len(lines), chunk):
        for line in lines[begin:begin + chunk]:
            daemon.offer(line, "traces.txt")
        daemon.pump()
        folded = time.perf_counter()
        daemon.quiesce()
        refresh_s.append(time.perf_counter() - folded)
        daemon.checkpoint()
        published = daemon.snapshot.seq
        share = queries[cursor:cursor + SERVE_QUERIES_PER_REFRESH]
        cursor += len(share)
        latencies, payloads = read_mix(api, share)
        query_ns.extend(latencies)
        stale_reads += sum(payload is None or payload["seq"] != published for payload in payloads)
    snapshot = daemon.finalize()
    latencies, payloads = read_mix(api, queries)
    query_ns.extend(latencies)
    wall_s = time.perf_counter() - started
    cpu_s = _cpu_seconds() - cpu_started
    stats = daemon.stats_view()
    return {
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "refresh_s": refresh_s,
        "query_ns": query_ns,
        "stale_reads": stale_reads,
        "wrong_answers": wrong_answers(queries, payloads, state["answers"]),
        "malformed": stats["malformed"],
        "shed": stats["shed"],
        "parsed": stats["parsed"],
        "result_sha256": hashlib.sha256(result_bytes(snapshot.result)).hexdigest(),
    }


def _cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def main(argv) -> int:
    command, work = argv[0], Path(argv[1])
    if command == "scenario-world":
        report = scenario_world(work, argv[2], int(argv[3]))
    elif command == "stress-blocks":
        report = stress_write_blocks(work, int(argv[2]))
    elif command == "stress-reference":
        report = stress_reference(work, int(argv[2]))
    elif command == "stress-cell":
        report = stress_cell(work, int(argv[2]), Path(argv[3]))
    elif command == "serve-stream":
        started = time.perf_counter()
        state = serve_build(work)
        build_s = time.perf_counter() - started
        report = serve_pass(state, Path(argv[2]))
        report["build_s"] = build_s
    else:
        print(f"unknown job {command!r}", file=sys.stderr)
        return 2
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
