"""The traced run: span recording around the program's public calls.

Usage (from the root of a checkout, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/tracing.py SPEC.json

``SPEC.json`` names the job (``kind`` is ``cli``, ``stress`` or
``serve``, plus its arguments) and where to write the report.  The job
runs in this process after :func:`install` has replaced each layer's
entry points, at the attributes the program calls them through, with
wrappers that open a span around the call and record counts at the
same boundary.  Nothing under ``src/`` changes.

Every timed call pushes a frame.  When it returns, its duration is
charged to the enclosing frame, so a layer's *self* time is its
duration minus the time of the timed calls inside it.  Frames opened
with ``record=True`` are kept as spans (name, start, end, parent span,
job id) and written out with the report; per-record calls (one per
trace line, per address lookup, per query) are timed the same way but
only summed per name, which keeps the span list bounded.  Forked
workers inherit the wrappers, but what they record dies with them:
only the time the parent waits on the pool is reported.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from pathlib import Path


class Tracer:
    """In-memory spans, per-name self times and boundary counts."""

    def __init__(self, job: int) -> None:
        self.job = job
        #: recorded spans: [name, start, end, parent span index or None]
        self.spans = []
        #: name -> [calls, total seconds, self seconds]
        self.totals = {}
        self.counts = {}
        #: time covered by frames with no enclosing frame
        self.top_level_s = 0.0
        self._stack = []

    def enter(self, name: str, record: bool):
        stack = self._stack
        anchor = stack[-1][3] if stack else None
        if record:
            index = len(self.spans)
            self.spans.append([name, 0.0, 0.0, anchor])
            frame = [name, 0.0, 0.0, index, True]
        else:
            frame = [name, 0.0, 0.0, anchor, False]
        stack.append(frame)
        frame[1] = time.perf_counter()
        return frame

    def exit(self, frame) -> None:
        end = time.perf_counter()
        stack = self._stack
        stack.pop()
        name, start, child, index, record = frame
        duration = end - start
        if stack:
            stack[-1][2] += duration
        else:
            self.top_level_s += duration
        total = self.totals.get(name)
        if total is None:
            total = self.totals[name] = [0, 0.0, 0.0]
        total[0] += 1
        total[1] += duration
        total[2] += duration - child
        if record:
            span = self.spans[index]
            span[1] = start
            span[2] = end

    def count(self, name: str, amount=1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def report(self) -> dict:
        return {
            "job": self.job,
            "spans": [span + [self.job] for span in self.spans],
            "totals": self.totals,
            "counts": self.counts,
            "top_level_s": self.top_level_s,
        }


def _wrap(tracer, owner, attribute, name, record=True, after=None):
    """Replace ``owner.attribute`` with a timed wrapper.

    *after(result, args, kwargs)* records counts once the call returns.
    """
    original = getattr(owner, attribute)
    enter, leave = tracer.enter, tracer.exit

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        frame = enter(name, record)
        try:
            result = original(*args, **kwargs)
        finally:
            leave(frame)
        if after is not None:
            after(result, args, kwargs)
        return result

    setattr(owner, attribute, wrapper)


def install(tracer: Tracer):
    """Wrap every layer entry point the per-layer metrics name.

    Returns a function that stores the per-call counters in
    ``tracer.counts`` once the job is done.
    """
    import repro
    import repro.cli
    import repro.core.mapit
    import repro.graph.neighbors
    import repro.io.bundle
    import repro.perf.graph
    import repro.perf.ingest
    import repro.robust.supervise
    import repro.serve.checkpoint
    import repro.serve.daemon
    import repro.serve.incremental
    import repro.sim.stress
    from repro.bgp.ip2as import IP2AS
    from repro.core.engine import Engine
    from repro.core.mapit import MapIt
    from repro.obs import Observability
    from repro.obs.metrics import Metrics
    from repro.perf.cache import BundleCache
    from repro.perf.flat import FlatTraces
    from repro.robust.journal import RunJournal
    from repro.serve.api import QueryAPI
    from repro.serve.daemon import ServeDaemon
    from repro.serve.incremental import IncrementalIndex

    count = tracer.count
    enter, leave = tracer.enter, tracer.exit

    # -- cli / io ------------------------------------------------------------
    def emitted(result, args, kwargs):
        output = args[1] if len(args) > 1 else kwargs.get("output")
        if output:
            count("core.results.bytes", os.path.getsize(output))

    _wrap(tracer, repro.cli, "_emit_result", "cli.emit", after=emitted)
    _wrap(tracer, repro.cli, "load_bundle", "io.bundle.load")
    _wrap(tracer, repro.io.bundle, "load_bundle", "io.bundle.load")

    # -- parse ---------------------------------------------------------------
    def ingested(result, args, kwargs):
        report = result[1]
        count("robust.ingest.records", report.parsed)
        count("robust.ingest.failed", report.malformed)

    _wrap(tracer, repro.io.bundle, "ingest_trace_file", "robust.ingest", after=ingested)

    parse_record = repro.serve.daemon.parse_record

    def traced_parse_record(line, line_number, format):
        frame = enter("robust.ingest", False)
        try:
            trace = parse_record(line, line_number, format)
        except ValueError:
            count("robust.ingest.failed")
            raise
        finally:
            leave(frame)
        if trace is not None:
            count("robust.ingest.records")
        return trace

    repro.serve.daemon.parse_record = traced_parse_record

    # -- sanitize / fold / other sides ---------------------------------------
    def sanitized(report, args, kwargs):
        count("traceroute.sanitize.kept", len(report.traces))
        count("traceroute.sanitize.total", report.total)

    _wrap(tracer, repro.core.mapit, "sanitize_traces", "traceroute.sanitize", after=sanitized)
    _wrap(tracer, repro.core.mapit, "build_interface_graph", "graph.neighbors")

    def finished(graph, args, kwargs):
        count("graph.addresses", len(graph.forward.keys() | graph.backward.keys()))

    for module in (repro.graph.neighbors, repro.perf.ingest, repro.perf.graph):
        _wrap(tracer, module, "finish_interface_graph", "graph.neighbors", after=finished)
    for module in (repro.graph.neighbors, repro.serve.incremental):
        _wrap(tracer, module, "infer_other_sides", "graph.othersides")

    # -- columnar path -------------------------------------------------------
    _wrap(tracer, repro.perf.ingest, "accumulate_flat", "perf.flat.fold")
    _wrap(tracer, repro.serve.incremental, "accumulate_flat", "perf.flat.fold", record=False)

    from_bytes = FlatTraces.__dict__["from_bytes"].__func__

    def traced_from_bytes(cls, blob):
        frame = enter("perf.flat.decode", True)
        try:
            return from_bytes(cls, blob)
        finally:
            leave(frame)
            count("perf.flat.bytes", len(blob))

    FlatTraces.from_bytes = classmethod(traced_from_bytes)

    _wrap(
        tracer,
        repro.perf.ingest,
        "fold_graph_from_blocks",
        "perf.ingest.stream_fold",
        after=lambda result, args, kwargs: count("perf.ingest.blocks", result[1].shards),
    )

    def cache_loaded(hit, args, kwargs):
        count("perf.cache.lookups")
        if hit is not None:
            count("perf.cache.hits")
            count("perf.cache.bytes", os.path.getsize(args[0].entry_path(*args[1:3])))

    _wrap(tracer, BundleCache, "load_entry", "perf.cache.load", after=cache_loaded)
    for attribute in ("build_graph_flat", "build_graph_parallel"):
        _wrap(tracer, repro.perf.graph, attribute, "perf.graph.build")

    supervised_pool_map = repro.robust.supervise.supervised_pool_map

    def traced_pool_map(worker, ranges, jobs, **kwargs):
        # the CLI passes a disabled observer; a private registry reads
        # the supervisor's own retry counter without changing its work
        metrics = Metrics()
        kwargs["obs"] = Observability(metrics=metrics)
        frame = enter("perf.pool.wait", True)
        try:
            results = supervised_pool_map(worker, ranges, jobs, **kwargs)
        finally:
            leave(frame)
        count("perf.pool.shards", len(ranges))
        count("robust.supervise.retries", metrics.counter("robust.supervise.retries"))
        count("perf.flat.bundle_bytes", sum(getattr(value, "nbytes", 0) for value in results))
        return results

    repro.robust.supervise.supervised_pool_map = traced_pool_map

    # -- origin resolution ---------------------------------------------------
    lookups = [0]
    asn = IP2AS.asn

    def traced_asn(self, address):
        lookups[0] += 1
        frame = enter("bgp.ip2as", False)
        try:
            return asn(self, address)
        finally:
            leave(frame)

    IP2AS.asn = traced_asn

    origin_calls = [0, 0]  # calls, misses
    original_asn = Engine.original_asn

    def counted_original_asn(self, address):
        before = lookups[0]
        value = original_asn(self, address)
        origin_calls[0] += 1
        if lookups[0] != before:
            origin_calls[1] += 1
        return value

    Engine.original_asn = counted_original_asn
    _wrap(tracer, Engine, "prime_origins", "core.engine.origins")

    # -- inference -----------------------------------------------------------
    _wrap(tracer, repro, "run_mapit", "core.mapit.pipeline")
    _wrap(tracer, repro.core.mapit, "run_mapit_graph", "core.mapit.run_graph")
    for attribute, name in (
        ("add_step", "core.add"),
        ("remove_step", "core.remove"),
        ("stub_step", "core.stub"),
    ):
        _wrap(tracer, repro.core.mapit, attribute, name)
    _wrap(
        tracer,
        MapIt,
        "run",
        "core.mapit.run",
        after=lambda result, args, kwargs: count("core.mapit.iterations", result.iterations),
    )
    _wrap(tracer, Engine, "invalidate_halves", "serve.engine.invalidate")

    # -- serve -----------------------------------------------------------------
    _wrap(tracer, ServeDaemon, "offer", "serve.daemon.ingest", record=False)
    _wrap(tracer, ServeDaemon, "pump", "serve.daemon.ingest")
    _wrap(tracer, ServeDaemon, "quiesce", "serve.daemon.quiesce")
    _wrap(tracer, ServeDaemon, "checkpoint", "serve.checkpoint")
    _wrap(tracer, IncrementalIndex, "fold", "serve.incremental.fold", record=False)

    index_quiesce = IncrementalIndex.quiesce

    def traced_index_quiesce(self):
        count("serve.incremental.dirty_halves", self.dirty_halves)
        frame = enter("serve.incremental.quiesce", True)
        try:
            return index_quiesce(self)
        finally:
            leave(frame)

    IncrementalIndex.quiesce = traced_index_quiesce

    checkpoint_blob = repro.serve.checkpoint.checkpoint_blob

    def counted_checkpoint_blob(*args, **kwargs):
        blob = checkpoint_blob(*args, **kwargs)
        count("serve.checkpoint.bytes", len(blob))
        return blob

    repro.serve.checkpoint.checkpoint_blob = counted_checkpoint_blob

    _wrap(
        tracer,
        RunJournal,
        "store_blob",
        "robust.journal",
        after=lambda sha, args, kwargs: count("robust.journal.bytes", len(args[2])),
    )
    append = RunJournal.append

    def traced_append(self, unit, payload):
        before = self.path.stat().st_size if self.path.exists() else 0
        frame = enter("robust.journal", True)
        try:
            stuck = append(self, unit, payload)
        finally:
            leave(frame)
        count("robust.journal.bytes", self.path.stat().st_size - before)
        return stuck

    RunJournal.append = traced_append
    for route in ("links_by_address", "links_by_as", "explain"):
        _wrap(tracer, QueryAPI, route, f"serve.api.{route}", record=False)

    # -- the stress job's own datasets ----------------------------------------
    for attribute in ("stress_ip2as", "stress_org", "stress_relationships"):
        _wrap(tracer, repro.sim.stress, attribute, "sim.datasets")

    def finish_counts() -> None:
        tracer.counts["bgp.ip2as.lookups"] = lookups[0]
        tracer.counts["core.engine.origin_calls"] = origin_calls[0]
        tracer.counts["core.engine.origin_misses"] = origin_calls[1]

    return finish_counts


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    tracer = Tracer(spec["job"])
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    kind = spec["kind"]
    frame = tracer.enter("cli.startup", True)
    # start-up is the job's own imports, the ones an untraced job makes
    if kind == "cli":
        import repro.cli
    elif kind == "stress":
        import jobs
        import repro.core.mapit  # noqa: F401
        import repro.perf.ingest  # noqa: F401
        import repro.sim.presets  # noqa: F401
        import repro.sim.stress  # noqa: F401
    else:
        import jobs
        import repro.io.bundle  # noqa: F401
        import repro.robust.journal  # noqa: F401
        import repro.serve.api  # noqa: F401
        import repro.serve.incremental  # noqa: F401
    tracer.exit(frame)
    finish_counts = install(tracer)
    report = {}
    if kind == "cli":
        report["exit_code"] = repro.cli.main(spec["argv"])
    elif kind == "stress":
        jobs.write_result = _traced_emit(tracer, jobs.write_result)
        jobs.stress_cell(Path(spec["work"]), spec["seed"], Path(spec["output"]))
    else:
        state = jobs.serve_build(Path(spec["work"]))
        tracer.top_level_s = 0.0
        report["pass"] = jobs.serve_pass(state, Path(spec["journal"]))
    finish_counts()
    report.update(tracer.report())
    Path(spec["report"]).write_text(json.dumps(report))
    return 0


def _traced_emit(tracer: Tracer, write_result):
    def traced(result, output):
        frame = tracer.enter("cli.emit", True)
        try:
            write_result(result, output)
        finally:
            tracer.exit(frame)
        tracer.count("core.results.bytes", os.path.getsize(output))

    return traced


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
