"""Differential tests for the parallel/cached execution layer.

The contract of :mod:`repro.perf` is *byte-identity*: any worker count
and any cache state must produce exactly the serial pipeline's outputs
— inference files, trace JSONL, reports, and exceptions.  These tests
hold it to that, and prove a corrupted cache entry is detected and
rebuilt rather than served.
"""

import json

import pytest

from repro.cli import main
from repro.perf.cache import BundleCache
from repro.perf.flat import unpack_traces
from repro.perf.ingest import ingest_trace_text
from repro.perf.pool import shard_ranges
from repro.robust.errors import MAX_DETAILED_ERRORS, ErrorBudget, ErrorBudgetExceeded
from repro.robust.ingest import ingest_traces
from repro.traceroute.parse import TraceParseError

GOOD = [
    "m1|9.1.0.9|9.0.0.1 9.1.0.1",
    "m1|9.1.0.9|9.0.0.1 * 9.1.0.2@0",
    "m2|9.1.0.9|9.0.0.2 9.1.0.1",
]


def ingest_traces_sharded(lines, jobs, **kwargs):
    """The sharded column ingester over *lines*, decoded to traces."""
    text = "".join(line + "\n" for line in lines)
    flat, report = ingest_trace_text(text, jobs, **kwargs)
    return unpack_traces(flat), report


class TestShardRanges:
    def test_covers_every_index_once(self):
        for count in (0, 1, 5, 16, 97):
            for shards in (1, 2, 3, 8, 200):
                ranges = shard_ranges(count, shards)
                flat = [i for start, end in ranges for i in range(start, end)]
                assert flat == list(range(count))

    def test_balanced(self):
        sizes = [end - start for start, end in shard_ranges(10, 3)]
        assert max(sizes) - min(sizes) <= 1


class TestIngestEquivalence:
    @pytest.mark.parametrize("jobs", [1, 2, 4])
    @pytest.mark.parametrize("mode", ["lenient", "quarantine"])
    def test_modes_match_serial(self, jobs, mode, tmp_path):
        lines = (GOOD + ["garbage", "", "# note", "m|300.0.0.1|x"]) * 7
        kwargs = dict(format="text", source="traces.txt")
        serial_traces, serial_report = ingest_traces(
            lines, mode=mode, quarantine_dir=tmp_path / "qs", **kwargs
        )
        traces, report = ingest_traces_sharded(
            lines, jobs, mode=mode, quarantine_dir=tmp_path / "qp", **kwargs
        )
        assert traces == serial_traces
        assert report.parsed == serial_report.parsed
        assert report.malformed == serial_report.malformed
        assert report.skipped == serial_report.skipped
        assert report.errors == serial_report.errors
        if mode == "quarantine":
            serial_rejects = (tmp_path / "qs" / "traces.txt.rejects.txt").read_bytes()
            rejects = (tmp_path / "qp" / "traces.txt.rejects.txt").read_bytes()
            assert rejects == serial_rejects

    @pytest.mark.parametrize("jobs", [2, 4])
    def test_strict_raises_earliest_line(self, jobs):
        lines = GOOD + ["bad one"] + GOOD + ["bad two"]
        with pytest.raises(TraceParseError) as serial:
            ingest_traces(lines, mode="strict")
        with pytest.raises(TraceParseError) as parallel:
            ingest_traces_sharded(lines, jobs, mode="strict")
        assert parallel.value.line_number == serial.value.line_number == 4
        assert parallel.value.reason == serial.value.reason

    def test_error_budget_applies(self):
        lines = (GOOD * 10) + ["junk"] * 10
        with pytest.raises(ErrorBudgetExceeded):
            ingest_traces_sharded(lines, 4, mode="lenient", budget=ErrorBudget(0.1))

    def test_detailed_error_cap_matches_serial(self):
        lines = ["junk %d" % i for i in range(MAX_DETAILED_ERRORS + 50)]
        _, serial_report = ingest_traces(lines, mode="lenient")
        _, report = ingest_traces_sharded(lines, 4, mode="lenient")
        assert report.malformed == serial_report.malformed
        assert report.errors == serial_report.errors
        assert len(report.errors) == MAX_DETAILED_ERRORS


@pytest.fixture()
def dataset(tmp_bundle):
    return tmp_bundle(seed=3)


def _run(dataset, out, trace, *extra):
    args = ["run", str(dataset), "--json", "--output", str(out), "--trace", str(trace)]
    assert main(list(args) + list(extra)) == 0


class TestCliJobsEquivalence:
    def test_jobs_byte_identical(self, dataset, tmp_path, capsys):
        outputs = {}
        for jobs in (1, 2, 4):
            out = tmp_path / f"out{jobs}.json"
            trace = tmp_path / f"trace{jobs}.jsonl"
            _run(dataset, out, trace, "--jobs", str(jobs))
            outputs[jobs] = (out.read_bytes(), trace.read_bytes())
        assert outputs[2] == outputs[1]
        assert outputs[4] == outputs[1]


class TestCacheEquivalence:
    def test_cold_then_warm_byte_identical(self, dataset, tmp_path, capsys):
        cache = tmp_path / "cache"
        cold_out, cold_trace = tmp_path / "c.json", tmp_path / "c.jsonl"
        warm_out, warm_trace = tmp_path / "w.json", tmp_path / "w.jsonl"
        plain_out, plain_trace = tmp_path / "p.json", tmp_path / "p.jsonl"
        _run(dataset, plain_out, plain_trace, "--no-cache")
        _run(dataset, cold_out, cold_trace, "--cache", str(cache))
        metrics = tmp_path / "m.json"
        _run(dataset, warm_out, warm_trace, "--cache", str(cache), "--metrics", str(metrics))
        assert cold_out.read_bytes() == plain_out.read_bytes()
        assert warm_out.read_bytes() == plain_out.read_bytes()
        # the trace JSONL is part of the contract: a cache hit emits the
        # same ingest events/counters a clean parse does
        assert cold_trace.read_bytes() == plain_trace.read_bytes()
        assert warm_trace.read_bytes() == plain_trace.read_bytes()
        counters = json.loads(metrics.read_text())["counters"]
        assert counters["perf.cache.hits"] == 1
        assert counters["ingest.records.parsed"] > 0

    def test_corrupt_entry_detected_and_rebuilt(self, dataset, tmp_path, capsys):
        cache = tmp_path / "cache"
        _run(dataset, tmp_path / "cold.json", tmp_path / "cold.jsonl", "--cache", str(cache))
        entries = list(cache.glob("*.mapitc"))
        assert len(entries) == 1
        # flip one payload byte
        data = bytearray(entries[0].read_bytes())
        data[-1] ^= 0xFF
        entries[0].write_bytes(bytes(data))
        metrics = tmp_path / "m1.json"
        _run(
            dataset,
            tmp_path / "re.json",
            tmp_path / "re.jsonl",
            "--cache",
            str(cache),
            "--metrics",
            str(metrics),
        )
        counters = json.loads(metrics.read_text())["counters"]
        assert counters["perf.cache.invalid"] == 1
        assert "perf.cache.hits" not in counters
        assert (tmp_path / "re.json").read_bytes() == (
            tmp_path / "cold.json"
        ).read_bytes()
        # the corrupt entry was overwritten by a good one: next run hits
        metrics2 = tmp_path / "m2.json"
        _run(
            dataset,
            tmp_path / "hit.json",
            tmp_path / "hit.jsonl",
            "--cache",
            str(cache),
            "--metrics",
            str(metrics2),
        )
        assert json.loads(metrics2.read_text())["counters"]["perf.cache.hits"] == 1

    def test_changed_source_misses(self, tmp_bundle, tmp_path, capsys):
        dataset = tmp_bundle(seed=3, copy=True)
        cache = tmp_path / "cache"
        _run(dataset, tmp_path / "a.json", tmp_path / "a.jsonl", "--cache", str(cache))
        with open(dataset / "traces.txt", "a") as handle:
            handle.write("m9|9.1.0.9|9.0.0.1 9.1.0.1\n")
        metrics = tmp_path / "m.json"
        _run(
            dataset,
            tmp_path / "b.json",
            tmp_path / "b.jsonl",
            "--cache",
            str(cache),
            "--metrics",
            str(metrics),
        )
        counters = json.loads(metrics.read_text())["counters"]
        assert counters["perf.cache.misses"] == 1
        assert len(list(cache.glob("*.mapitc"))) == 2

    def test_v1_entry_warm_run_byte_identical(self, dataset, tmp_path, capsys):
        """Golden byte-identity for legacy v1 entries read by new code:
        a warm run over a fabricated old-format entry must produce the
        same output and trace bytes as the cold (v2-writing) run."""
        import hashlib

        cache = tmp_path / "cache"
        cold_out, cold_trace = tmp_path / "c.json", tmp_path / "c.jsonl"
        _run(dataset, cold_out, cold_trace, "--cache", str(cache))
        bundle_cache = BundleCache(cache)
        source_sha = hashlib.sha256((dataset / "traces.txt").read_bytes()).hexdigest()
        hit = bundle_cache.load_entry(source_sha, "text")
        assert hit is not None and hit.entry_version == 2
        TestBundleCacheUnit._write_v1_entry(
            bundle_cache, source_sha, "text", hit.traces(), hit.parsed, hit.skipped
        )
        warm_out, warm_trace = tmp_path / "w.json", tmp_path / "w.jsonl"
        metrics = tmp_path / "m.json"
        _run(
            dataset,
            warm_out,
            warm_trace,
            "--cache",
            str(cache),
            "--metrics",
            str(metrics),
        )
        assert warm_out.read_bytes() == cold_out.read_bytes()
        assert warm_trace.read_bytes() == cold_trace.read_bytes()
        counters = json.loads(metrics.read_text())["counters"]
        assert counters["perf.cache.hits"] == 1
        assert counters["perf.cache.format.v1"] == 1

    def test_dirty_parse_not_cached(self, tmp_bundle, tmp_path, capsys):
        dataset = tmp_bundle(seed=3, copy=True)
        with open(dataset / "traces.txt", "a") as handle:
            handle.write("garbage line\n")
        cache = tmp_path / "cache"
        args = [
            "run",
            str(dataset),
            "--json",
            "--output",
            str(tmp_path / "o.json"),
            "--on-error",
            "lenient",
            "--cache",
            str(cache),
        ]
        assert main(args) == 0
        assert list(cache.glob("*.mapitc")) == []


class TestBundleCacheUnit:
    def test_load_missing_is_miss(self, tmp_path):
        assert BundleCache(tmp_path).load("0" * 64, "text") is None

    def test_round_trip(self, tmp_path):
        from repro.robust.errors import IngestReport
        from repro.traceroute.parse import parse_text_traces

        traces = list(parse_text_traces(GOOD))
        report = IngestReport(source="traces.txt", parsed=len(traces))
        cache = BundleCache(tmp_path)
        assert cache.store("a" * 64, "text", traces, report)
        assert cache.load("a" * 64, "text") == (traces, len(traces), 0)
        assert cache.load("b" * 64, "text") is None  # different source
        assert cache.load("a" * 64, "jsonl") is None  # different format

    def test_dirty_report_refused(self, tmp_path):
        from repro.robust.errors import IngestReport

        report = IngestReport(source="traces.txt", parsed=1, malformed=2)
        assert not BundleCache(tmp_path).store("a" * 64, "text", [], report)
        assert list(tmp_path.iterdir()) == []

    def test_stored_entries_are_binary_v2(self, tmp_path):
        from repro.perf.cache import BINARY_MAGIC
        from repro.robust.errors import IngestReport
        from repro.traceroute.parse import parse_text_traces

        traces = list(parse_text_traces(GOOD))
        report = IngestReport(source="traces.txt", parsed=len(traces))
        cache = BundleCache(tmp_path)
        assert cache.store("a" * 64, "text", traces, report)
        raw = cache.entry_path("a" * 64, "text").read_bytes()
        assert raw.startswith(BINARY_MAGIC)

    def test_header_tamper_is_invalid(self, tmp_path):
        import struct

        from repro.robust.errors import IngestReport
        from repro.traceroute.parse import parse_text_traces

        traces = list(parse_text_traces(GOOD))
        report = IngestReport(source="traces.txt", parsed=len(traces))
        cache = BundleCache(tmp_path)
        cache.store("a" * 64, "text", traces, report)
        path = cache.entry_path("a" * 64, "text")
        raw = bytearray(path.read_bytes())
        # doctor the struct header's parsed-count field (offset 12, u32)
        struct.pack_into("<I", raw, 12, 999)
        path.write_bytes(bytes(raw))
        assert cache.load("a" * 64, "text") is None

    @staticmethod
    def _write_v1_entry(cache, source_sha, format, traces, parsed, skipped=0):
        """Fabricate an entry in the legacy v1 layout (JSON header line +
        pickle of compact tuples) at the entry's canonical path."""
        import hashlib
        import pickle

        from repro.perf.cache import MAGIC, _pack

        payload = pickle.dumps(_pack(traces), protocol=pickle.HIGHEST_PROTOCOL)
        header = {
            "magic": MAGIC,
            "version": 1,
            "format": format,
            "source_sha256": source_sha,
            "payload_sha256": hashlib.sha256(payload).hexdigest(),
            "parsed": parsed,
            "skipped": skipped,
        }
        cache._ensure_directory()
        cache.entry_path(source_sha, format).write_bytes(
            json.dumps(header, separators=(",", ":")).encode() + b"\n" + payload
        )

    def test_v1_entry_reads_transparently(self, tmp_path):
        from repro.obs.metrics import Metrics
        from repro.obs.observer import Observability
        from repro.traceroute.parse import parse_text_traces

        traces = list(parse_text_traces(GOOD))
        metrics = Metrics()
        cache = BundleCache(tmp_path, obs=Observability(metrics=metrics))
        self._write_v1_entry(cache, "a" * 64, "text", traces, len(traces))
        assert cache.load("a" * 64, "text") == (traces, len(traces), 0)
        assert metrics.counters["perf.cache.hits"] == 1
        assert metrics.counters["perf.cache.format.v1"] == 1
        hit = cache.load_entry("a" * 64, "text")
        assert hit.entry_version == 1 and hit.flat is None

    def test_v1_entry_tamper_still_detected(self, tmp_path):
        from repro.traceroute.parse import parse_text_traces

        traces = list(parse_text_traces(GOOD))
        cache = BundleCache(tmp_path)
        self._write_v1_entry(cache, "a" * 64, "text", traces, len(traces))
        path = cache.entry_path("a" * 64, "text")
        data = bytearray(path.read_bytes())
        data[-1] ^= 0xFF
        path.write_bytes(bytes(data))
        assert cache.load("a" * 64, "text") is None

    def test_v2_hit_counts_format_metric(self, tmp_path):
        from repro.obs.metrics import Metrics
        from repro.obs.observer import Observability
        from repro.robust.errors import IngestReport
        from repro.traceroute.parse import parse_text_traces

        traces = list(parse_text_traces(GOOD))
        report = IngestReport(source="traces.txt", parsed=len(traces))
        metrics = Metrics()
        cache = BundleCache(tmp_path, obs=Observability(metrics=metrics))
        assert cache.store("a" * 64, "text", traces, report)
        hit = cache.load_entry("a" * 64, "text")
        assert hit.entry_version == 2 and hit.flat is not None
        assert hit.traces() == traces
        assert metrics.counters["perf.cache.format.v2"] == 1


class TestCacheHardening:
    """Races and write failures degrade the cache, never the run."""

    @staticmethod
    def _clean(parsed=3):
        from repro.robust.errors import IngestReport
        from repro.traceroute.parse import parse_text_traces

        traces = list(parse_text_traces(GOOD))
        return traces, IngestReport(source="traces.txt", parsed=len(traces))

    @staticmethod
    def _metrics_obs():
        from repro.obs.metrics import Metrics
        from repro.obs.observer import Observability

        metrics = Metrics()
        return Observability(metrics=metrics), metrics

    def test_overwriting_existing_entry_counts_contention(self, tmp_path):
        traces, report = self._clean()
        obs, metrics = self._metrics_obs()
        cache = BundleCache(tmp_path, obs=obs)
        assert cache.store("a" * 64, "text", traces, report)
        assert "perf.cache.contended" not in metrics.counters
        # a second run racing over the same dataset stores the same key
        assert cache.store("a" * 64, "text", traces, report)
        assert metrics.counters["perf.cache.contended"] == 1
        assert cache.load("a" * 64, "text") == (traces, len(traces), 0)

    def test_store_creates_missing_directory(self, tmp_path):
        traces, report = self._clean()
        cache = BundleCache(tmp_path / "deep" / "nested")
        assert cache.store("a" * 64, "text", traces, report)
        assert cache.load("a" * 64, "text") == (traces, len(traces), 0)

    def test_enospc_store_fails_soft(self, tmp_path):
        from repro.robust.faults import ChaosInjector, chaos

        traces, report = self._clean()
        obs, metrics = self._metrics_obs()
        cache = BundleCache(tmp_path, obs=obs)
        with chaos(ChaosInjector(cache_enospc=True)):
            assert not cache.store("a" * 64, "text", traces, report)
        assert metrics.counters["perf.cache.store_failed"] == 1
        # the failed store left no partial entry behind
        assert cache.load("a" * 64, "text") is None
        # and a later healthy store succeeds
        assert cache.store("a" * 64, "text", traces, report)
