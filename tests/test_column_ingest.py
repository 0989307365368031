"""Equivalence tests for the column ingester (``repro.perf.ingest``).

The load path parses trace text straight into ``FlatTraces`` columns,
memoizing validated text tokens.  Its contract is the object ingester
(``repro.robust.ingest.ingest_traces``) packed into columns: the same
bytes, the same ``IngestReport`` and detailed errors, the same
quarantine files and the same strict earliest-line exception, at any
span count — including inputs that repeat good and bad tokens (the memo
must never hide an error) and records carrying characters that
``str.splitlines`` would split on but file iteration does not.
"""

import dataclasses
import json

import pytest

from repro.cli import main
from repro.perf.flat import pack_traces
from repro.perf.ingest import ingest_trace_file as ingest_columns_file
from repro.perf.ingest import ingest_trace_text
from repro.robust.ingest import ingest_trace_file, ingest_traces
from repro.traceroute.parse import TraceParseError

TEXT = [
    "m1|9.1.0.9|9.0.0.1 9.1.0.1",
    "m1|9.1.0.9|9.0.0.1 * 9.1.0.2@0",
    "m2|9.1.0.9|9.0.0.1 bogus 9.1.0.1",
    "m3|9.1.0.9|9.0.0.1 bogus",
    "m4|9.1.0.9|9.0.0.1@\u0661 9.1.0.1",
    "m4|9.1.0.9|9.0.0.1@\u0661",
    "m5|300.0.0.1|9.0.0.1",
    "m5|300.0.0.1|9.0.0.2",
    "m6|9.1.0.9|9.0.0.1\x0c9.1.0.1",
    "m7|9.1.0.9|9.0.0.1\u20289.1.0.1",
    "m\x0c8|9.1.0.9|9.0.0.2 9.1.0.1@255",
    "",
    "# a comment",
    "   ",
    "garbage",
    "m9|9.1.0.9|9.0.0.1@256 9.1.0.1",
    "m9|9.1.0.9|9.0.0.1@01",
]

JSONL = [
    '{"src":"m1","dst":"9.1.0.9","hop_count":2,'
    '"hops":[{"addr":"9.0.0.1","probe_ttl":1,"reply_ttl":1,"rtt":1.5}]}',
    '{"src":"m1","dst":"9.1.0.9","hops":[{"addr":"9.0.0.1","probe_ttl":1,'
    '"reply_ttl":0},{"addr":"9.1.0.1","probe_ttl":2}]}',
    '{"src":"m\\ud800","dst":"9.1.0.9","hops":[{"addr":"9.0.0.1","probe_ttl":1}]}',
    '{"src":"m\u2028x","dst":"9.1.0.9","hops":[{"addr":"9.0.0.2","probe_ttl":1}]}',
    '{"src":"m2","dst":"9.1.0.9",\x0c"hops":[]}',
    '{"src":"m3","dst":"9.1.0.9","hops":[{"addr":"9.0.0.1","probe_ttl":1,'
    '"reply_ttl":300}]}',
    '{"src":"m4","dst":null}',
    "{not json",
    "",
]

ATLAS = [
    json.dumps(
        {
            "af": 4,
            "prb_id": 7,
            "dst_addr": "9.1.0.9",
            "result": [
                {"hop": 1, "result": [{"from": "9.0.0.1", "ittl": 1, "rtt": 2.5}]},
                {"hop": 3, "result": [{"from": "9.1.0.1", "ittl": 999}]},
            ],
        }
    ),
    json.dumps({"af": 6, "dst_addr": "::1", "result": [{"hop": 1}]}),
    json.dumps({"af": 4, "prb_id": "p\ud800", "dst_addr": "9.1.0.9", "result": [
        {"hop": 1, "result": [{"from": "9.0.0.3"}]}]}),
    '{"af": 4',
    "[1, 2]",
]

CORPORA = {"text": TEXT * 5, "jsonl": JSONL * 5, "atlas": ATLAS * 5}


def _text(lines):
    return "".join(line + "\n" for line in lines)


def _quarantine_bytes(directory):
    if not directory.exists():
        return {}
    return {path.name: path.read_bytes() for path in sorted(directory.iterdir())}


@pytest.mark.parametrize("jobs", [1, 2, 4])
@pytest.mark.parametrize("mode", ["lenient", "quarantine"])
@pytest.mark.parametrize("format", ["text", "jsonl", "atlas"])
def test_columns_equal_packed_object_ingest(format, mode, jobs, tmp_path):
    lines = CORPORA[format]
    serial_dir, column_dir = tmp_path / "serial", tmp_path / "columns"
    traces, report = ingest_traces(
        lines, format=format, source="traces.txt", mode=mode, quarantine_dir=serial_dir
    )
    flat, column_report = ingest_trace_text(
        _text(lines),
        jobs,
        format=format,
        source="traces.txt",
        mode=mode,
        quarantine_dir=column_dir,
    )
    assert report.malformed and (report.skipped or format != "atlas")
    assert flat.to_bytes() == pack_traces(traces).to_bytes()
    assert dataclasses.replace(column_report, quarantine_path=None) == (
        dataclasses.replace(report, quarantine_path=None)
    )
    assert _quarantine_bytes(column_dir) == _quarantine_bytes(serial_dir)
    if mode == "quarantine":
        assert sorted(_quarantine_bytes(column_dir)) == [
            "traces.txt.errors.jsonl",
            "traces.txt.rejects.txt",
        ]


@pytest.mark.parametrize("jobs", [1, 2, 4])
@pytest.mark.parametrize("format", ["text", "jsonl", "atlas"])
def test_strict_raises_the_serial_error(format, jobs):
    lines = CORPORA[format]
    with pytest.raises(TraceParseError) as serial:
        ingest_traces(lines, format=format, mode="strict")
    with pytest.raises(TraceParseError) as columns:
        ingest_trace_text(_text(lines), jobs, format=format, mode="strict")
    assert columns.value.line_number == serial.value.line_number
    assert columns.value.reason == serial.value.reason
    assert columns.value.text == serial.value.text


@pytest.mark.parametrize("jobs", [1, 2, 4])
def test_strict_error_after_a_memoized_token(jobs):
    """A token that validated once stays valid; one that failed keeps
    failing on every later line — the memo holds no errors."""
    lines = ["m|9.1.0.9|9.0.0.1 9.1.0.1"] * 40 + ["m|9.1.0.9|9.0.0.1 9.1.0.1@x"]
    with pytest.raises(TraceParseError) as columns:
        ingest_trace_text(_text(lines), jobs, mode="strict")
    assert columns.value.line_number == 41
    flat, report = ingest_trace_text(
        _text(["m|9.1.0.9|9.0.0.1@x"] * 9), jobs, mode="lenient"
    )
    assert len(flat) == 0 and report.malformed == 9
    assert [error.line_number for error in report.errors] == list(range(1, 10))


@pytest.mark.parametrize("jobs", [1, 2, 4])
def test_file_lines_split_like_file_iteration(jobs, tmp_path):
    """``\\r\\n``/``\\r`` end lines (universal newlines); ``\\x0c``,
    ``\\x1c`` and ``\\u2028`` do not; undecodable bytes are replaced."""
    path = tmp_path / "traces.txt"
    path.write_bytes(
        b"m1|9.1.0.9|9.0.0.1 9.1.0.1\r\n"
        b"m2|9.1.0.9|9.0.0.1\x0c9.1.0.1\r"
        b"m3|9.1.0.9|9.0.0.1\x1c9.1.0.2\n"
        + "m4|9.1.0.9|9.0.0.1\u20289.1.0.3\n".encode()
        + b"m\xff5|9.1.0.9|9.0.0.2\n"
        b"m6|9.1.0.9|9.0.0.9 \xff"
    )
    traces, report = ingest_trace_file(path, mode="lenient")
    flat, column_report = ingest_columns_file(path, jobs, mode="lenient")
    assert len(traces) == 5 and report.malformed == 1
    assert flat.to_bytes() == pack_traces(traces).to_bytes()
    assert column_report == report


def _span_names(dataset, tmp_path, label, *extra):
    metrics = tmp_path / f"{label}.metrics.json"
    args = [
        "run", str(dataset), "--json", "--output", str(tmp_path / f"{label}.json"),
        "--profile", "--metrics", str(metrics),
    ]
    assert main(args + list(extra)) == 0
    timers = json.loads(metrics.read_text())["timers"]
    return {name for name in timers if name.startswith("span.")}


def test_one_span_set_per_load(tmp_bundle, tmp_path, capsys):
    """Every load configuration reports the same load-stage spans:
    ``ingest`` (parse or cache hit), ``fold``, ``other_sides``."""
    dataset = tmp_bundle(seed=3)
    cache = tmp_path / "cache"
    names = {}
    for jobs in ("1", "2"):
        names[f"plain{jobs}"] = _span_names(
            dataset, tmp_path, f"plain{jobs}", "--jobs", jobs, "--no-cache"
        )
        for attempt in ("cold", "warm"):
            label = f"{attempt}{jobs}"
            names[label] = _span_names(
                dataset, tmp_path, label, "--jobs", jobs, "--cache", str(cache / jobs)
            )
        names[f"journal{jobs}"] = _span_names(
            dataset, tmp_path, f"journal{jobs}", "--jobs", jobs,
            "--journal", str(tmp_path / f"journal{jobs}"),
        )
    reference = names["plain1"]
    assert {"span.ingest", "span.fold", "span.other_sides"} <= reference
    assert not reference & {
        "span.sanitize",
        "span.neighbor_sets",
        "span.ingest+graph",
        "span.sanitize+neighbor_sets",
    }
    for label, found in names.items():
        assert found == reference, label
