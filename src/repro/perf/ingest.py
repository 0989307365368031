"""Trace ingestion straight into columns: the one load path.

A traces file is read whole, cut into newline-aligned character spans
(one per worker; a single span at ``jobs=1``), and each span runs the
per-record policy loop :func:`_parse_lines` — blank/comment skipping,
strict/lenient/quarantine handling with *absolute* line numbers —
appending every parsed record to a :class:`~repro.perf.flat.FlatBuilder`.
No :class:`~repro.traceroute.model.Trace` or ``Hop`` object is built
for text input: each distinct destination or hop token string is
validated once by the text parser's own helpers
(:func:`~repro.traceroute.parse.text_destination`,
:func:`~repro.traceroute.parse.text_hop`) and repeats reuse the value.
Errors are never memoized, so a malformed token raises on every line
that carries it.  JSONL and Atlas records keep their per-record parsers
and append the parsed record's fields.

The parent concatenates span results in order — columns, counts, the
capped error list, rejects — so the outcome equals one serial pass,
then hands off to :func:`repro.robust.ingest.finalize_ingest` for the
budget check, quarantine write, and observability.  The columns are
what the rest of the load consumes: the ``.mapitc`` v2 cache payload
is their ``to_bytes()``, :func:`repro.perf.graph.build_graph_flat`
folds them, and object consumers decode them with
:func:`~repro.perf.flat.unpack_traces`.

Strict mode needs care: the serial ingester raises at the first
malformed record.  Raising inside a pool worker would surface as a
wrapped remote traceback, so strict workers instead stop at their first
error and report it as data; the parent re-raises the error with the
smallest line number, reconstructing the exact
:class:`~repro.traceroute.parse.TraceParseError` the serial path throws.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.graph.neighbors import InterfaceGraph, finish_interface_graph
from repro.net.special import RFC6890_TABLE
from repro.obs.observer import NULL_OBS, Observability
from repro.perf.flat import (
    FlatBuilder,
    FlatTraces,
    HopRow,
    accumulate_flat,
    concat_flat,
    hop_row,
)
from repro.perf.pool import Shard, fork_map, shared_payload
from repro.robust.errors import (
    MAX_DETAILED_ERRORS,
    SNIPPET_LIMIT,
    ErrorBudget,
    IngestError,
    IngestReport,
)
from repro.robust.ingest import check_ingest_args, finalize_ingest, parse_record
from repro.traceroute.parse import (
    TraceParseError,
    text_destination,
    text_fields,
    text_hop,
    trace_format_for_path,
)


@dataclass
class _ShardResult:
    """What one span's parse sends back: its columns and tallies."""

    flat: Optional[FlatTraces] = None
    parsed: int = 0
    malformed: int = 0
    skipped: int = 0
    errors: List[IngestError] = field(default_factory=list)
    rejects: List[str] = field(default_factory=list)
    #: strict mode: (reason, line_number, text) of the first bad record
    strict_error: Optional[Tuple[str, int, str]] = None


def _text_appender(builder: FlatBuilder) -> Callable[[str, int], bool]:
    """A text-format record parser that appends to *builder*.

    Checks and messages are :func:`~repro.traceroute.parse.parse_text_trace`'s
    (same helpers, same token order); a token string that validated
    once is reused from the memo.  Returns True (text has no skips).
    """
    destinations: Dict[str, int] = {}
    hops: Dict[str, HopRow] = {}
    append = builder.append

    def parse(line: str, line_number: int) -> bool:
        monitor, dst_text, hops_text = text_fields(line, line_number)
        dst = destinations.get(dst_text)
        if dst is None:
            dst = destinations[dst_text] = text_destination(dst_text, line_number, line)
        rows = []
        for token in hops_text.split():
            row = hops.get(token)
            if row is None:
                row = hops[token] = hop_row(text_hop(token, line_number, line))
            rows.append(row)
        append(monitor, dst, rows)
        return True

    return parse


def _record_appender(builder: FlatBuilder, format: str) -> Callable[[str, int], bool]:
    """A JSONL/Atlas record parser that appends to *builder*; returns
    False for records the format says to skip."""

    def parse(line: str, line_number: int) -> bool:
        trace = parse_record(line, line_number, format)
        if trace is None:
            return False
        builder.append_trace(trace)
        return True

    return parse


def _parse_lines(
    result: _ShardResult,
    builder: FlatBuilder,
    lines: List[str],
    first_line_number: int,
    format: str,
    source: str,
    mode: str,
) -> bool:
    """The serial per-record loop over *lines*, tallying into *result*
    and appending parsed records to *builder*.

    Returns False after recording a strict error (the caller stops
    immediately, like the serial ingester).  O(lines).
    """
    if format == "text":
        parse = _text_appender(builder)
    else:
        parse = _record_appender(builder, format)
    for offset, raw in enumerate(lines):
        line_number = first_line_number + offset
        line = raw.strip()
        if not line:
            continue
        if format == "text" and line.startswith("#"):
            continue
        try:
            if not parse(line, line_number):
                result.skipped += 1
                continue
        except TraceParseError as exc:
            if mode == "strict":
                result.strict_error = (exc.reason, line_number, line)
                return False
            result.malformed += 1
            if len(result.errors) < MAX_DETAILED_ERRORS:
                result.errors.append(
                    IngestError(source, line_number, exc.reason, line[:SNIPPET_LIMIT])
                )
            if mode == "quarantine":
                result.rejects.append(line)
            continue
        result.parsed += 1
    return True


def _parse_shard(shard: Shard) -> _ShardResult:
    """Parse one newline-aligned character span into columns (runs in
    a worker process, or inline at ``jobs=1``).

    The copy-on-write payload is the whole source text as one string
    plus a span-start → line-number map, so the fork never walks a
    per-line list.  O(bytes in span); pickles back tallies and one
    :class:`FlatTraces` (a handful of flat buffers).
    """
    text, line_starts, format, source, mode = shared_payload()
    start, end = shard
    # "\n" only, as file iteration splits: str.splitlines would also
    # break records on \x0c, \x1c or \u2028.
    lines = text[start:end].split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    result = _ShardResult()
    builder = FlatBuilder()
    if _parse_lines(result, builder, lines, line_starts[start], format, source, mode):
        result.flat = builder.finish()
    return result


def _shard_spans(text: str, shards: int) -> Tuple[List[Shard], Dict[int, int]]:
    """Split *text* into newline-aligned character ranges.

    Returns the ranges plus a map from each range's start offset to its
    absolute 1-based line number (computed with C-speed ``str.count``).
    Ranges cover the text exactly once in order, so shard-order merges
    equal a serial pass.  When the file is smaller than the shard count
    (tiny presets, sweep cells) the boundary scan can carve *degenerate*
    spans containing nothing but whitespace; those are collapsed into a
    neighboring span before dispatch, so the supervisor never forks a
    worker that has zero records to parse.  O(len(text)) for the
    boundary scans.
    """
    length = len(text)
    if length == 0:
        return [], {}
    boundaries = {0}
    for index in range(1, max(1, shards)):
        newline = text.find("\n", length * index // shards)
        if newline != -1 and newline + 1 < length:
            boundaries.add(newline + 1)
    starts = sorted(boundaries)
    spans = [
        (start, starts[i + 1] if i + 1 < len(starts) else length)
        for i, start in enumerate(starts)
    ]
    merged: List[Shard] = []
    for start, end in spans:
        if merged and not text[start:end].strip():
            # Whitespace-only span: extend the previous shard over it.
            merged[-1] = (merged[-1][0], end)
        else:
            merged.append((start, end))
    if len(merged) > 1 and not text[merged[0][0] : merged[0][1]].strip():
        # A whitespace-only *leading* span merges forward instead.
        first_start = merged[0][0]
        merged = [(first_start, merged[1][1])] + merged[2:]
    spans = merged
    # Coverage must stay exact: contiguous, starting at 0, ending at EOF.
    assert spans[0][0] == 0 and spans[-1][1] == length, spans
    assert all(
        spans[i][1] == spans[i + 1][0] for i in range(len(spans) - 1)
    ), spans
    line_starts = {start: text.count("\n", 0, start) + 1 for start, _ in spans}
    return spans, line_starts


def ingest_trace_text(
    text: str,
    jobs: int = 1,
    *,
    format: str = "text",
    source: str = "traces",
    mode: str = "strict",
    budget: Optional[ErrorBudget] = None,
    quarantine_dir: Optional[Union[str, Path]] = None,
    obs: Observability = NULL_OBS,
    shard_timeout: Optional[float] = None,
) -> Tuple[FlatTraces, IngestReport]:
    """Parse *text* into columns across *jobs* spans under an ingestion
    policy.

    Equals ``pack_traces`` over :func:`repro.robust.ingest.ingest_traces`
    of the same lines, with the same report, quarantine files and
    exceptions, at any *jobs*.  *shard_timeout* is the supervisor's
    per-span deadline (docs/ROBUSTNESS.md).  O(bytes).
    """
    check_ingest_args(mode, format, quarantine_dir)
    spans, line_starts = _shard_spans(text, max(1, jobs))
    with obs.span("ingest"):
        results = fork_map(
            _parse_shard,
            (text, line_starts, format, source, mode),
            len(spans),
            jobs,
            shards=spans,
            timeout=shard_timeout,
            obs=obs,
            budget=budget,
        )
        _raise_earliest_strict_error(results)
        report = IngestReport(source=source, mode=mode)
        rejects: List[str] = []
        _merge_shard_tallies(results, report, rejects)
        flat = concat_flat([result.flat for result in results])
    finalize_ingest(
        report, rejects, budget=budget, quarantine_dir=quarantine_dir, obs=obs
    )
    return flat, report


def _raise_earliest_strict_error(results) -> None:
    """Re-raise the strict-mode error with the smallest line number —
    the exact record a serial pass would have raised on."""
    strict_errors = [r.strict_error for r in results if r.strict_error is not None]
    if strict_errors:
        reason, line_number, text = min(strict_errors, key=lambda item: item[1])
        raise TraceParseError(reason, line_number, text)


def _merge_shard_tallies(results, report: IngestReport, rejects: List[str]) -> None:
    """Fold shard counts/errors/rejects into *report* in shard order.

    Shard order is line order, so plain concatenation reproduces the
    serial outcome — including which errors land inside the detailed
    cap: each shard returns at most MAX_DETAILED_ERRORS records, and
    truncating the in-order concatenation keeps exactly the first MAX.
    O(shards + errors + rejects).
    """
    for result in results:
        report.parsed += result.parsed
        report.malformed += result.malformed
        report.skipped += result.skipped
        rejects.extend(result.rejects)
        remaining = MAX_DETAILED_ERRORS - len(report.errors)
        if remaining > 0:
            report.errors.extend(result.errors[:remaining])


def ingest_trace_file(
    path: Union[str, Path],
    jobs: int = 1,
    *,
    format: Optional[str] = None,
    mode: str = "strict",
    budget: Optional[ErrorBudget] = None,
    quarantine_dir: Optional[Union[str, Path]] = None,
    obs: Observability = NULL_OBS,
    shard_timeout: Optional[float] = None,
) -> Tuple[FlatTraces, IngestReport]:
    """Parse a traces file into columns (:func:`ingest_trace_text`).

    The columnar twin of :func:`repro.robust.ingest.ingest_trace_file`:
    the format comes from the file's suffix and quarantine mode
    defaults the reject directory to ``<file's parent>/quarantine``.
    The whole file is read up front — the text is what workers inherit
    through the fork.
    """
    path = Path(path)
    if format is None:
        format = trace_format_for_path(path.name)
    if mode == "quarantine" and quarantine_dir is None:
        quarantine_dir = path.parent / "quarantine"
    with open(path, errors="replace") as handle:
        text = handle.read()
    return ingest_trace_text(
        text,
        jobs,
        format=format,
        source=path.name,
        mode=mode,
        budget=budget,
        quarantine_dir=quarantine_dir,
        obs=obs,
        shard_timeout=shard_timeout,
    )


# ----------------------------------------------------------------------
# the streamed block fold (stress tier: generated shards, bounded RSS)


@dataclass(frozen=True)
class StreamFoldStats:
    """Deterministic accounting of one streamed block fold.

    Pure function of the folded blocks — no timings, no RSS — so sweep
    cell results that embed it stay byte-identical across resumes.
    ``stream_bytes`` is the total columnar volume that passed through
    the fold; ``peak_block_bytes`` is the largest single block, i.e. the
    fold's residency bound beyond the accumulated tables.
    """

    shards: int
    traces: int
    retained: int
    discarded: int
    stream_bytes: int
    peak_block_bytes: int


def fold_graph_from_blocks(
    blocks, obs: Observability = NULL_OBS
) -> Tuple[InterfaceGraph, StreamFoldStats]:
    """Fold an *iterator* of columnar blocks into one interface graph.

    The stress tier's ingest path: blocks arrive one at a time from a
    generator (:func:`repro.sim.stress.stress_blocks` or any other
    shard-by-shard producer) and are folded with the flat kernel as they
    appear — at no point is more than one block resident beyond the
    accumulated neighbor tables, so a multi-million-trace world folds in
    memory bounded by ``peak_block_bytes`` plus the table size.
    Downstream-equivalent to decoding every block and running the serial
    sanitize + build sequence: same tables (sorted-key canonical form),
    same gauges, same ``graph.built`` event.  O(total hops).
    """
    is_special = RFC6890_TABLE.covers
    forward: Dict[int, set] = {}
    backward: Dict[int, set] = {}
    seen: set = set()
    universe: set = set()
    retained = discarded = buggy = 0
    shards = traces = stream_bytes = peak_block_bytes = 0
    with obs.span("stream_fold"):
        for flat in blocks:
            shards += 1
            traces += len(flat)
            nbytes = flat.nbytes
            stream_bytes += nbytes
            peak_block_bytes = max(peak_block_bytes, nbytes)
            counts = accumulate_flat(
                flat, 0, len(flat), forward, backward, seen, universe, is_special
            )
            retained += counts[0]
            discarded += counts[1]
            buggy += counts[2]
        forward = {address: forward[address] for address in sorted(forward)}
        backward = {address: backward[address] for address in sorted(backward)}
        universe.update(seen)
        if obs.enabled:
            obs.gauge("sanitize.retained", retained)
            obs.gauge("sanitize.discarded", discarded)
            obs.gauge("sanitize.buggy_hops_removed", buggy)
            obs.gauge("perf.flat.shards", shards)
            obs.inc("perf.flat.bundle_bytes", stream_bytes)
        graph = finish_interface_graph(
            InterfaceGraph(forward=forward, backward=backward),
            seen,
            universe,
            is_special,
            obs,
        )
    stats = StreamFoldStats(
        shards=shards,
        traces=traces,
        retained=retained,
        discarded=discarded,
        stream_bytes=stream_bytes,
        peak_block_bytes=peak_block_bytes,
    )
    return graph, stats
