"""Resilient trace ingestion: strict / lenient / quarantine modes.

The strict parsers in :mod:`repro.traceroute.parse` raise
:class:`~repro.traceroute.parse.TraceParseError` on the first bad
record.  This module wraps them with the three ingestion policies the
pipeline exposes:

``strict``
    any malformed record aborts the load (the historical behaviour,
    but now with a line number and the offending text attached);
``lenient``
    malformed records are skipped and counted, each one captured as a
    structured :class:`~repro.robust.errors.IngestError`;
``quarantine``
    like lenient, but the raw rejected lines are additionally written
    to ``<quarantine_dir>/<source>.rejects.txt`` (with a matching
    ``.errors.jsonl``) so they can be inspected or re-ingested later.

In lenient and quarantine modes an optional
:class:`~repro.robust.errors.ErrorBudget` bounds the malformed
fraction: a load whose reject rate crosses the budget raises
:class:`~repro.robust.errors.ErrorBudgetExceeded` instead of quietly
returning a fraction of the dataset.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, List, Optional, Tuple, Union

from repro.obs.observer import NULL_OBS, Observability
from repro.robust.errors import (
    MAX_DETAILED_ERRORS,
    SNIPPET_LIMIT,
    ErrorBudget,
    IngestError,
    IngestReport,
)
from repro.traceroute.atlas import parse_atlas_measurement
from repro.traceroute.model import Trace
from repro.traceroute.parse import (
    TraceParseError,
    parse_json_trace,
    parse_text_trace,
    trace_format_for_path,
)

MODES = ("strict", "lenient", "quarantine")
FORMATS = ("text", "jsonl", "atlas")


def check_ingest_args(mode: str, format: str, quarantine_dir) -> None:
    """Reject an unknown mode or format, or quarantine without a
    directory, before any record is read (shared by both ingesters)."""
    if mode not in MODES:
        raise ValueError(f"unknown ingest mode {mode!r}; expected one of {MODES}")
    if mode == "quarantine" and quarantine_dir is None:
        raise ValueError("quarantine mode requires a quarantine_dir")
    if format not in FORMATS:
        raise ValueError(f"unknown trace format {format!r}; expected one of {FORMATS}")


def _snippet(line: str) -> str:
    return line[:SNIPPET_LIMIT]


def _write_quarantine(
    quarantine_dir: Union[str, Path],
    source: str,
    rejects: List[str],
    errors: List[IngestError],
) -> str:
    from repro.io.atomic import atomic_write_lines  # local: avoids import cycle

    directory = Path(quarantine_dir)
    directory.mkdir(parents=True, exist_ok=True)
    stem = Path(source).name.replace("/", "_")
    rejects_path = directory / f"{stem}.rejects.txt"
    atomic_write_lines(rejects_path, rejects)
    atomic_write_lines(
        directory / f"{stem}.errors.jsonl",
        (json.dumps(error.to_dict(), separators=(",", ":")) for error in errors),
    )
    return str(rejects_path)


def _parse_atlas_line(line: str, line_number: int) -> Optional[Trace]:
    """Atlas JSON-lines parsing with TraceParseError on malformed JSON.

    Returns None for records Atlas semantics say to skip (IPv6, no
    results) — those are *skips*, not errors.
    """
    try:
        record = json.loads(line)
    except json.JSONDecodeError as exc:
        raise TraceParseError(f"invalid JSON: {exc.msg}", line_number, line) from exc
    if not isinstance(record, dict):
        raise TraceParseError(
            f"expected a JSON object, got {type(record).__name__}", line_number, line
        )
    return parse_atlas_measurement(record)


def parse_record(line: str, line_number: int, format: str) -> Optional[Trace]:
    """Parse one stripped, non-blank record of any supported format.

    Returns ``None`` for records the format says to skip silently
    (Atlas IPv6 / no-result measurements); raises
    :class:`~repro.traceroute.parse.TraceParseError` for malformed
    input.  This is the per-record entry point of the object ingester,
    the serve daemon, and the column ingester's JSONL/Atlas records
    (:mod:`repro.perf.ingest`; its text records use the same
    :mod:`repro.traceroute.parse` helpers), so all of them reject
    exactly the same lines for exactly the same reasons.
    """
    if format == "text":
        return parse_text_trace(line, line_number)
    if format == "jsonl":
        return parse_json_trace(line, line_number)
    return _parse_atlas_line(line, line_number)


def finalize_ingest(
    report: IngestReport,
    rejects: List[str],
    *,
    budget: Optional[ErrorBudget] = None,
    quarantine_dir: Optional[Union[str, Path]] = None,
    obs: Observability = NULL_OBS,
) -> IngestReport:
    """Post-parse policy shared by the object and column ingesters:
    judge the error budget over the whole source, write the quarantine
    files, and emit the ingest observability events/counters."""
    # The budget is judged over the whole source, not incrementally:
    # corruption clusters (a damaged block early in a long file) must
    # not abort a load whose overall malformed fraction is acceptable.
    if budget is not None and report.mode != "strict":
        budget.check(report.source, report.malformed, report.total)
    if report.mode == "quarantine" and rejects:
        report.quarantine_path = _write_quarantine(
            quarantine_dir, report.source, rejects, report.errors
        )
    if obs.enabled:
        obs.event(
            "ingest.end",
            source=report.source,
            mode=report.mode,
            parsed=report.parsed,
            malformed=report.malformed,
            skipped=report.skipped,
        )
        obs.inc("ingest.records.parsed", report.parsed)
        obs.inc("ingest.records.malformed", report.malformed)
        obs.inc("ingest.records.skipped", report.skipped)
    return report


def ingest_traces(
    lines: Iterable[str],
    *,
    format: str = "text",
    source: str = "traces",
    mode: str = "strict",
    budget: Optional[ErrorBudget] = None,
    quarantine_dir: Optional[Union[str, Path]] = None,
    obs: Observability = NULL_OBS,
) -> Tuple[List[Trace], IngestReport]:
    """Parse *lines* under an ingestion policy.

    Returns the successfully parsed traces and an
    :class:`~repro.robust.errors.IngestReport` quantifying what was
    rejected and why.  Dataset loads parse into columns instead
    (:func:`repro.perf.ingest.ingest_trace_text`); this object
    ingester is the reference they are tested against.
    """
    check_ingest_args(mode, format, quarantine_dir)
    report = IngestReport(source=source, mode=mode)
    traces: List[Trace] = []
    rejects: List[str] = []
    with obs.span("ingest"):
        for line_number, raw in enumerate(lines, start=1):
            line = raw.strip()
            if not line:
                continue
            if format == "text" and line.startswith("#"):
                continue
            try:
                trace = parse_record(line, line_number, format)
                if trace is None:
                    report.skipped += 1
                    continue
            except TraceParseError as exc:
                if mode == "strict":
                    raise
                report.malformed += 1
                if len(report.errors) < MAX_DETAILED_ERRORS:
                    report.errors.append(
                        IngestError(source, line_number, exc.reason, _snippet(line))
                    )
                if mode == "quarantine":
                    rejects.append(line)
                continue
            report.parsed += 1
            traces.append(trace)
    finalize_ingest(
        report, rejects, budget=budget, quarantine_dir=quarantine_dir, obs=obs
    )
    return traces, report


def ingest_trace_file(
    path: Union[str, Path],
    *,
    format: Optional[str] = None,
    mode: str = "strict",
    budget: Optional[ErrorBudget] = None,
    quarantine_dir: Optional[Union[str, Path]] = None,
    obs: Observability = NULL_OBS,
) -> Tuple[List[Trace], IngestReport]:
    """Ingest a trace file, inferring the format from its suffix.

    ``*.jsonl`` is the scamper-like JSON-lines format, ``*.atlas`` /
    ``*.atlas.json`` the RIPE Atlas format, anything else the compact
    text format.  Quarantine mode defaults the reject directory to
    ``<file's parent>/quarantine``.
    """
    path = Path(path)
    if format is None:
        format = trace_format_for_path(path.name)
    if mode == "quarantine" and quarantine_dir is None:
        quarantine_dir = path.parent / "quarantine"
    with open(path, errors="replace") as handle:
        return ingest_traces(
            handle,
            format=format,
            source=path.name,
            mode=mode,
            budget=budget,
            quarantine_dir=quarantine_dir,
            obs=obs,
        )
