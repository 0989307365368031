"""RIPE Atlas traceroute result ingestion.

Parses the JSON produced by RIPE Atlas traceroute measurements (one
measurement object per line or a JSON array), the other large public
traceroute corpus besides CAIDA ARK.  Only the fields MAP-IT needs are
consumed: per-hop responding addresses in probe order.  Multiple
responses for one hop (Atlas sends three probes per TTL) are reduced
to the first responding address, matching Paris-traceroute flow
stability; a hop whose responses disagree is a load-balancing artifact
the sanitizer will judge.
"""

from __future__ import annotations

import json
from typing import Iterable, Iterator, List, Optional, Union

from repro.net.ipv4 import is_valid_address, parse_address
from repro.traceroute.model import Hop, Trace


def _hop_from_result(hop_record: dict) -> Hop:
    """Reduce one Atlas hop record (possibly 3 probe results) to a Hop."""
    probes = hop_record.get("result", ())
    if not isinstance(probes, (list, tuple)):
        return Hop(None)
    for probe in probes:
        if not isinstance(probe, dict):
            continue
        address_text = probe.get("from")
        if not address_text or not isinstance(address_text, str) or "x" in probe:
            continue  # timeout entries look like {"x": "*"}
        if not is_valid_address(address_text):
            continue  # IPv6 or malformed: out of scope
        # Atlas emits explicit nulls ("rtt": null, "ittl": null) for
        # fields it could not measure; treat them exactly like absent.
        ttl = probe.get("ittl")
        if ttl is None:
            ttl = 1
        rtt = probe.get("rtt")
        if rtt is None:
            rtt = 0.0
        try:
            quoted, rtt_ms = int(ttl), float(rtt)
        except (TypeError, ValueError):
            continue  # non-numeric ttl/rtt: treat this probe as unusable
        if not 0 <= quoted <= 255:
            continue  # a TTL no IPv4 header can carry: equally unusable
        return Hop(parse_address(address_text), quoted_ttl=quoted, rtt_ms=rtt_ms)
    return Hop(None)


def parse_atlas_measurement(record: dict) -> Optional[Trace]:
    """Convert one Atlas traceroute measurement object to a Trace.

    Returns None for non-IPv4 measurements or records without results.
    """
    if record.get("af") not in (None, 4):
        return None
    dst_text = record.get("dst_addr") or record.get("dst_name")
    if not dst_text or not is_valid_address(dst_text):
        return None
    hop_records = record.get("result")
    if not hop_records or not isinstance(hop_records, (list, tuple)):
        return None
    ordered = sorted(
        (
            entry
            for entry in hop_records
            if isinstance(entry, dict) and isinstance(entry.get("hop"), int)
        ),
        key=lambda entry: entry["hop"],
    )
    if not ordered:
        return None
    hops: List[Hop] = []
    expected = 1
    for entry in ordered:
        # Fill unreported TTLs with gaps so adjacency stays honest.
        while expected < entry["hop"]:
            hops.append(Hop(None))
            expected += 1
        hops.append(_hop_from_result(entry))
        expected += 1
    monitor = f"prb-{record.get('prb_id', 'unknown')}"
    return Trace(monitor, parse_address(dst_text), tuple(hops))


def parse_atlas(lines_or_text: Union[str, Iterable[str]]) -> Iterator[Trace]:
    """Parse Atlas results: a JSON array or JSON-lines.

    Accepts either the raw downloaded text or an iterable of lines.
    Non-IPv4 and malformed measurements are skipped.
    """
    if isinstance(lines_or_text, str):
        text = lines_or_text.strip()
        records: Iterable[dict]
        if text.startswith("["):
            records = json.loads(text)
        else:
            records = (json.loads(line) for line in text.splitlines() if line.strip())
    else:
        records = (json.loads(line) for line in lines_or_text if line.strip())
    for record in records:
        trace = parse_atlas_measurement(record)
        if trace is not None:
            yield trace
