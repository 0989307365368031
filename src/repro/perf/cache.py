"""On-disk parsed-trace cache keyed by source-file checksums.

Parsing dominates bundle load time, yet the traces file rarely changes
between runs over the same dataset.  :class:`BundleCache` memoizes the
*parsed* traces on disk, keyed by the sha256 of the source file — the
same digest :func:`repro.io.atomic.file_sha256` produces and the
dataset manifest records as ``sha256:`` checksums — so a warm load
skips parsing entirely and any edit to the traces file changes the key
and misses.

Entries are written in the **v2 binary format**: a fixed
struct-packed header followed by the columnar
:class:`repro.perf.flat.FlatTraces` block::

    offset size  field
    0      8     magic  b"MAPITC2\\n"
    8      2     entry version (little-endian u16, currently 2)
    10     1     trace format code (1=text 2=jsonl 3=atlas)
    11     1     reserved (zero)
    12     4     parsed record count (u32)
    16     4     skipped record count (u32)
    20     8     payload length in bytes (u64)
    28     32    source file sha256 (raw digest)
    60     32    payload sha256 (raw digest)
    92     ...   payload: FlatTraces.to_bytes() columnar block

The v2 payload is plain struct/array data — decoding it executes no
code, which removes the v1 pickle trust caveat — and it is exactly the
columns a cold load parses into, so a warm hit goes straight to the
fold and never materializes trace objects it doesn't need.

**Transparent v1 fallback**: entries written by earlier releases (a
JSON header line + a pickle of compact tuples) still verify and load —
:meth:`BundleCache.load_entry` sniffs the leading byte (``{`` = v1
JSON header, otherwise the v2 magic) and each verified hit is counted
under ``perf.cache.format.v1`` / ``perf.cache.format.v2``.  The entry
*filename* is unchanged across formats (the key identifies the source;
the entry self-describes its layout), so the first store after a v1
hit's source changes simply upgrades the file in place.  v1 payloads
are still pickles: keep the old trust rule (don't point ``--cache`` at
directories other users can write) until your cache has cycled to v2.

Every load verifies magic, version, format, source checksum, payload
length, and the payload's own sha256 before decoding; any failure is
counted as ``perf.cache.invalid``, treated as a miss, and the entry is
atomically rewritten after the re-parse — corruption is detected,
never served.  Only *clean* parses (zero malformed records) are
stored: a dirty source must re-parse every load so its policy side
effects (error reports, quarantine files, budget checks) still happen.
"""

from __future__ import annotations

import hashlib
import json
import pickle
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Tuple, Union

from repro.io.atomic import atomic_write_bytes
from repro.obs.observer import NULL_OBS, Observability
from repro.perf.flat import FlatEncodeError, FlatTraces, pack_traces, unpack_traces
from repro.robust.errors import IngestReport
from repro.robust.faults import active_chaos
from repro.traceroute.model import Hop, Trace

MAGIC = "mapit-bundle-cache"

#: the on-disk layout this release writes; readers accept 1 and 2
CACHE_VERSION = 2

#: key-material version — deliberately frozen at 1 so v1 and v2 entries
#: share filenames and old entries are found (they self-describe)
KEY_VERSION = 1

#: leading bytes of a v2 binary entry
BINARY_MAGIC = b"MAPITC2\n"

_V2_HEADER = struct.Struct("<8sHBxIIQ32s32s")

_FORMAT_CODES = {"text": 1, "jsonl": 2, "atlas": 3}
_FORMAT_NAMES = {code: name for name, code in _FORMAT_CODES.items()}


def _pack(traces: List[Trace]) -> List[tuple]:
    """Legacy v1 tuple shape (kept for reading old entries and for
    tests that fabricate them)."""
    return [
        (
            trace.monitor,
            trace.dst,
            tuple((hop.address, hop.quoted_ttl, hop.rtt_ms) for hop in trace.hops),
            trace.flow_id,
        )
        for trace in traces
    ]


def _unpack(packed: List[tuple]) -> List[Trace]:
    """Rehydrate legacy v1 compact tuples into dataclasses."""
    return [
        Trace(
            monitor,
            dst,
            tuple(Hop(address, quoted, rtt) for address, quoted, rtt in hops),
            flow_id,
        )
        for monitor, dst, hops, flow_id in packed
    ]


def cache_key(source_sha256: str, format: str) -> str:
    """The entry digest for a source file's content hash and format.

    Key material is versioned independently of the entry layout
    (``KEY_VERSION``): bumping the *entry* format must not orphan old
    entries, because readers fall back transparently.
    """
    material = f"{MAGIC}\n{KEY_VERSION}\n{format}\n{source_sha256}"
    return hashlib.sha256(material.encode()).hexdigest()


@dataclass
class CacheHit:
    """A verified cache entry, decoded lazily.

    ``flat`` is populated for v2 entries (the columnar block, ready for
    the fold without object materialization); v1 entries
    carry their unpickled compact tuples instead.  :meth:`traces`
    materializes dataclasses on demand either way.
    """

    parsed: int
    skipped: int
    entry_version: int
    flat: Optional[FlatTraces] = None
    packed_v1: Optional[list] = None

    @property
    def format_label(self) -> str:
        """Human-readable entry format (``v1`` or ``v2``), surfaced in
        bundle health output."""
        return f"v{self.entry_version}"

    def traces(self) -> List[Trace]:
        """Materialize the full trace list (O(total hops))."""
        if self.flat is not None:
            return unpack_traces(self.flat)
        return _unpack(self.packed_v1 or [])


class BundleCache:
    """A directory of checksummed parsed-trace entries.

    All methods are process-safe: entries are written atomically and
    re-verified on every read, so concurrent runs over the same dataset
    at worst duplicate work, never corrupt each other.
    """

    def __init__(
        self, directory: Union[str, Path], obs: Observability = NULL_OBS
    ) -> None:
        self.directory = Path(directory)
        self.obs = obs

    def entry_path(self, source_sha256: str, format: str) -> Path:
        return self.directory / f"{cache_key(source_sha256, format)}.mapitc"

    def load_entry(self, source_sha256: str, format: str) -> Optional[CacheHit]:
        """Return a verified :class:`CacheHit`, or ``None``.

        Sniffs the entry's leading byte to pick the decoder (``{`` =
        legacy v1 JSON header, otherwise v2 binary), verifies every
        header field and the payload digest, and counts the hit under
        ``perf.cache.format.<v1|v2>``.  ``None`` covers both a miss and
        a failed verification — the caller re-parses either way, and a
        corrupt entry is overwritten by the subsequent store.  O(entry
        bytes); nothing is unpickled or decoded before the checksums
        pass.
        """
        path = self.entry_path(source_sha256, format)
        try:
            data = path.read_bytes()
        except OSError:
            self.obs.inc("perf.cache.misses")
            return None
        try:
            if data[:1] == b"{":
                hit = self._decode_v1(data, source_sha256, format)
            else:
                hit = self._decode_v2(data, source_sha256, format)
        except Exception:  # noqa: BLE001 - any damage is just a miss
            self.obs.inc("perf.cache.invalid")
            return None
        self.obs.inc("perf.cache.hits")
        self.obs.inc(f"perf.cache.format.{hit.format_label}")
        return hit

    def load(
        self, source_sha256: str, format: str
    ) -> Optional[Tuple[List[Trace], int, int]]:
        """Compatibility wrapper: ``(traces, parsed, skipped)`` on a
        verified hit, materializing trace objects eagerly."""
        hit = self.load_entry(source_sha256, format)
        if hit is None:
            return None
        return hit.traces(), hit.parsed, hit.skipped

    def _decode_v1(self, data: bytes, source_sha256: str, format: str) -> CacheHit:
        split = data.index(b"\n")
        header = json.loads(data[:split])
        payload = data[split + 1 :]
        if (
            header.get("magic") != MAGIC
            or header.get("version") != 1
            or header.get("format") != format
            or header.get("source_sha256") != source_sha256
            or header.get("payload_sha256") != hashlib.sha256(payload).hexdigest()
        ):
            raise ValueError("cache entry failed verification")
        packed = pickle.loads(payload)
        parsed = header["parsed"]
        skipped = header["skipped"]
        if not isinstance(packed, list) or len(packed) != parsed:
            raise ValueError("cache payload does not match its header")
        return CacheHit(
            parsed=parsed, skipped=skipped, entry_version=1, packed_v1=packed
        )

    def _decode_v2(self, data: bytes, source_sha256: str, format: str) -> CacheHit:
        if len(data) < _V2_HEADER.size:
            raise ValueError("cache entry shorter than its header")
        (
            magic,
            version,
            format_code,
            parsed,
            skipped,
            payload_len,
            source_digest,
            payload_digest,
        ) = _V2_HEADER.unpack_from(data)
        payload = data[_V2_HEADER.size :]
        if (
            magic != BINARY_MAGIC
            or version != CACHE_VERSION
            or _FORMAT_NAMES.get(format_code) != format
            or source_digest != bytes.fromhex(source_sha256)
            or payload_len != len(payload)
            or payload_digest != hashlib.sha256(payload).digest()
        ):
            raise ValueError("cache entry failed verification")
        flat = FlatTraces.from_bytes(payload)
        if len(flat) != parsed:
            raise ValueError("cache payload does not match its header")
        return CacheHit(parsed=parsed, skipped=skipped, entry_version=2, flat=flat)

    def store(
        self,
        source_sha256: str,
        format: str,
        traces: List[Trace],
        report: IngestReport,
    ) -> bool:
        """Write a v2 entry for a *clean* parse; returns whether stored.

        Encodes the traces columnar (O(total hops)) and delegates to
        :meth:`store_payload`.  A trace that cannot be flat-encoded
        (pathological field values outside u32/i64) is simply not
        cached — an encode failure may cost the next run a re-parse,
        never this run its result.
        """
        if not report.ok:
            return False
        try:
            payload = pack_traces(traces).to_bytes()
        except FlatEncodeError:
            return False
        return self.store_payload(source_sha256, format, payload, report)

    def store_payload(
        self,
        source_sha256: str,
        format: str,
        payload: bytes,
        report: IngestReport,
    ) -> bool:
        """Write an already-encoded columnar payload as a v2 entry.

        The dataset loader calls this directly with its parsed
        columns' ``to_bytes()``, so a cold run populates the cache
        without ever building trace objects.
        Atomic, clean-parses-only, chaos-injectable; O(payload bytes).
        """
        if not report.ok:
            return False
        format_code = _FORMAT_CODES.get(format)
        if format_code is None:
            return False
        header = _V2_HEADER.pack(
            BINARY_MAGIC,
            CACHE_VERSION,
            format_code,
            report.parsed,
            report.skipped,
            len(payload),
            bytes.fromhex(source_sha256),
            hashlib.sha256(payload).digest(),
        )
        path = self.entry_path(source_sha256, format)
        # Another run racing over the same dataset may have stored this
        # entry between our miss and now; the overwrite is harmless
        # (same key -> same content) but worth counting.
        contended = path.exists()
        try:
            chaos = active_chaos()
            if chaos is not None:
                chaos.maybe_fail_write("cache")
            self._ensure_directory()
            atomic_write_bytes(path, header + payload)
        except OSError:
            # A full or read-only disk costs the next run a re-parse,
            # never this run its result.
            self.obs.inc("perf.cache.store_failed")
            return False
        if contended:
            self.obs.inc("perf.cache.contended")
        self.obs.inc("perf.cache.stores")
        return True

    def _ensure_directory(self) -> None:
        """Create the cache directory, tolerating a concurrent creator.

        ``exist_ok=True`` still races on some filesystems when another
        run creates the directory (or replaces a dangling symlink)
        between the existence check and the mkdir — retry once before
        giving up.
        """
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
        except FileExistsError:
            self.obs.inc("perf.cache.contended")
            self.directory.mkdir(parents=True, exist_ok=True)
