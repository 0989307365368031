"""The columnar load path, the fork pool, and the parsed-bundle cache.

Every dataset load runs through this package: trace text is parsed
straight into columns, and the columns are folded into the interface
graph.  ``jobs`` and the cache are optimizations, never semantic
changes: any worker count and any cache state produce byte-identical
results to the serial object reference
(``tests/test_parallel_equivalence.py`` and
``tests/test_column_ingest.py`` hold them to it), and the cache only
short-circuits parses it can prove — by checksum — would reproduce
what is stored.

Entry points:

* :func:`repro.perf.pool.fork_map` / :func:`~repro.perf.pool.default_jobs`
  — the fork-pool substrate (``MAPIT_JOBS`` sets the default);
* :func:`repro.perf.ingest.ingest_trace_file` /
  :func:`~repro.perf.ingest.ingest_trace_text` — trace text into
  :class:`~repro.perf.flat.FlatTraces` columns under the
  strict/lenient/quarantine policies, split into newline-aligned spans
  across workers;
* :func:`repro.perf.graph.build_graph_flat` — the sharded sanitize +
  neighbor-set fold over columns (only counter bundles cross the
  process boundary);
* :mod:`repro.perf.flat` — the flat-array data layer: columnar trace
  blocks, the fold kernel, packed counter bundles, batched LPM
  resolution;
* :class:`repro.perf.cache.BundleCache` — the checksummed on-disk
  parsed-trace cache (binary v2 entries, transparent v1 fallback).
"""

from repro.perf.cache import BundleCache, cache_key
from repro.perf.flat import FlatTraces, pack_traces, unpack_traces
from repro.perf.graph import build_graph_flat, build_graph_parallel
from repro.perf.ingest import ingest_trace_file, ingest_trace_text
from repro.perf.pool import default_jobs, fork_map, shard_ranges

__all__ = [
    "BundleCache",
    "cache_key",
    "FlatTraces",
    "pack_traces",
    "unpack_traces",
    "build_graph_flat",
    "build_graph_parallel",
    "ingest_trace_file",
    "ingest_trace_text",
    "default_jobs",
    "fork_map",
    "shard_ranges",
]
