"""Reading a dataset directory into runnable inputs.

Loading degrades gracefully: required inputs (traces and at least one
IP2AS source) still hard-fail when absent or — in strict mode —
malformed, but a missing or corrupt *optional* dataset (IXP, AS2Org,
relationships, hostnames, ground truth, manifest) never aborts the
load; it becomes an empty dataset plus a warning in the returned
:class:`~repro.robust.health.BundleHealth` report.  Traces are parsed
straight into columns (:mod:`repro.perf.ingest`) under the strict /
lenient / quarantine policies of :mod:`repro.robust.ingest`, and
manifest checksums (written by :func:`repro.io.save.save_scenario`)
are verified when present.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.bgp.cymru import CymruTable
from repro.bgp.ip2as import IP2AS, IP2ASBuilder
from repro.bgp.origins import merge_collectors
from repro.bgp.table import CollectorDump
from repro.dns.naming import HostnameDataset
from repro.io.atomic import file_sha256
from repro.io.truth import load_ground_truth
from repro.ixp.dataset import IXPDataset
from repro.obs.observer import NULL_OBS, Observability
from repro.org.as2org import AS2Org
from repro.rel.relationships import RelationshipDataset
from repro.graph.neighbors import InterfaceGraph
from repro.perf.flat import FlatTraces, pack_traces, unpack_traces
from repro.perf.ingest import ingest_trace_file
from repro.robust.errors import ErrorBudget, IngestReport
from repro.robust.health import BundleHealth
from repro.sim.groundtruth import GroundTruth
from repro.traceroute.model import Trace


@dataclass
class InputBundle:
    """Everything loaded from a dataset directory.

    ``flat`` holds the parsed traces as columns
    (:class:`~repro.perf.flat.FlatTraces`): the fold reads them
    directly, and :attr:`traces` decodes them into
    :class:`~repro.traceroute.model.Trace` objects only when a caller
    asks.  ``ip2as``, ``as2org`` and ``relationships`` are the mapping
    arguments of :func:`repro.run_mapit`; ``ground_truth`` and
    ``hostnames`` are optional evaluation extras.  ``health`` reports
    what loaded cleanly, what degraded, and what was rejected.
    """

    flat: FlatTraces
    ip2as: IP2AS
    as2org: AS2Org
    relationships: RelationshipDataset
    ground_truth: Optional[GroundTruth] = None
    hostnames: Optional[HostnameDataset] = None
    manifest: Dict = field(default_factory=dict)
    health: BundleHealth = field(default_factory=BundleHealth)

    @cached_property
    def traces(self) -> List[Trace]:
        """The parsed traces as objects, decoded on first access
        (O(total hops))."""
        return unpack_traces(self.flat)

    def build_graph(
        self,
        obs: Observability = NULL_OBS,
        jobs: int = 1,
        shard_timeout: Optional[float] = None,
    ) -> InterfaceGraph:
        """Sanitize and fold the columns into the interface graph.

        ``jobs > 1`` shards the fold across worker processes; the graph
        is the same either way.  ``shard_timeout`` is the supervisor's
        per-shard deadline (docs/ROBUSTNESS.md).
        """
        from repro.perf.graph import build_graph_flat

        return build_graph_flat(self.flat, jobs, obs=obs, shard_timeout=shard_timeout)

    def run_mapit(self, config=None, obs=None, jobs=1, shard_timeout=None):
        """Convenience: fold the graph and run MAP-IT over this bundle.

        The result is byte-identical to :func:`repro.run_mapit` over
        :attr:`traces` at any *jobs*.
        """
        from repro.core.mapit import run_mapit_graph

        graph = self.build_graph(
            obs if obs is not None else NULL_OBS, jobs, shard_timeout
        )
        return run_mapit_graph(
            graph,
            self.ip2as,
            org=self.as2org,
            rel=self.relationships,
            config=config,
            obs=obs,
        )


def _read_lines(path: Path):
    with open(path, errors="replace") as handle:
        return handle.read().splitlines()


def _load_optional(
    health: BundleHealth,
    path: Path,
    loader: Callable,
    fallback: Callable,
):
    """Load an optional dataset file, degrading to *fallback* on error."""
    if not path.exists():
        health.record(path.name, "missing")
        return fallback()
    try:
        value = loader(path)
    except Exception as exc:  # noqa: BLE001 - optional data must never abort
        health.record(path.name, "degraded", f"{type(exc).__name__}: {exc}")
        return fallback()
    health.record(path.name, "ok")
    return value


def _verify_checksums(root: Path, manifest: Dict, health: BundleHealth) -> None:
    """Compare manifest checksums against the files on disk."""
    checksums = manifest.get("checksums")
    if not isinstance(checksums, dict):
        return
    for name, expected in sorted(checksums.items()):
        if not isinstance(expected, str) or not expected.startswith("sha256:"):
            continue
        path = root / name
        if not path.exists():
            continue  # missing-ness is reported per dataset, not here
        if file_sha256(path) != expected[len("sha256:"):]:
            health.checksum_failures.append(name)


def _ingest_traces_cached(
    traces_path: Path,
    *,
    mode: str,
    budget,
    quarantine_dir,
    obs: Observability,
    jobs: int,
    cache: Optional[Union[str, Path]],
    shard_timeout: Optional[float],
    health: BundleHealth,
) -> Tuple[FlatTraces, IngestReport]:
    """Parse the traces file into columns, through the cache if given.

    The cache key is the file's content sha256 (the digest the manifest
    records), so a hit is provably the same bytes; only clean parses
    are stored, so the mode-dependent error machinery always runs for
    dirty files.  A hit emits the same ``ingest`` span, ``ingest.end``
    event and ``ingest.records.*`` counters a clean parse would — cold
    and warm runs produce byte-identical ``--trace`` output — and the
    entry's format version is surfaced in *health* (``cache: hit`` in
    the summary).  A v2 hit is the stored columns themselves; a legacy
    v1 hit is packed into columns.
    """
    from repro.robust.ingest import finalize_ingest
    from repro.traceroute.parse import trace_format_for_path

    format = trace_format_for_path(traces_path.name)
    bundle_cache = None
    if cache is not None:
        from repro.perf.cache import BundleCache

        bundle_cache = BundleCache(cache, obs=obs)
        source_sha = file_sha256(traces_path)
        hit = bundle_cache.load_entry(source_sha, format)
        if hit is not None:
            health.cache_format = hit.format_label
            report = IngestReport(
                source=traces_path.name,
                mode=mode,
                parsed=hit.parsed,
                skipped=hit.skipped,
            )
            with obs.span("ingest"):
                flat = hit.flat if hit.flat is not None else pack_traces(hit.traces())
            return flat, finalize_ingest(report, [], obs=obs)
    flat, report = ingest_trace_file(
        traces_path,
        jobs,
        mode=mode,
        budget=budget,
        quarantine_dir=quarantine_dir,
        obs=obs,
        shard_timeout=shard_timeout,
    )
    if bundle_cache is not None and report.ok:
        bundle_cache.store_payload(source_sha, format, flat.to_bytes(), report)
    return flat, report


def load_bundle(
    directory: Union[str, Path],
    *,
    on_error: str = "strict",
    max_error_rate: Optional[float] = None,
    quarantine_dir: Optional[Union[str, Path]] = None,
    obs: Observability = NULL_OBS,
    jobs: int = 1,
    cache: Optional[Union[str, Path]] = None,
    shard_timeout: Optional[float] = None,
    skip_traces: bool = False,
) -> InputBundle:
    """Load a dataset directory (see :mod:`repro.io` for the layout).

    Only ``traces.txt`` (or ``traces.jsonl``) and at least one IP2AS
    source (``bgp/`` or ``cymru.txt``) are required; everything else is
    optional and defaults to empty datasets (recorded as warnings in
    the returned bundle's ``health``).

    *skip_traces* loads only the mapping datasets: the traces file is
    neither required nor read and the returned bundle's columns are
    empty.  The serve daemon uses this — its traces arrive over a
    stream, so a serve dataset directory may legitimately carry no
    traces file at all (docs/SERVE.md).

    *on_error* selects the trace-ingestion policy (``strict`` /
    ``lenient`` / ``quarantine``); *max_error_rate* arms an
    :class:`~repro.robust.errors.ErrorBudget` over the malformed
    fraction in the non-strict modes; *quarantine_dir* overrides the
    default ``<dataset>/quarantine/`` reject directory.

    The traces file is parsed straight into columns
    (:func:`repro.perf.ingest.ingest_trace_file`); no trace object is
    built until a caller reads :attr:`InputBundle.traces`.  *jobs > 1*
    splits the parse across worker processes; *cache* names a
    :class:`~repro.perf.cache.BundleCache` directory keyed by the
    traces file's sha256 — a verified hit yields the stored columns
    without parsing (docs/PERFORMANCE.md).  Both are optimizations
    only: columns, report, and observability events are identical
    either way.
    """
    root = Path(directory)
    health = BundleHealth()
    budget = ErrorBudget(max_error_rate) if max_error_rate is not None else None

    traces_txt = root / "traces.txt"
    traces_jsonl = root / "traces.jsonl"
    if traces_txt.exists():
        traces_path = traces_txt
    elif traces_jsonl.exists():
        traces_path = traces_jsonl
    elif skip_traces:
        traces_path = None
    else:
        raise FileNotFoundError(f"no traces.txt or traces.jsonl in {root}")
    if skip_traces:
        flat = pack_traces(())
        health.record("traces", "skipped", "stream-fed (serve)")
    else:
        if on_error == "quarantine" and quarantine_dir is None:
            quarantine_dir = root / "quarantine"
        flat, ingest_report = _ingest_traces_cached(
            traces_path,
            mode=on_error,
            budget=budget,
            quarantine_dir=quarantine_dir,
            obs=obs,
            jobs=jobs,
            cache=cache,
            shard_timeout=shard_timeout,
            health=health,
        )
        health.ingest = ingest_report
        health.record(
            traces_path.name,
            "ok" if ingest_report.ok else "degraded",
            ""
            if ingest_report.ok
            else f"{ingest_report.malformed} malformed record(s) rejected",
        )

    builder = IP2ASBuilder()
    bgp_dir = root / "bgp"
    dumps: List[CollectorDump] = []
    if bgp_dir.is_dir():
        for path in sorted(bgp_dir.glob("*.txt")):
            try:
                dumps.append(CollectorDump.from_lines(_read_lines(path)))
            except Exception as exc:  # noqa: BLE001
                if on_error == "strict":
                    raise
                health.record(
                    f"bgp/{path.name}", "corrupt", f"{type(exc).__name__}: {exc}"
                )
    if dumps:
        builder.add_bgp(merge_collectors(dumps))
    cymru_path = root / "cymru.txt"
    cymru_loaded = False
    if cymru_path.exists():
        try:
            builder.add_cymru(CymruTable.from_lines(_read_lines(cymru_path)))
            cymru_loaded = True
            health.record("cymru.txt", "ok")
        except Exception as exc:  # noqa: BLE001
            if on_error == "strict" or not dumps:
                raise
            health.record("cymru.txt", "corrupt", f"{type(exc).__name__}: {exc}")
    if not dumps and not cymru_loaded:
        if not bgp_dir.is_dir() and not cymru_path.exists():
            raise FileNotFoundError(f"no IP2AS source (bgp/ or cymru.txt) in {root}")
        raise ValueError(f"no usable IP2AS source (bgp/ or cymru.txt) in {root}")
    ixp = _load_optional(
        health,
        root / "ixp.txt",
        lambda path: IXPDataset.from_lines(_read_lines(path)),
        IXPDataset,
    )
    if ixp is not None:
        builder.set_ixp(ixp)
    ip2as = builder.build()

    as2org = _load_optional(
        health,
        root / "as2org.txt",
        lambda path: AS2Org.from_lines(_read_lines(path)),
        AS2Org,
    )
    relationships = _load_optional(
        health,
        root / "relationships.txt",
        lambda path: RelationshipDataset.from_lines(_read_lines(path)),
        RelationshipDataset,
    )
    ground_truth = _load_optional(
        health, root / "groundtruth.txt", load_ground_truth, lambda: None
    )
    hostnames = _load_optional(
        health,
        root / "hostnames.txt",
        lambda path: HostnameDataset.from_lines(_read_lines(path)),
        lambda: None,
    )
    manifest = _load_optional(
        health,
        root / "manifest.json",
        lambda path: json.loads(Path(path).read_text()),
        dict,
    )
    if not isinstance(manifest, dict):
        health.record("manifest.json", "degraded", "manifest is not a JSON object")
        manifest = {}
    _verify_checksums(root, manifest, health)
    return InputBundle(
        flat=flat,
        ip2as=ip2as,
        as2org=as2org,
        relationships=relationships,
        ground_truth=ground_truth,
        hostnames=hostnames,
        manifest=manifest,
        health=health,
    )
