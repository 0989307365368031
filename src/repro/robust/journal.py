"""Crash-safe run journal: durable units, byte-identical resume.

A long MAP-IT run has three kinds of durable unit, each a pure function
of what precedes it: the parsed traces (already durable via the
``.mapitc`` :class:`~repro.perf.cache.BundleCache`, which lives in the
same directory and is keyed by the same source sha256), the merged
interface graph, and each multipass iteration's engine state.  The
journal records the latter two as they complete, so ``mapit run
--resume <run-id>`` can replay the journal, verify checksums, and
continue from the last durable unit — and because every iteration is a
pure function of the state it starts from, the continuation is
byte-identical to an uninterrupted run.

Layout, next to the ``.mapitc`` cache entries::

    <dir>/<run-id>.journal.jsonl     # one JSON record per unit
    <dir>/<run-id>.<name>.blob       # pickled graph / engine snapshots

The run id is a sha256 prefix over (traces sha256, format, ingest
mode, config repr) — the inputs that determine the result — so a
journal can never be resumed against different inputs by accident.

Each journal line carries its own sha256; appends are flushed and
fsynced.  A crash mid-append leaves a *torn tail*: :meth:`RunJournal.read`
verifies every line and stops at the first damaged one, so the units
before it remain usable.  A failed write (ENOSPC) disables journaling
for the rest of the run — durability degrades, the run itself never
fails because of its journal.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.io.atomic import atomic_write_bytes, file_sha256
from repro.obs.observer import NULL_OBS, Observability
from repro.robust.faults import active_chaos

#: bump when the record or blob layout changes; old journals then key
#: to a different run id and are simply not resumed
JOURNAL_VERSION = 1


def run_identity(
    source_sha256: str, config: Any, mode: str, format: str
) -> str:
    """The run id for a (traces, config, ingest mode) combination.

    16 hex chars of a sha256 over everything that determines the run's
    result.  ``config`` contributes through its ``repr`` —
    :class:`~repro.core.config.MapItConfig` is a frozen dataclass, so
    the repr is canonical.
    """
    material = "\n".join(
        (
            "mapit-run-journal",
            str(JOURNAL_VERSION),
            source_sha256,
            format,
            mode,
            repr(config),
        )
    )
    return hashlib.sha256(material.encode()).hexdigest()[:16]


def run_identity_for(directory: Union[str, Path], config: Any, mode: str) -> str:
    """The run id for a dataset directory (locates the traces file)."""
    from repro.traceroute.parse import trace_format_for_path

    root = Path(directory)
    for name in ("traces.txt", "traces.jsonl"):
        path = root / name
        if path.exists():
            return run_identity(
                file_sha256(path), config, mode, trace_format_for_path(name)
            )
    raise FileNotFoundError(f"no traces.txt or traces.jsonl in {root}")


class RunJournal:
    """Append-only journal of one run's completed units."""

    def __init__(
        self,
        directory: Union[str, Path],
        run_id: str,
        obs: Observability = NULL_OBS,
    ) -> None:
        self.directory = Path(directory)
        self.run_id = run_id
        self.obs = obs
        #: set after a failed write: the run continues unjournaled
        self.disabled = False
        self._seq = 0

    @property
    def path(self) -> Path:
        return self.directory / f"{self.run_id}.journal.jsonl"

    def _blob_path(self, name: str) -> Path:
        return self.directory / f"{self.run_id}.{name}.blob"

    # -- writing -----------------------------------------------------------

    def append(self, unit: str, payload: Dict[str, Any]) -> bool:
        """Durably append one completed unit; returns whether it stuck.

        The line's sha256 covers ``(seq, unit, payload)`` in canonical
        JSON, so a torn or bit-flipped tail is detectable on read.
        """
        if self.disabled:
            return False
        record = {"seq": self._seq, "unit": unit, "payload": payload}
        body = json.dumps(record, sort_keys=True, separators=(",", ":"))
        record["sha256"] = hashlib.sha256(body.encode()).hexdigest()
        line = json.dumps(record, sort_keys=True, separators=(",", ":"))
        try:
            chaos = active_chaos()
            if chaos is not None:
                chaos.maybe_fail_write("journal", self._seq)
            self.directory.mkdir(parents=True, exist_ok=True)
            with open(self.path, "a") as handle:
                handle.write(line + "\n")
                handle.flush()
                os.fsync(handle.fileno())
        except OSError:
            # A full disk costs resumability, never the run itself.
            self.disabled = True
            self.obs.inc("robust.journal.write_failed")
            return False
        self._seq += 1
        self.obs.inc("robust.journal.units")
        return True

    def store_blob(self, name: str, data: bytes) -> Optional[str]:
        """Atomically write a unit's binary payload; returns its sha256."""
        if self.disabled:
            return None
        try:
            chaos = active_chaos()
            if chaos is not None:
                chaos.maybe_fail_write("journal", self._seq)
            self.directory.mkdir(parents=True, exist_ok=True)
            return atomic_write_bytes(self._blob_path(name), data)
        except OSError:
            self.disabled = True
            self.obs.inc("robust.journal.write_failed")
            return None

    def append_with_blob(
        self,
        unit: str,
        name: str,
        data: bytes,
        extra: Optional[Dict[str, Any]] = None,
    ) -> bool:
        """Store *data* as a blob, then journal the unit referencing it."""
        sha = self.store_blob(name, data)
        if sha is None:
            return False
        payload = dict(extra or {})
        payload["blob"] = name
        payload["sha256"] = sha
        return self.append(unit, payload)

    # -- reading -----------------------------------------------------------

    def read(self) -> List[Dict[str, Any]]:
        """The journal's verified records, in order.

        Stops at the first line that is torn, corrupt, or out of
        sequence — everything before it is trusted, everything after
        is not.  Leaves the journal positioned to append after the
        last verified record (a resumed run's new units overwrite the
        torn tail's blob names as needed; the journal file itself is
        rewritten to the verified prefix so seq numbers stay dense).
        """
        records: List[Dict[str, Any]] = []
        try:
            # errors="replace": a bit-flipped byte that breaks UTF-8 must
            # surface as a torn line (sha mismatch), not a decode crash
            with open(self.path, errors="replace") as handle:
                lines = handle.read().splitlines()
        except OSError:
            self._seq = 0
            return records
        torn = False
        for index, line in enumerate(lines):
            try:
                record = json.loads(line)
                stored_sha = record.pop("sha256")
                body = json.dumps(record, sort_keys=True, separators=(",", ":"))
                ok = (
                    stored_sha == hashlib.sha256(body.encode()).hexdigest()
                    and record.get("seq") == index
                )
            except (ValueError, KeyError, TypeError):
                ok = False
            if not ok:
                torn = True
                self.obs.inc("robust.journal.torn_tail")
                break
            records.append(record)
        self._seq = len(records)
        if torn:
            self._truncate_to(records)
        return records

    def _truncate_to(self, records: List[Dict[str, Any]]) -> None:
        """Rewrite the journal as its verified prefix (drop a torn tail)."""
        try:
            lines = []
            for record in records:
                body = json.dumps(record, sort_keys=True, separators=(",", ":"))
                stamped = dict(record)
                stamped["sha256"] = hashlib.sha256(body.encode()).hexdigest()
                lines.append(
                    json.dumps(stamped, sort_keys=True, separators=(",", ":"))
                )
            atomic_write_bytes(
                self.path, ("\n".join(lines) + "\n" if lines else "").encode()
            )
        except OSError:
            self.disabled = True
            self.obs.inc("robust.journal.write_failed")

    def units(self, unit: str) -> List[Dict[str, Any]]:
        """The payloads of every verified record of kind *unit*, in order.

        Convenience over :meth:`read` for callers (the sweep
        orchestrator) that checkpoint many homogeneous units and replay
        them on resume.
        """
        return [
            record["payload"]
            for record in self.read()
            if record.get("unit") == unit
        ]

    def load_blob(self, name: str, expected_sha256: str) -> Optional[bytes]:
        """A unit's binary payload, or None if missing or corrupt."""
        try:
            data = self._blob_path(name).read_bytes()
        except OSError:
            return None
        if hashlib.sha256(data).hexdigest() != expected_sha256:
            self.obs.inc("robust.journal.blob_corrupt")
            return None
        return data


# ----------------------------------------------------------------------
# the journaled pipeline


def journaled_run(
    bundle,
    config=None,
    obs: Optional[Observability] = None,
    jobs: int = 1,
    shard_timeout: Optional[float] = None,
    *,
    journal: RunJournal,
    resume: bool = False,
):
    """Run MAP-IT over *bundle*, journaling each durable unit.

    Mirrors :meth:`repro.io.InputBundle.run_mapit` exactly — same
    columnar fold, same engine, same result — with two additions:
    completed units go to *journal*, and with ``resume=True`` the run
    first replays the journal and continues from the last durable unit
    (a replayed graph blob skips the fold).  Either way the returned
    result is byte-identical (``to_json``) to an uninterrupted
    unjournaled run.
    """
    from repro.core.mapit import MapIt
    from repro.core.results import MapItResult

    effective_obs = obs if obs is not None else NULL_OBS

    graph_record: Optional[Dict[str, Any]] = None
    iteration_records: List[Dict[str, Any]] = []
    result_record: Optional[Dict[str, Any]] = None
    if resume:
        for record in journal.read():
            unit = record.get("unit")
            if unit == "graph":
                graph_record = record
            elif unit == "iteration":
                iteration_records.append(record)
            elif unit == "result":
                result_record = record

    if result_record is not None:
        # The crashed run actually finished; replay its result.
        effective_obs.inc("robust.journal.replayed")
        return MapItResult.from_json(result_record["payload"]["json"])

    graph = None
    if graph_record is not None:
        payload = graph_record["payload"]
        data = journal.load_blob(payload["blob"], payload["sha256"])
        if data is not None:
            try:
                graph = pickle.loads(data)
            except Exception:  # noqa: BLE001 - a bad blob is just a rebuild
                effective_obs.inc("robust.journal.blob_corrupt")
                graph = None
    if graph is None:
        graph = bundle.build_graph(effective_obs, jobs, shard_timeout)
        journal.append_with_blob(
            "graph", "graph", pickle.dumps(graph, protocol=pickle.HIGHEST_PROTOCOL)
        )

    snapshot = None
    for record in reversed(iteration_records):
        payload = record["payload"]
        data = journal.load_blob(payload["blob"], payload["sha256"])
        if data is None:
            continue
        try:
            snapshot = pickle.loads(data)
        except Exception:  # noqa: BLE001 - a bad blob is just an older resume point
            effective_obs.inc("robust.journal.blob_corrupt")
            continue
        break
    if resume and effective_obs.enabled:
        effective_obs.event(
            "journal.resume",
            run_id=journal.run_id,
            iteration=snapshot.iterations if snapshot is not None else 0,
            graph_replayed=graph_record is not None,
        )

    def on_iteration(iteration: int, snap) -> None:
        journal.append_with_blob(
            "iteration",
            f"iter{iteration:04d}",
            pickle.dumps(snap, protocol=pickle.HIGHEST_PROTOCOL),
            extra={"iteration": iteration},
        )
        chaos = active_chaos()
        if chaos is not None:
            chaos.maybe_crash_iteration(iteration)

    mapit = MapIt(
        graph,
        bundle.ip2as,
        org=bundle.as2org,
        rel=bundle.relationships,
        config=config,
        obs=obs,
    )
    result = mapit.run(on_iteration=on_iteration, resume=snapshot)
    journal.append("result", {"json": result.to_json()})
    return result
