"""Fault-tolerance tests: malformed-input corpus, ingestion policies,
error budget, quarantine round-trips, atomic writes, and sanitize edge
cases.  Every fault-taxonomy class of :mod:`repro.robust.faults` is
exercised against strict (raises), lenient (skips + exact counts), and
quarantine (rejects round-trip) ingestion."""

import json
import shutil

import pytest

from repro.cli import main
from repro.io import load_bundle, save_scenario
from repro.io.atomic import atomic_write_lines, file_sha256
from repro.net.ipv4 import AddressError, parse_address
from repro.robust import (
    ErrorBudget,
    ErrorBudgetExceeded,
    FaultInjector,
    SimulatedCrash,
    ingest_trace_file,
    ingest_traces,
)
from repro.robust.faults import LINE_FAULTS, TRACE_FAULTS
from repro.traceroute.model import Hop, Trace
from repro.traceroute.parse import (
    TraceParseError,
    parse_json_trace,
    parse_text_trace,
    parse_text_traces,
    traces_to_json_lines,
    traces_to_text_lines,
)
from repro.traceroute.sanitize import sanitize_traces

GOOD_TEXT = [
    "m1|9.1.0.9|9.0.0.1 9.1.0.1",
    "m1|9.1.0.9|9.0.0.1 * 9.1.0.2@0",
    "m2|9.1.0.9|9.0.0.2 9.1.0.1",
]


def good_json_lines():
    return list(traces_to_json_lines(parse_text_traces(GOOD_TEXT)))


class TestTraceParseError:
    def test_missing_separators(self):
        with pytest.raises(TraceParseError) as excinfo:
            parse_text_trace("no separators here", line_number=7)
        assert excinfo.value.line_number == 7
        assert excinfo.value.text == "no separators here"
        assert "line 7" in str(excinfo.value)

    def test_one_separator(self):
        with pytest.raises(TraceParseError):
            parse_text_trace("m1|9.0.0.1")

    def test_bad_destination(self):
        with pytest.raises(TraceParseError) as excinfo:
            parse_text_trace("m1|300.0.0.1|9.0.0.1")
        assert "destination" in excinfo.value.reason

    def test_bad_hop_address(self):
        with pytest.raises(TraceParseError) as excinfo:
            parse_text_trace("m1|9.0.0.9|9.0.0.1 bogus")
        assert "hop address" in excinfo.value.reason

    def test_bad_quoted_ttl(self):
        # ASCII digits, no leading zero, 0-255: the octet rule
        for ttl in ("x", "\u0661", "1_0", "-3", "+0", "256", "01", "9" * 20):
            with pytest.raises(TraceParseError) as excinfo:
                parse_text_trace(f"m1|9.0.0.9|9.0.0.1@{ttl}")
            assert "quoted TTL" in excinfo.value.reason
        trace = parse_text_trace("m1|9.0.0.9|9.0.0.1@0 9.0.0.2@255 9.0.0.3@")
        assert [hop.quoted_ttl for hop in trace.hops] == [0, 255, 1]

    def test_is_a_value_error(self):
        """Callers catching the historical ValueError still work."""
        with pytest.raises(ValueError):
            parse_text_trace("junk")

    def test_strict_iterator_reports_line_number(self):
        lines = GOOD_TEXT + ["garbage"]
        with pytest.raises(TraceParseError) as excinfo:
            list(parse_text_traces(lines))
        assert excinfo.value.line_number == 4

    def test_unicode_digits_rejected(self):
        """str.isdigit() accepts '³'; the parser must not."""
        with pytest.raises(AddressError):
            parse_address("9.0.0.³3")


class TestJsonParseErrors:
    def test_invalid_json(self):
        with pytest.raises(TraceParseError) as excinfo:
            parse_json_trace("{not json", line_number=2)
        assert "invalid JSON" in excinfo.value.reason

    def test_non_object(self):
        with pytest.raises(TraceParseError):
            parse_json_trace("[1, 2]")

    def test_null_dst(self):
        with pytest.raises(TraceParseError) as excinfo:
            parse_json_trace('{"dst": null, "hops": []}')
        assert "dst" in excinfo.value.reason

    def test_missing_dst(self):
        with pytest.raises(TraceParseError):
            parse_json_trace('{"hops": []}')

    def test_null_hop_addr(self):
        line = '{"dst":"9.0.0.9","hop_count":1,"hops":[{"probe_ttl":1,"addr":null}]}'
        with pytest.raises(TraceParseError):
            parse_json_trace(line)

    def test_null_rtt_and_reply_ttl_treated_as_absent(self):
        line = (
            '{"dst":"9.0.0.9","hop_count":1,'
            '"hops":[{"probe_ttl":1,"addr":"9.0.0.1","rtt":null,"reply_ttl":null}]}'
        )
        trace = parse_json_trace(line)
        assert trace.hops[0].rtt_ms == 0.0
        assert trace.hops[0].quoted_ttl == 1

    def test_reply_ttl_out_of_range(self):
        for reply_ttl in (256, -1, 10**20):
            line = (
                '{"dst":"9.0.0.9","hop_count":1,'
                f'"hops":[{{"probe_ttl":1,"addr":"9.0.0.1","reply_ttl":{reply_ttl}}}]}}'
            )
            with pytest.raises(TraceParseError):
                parse_json_trace(line)

    def test_reply_ttl_zero_preserved(self):
        """Quoted TTL 0 is the buggy-router signature; null-handling
        must not rewrite it to 1."""
        line = (
            '{"dst":"9.0.0.9","hop_count":1,'
            '"hops":[{"probe_ttl":1,"addr":"9.0.0.1","reply_ttl":0}]}'
        )
        assert parse_json_trace(line).hops[0].quoted_ttl == 0


class TestAtlasNullFields:
    def test_null_rtt_and_ittl(self):
        from repro.traceroute.atlas import parse_atlas_measurement

        record = {
            "af": 4,
            "prb_id": 1,
            "dst_addr": "9.9.9.9",
            "result": [
                {"hop": 1, "result": [{"from": "9.0.0.1", "rtt": None, "ittl": None}]}
            ],
        }
        trace = parse_atlas_measurement(record)
        assert trace.hops[0].address == parse_address("9.0.0.1")
        assert trace.hops[0].quoted_ttl == 1
        assert trace.hops[0].rtt_ms == 0.0

    def test_null_hop_entry_and_non_numeric_rtt(self):
        from repro.traceroute.atlas import parse_atlas_measurement

        record = {
            "af": 4,
            "dst_addr": "9.9.9.9",
            "result": [
                {"hop": None, "result": [{"from": "9.0.0.1"}]},
                {"hop": 2, "result": [None, {"from": "9.0.0.2", "rtt": "slow"}]},
                {"hop": 3, "result": [{"from": "9.0.0.3", "ittl": 256}]},
                {"hop": 4, "result": [{"from": "9.0.0.4", "ittl": -1}]},
            ],
        }
        trace = parse_atlas_measurement(record)
        # hop:null entry is dropped; a non-numeric rtt or an ittl outside
        # 0-255 makes its probe unusable, the hop falls back to a gap
        # rather than crashing
        assert [hop.address for hop in trace.hops] == [None, None, None, None]


class TestIngestModes:
    def test_strict_raises(self):
        with pytest.raises(TraceParseError):
            ingest_traces(GOOD_TEXT + ["garbage"], mode="strict")

    def test_lenient_counts_are_exact(self):
        lines = GOOD_TEXT + ["garbage"] + GOOD_TEXT + ["m|300.0.0.1|x", "", "# note"]
        traces, report = ingest_traces(lines, mode="lenient", source="s")
        assert len(traces) == 6
        assert report.parsed == 6
        assert report.malformed == 2
        assert report.total == 8  # blanks and comments are not records
        assert report.error_rate == pytest.approx(0.25)
        assert [error.line_number for error in report.errors] == [4, 8]
        assert report.errors[0].source == "s"
        assert report.errors[0].snippet == "garbage"

    def test_every_line_fault_kind_text(self):
        injector = FaultInjector(seed=5)
        for kind in LINE_FAULTS:
            line = injector.corrupt_line(GOOD_TEXT[0], kind, format="text")
            traces, report = ingest_traces(GOOD_TEXT + [line], mode="lenient")
            assert report.malformed == 1, kind
            assert len(traces) == len(GOOD_TEXT), kind

    def test_every_line_fault_kind_jsonl(self):
        injector = FaultInjector(seed=5)
        good = good_json_lines()
        for kind in LINE_FAULTS:
            line = injector.corrupt_line(good[0], kind, format="jsonl")
            traces, report = ingest_traces(
                good + [line], format="jsonl", mode="lenient"
            )
            assert report.malformed == 1, kind
            assert len(traces) == len(good), kind

    def test_atlas_mode_counts_bad_json(self):
        lines = ['{"af": 4', '{"af": 6, "dst_addr": "9.9.9.9"}']
        traces, report = ingest_traces(lines, format="atlas", mode="lenient")
        assert traces == []
        assert report.malformed == 1  # bad JSON
        assert report.skipped == 1  # IPv6: a skip, not an error

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            ingest_traces(GOOD_TEXT, mode="permissive")

    def test_quarantine_requires_directory(self):
        with pytest.raises(ValueError):
            ingest_traces(GOOD_TEXT, mode="quarantine")


class TestQuarantine:
    def test_rejects_round_trip(self, tmp_path):
        bad = ["garbage one", "m|300.0.0.1|x"]
        lines = GOOD_TEXT + bad
        traces, report = ingest_traces(
            lines,
            mode="quarantine",
            source="traces.txt",
            quarantine_dir=tmp_path / "quarantine",
        )
        assert len(traces) == len(GOOD_TEXT)
        rejects_path = tmp_path / "quarantine" / "traces.txt.rejects.txt"
        assert str(rejects_path) == report.quarantine_path
        assert rejects_path.read_text().splitlines() == bad
        errors = [
            json.loads(line)
            for line in (tmp_path / "quarantine" / "traces.txt.errors.jsonl")
            .read_text()
            .splitlines()
        ]
        assert [error["line_number"] for error in errors] == [4, 5]
        assert all(error["source"] == "traces.txt" for error in errors)
        # re-ingesting the quarantined rejects finds them all malformed
        _, re_report = ingest_traces(
            rejects_path.read_text().splitlines(), mode="lenient"
        )
        assert re_report.malformed == len(bad)

    def test_no_rejects_no_files(self, tmp_path):
        _, report = ingest_traces(
            GOOD_TEXT, mode="quarantine", quarantine_dir=tmp_path / "q"
        )
        assert report.quarantine_path is None
        assert not (tmp_path / "q").exists()


class TestErrorBudget:
    def test_over_budget_raises(self):
        lines = (GOOD_TEXT * 10) + ["junk"] * 10  # 25% malformed of 40
        with pytest.raises(ErrorBudgetExceeded) as excinfo:
            ingest_traces(lines, mode="lenient", budget=ErrorBudget(0.1))
        assert excinfo.value.malformed == 10
        assert excinfo.value.total == 40
        assert "error budget exceeded" in str(excinfo.value)

    def test_under_budget_passes(self):
        lines = (GOOD_TEXT * 10) + ["junk"]
        traces, report = ingest_traces(
            lines, mode="lenient", budget=ErrorBudget(0.1)
        )
        assert report.malformed == 1
        assert len(traces) == 30

    def test_min_records_grace(self):
        traces, report = ingest_traces(
            GOOD_TEXT + ["junk"], mode="lenient", budget=ErrorBudget(0.1)
        )
        assert report.malformed == 1  # 25% > 10%, but only 4 records

    def test_early_cluster_judged_over_whole_file(self):
        """A corrupt block early in a long file must not abort a load
        whose overall malformed fraction is under budget."""
        lines = ["junk"] * 5 + GOOD_TEXT * 40  # 5/125 = 4%
        traces, report = ingest_traces(
            lines, mode="lenient", budget=ErrorBudget(0.1)
        )
        assert report.malformed == 5
        assert len(traces) == 120


class TestFaultInjectorDeterminism:
    def test_same_seed_same_damage(self):
        lines = GOOD_TEXT * 20
        first = FaultInjector(seed=9).corrupt_lines(lines, 0.2)
        second = FaultInjector(seed=9).corrupt_lines(lines, 0.2)
        assert first == second

    def test_fault_records_name_damaged_lines(self):
        lines = GOOD_TEXT * 20
        damaged, faults = FaultInjector(seed=9).corrupt_lines(lines, 0.2)
        assert faults
        damaged_numbers = {fault.line_number for fault in faults}
        for number, (old, new) in enumerate(zip(lines, damaged), start=1):
            assert (old != new) == (number in damaged_numbers)

    def test_file_faults(self, tmp_path):
        path = tmp_path / "traces.txt"
        path.write_text("\n".join(GOOD_TEXT * 10) + "\n")
        injector = FaultInjector(seed=2)
        faults = injector.corrupt_file(path, kind="truncated_file")
        assert faults and faults[0].kind == "truncated_file"
        _, report = ingest_trace_file(path, mode="lenient")
        assert report.malformed == 1  # the partial final record
        injector.corrupt_file(path, kind="empty_file")
        assert path.read_bytes() == b""
        traces, report = ingest_trace_file(path, mode="lenient")
        assert traces == [] and report.total == 0


class TestAtomicWrites:
    def test_crash_mid_serialization_leaves_no_file(self, tmp_path):
        injector = FaultInjector(seed=0)
        path = tmp_path / "out.txt"
        with pytest.raises(SimulatedCrash):
            atomic_write_lines(path, injector.crash_after(GOOD_TEXT, 2))
        assert not path.exists()
        assert list(tmp_path.iterdir()) == []  # no temp litter either

    def test_crash_preserves_previous_version(self, tmp_path):
        injector = FaultInjector(seed=0)
        path = tmp_path / "out.txt"
        atomic_write_lines(path, ["complete"])
        with pytest.raises(SimulatedCrash):
            atomic_write_lines(path, injector.crash_after(GOOD_TEXT, 1))
        assert path.read_text() == "complete\n"

    def test_save_scenario_crash_leaves_no_partial_traces(
        self, tmp_path, scenario, monkeypatch
    ):
        """A mapit simulate killed mid-write leaves traces.txt and
        manifest.json either absent or complete — never partial."""
        import repro.io.save as save_module

        injector = FaultInjector(seed=0)
        real = save_module.traces_to_text_lines

        def crashing(traces):
            return injector.crash_after(real(traces), 10)

        monkeypatch.setattr(save_module, "traces_to_text_lines", crashing)
        with pytest.raises(SimulatedCrash):
            save_scenario(scenario, tmp_path / "ds")
        dataset = tmp_path / "ds"
        assert not (dataset / "traces.txt").exists()
        assert not (dataset / "manifest.json").exists()
        assert not list(dataset.glob("*.tmp.*"))

    def test_checksums_recorded_and_verified(self, tmp_bundle):
        root = tmp_bundle(seed=42, hostnames=False, copy=True)
        manifest = json.loads((root / "manifest.json").read_text())
        checksums = manifest["checksums"]
        assert checksums["traces.txt"] == "sha256:" + file_sha256(root / "traces.txt")
        bundle = load_bundle(root)
        assert bundle.health.checksum_failures == []
        # silent corruption that still parses is caught by the checksum
        lines = (root / "traces.txt").read_text().splitlines()
        (root / "traces.txt").write_text("\n".join(lines[:-1]) + "\n")
        bundle = load_bundle(root)
        assert bundle.health.checksum_failures == ["traces.txt"]
        assert not bundle.health.ok


class TestBundleDegradation:
    @pytest.fixture()
    def dataset(self, tmp_bundle):
        return tmp_bundle(seed=42, hostnames=False, copy=True)

    def test_corrupt_optional_degrades(self, dataset):
        (dataset / "relationships.txt").write_text("total garbage | | |\n")
        bundle = load_bundle(dataset)
        assert bundle.relationships.providers(1) == frozenset()
        assert bundle.health.status_of("relationships.txt") == "degraded"
        assert any("relationships" in warning for warning in bundle.health.warnings)

    def test_corrupt_ground_truth_degrades_to_none(self, dataset):
        (dataset / "groundtruth.txt").write_text("bogus|1.2.3.4|1\n")
        bundle = load_bundle(dataset)
        assert bundle.ground_truth is None
        assert bundle.health.status_of("groundtruth.txt") == "degraded"

    def test_corrupt_manifest_degrades_to_empty(self, dataset):
        (dataset / "manifest.json").write_text("{ not json")
        bundle = load_bundle(dataset)
        assert bundle.manifest == {}
        assert bundle.health.status_of("manifest.json") == "degraded"

    def test_missing_required_still_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_bundle(tmp_path, on_error="lenient")

    def test_corrupt_required_raises_even_lenient(self, tmp_path):
        (tmp_path / "traces.txt").write_text("m|9.1.0.9|9.0.0.1 9.1.0.1\n")
        (tmp_path / "cymru.txt").write_text("complete garbage\n")
        with pytest.raises(Exception):
            load_bundle(tmp_path, on_error="lenient")

    def test_health_ok_on_clean_dataset(self, dataset):
        bundle = load_bundle(dataset)
        assert bundle.health.ok
        assert "bundle health: ok" in list(bundle.health.summary_lines())


class TestCliRobustness:
    @pytest.fixture()
    def clean_dataset(self, tmp_bundle):
        return tmp_bundle(seed=3)

    @pytest.fixture()
    def corrupted(self, clean_dataset, tmp_path_factory):
        """The dataset corrupted at a 5% line rate, plus its clean
        subset (the same dataset minus exactly the damaged lines)."""
        root = tmp_path_factory.mktemp("robust-cli-corrupt")
        corrupt_dir, subset_dir = root / "corrupt", root / "subset"
        shutil.copytree(clean_dataset, corrupt_dir)
        shutil.copytree(clean_dataset, subset_dir)
        lines = (clean_dataset / "traces.txt").read_text().splitlines()
        damaged, faults = FaultInjector(seed=13).corrupt_lines(lines, 0.05)
        assert faults
        (corrupt_dir / "traces.txt").write_text("\n".join(damaged) + "\n")
        bad = {fault.line_number for fault in faults}
        survivors = [
            line for number, line in enumerate(lines, start=1) if number not in bad
        ]
        (subset_dir / "traces.txt").write_text("\n".join(survivors) + "\n")
        return corrupt_dir, subset_dir, faults

    def test_strict_mode_aborts(self, corrupted):
        corrupt_dir, _, _ = corrupted
        with pytest.raises(TraceParseError):
            main(["run", str(corrupt_dir)])

    def test_lenient_reports_exact_count_and_matches_clean_subset(
        self, corrupted, tmp_path, capsys
    ):
        corrupt_dir, subset_dir, faults = corrupted
        lenient_out = tmp_path / "lenient.txt"
        subset_out = tmp_path / "subset.txt"
        code = main(
            [
                "run",
                str(corrupt_dir),
                "--on-error",
                "lenient",
                "--output",
                str(lenient_out),
            ]
        )
        assert code == 0
        err = capsys.readouterr().err
        assert f"{len(faults)} malformed" in err
        assert main(["run", str(subset_dir), "--output", str(subset_out)]) == 0
        # inferences over the survivors == inferences over the clean subset
        assert lenient_out.read_text() == subset_out.read_text()

    def test_budget_exceeded_aborts_nonzero(
        self, clean_dataset, tmp_path, capsys
    ):
        corrupt_dir = tmp_path / "heavy"
        shutil.copytree(clean_dataset, corrupt_dir)
        FaultInjector(seed=4).corrupt_dataset(corrupt_dir, rate=0.3)
        code = main(["run", str(corrupt_dir), "--on-error", "lenient"])
        assert code == 3
        assert "error budget exceeded" in capsys.readouterr().err

    def test_quarantine_writes_rejects(self, corrupted, tmp_path, capsys):
        corrupt_dir, _, faults = corrupted
        code = main(
            [
                "run",
                str(corrupt_dir),
                "--on-error",
                "quarantine",
                "--output",
                str(tmp_path / "out.txt"),
            ]
        )
        assert code == 0
        rejects = corrupt_dir / "quarantine" / "traces.txt.rejects.txt"
        assert len(rejects.read_text().splitlines()) == len(faults)

    def test_simulate_prints_ingest_health(self, tmp_path, capsys):
        assert main(["simulate", str(tmp_path / "ds"), "--seed", "1"]) == 0
        err = capsys.readouterr().err
        assert "ingest traces.txt [strict]" in err
        assert "0 malformed" in err


class TestSanitizeEdgeCases:
    def _trace(self, *addresses):
        return Trace(
            "m",
            parse_address("9.9.9.9"),
            tuple(
                Hop(None) if text is None else Hop(parse_address(text))
                for text in addresses
            ),
        )

    def test_all_gap_trace_survives(self):
        report = sanitize_traces([self._trace(None, None, None)])
        assert len(report.traces) == 1
        assert report.discarded == 0
        assert report.all_addresses == set()

    def test_cycle_at_head(self):
        trace = self._trace("9.0.0.1", "9.0.0.2", "9.0.0.1")
        report = sanitize_traces([trace])
        assert report.discarded == 1
        assert report.all_addresses == {
            parse_address("9.0.0.1"),
            parse_address("9.0.0.2"),
        }

    def test_cycle_at_tail(self):
        trace = self._trace("9.0.0.5", "9.0.0.1", "9.0.0.2", "9.0.0.1")
        assert sanitize_traces([trace]).discarded == 1

    def test_injected_trace_faults_feed_sanitizer(self, scenario):
        injector = FaultInjector(seed=6)
        damaged, faults = injector.corrupt_traces(
            scenario.traces[:50], rate=0.3, kinds=TRACE_FAULTS
        )
        assert faults
        report = sanitize_traces(damaged)  # must not raise
        assert report.total == 50

    def test_cycle_fault_is_discarded(self):
        injector = FaultInjector(seed=6)
        clean = self._trace("9.0.0.1", "9.0.0.2", "9.0.0.3")
        cycled = injector.corrupt_trace(clean, "cycle")
        assert sanitize_traces([cycled]).discarded == 1

    def test_all_gaps_fault(self):
        injector = FaultInjector(seed=6)
        trace = injector.corrupt_trace(self._trace("9.0.0.1", "9.0.0.2"), "all_gaps")
        assert all(not hop.responded for hop in trace.hops)
