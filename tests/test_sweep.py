"""Sweep orchestration: grids, jobs resolution, kill+resume, stress tier.

The acceptance bars under test:

* a sweep killed mid-cell and resumed with ``--resume`` produces
  byte-identical per-cell result files to an uninterrupted run;
* a cache-warm second sweep re-parses nothing;
* ``--jobs 0`` means all cores and negative jobs is a usage error;
* the newline-aligned shard splitter never emits degenerate shards;
* a stress-tier world streams shard-by-shard — the fold's resident
  footprint stays below holding the traces outright.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro import MapItConfig
from repro.obs.metrics import Metrics
from repro.obs.observer import Observability
from repro.perf.ingest import _shard_spans, fold_graph_from_blocks
from repro.perf.pool import default_jobs, resolve_jobs, shard_ranges
from repro.sim.presets import stress_smoke_config
from repro.sim.stress import StressConfig, stress_blocks
from repro.sweep import (
    SCENARIO_PRESETS,
    STRESS_PRESETS,
    SweepGrid,
    SweepMismatchError,
    SweepPlan,
    run_sweep,
    sweep_identity,
)

SRC = str(Path(__file__).resolve().parents[1] / "src")


def _subprocess_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep * bool(env.get("PYTHONPATH")) + env.get(
        "PYTHONPATH", ""
    )
    return env


class TestJobsResolution:
    def test_explicit_positive_passes_through(self):
        assert resolve_jobs(3) == 3
        assert resolve_jobs(1) == 1

    def test_zero_means_all_cores(self):
        assert resolve_jobs(0) == (os.cpu_count() or 1)

    def test_none_uses_default(self, monkeypatch):
        monkeypatch.delenv("MAPIT_JOBS", raising=False)
        assert resolve_jobs(None) == 1

    def test_env_zero_means_all_cores(self, monkeypatch):
        monkeypatch.setenv("MAPIT_JOBS", "0")
        assert default_jobs() == (os.cpu_count() or 1)
        assert resolve_jobs(None) == (os.cpu_count() or 1)

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="jobs must be >= 0"):
            resolve_jobs(-3)

    def test_cli_negative_jobs_is_usage_error(self, tmp_path, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", str(tmp_path), "--jobs", "-2"])
        assert excinfo.value.code == 2
        assert "jobs must be >= 0" in capsys.readouterr().err


class TestShardSpans:
    def test_zero_count_has_no_shards(self):
        assert shard_ranges(0, 4) == []
        assert shard_ranges(-1, 4) == []

    def test_small_file_many_jobs_collapses_empty_spans(self):
        text = "a 1.2.3.4\nb 5.6.7.8\n"
        spans, _ = _shard_spans(text, 16)
        # Exact, contiguous coverage with no degenerate shards.
        assert spans[0][0] == 0 and spans[-1][1] == len(text)
        for (_, end), (start, _) in zip(spans, spans[1:]):
            assert end == start
        for start, end in spans:
            assert text[start:end].strip(), (start, end)

    def test_whitespace_only_text_is_single_span(self):
        spans, _ = _shard_spans("\n\n\n", 4)
        assert spans == [(0, 3)]

    def test_large_text_still_splits(self):
        text = "".join(f"line {index} 1.2.3.{index % 250}\n" for index in range(2000))
        spans, _ = _shard_spans(text, 4)
        assert len(spans) > 1
        assert spans[0][0] == 0 and spans[-1][1] == len(text)


class TestSweepGrid:
    def test_axes_are_canonicalized(self):
        a = SweepGrid.build(["small", "tiny"], [2, 0, 2], [0.5, 0.1])
        b = SweepGrid.build(["tiny", "small", "tiny"], [0, 2], [0.1, 0.5, 0.5])
        assert a == b
        config = MapItConfig(f=0.0)
        assert sweep_identity(a, config) == sweep_identity(b, config)

    def test_cells_in_canonical_order(self):
        grid = SweepGrid.build(["tiny"], [1, 0], [0.5, 0.1])
        assert [cell.cell_id for cell in grid.cells()] == [
            "tiny-s0000-f0.1",
            "tiny-s0000-f0.5",
            "tiny-s0001-f0.1",
            "tiny-s0001-f0.5",
        ]

    def test_identity_sensitive_to_every_axis_and_config(self):
        config = MapItConfig(f=0.0)
        base = sweep_identity(SweepGrid.build(["tiny"], [0], [0.5]), config)
        assert base != sweep_identity(SweepGrid.build(["small"], [0], [0.5]), config)
        assert base != sweep_identity(SweepGrid.build(["tiny"], [1], [0.5]), config)
        assert base != sweep_identity(SweepGrid.build(["tiny"], [0], [0.4]), config)
        assert base != sweep_identity(
            SweepGrid.build(["tiny"], [0], [0.5], "experiment"), config
        )
        assert base != sweep_identity(
            SweepGrid.build(["tiny"], [0], [0.5]),
            MapItConfig(f=0.0, remove_rule="add_rule"),
        )

    def test_unknown_preset_and_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown preset"):
            SweepGrid.build(["nope"], [0], [0.5])
        with pytest.raises(ValueError, match="unknown sweep kind"):
            SweepGrid.build(["tiny"], [0], [0.5], "bogus")

    def test_stress_presets_are_dataset_only(self):
        with pytest.raises(ValueError, match="dataset"):
            SweepGrid.build(["stress-smoke"], [0], [0.5], "experiment")

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError, match="at least one value"):
            SweepGrid.build(["tiny"], [], [0.5])

    def test_colliding_f_names_rejected(self):
        with pytest.raises(ValueError, match="collide"):
            SweepGrid.build(["tiny"], [0], [0.1, 0.1000000001])

    def test_cli_preset_list_matches_registries(self):
        from repro.cli import _SWEEP_PRESETS

        assert sorted(_SWEEP_PRESETS) == sorted(
            list(SCENARIO_PRESETS) + list(STRESS_PRESETS)
        )


class TestSweepInProcess:
    @pytest.fixture(scope="class")
    def swept(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("sweep")
        grid = SweepGrid.build(["tiny"], [0], [0.3, 0.5])
        plan = SweepPlan(
            grid=grid,
            workdir=root / "work",
            out_dir=root / "out",
            journal_dir=root / "journal",
            cache_dir=root / "cache",
            jobs=1,
        )
        outcome = run_sweep(plan)
        return root, grid, plan, outcome

    def test_all_cells_written(self, swept):
        root, grid, plan, outcome = swept
        assert outcome.completed == 2 and outcome.skipped == 0
        for cell in grid.cells():
            document = json.loads(
                (plan.out_dir / "cells" / f"{cell.cell_id}.json").read_text()
            )
            assert document["cell"] == cell.cell_id
            assert document["f"] == cell.f
            assert document["scores"]
        aggregate = json.loads((plan.out_dir / "sweep.json").read_text())
        assert [c["cell"] for c in aggregate["cells"]] == [
            cell.cell_id for cell in grid.cells()
        ]

    def test_resume_of_finished_sweep_skips_everything(self, swept):
        root, grid, plan, outcome = swept
        before = {
            path.name: path.read_bytes()
            for path in (plan.out_dir / "cells").glob("*.json")
        }
        from dataclasses import replace

        again = run_sweep(replace(plan, resume=outcome.sweep_id))
        assert again.completed == 0 and again.skipped == 2
        after = {
            path.name: path.read_bytes()
            for path in (plan.out_dir / "cells").glob("*.json")
        }
        assert before == after

    def test_resume_sweeps_stale_atomic_write_temps(self, swept):
        """A SIGKILL mid-rename strands `<cell>.json.tmp.<pid>`; resume
        must remove it so the output directory byte-matches an
        uninterrupted run (the CI job `diff -r`s the two)."""
        root, grid, plan, outcome = swept
        from dataclasses import replace

        stale = plan.out_dir / "cells" / "tiny-s0000-f0.5.json.tmp.12345"
        stale.write_bytes(b"{torn")
        run_sweep(replace(plan, resume=outcome.sweep_id))
        assert not stale.exists()
        assert sorted(
            path.name for path in (plan.out_dir / "cells").iterdir()
        ) == [f"{cell.cell_id}.json" for cell in grid.cells()]

    def test_resume_with_changed_grid_names_the_mismatch(self, swept):
        root, grid, plan, outcome = swept
        from dataclasses import replace

        bad = SweepPlan(
            grid=SweepGrid.build(["tiny"], [0], [0.3, 0.9]),
            workdir=plan.workdir,
            out_dir=plan.out_dir,
            journal_dir=plan.journal_dir,
            jobs=1,
            resume=outcome.sweep_id,
        )
        with pytest.raises(SweepMismatchError, match="f_values"):
            run_sweep(bad)
        bad_config = replace(plan, remove_rule="add_rule", resume=outcome.sweep_id)
        with pytest.raises(SweepMismatchError, match="config"):
            run_sweep(bad_config)

    def test_resume_with_unknown_id_fails_loudly(self, swept):
        root, grid, plan, outcome = swept
        from dataclasses import replace

        with pytest.raises(SweepMismatchError, match="unknown sweep id"):
            run_sweep(replace(plan, resume="feedfacedeadbeef"))

    def test_cache_warm_second_sweep_reparses_nothing(self, swept):
        root, grid, plan, outcome = swept
        metrics = Metrics()
        obs = Observability(metrics=metrics)
        second = SweepPlan(
            grid=grid,
            workdir=plan.workdir,
            out_dir=root / "out2",
            journal_dir=root / "journal2",
            cache_dir=plan.cache_dir,
            jobs=1,
        )
        outcome2 = run_sweep(second, obs=obs)
        assert outcome2.worlds_reused == 1 and outcome2.worlds_built == 0
        assert metrics.counter("sweep.cache.misses") == 0
        assert metrics.counter("sweep.cache.hits") == 2
        # And the warm results are bytes-for-bytes the cold ones.
        for cell in grid.cells():
            name = f"{cell.cell_id}.json"
            assert (second.out_dir / "cells" / name).read_bytes() == (
                plan.out_dir / "cells" / name
            ).read_bytes()

    def test_experiment_kind_scores_per_f(self, tmp_path):
        grid = SweepGrid.build(["tiny"], [0], [0.1, 1.0], "experiment")
        plan = SweepPlan(
            grid=grid,
            workdir=tmp_path / "work",
            out_dir=tmp_path / "out",
            journal_dir=tmp_path / "journal",
            jobs=1,
        )
        outcome = run_sweep(plan)
        assert outcome.completed == 2
        documents = [
            json.loads(
                (plan.out_dir / "cells" / f"{cell.cell_id}.json").read_text()
            )
            for cell in grid.cells()
        ]
        for document in documents:
            assert document["kind"] == "experiment"
            assert document["scores"]
        # The paper's f=1.0 collapse: TP at high f never beats low f.
        low, high = documents
        for label, score in high["scores"].items():
            assert score["tp"] <= low["scores"][label]["tp"], label


class TestKillResume:
    GRID_FLAGS = [
        "--preset", "tiny", "--seed", "0", "--seed", "1",
        "--f", "0.2", "--f", "0.35", "--f", "0.5",
        "--f", "0.65", "--f", "0.8", "--f", "0.95",
        "--jobs", "2",
    ]

    def _sweep(self, workdir, extra=(), check=True):
        return subprocess.run(
            [sys.executable, "-m", "repro.cli", "sweep", str(workdir)]
            + self.GRID_FLAGS
            + list(extra),
            env=_subprocess_env(),
            capture_output=True,
            text=True,
            check=check,
        )

    def test_sigkill_then_resume_is_byte_identical(self, tmp_path):
        golden_dir = tmp_path / "golden"
        self._sweep(golden_dir)
        golden = {
            path.name: path.read_bytes()
            for path in (golden_dir / "results" / "cells").glob("*.json")
        }
        assert len(golden) == 12

        interrupted = tmp_path / "interrupted"
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "sweep", str(interrupted)]
            + self.GRID_FLAGS,
            env=_subprocess_env(),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        journal_dir = interrupted / "journal"
        deadline = time.time() + 120
        killed = False
        while time.time() < deadline and proc.poll() is None:
            journals = list(journal_dir.glob("*.jsonl"))
            if journals and '"unit":"cell"' in journals[0].read_text():
                proc.send_signal(signal.SIGKILL)
                killed = True
                break
            time.sleep(0.02)
        proc.wait()
        if not killed:  # pragma: no cover - the box outran the poll
            pytest.skip("sweep finished before the kill landed")

        sweep_id = list(journal_dir.glob("*.jsonl"))[0].name.split(".")[0]
        partial = set(
            path.name
            for path in (interrupted / "results" / "cells").glob("*.json")
        )
        assert partial != set(golden), "kill landed after completion"
        resumed = self._sweep(interrupted, extra=["--resume", sweep_id])
        assert "resumed" in resumed.stderr
        results = {
            path.name: path.read_bytes()
            for path in (interrupted / "results" / "cells").glob("*.json")
        }
        assert results == golden
        assert (golden_dir / "results" / "sweep.json").read_bytes() == (
            interrupted / "results" / "sweep.json"
        ).read_bytes()


class TestStressTier:
    def test_streamed_fold_is_deterministic_and_chunked(self):
        config = StressConfig(
            seed=5, as_count=600, monitor_count=4, trace_count=4000, shard_size=256
        )
        graph, stats = fold_graph_from_blocks(stress_blocks(config))
        graph2, stats2 = fold_graph_from_blocks(stress_blocks(config))
        assert stats == stats2
        assert stats.traces == 4000
        assert stats.shards == 16
        # Streaming proof: no single resident block approaches the
        # whole stream.
        assert stats.peak_block_bytes * 4 < stats.stream_bytes
        assert sorted(graph.forward) == sorted(graph2.forward)

    def test_streamed_stress_run_equals_serial_reference(self):
        """The streamed columnar fold plus the table-primed engine give
        the serial object pipeline's bytes on the one tier-1 world with
        thousands of prefixes (2,000 Cymru /24s)."""
        import repro
        from repro.core.mapit import run_mapit_graph
        from repro.sim.stress import (
            stress_ip2as,
            stress_org,
            stress_relationships,
            stress_traces,
        )

        config = stress_smoke_config(0)
        graph, _ = fold_graph_from_blocks(stress_blocks(config))
        streamed = run_mapit_graph(
            graph,
            stress_ip2as(config),
            org=stress_org(config),
            rel=stress_relationships(config),
        )
        serial = repro.run_mapit(
            [trace for shard in stress_traces(config) for trace in shard],
            stress_ip2as(config),
            org=stress_org(config),
            rel=stress_relationships(config),
        )
        assert streamed.inferences
        assert streamed.to_json().encode() == serial.to_json().encode()

    def test_stress_sweep_cell_reports_stream_accounting(self, tmp_path):
        grid = SweepGrid.build(["stress-smoke"], [0], [0.5])
        metrics = Metrics()
        plan = SweepPlan(
            grid=grid,
            workdir=tmp_path / "work",
            out_dir=tmp_path / "out",
            journal_dir=tmp_path / "journal",
            jobs=1,
            shard_size=1024,
        )
        outcome = run_sweep(plan, obs=Observability(metrics=metrics))
        assert outcome.completed == 1
        document = json.loads(
            (plan.out_dir / "cells" / "stress-smoke-s0000-f0.5.json").read_text()
        )
        stream = document["stream"]
        assert stream["traces"] == stress_smoke_config(0).trace_count
        assert stream["shards"] >= 8
        assert stream["peak_block_bytes"] * 4 < stream["stream_bytes"]
        assert document["world"]["ases"] >= 2000
        assert metrics.counter("sweep.stress.shards") == stream["shards"]
        assert metrics.gauges["sweep.stress.peak_block_bytes"] == stream[
            "peak_block_bytes"
        ]
        assert metrics.gauges["sweep.rss.peak_kb"] >= metrics.gauges[
            "sweep.rss.start_kb"
        ]

    def test_streamed_fold_beats_full_residency(self):
        """The tentpole memory claim, measured in fresh interpreters.

        Two subprocesses generate the same stress world; one folds the
        generated blocks streaming, the other materializes every Trace
        object first.  The streamed fold's peak RSS must stay below the
        full-resident build's.  Absolute ``ru_maxrss`` peaks are
        compared (not growth deltas): interpreter-startup baselines
        shift with allocator and hugepage behavior, but both processes
        pay the same baseline.

        Each measurement is double-spawned: a fork/vfork child inherits
        the parent's resident size as its ``ru_maxrss`` floor (the
        high-water mark survives exec), so a child launched directly
        from a large pytest process would report the *parent's* RSS for
        both variants.  A lean intermediate interpreter resets the
        floor before the real measurement forks.
        """
        world = (
            "from repro.sim.stress import StressConfig\n"
            "config = StressConfig(seed=0, as_count=2000, monitor_count=4,"
            " trace_count=30000, shard_size=1024)\n"
        )
        streamed = (
            "import resource\n"
            "from repro.perf.ingest import fold_graph_from_blocks\n"
            "from repro.sim.stress import stress_blocks\n"
            + world
            + "fold_graph_from_blocks(stress_blocks(config))\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
        )
        resident = (
            "import resource\n"
            "from repro.sim.stress import stress_traces\n"
            + world
            + "traces = [t for shard in stress_traces(config) for t in shard]\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
        )

        def peak_kb(code):
            trampoline = (
                "import subprocess, sys\n"
                "result = subprocess.run(\n"
                "    [sys.executable, '-c', sys.argv[1]],\n"
                "    capture_output=True, text=True, check=True,\n"
                ")\n"
                "print(result.stdout.strip())\n"
            )
            result = subprocess.run(
                [sys.executable, "-c", trampoline, code],
                env=_subprocess_env(),
                capture_output=True,
                text=True,
                check=True,
            )
            return int(result.stdout.strip())

        assert peak_kb(streamed) < peak_kb(resident)
