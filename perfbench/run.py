"""The MAP-IT benchmark: one workload, one seed, every output checked.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload dense-run --seed 1 --seconds 26 --trace 0

A workload runs on a fixed world, whose inputs and reference are made
once per checkout and code version and kept in ``.bench_cache``.
``--trace 0`` measures the end-to-end metrics: set-up three times, then
jobs, each in a fresh process, in a closed loop of ``CLIENTS`` clients
until ``--seconds`` is spent.  ``--trace 1`` is the separate traced run:
one set-up, then untraced and traced jobs one at a time, reporting the
per-layer metrics.  Every job's output is compared
byte for byte with a reference computed during set-up by the serial,
uncached object pipeline.  Human-readable lines (host record, each
metric with its unit and sample count) go to stdout first; the last
line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 only when every output was correct.

The workloads, the layer table and what each ROADMAP direction should
move are in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import queue
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
CACHE = ROOT / ".bench_cache"

WORKLOADS = ("dense-run", "dense-rerun", "stress-cell", "serve-stream")

#: a job that runs longer than this is killed and counted as failed
JOB_LIMIT_S = 150.0

#: reads in the seeded batch query mix
BATCH_QUERIES = 1000

#: batch workloads serve the latest job's result while the next job
#: runs, at serve-stream's read rate: a serve pass refreshes about every
#: 50 ms and answers SERVE_QUERIES_PER_REFRESH reads after each refresh
READ_INTERVAL_S = 0.05

#: concurrent closed-loop clients per workload.  Single-process jobs run
#: two at a time, one per CPU, so that a run holds twice the samples;
#: dense-rerun's jobs already use both CPUs.
CLIENTS = {"dense-run": 2, "dense-rerun": 1, "stress-cell": 2, "serve-stream": 2}

#: set-ups per measured run; setup_s is their median
SETUP_RUNS = 3

#: the world each workload runs on, and that world's preset and seed.
#: --seed picks only the query mix: generating a world per seed took
#: 14-22 s of every run and added the world's own cost to the spread
#: (perfbench/README.md, "Workloads")
WORLDS = {"dense-run": "dense", "dense-rerun": "dense", "stress-cell": "stress",
          "serve-stream": "paper"}
WORLD_SEEDS = {"dense": 1, "stress": 1, "paper": 7}

#: the counts that must repeat exactly across traced jobs and runs of a seed
EXACT_COUNTS = (
    "robust.ingest.records",
    "graph.addresses",
    "bgp.ip2as.lookups",
    "perf.ingest.blocks",
    "perf.flat.bytes",
    "core.mapit.iterations",
    "serve.incremental.dirty_halves",
    "serve.checkpoint.bytes",
)

_children = set()


# -- host ----------------------------------------------------------------------


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop: how fast the host is now."""
    started = time.perf_counter()
    acc = 0
    for value in range(1_500_000):
        acc = (acc + value * value) % 1_000_003
    return time.perf_counter() - started


def host_record() -> dict:
    return {
        "cpus": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
    }


# -- child processes -------------------------------------------------------------


class Child:
    """A finished job: exit code, wall, CPU, peak RSS and its output."""

    __slots__ = ("code", "wall_s", "cpu_s", "rss_mb", "stdout", "stderr")


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


class Running:
    """A started job in its own process group, killed at ``JOB_LIMIT_S``.

    The job is spawned by ``launch.py``, which times it, waits for it
    and writes its exit code, wall, CPU and peak RSS to a report file.
    A thread waits for the launcher and puts the job on *done*; the
    harness may be busy checking and publishing another job's result
    at that moment without stretching this job's measured wall time.
    """

    def __init__(self, argv, work: Path, env, tag: str, done: queue.Queue, key=None) -> None:
        self.key = key
        self.out_path, self.err_path = work / f"{tag}.out", work / f"{tag}.err"
        self.report_path = work / f"{tag}.usage.json"
        self.report_path.unlink(missing_ok=True)
        launcher = [sys.executable, str(BENCH / "launch.py"), str(self.report_path)]
        with open(self.out_path, "wb") as out, open(self.err_path, "wb") as err:
            # kept, and its returncode set on reaping, so subprocess's own
            # cleanup never reaps the launcher before wait4 sees it
            self.process = subprocess.Popen(
                launcher + list(argv), cwd=ROOT, env=env, stdout=out, stderr=err,
                start_new_session=True,
            )
        self.pid = self.process.pid
        _children.add(self.pid)
        self.timer = threading.Timer(JOB_LIMIT_S, _kill_group, (self.pid,))
        # a terminated run must not wait for the timers of killed jobs
        self.timer.daemon = True
        self.timer.start()
        threading.Thread(target=self._wait, args=(done,), daemon=True).start()

    def _wait(self, done: queue.Queue) -> None:
        try:
            _, status, _ = os.wait4(self.pid, 0)
        except ChildProcessError:  # reaped by _stop_children
            return
        done.put((self, status))

    def finish(self, status: int) -> Child:
        """Account for the job once its launcher has been reaped.

        The launcher's report counts every descendant the job reaped,
        so pool workers count towards CPU and the largest process sets
        the peak RSS.  A job killed at the time limit has no report.
        """
        self.timer.cancel()
        _children.discard(self.pid)
        _kill_group(self.pid)
        self.process.returncode = os.waitstatus_to_exitcode(status)
        child = Child()
        if self.report_path.exists():
            usage = json.loads(self.report_path.read_text())
            child.code, child.wall_s = usage["code"], usage["wall_s"]
            child.cpu_s, child.rss_mb = usage["cpu_s"], usage["rss_mb"]
        else:
            child.code = self.process.returncode or -signal.SIGKILL
            child.wall_s, child.cpu_s, child.rss_mb = JOB_LIMIT_S, 0.0, 0.0
        child.stdout = self.out_path.read_text()
        child.stderr = self.err_path.read_text()
        return child


def reap(done: queue.Queue):
    """Wait for the next job to end; returns its key and :class:`Child`."""
    job, status = done.get()
    return job.key, job.finish(status)


def run_child(argv, work: Path, env) -> Child:
    """Run one job to completion."""
    done = queue.Queue()
    Running(argv, work, env, "child", done)
    return reap(done)[1]


def _stop_children() -> None:
    for pid in list(_children):
        _kill_group(pid)
        try:
            os.waitpid(pid, 0)
        except ChildProcessError:
            pass
        _children.discard(pid)


def child_env() -> dict:
    env = {key: value for key, value in os.environ.items() if not key.startswith("MAPIT_")}
    env["PYTHONPATH"] = str(SRC)
    return env


# -- statistics ------------------------------------------------------------------


def percentile(values, share: float) -> float:
    """Inclusive-interpolated percentile (``share`` in 0..100)."""
    if len(values) == 1:
        return float(values[0])
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[int(round(share)) - 1]


# -- set-up ----------------------------------------------------------------------


class Inputs:
    """What set-up hands the jobs: files on disk plus the reference."""

    def __init__(self, traces: int, reference: bytes, result, gen_s: float) -> None:
        self.traces = traces
        #: the reference result, serialized as the jobs write it, and parsed
        self.reference = reference
        self.result = result
        self.gen_s = gen_s
        #: the batch workloads' IP2AS, over which each job's result is
        #: published, their seeded read mix and its reference answers
        self.ip2as = None
        self.queries = []
        self.answers = []


def query_mix(result, seed: int, count: int):
    """A seeded QueryAPI read mix over the reference result's keys."""
    from repro.net.ipv4 import format_address

    records = list(result.inferences) + list(result.uncertain)
    addresses = sorted(
        {record.address for record in records}
        | {record.other_side for record in records if record.other_side is not None}
    )
    asns = sorted({record.local_as for record in records} | {record.remote_as for record in records})
    rng = random.Random(seed * 7919 + 1)
    mix = []
    for _ in range(count):
        draw = rng.random()
        if draw < 0.5:
            mix.append(("links_by_address", format_address(rng.choice(addresses))))
        elif draw < 0.8:
            mix.append(("links_by_as", rng.choice(asns)))
        else:
            mix.append(("explain", format_address(rng.choice(addresses))))
    return mix


def copy_checked(source: Path, target: Path, digest: str) -> None:
    """Copy *source* to *target*, failing unless its sha256 is *digest*."""
    target.parent.mkdir(parents=True, exist_ok=True)
    hashed = hashlib.sha256()
    with open(source, "rb") as reading, open(target, "wb") as writing:
        while True:
            chunk = reading.read(1 << 20)
            if not chunk:
                break
            hashed.update(chunk)
            writing.write(chunk)
    if hashed.hexdigest() != digest:
        raise RuntimeError(f"{source} does not match its digest; delete {CACHE} and run again")


def code_key() -> str:
    """A digest of the program and benchmark sources a run measured."""
    digest = hashlib.sha256()
    files = [path for path in SRC.rglob("*") if path.is_file() and "__pycache__" not in path.parts]
    files += list(BENCH.glob("*.py"))
    for path in sorted(files):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


class ResultReader(threading.Thread):
    """Serves the latest batch job's result while the next job runs.

    Each correct job's output is parsed and published as the snapshot
    of a ``QueryAPI``; until the first job ends there is nothing to
    read.  Every READ_INTERVAL_S the reader sends the mix's next
    SERVE_QUERIES_PER_REFRESH reads to the latest snapshot and checks
    each answer against the reference's.
    """

    def __init__(self, inputs: Inputs) -> None:
        super().__init__(daemon=True)
        self.inputs = inputs
        self.api = None
        self.latencies = []
        self.wrong = 0
        self._done = threading.Event()
        # a burst never overlaps the parse of a new result, so no read
        # waits for the interpreter lock behind it
        self._lock = threading.Lock()

    def publish(self, produced: bytes) -> None:
        from repro.core.results import MapItResult
        from repro.serve.api import QueryAPI
        from repro.serve.daemon import ServeDaemon, ServeSnapshot
        from repro.serve.incremental import IncrementalIndex

        with self._lock:
            daemon = ServeDaemon(IncrementalIndex(self.inputs.ip2as))
            daemon.snapshot = ServeSnapshot(
                1, hashlib.sha256(produced).hexdigest(),
                MapItResult.from_json(produced.decode()), {},
            )
            self.api = QueryAPI(daemon)

    def run(self) -> None:
        from jobs import SERVE_QUERIES_PER_REFRESH, read_mix, wrong_answers

        mix, answers = self.inputs.queries, self.inputs.answers
        cursor = 0
        while not self._done.wait(READ_INTERVAL_S):
            with self._lock:
                if self.api is None:
                    continue
                picks = [(cursor + step) % len(mix) for step in range(SERVE_QUERIES_PER_REFRESH)]
                cursor += SERVE_QUERIES_PER_REFRESH
                share = [mix[pick] for pick in picks]
                latencies, payloads = read_mix(self.api, share)
            self.latencies.extend(latencies)
            self.wrong += wrong_answers(share, payloads, [answers[pick] for pick in picks])

    def finish(self) -> None:
        self._done.set()
        self.join()


# -- the benchmark ----------------------------------------------------------------


class Bench:
    def __init__(self, workload: str, seed: int, seconds: int, trace: bool) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work = ROOT / ".bench_work" / f"{workload}-s{seed}-{os.getpid()}"
        self.world = WORLDS[workload]
        self.world_seed = WORLD_SEEDS[self.world]
        self.env = child_env()
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.samples = {}

    # -- bookkeeping --

    def check(self, ok: bool, what: str, attempts: int = 1, failures: int = 1) -> bool:
        """Count *attempts* operations, *failures* of them failed unless *ok*."""
        self.attempted += attempts
        if not ok:
            self.failed += failures
            self.problems.append(what)
        return ok

    def add(self, name: str, *values) -> None:
        self.samples.setdefault(name, []).extend(values)

    # -- jobs --

    def batch_argv(self, output: Path):
        argv = [sys.executable, "-m", "repro.cli", "run", str(self.work / "dataset"),
                "--json", "--output", str(output)]
        if self.workload == "dense-run":
            return argv + ["--jobs", "1", "--no-cache"]
        if self.workload == "dense-rerun":
            return argv + ["--jobs", "2", "--cache", str(self.work / "cache")]
        return [sys.executable, str(BENCH / "jobs.py"), "stress-cell", str(self.work),
                str(self.world_seed), str(output)]

    def traced_argv(self, job: int, output: Path, report: Path):
        spec = {"job": job, "report": str(report), "work": str(self.work),
                "seed": self.world_seed, "output": str(output)}
        if self.workload == "stress-cell":
            spec["kind"] = "stress"
        elif self.workload == "serve-stream":
            spec["kind"] = "serve"
            spec["journal"] = str(self.work / f"journal-{job}")
        else:
            spec["kind"] = "cli"
            spec["argv"] = self.batch_argv(output)[3:]
        spec_path = self.work / f"spec-{job}.json"
        spec_path.write_text(json.dumps(spec))
        return [sys.executable, str(BENCH / "tracing.py"), str(spec_path)]

    # -- set-up --

    def world_entry(self):
        """The world's inputs and reference, made on first use.

        They depend only on the world and the code, so they are made
        once per checkout and code version and kept in
        ``.bench_cache/<world>-seed<n>-<code>/``, with the sha256 of
        every file in ``meta.json``.  The entry is built under a
        temporary name and renamed into place when complete.  Returns
        the entry, its meta, and the seconds spent building it in this
        run (0 when it was there).
        """
        entry = CACHE / f"{self.world}-seed{self.world_seed}-{code_key()[:16]}"
        if (entry / "meta.json").exists():
            return entry, json.loads((entry / "meta.json").read_text()), 0.0
        started = time.perf_counter()
        building = CACHE / f".{entry.name}.{os.getpid()}"
        shutil.rmtree(building, ignore_errors=True)
        building.mkdir(parents=True)
        try:
            self.build_world(building)
            try:
                os.rename(building, entry)
            except OSError:  # another run made it first
                pass
        finally:
            shutil.rmtree(building, ignore_errors=True)
        meta = json.loads((entry / "meta.json").read_text())
        return entry, meta, time.perf_counter() - started

    def build_world(self, building: Path) -> dict:
        """Make the world's inputs and reference in *building*."""
        if self.world == "stress":
            steps = {"stress-blocks": [], "stress-reference": []}
        else:
            steps = {"scenario-world": [self.world]}
        done = queue.Queue()
        for step, arguments in steps.items():
            argv = [sys.executable, str(BENCH / "jobs.py"), step, str(building), *arguments,
                    str(self.world_seed)]
            Running(argv, self.work, self.env, step, done, key=step)
        made = {}
        for _ in steps:
            step, child = reap(done)
            if child.code != 0:
                raise RuntimeError(f"{step} failed:\n{child.stderr}")
            made[step] = json.loads(child.stdout)
        traces = {report["traces"] for report in made.values()}
        if len(traces) != 1:
            raise RuntimeError(f"the world's inputs and reference differ in traces: {made}")
        files = sorted(path for path in building.rglob("*") if path.is_file())
        meta = {
            "traces": traces.pop(),
            "gen_s": made[next(iter(steps))]["gen_s"],
            "digests": {
                str(path.relative_to(building)): hashlib.sha256(path.read_bytes()).hexdigest()
                for path in files
            },
        }
        (building / "meta.json").write_text(json.dumps(meta, indent=1))
        return meta

    def setup(self, entry: Path, meta: dict) -> Inputs:
        """One set-up: a checked copy of the world's inputs and reference,
        the seed's query mix and its expected answers, and for
        dense-rerun the cache fill."""
        from repro.core.results import MapItResult

        from jobs import expected_answers

        self.work.mkdir(parents=True)
        for name, digest in meta["digests"].items():
            copy_checked(entry / name, self.work / name, digest)
        reference = (self.work / "reference.json").read_bytes()
        result = MapItResult.from_json(reference.decode())
        inputs = Inputs(meta["traces"], reference, result, meta["gen_s"])
        if self.workload == "serve-stream":
            from jobs import SERVE_QUERIES_PER_REFRESH, SERVE_REFRESHES

            pairs = json.loads((self.work / "other_sides.json").read_text())
            count = SERVE_QUERIES_PER_REFRESH * (SERVE_REFRESHES + 1)
            mix = query_mix(result, self.seed, count)
            answers = expected_answers(result, dict(map(tuple, pairs)), mix)
            (self.work / "queries.json").write_text(json.dumps({"mix": mix, "answers": answers}))
            return inputs
        if self.world == "stress":
            from repro.sim.presets import stress_config
            from repro.sim.stress import stress_ip2as

            inputs.ip2as = stress_ip2as(stress_config(self.world_seed))
        else:
            from repro.io import load_bundle

            inputs.ip2as = load_bundle(self.work / "dataset", skip_traces=True).ip2as
        inputs.queries = query_mix(result, self.seed, BATCH_QUERIES)
        inputs.answers = expected_answers(result, {}, inputs.queries)
        if self.workload == "dense-rerun":
            # fill the .mapitc cache the way a first run does
            output = self.work / "fill.json"
            argv = self.batch_argv(output)
            child = run_child(argv, self.work, self.env)
            self.check(
                child.code == 0 and output.read_bytes() == inputs.reference,
                f"cache-filling run differs from the reference (exit {child.code})",
            )
        return inputs

    # -- one job of each kind --

    def job_argv(self, index: int):
        if self.workload == "serve-stream":
            return [sys.executable, str(BENCH / "jobs.py"), "serve-stream", str(self.work),
                    str(self.work / f"journal-{index}")]
        return self.batch_argv(self.work / f"result-{index}.json")

    def verify_job(self, inputs: Inputs, index: int, child: Child, reader=None) -> dict:
        """Check one untraced job's output; returns its samples.

        A correct batch job's result is then published to *reader*.
        """
        if self.workload == "serve-stream":
            if child.code != 0:
                raise RuntimeError(f"serve pass {index} exited {child.code}:\n{child.stderr[-2000:]}")
            shutil.rmtree(self.work / f"journal-{index}", ignore_errors=True)
            report = self.verify_pass(inputs, json.loads(child.stdout))
            report["rss_mb"] = child.rss_mb
            return report
        output = self.work / f"result-{index}.json"
        produced = output.read_bytes() if output.exists() else b""
        self.check(
            child.code == 0 and produced == inputs.reference,
            f"job {index}: exit {child.code}, output differs from the reference"
            + (f"\n{child.stderr[-2000:]}" if child.code else ""),
        )
        if output.exists():
            output.unlink()
        if reader is not None and produced == inputs.reference:
            reader.publish(produced)
        return {"wall_s": child.wall_s, "cpu_s": child.cpu_s, "rss_mb": child.rss_mb}

    def verify_pass(self, inputs: Inputs, report):
        expected = hashlib.sha256(inputs.reference).hexdigest()
        self.check(
            report["result_sha256"] == expected,
            "serve final snapshot differs from the batch result",
        )
        self.check(
            report["malformed"] + report["shed"] == 0,
            f"{report['malformed']} malformed and {report['shed']} shed records",
            attempts=report["parsed"] + report["malformed"] + report["shed"],
            failures=report["malformed"] + report["shed"],
        )
        self.check(
            report["stale_reads"] + report["wrong_answers"] == 0,
            f"{report['stale_reads']} reads missed the published snapshot, "
            f"{report['wrong_answers']} reads of the final snapshot answered wrong",
            attempts=len(report["query_ns"]),
            failures=report["stale_reads"] + report["wrong_answers"],
        )
        return report

    # -- end-to-end run --

    def measure(self, inputs: Inputs, setups) -> dict:
        """Closed loop: each client starts its next job when the last one
        ends, while the time spent plus half a mean job fits ``seconds``."""
        jobs = []
        done = queue.Queue()
        reader = None
        if self.workload != "serve-stream":
            reader = ResultReader(inputs)
            reader.start()
        started = time.perf_counter()
        for index in range(CLIENTS[self.workload]):
            Running(self.job_argv(index), self.work, self.env, f"job-{index}", done, key=index)
        running = launched = CLIENTS[self.workload]
        while running:
            index, child = reap(done)
            running -= 1
            jobs.append(self.verify_job(inputs, index, child, reader))
            mean = statistics.fmean(sample["wall_s"] for sample in jobs)
            if time.perf_counter() - started + 0.5 * mean <= self.seconds:
                Running(self.job_argv(launched), self.work, self.env, f"job-{launched}", done,
                        key=launched)
                running += 1
                launched += 1
        walls = [sample["wall_s"] for sample in jobs]
        self.samples["job_wall_s"] = walls
        self.samples["setup_s"] = setups
        setup_s = statistics.median(setups)
        if self.workload == "serve-stream":
            setup_s += statistics.fmean(sample["build_s"] for sample in jobs[:CLIENTS[self.workload]])
            for sample in jobs:
                self.add("refresh_ms", *(value * 1000.0 for value in sample["refresh_s"]))
                self.add("query_us", *(value / 1000.0 for value in sample["query_ns"]))
        else:
            # a batch refresh is a whole job: these samples are the job
            # walls, so refresh_p50_ms is run_s in ms
            self.add("refresh_ms", *(wall * 1000.0 for wall in walls))
            reader.finish()
            self.add("query_us", *(value / 1000.0 for value in reader.latencies))
            self.check(
                reader.wrong == 0,
                f"{reader.wrong} reads of a published job result answered wrong",
                attempts=len(reader.latencies),
                failures=reader.wrong,
            )
        run_s = statistics.median(walls)
        refresh = self.samples["refresh_ms"]
        latencies = self.samples["query_us"]
        return {
            "setup_s": (setup_s, "s", len(setups)),
            "run_s": (run_s, "s", len(walls)),
            "traces_per_s": (inputs.traces / run_s, "traces/s", len(walls)),
            "cpu_s": (statistics.median(sample["cpu_s"] for sample in jobs), "s", len(jobs)),
            "peak_rss_mb": (max(sample["rss_mb"] for sample in jobs), "MB", len(jobs)),
            "refresh_p50_ms": (percentile(refresh, 50), "ms", len(refresh)),
            "refresh_p90_ms": (percentile(refresh, 90), "ms", len(refresh)),
            "query_p50_us": (percentile(latencies, 50), "us", len(latencies)),
            "query_p99_us": (percentile(latencies, 99), "us", len(latencies)),
        }

    # -- traced run --

    def traced(self, inputs: Inputs) -> dict:
        """Untraced and traced jobs in turn (U T T U T ...)."""
        untraced, traced = [], []
        started = time.perf_counter()
        index = 0
        while True:
            if untraced and len(traced) >= 2:
                mean = statistics.fmean([job["wall_s"] for job in untraced + traced])
                if time.perf_counter() - started + 0.5 * mean > self.seconds:
                    break
            if untraced and (len(traced) < 2 or len(traced) <= len(untraced)):
                traced.append(self.traced_job(inputs, index))
            else:
                untraced.append(self.untraced_job(inputs, index))
            index += 1
        return self.layer_metrics(inputs, untraced, traced)

    def untraced_job(self, inputs: Inputs, index: int) -> dict:
        child = run_child(self.job_argv(index), self.work, self.env)
        return self.verify_job(inputs, index, child)

    def traced_job(self, inputs: Inputs, index: int) -> dict:
        output = self.work / f"result-{index}.json"
        report_path = self.work / f"trace-{index}.json"
        child = run_child(self.traced_argv(index, output, report_path), self.work, self.env)
        if not self.check(child.code == 0 and report_path.exists(),
                          f"traced job {index}: exit {child.code}\n{child.stderr[-2000:]}"):
            raise RuntimeError("traced job failed")
        report = json.loads(report_path.read_text())
        if self.workload == "serve-stream":
            self.verify_pass(inputs, report["pass"])
            report["wall_s"] = report["pass"]["wall_s"]
        else:
            self.check(
                report.get("exit_code", 0) == 0 and output.read_bytes() == inputs.reference,
                f"traced job {index}: output differs from the reference",
            )
            output.unlink()
            report["wall_s"] = child.wall_s
        return report

    def layer_metrics(self, inputs: Inputs, untraced, traced) -> dict:
        per_job = [layer_values(report) for report in traced]
        for report, values in zip(traced, per_job):
            values["trace.coverage"] = report["top_level_s"] / report["wall_s"]
        metrics = {}
        for name, unit in LAYER_UNITS.items():
            if name in per_job[0]:
                metrics[name] = (statistics.median(v[name] for v in per_job), unit, len(per_job))
        untraced_wall = statistics.median(job["wall_s"] for job in untraced)
        traced_wall = statistics.median(job["wall_s"] for job in traced)
        metrics["trace.overhead"] = (traced_wall / untraced_wall - 1.0, "ratio", len(traced))
        metrics["sim.gen_s"] = (inputs.gen_s, "s", 1)
        self.check_counts(per_job)
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"spans-{self.workload}-seed{self.seed}.json"
        spans_path.write_text(json.dumps({
            "workload": self.workload,
            "seed": self.seed,
            "fields": ["name", "start", "end", "parent", "job"],
            "jobs": [{"job": r["job"], "wall_s": r["wall_s"], "spans": r["spans"]} for r in traced],
        }))
        print(f"spans: {spans_path.relative_to(ROOT)}")
        return metrics

    def check_counts(self, per_job) -> None:
        """Exact counts must repeat across traced jobs and across runs.

        The cross-run record is keyed by :func:`code_key`, so only runs
        of the same code are compared; changed code starts a new record.
        """
        counts = [{name: values[name] for name in EXACT_COUNTS} for values in per_job]
        for job, other in enumerate(counts[1:], start=1):
            self.check(other == counts[0], f"traced job {job} counts differ: {other} != {counts[0]}")
        OUT.mkdir(exist_ok=True)
        path = OUT / f"counts-{self.workload}-seed{self.seed}-{code_key()[:16]}.json"
        if path.exists():
            earlier = json.loads(path.read_text())
            self.check(earlier == counts[0], f"counts differ from an earlier run: {counts[0]} != {earlier}")
        else:
            path.write_text(json.dumps(counts[0], sort_keys=True))

    # -- one run --

    def run(self) -> dict:
        calibration = [calibrate()]
        self.work.mkdir(parents=True)
        entry, meta, built_s = self.world_entry()
        setups = []
        for _ in range(1 if self.trace else SETUP_RUNS):
            shutil.rmtree(self.work, ignore_errors=True)
            started = time.perf_counter()
            inputs = self.setup(entry, meta)
            setups.append(time.perf_counter() - started)
        if self.trace:
            metrics = self.traced(inputs)
        else:
            metrics = self.measure(inputs, setups)
        calibration.append(calibrate())
        if self.trace:
            metrics["host.calibration_s"] = (statistics.fmean(calibration), "s", 2)
        host = host_record()
        host["calibration_s"] = calibration
        return {"host": host, "metrics": metrics, "world": (entry.name, built_s)}


#: per-layer metric -> unit; the traced run reports each of them
LAYER_UNITS = {
    "cli.startup_s": "s",
    "cli.emit_s": "s",
    "core.results.bytes": "bytes",
    "io.bundle.datasets_s": "s",
    "robust.ingest.parse_s": "s",
    "robust.ingest.records": "count",
    "robust.ingest.failed": "count",
    "traceroute.sanitize.busy_s": "s",
    "traceroute.sanitize.kept_ratio": "ratio",
    "graph.neighbors.fold_s": "s",
    "graph.othersides.busy_s": "s",
    "graph.addresses": "count",
    "perf.flat.fold_s": "s",
    "perf.flat.decode_s": "s",
    "perf.flat.bytes": "bytes",
    "perf.ingest.stream_fold_s": "s",
    "perf.ingest.blocks": "count",
    "perf.cache.load_s": "s",
    "perf.cache.hit_ratio": "ratio",
    "perf.cache.bytes": "bytes",
    "perf.graph.build_s": "s",
    "perf.pool.wait_s": "s",
    "perf.pool.shards": "count",
    "perf.flat.bundle_bytes": "bytes",
    "robust.supervise.retries": "count",
    "bgp.ip2as.lookups": "count",
    "bgp.ip2as.busy_s": "s",
    "core.engine.origins_s": "s",
    "core.engine.origin_hit_ratio": "ratio",
    "core.mapit.glue_s": "s",
    "core.add.busy_s": "s",
    "core.remove.busy_s": "s",
    "core.stub.busy_s": "s",
    "core.mapit.collect_s": "s",
    "core.mapit.iterations": "count",
    "sim.datasets_s": "s",
    "serve.daemon.ingest_s": "s",
    "serve.daemon.publish_s": "s",
    "serve.incremental.fold_s": "s",
    "serve.incremental.quiesce_s": "s",
    "serve.incremental.dirty_halves": "count",
    "serve.engine.invalidate_s": "s",
    "serve.checkpoint.write_s": "s",
    "serve.checkpoint.bytes": "bytes",
    "robust.journal.write_s": "s",
    "robust.journal.bytes": "bytes",
    "serve.api.links_by_address.busy_s": "s",
    "serve.api.links_by_as.busy_s": "s",
    "serve.api.explain.busy_s": "s",
    "sim.gen_s": "s",
    "host.calibration_s": "s",
    "trace.coverage": "ratio",
    "trace.overhead": "ratio",
}

#: per-layer busy metric -> the span names whose self time it sums
SELF_TIMES = {
    "cli.startup_s": ("cli.startup",),
    "cli.emit_s": ("cli.emit",),
    "io.bundle.datasets_s": ("io.bundle.load",),
    "robust.ingest.parse_s": ("robust.ingest",),
    "traceroute.sanitize.busy_s": ("traceroute.sanitize",),
    "graph.neighbors.fold_s": ("graph.neighbors",),
    "graph.othersides.busy_s": ("graph.othersides",),
    "perf.flat.fold_s": ("perf.flat.fold",),
    "perf.flat.decode_s": ("perf.flat.decode",),
    "perf.ingest.stream_fold_s": ("perf.ingest.stream_fold",),
    "perf.cache.load_s": ("perf.cache.load",),
    "perf.graph.build_s": ("perf.graph.build",),
    "perf.pool.wait_s": ("perf.pool.wait",),
    "bgp.ip2as.busy_s": ("bgp.ip2as",),
    "core.engine.origins_s": ("core.engine.origins",),
    "core.mapit.glue_s": ("core.mapit.pipeline", "core.mapit.run_graph"),
    "core.add.busy_s": ("core.add",),
    "core.remove.busy_s": ("core.remove",),
    "core.stub.busy_s": ("core.stub",),
    "core.mapit.collect_s": ("core.mapit.run",),
    "sim.datasets_s": ("sim.datasets",),
    "serve.daemon.ingest_s": ("serve.daemon.ingest",),
    "serve.daemon.publish_s": ("serve.daemon.quiesce",),
    "serve.incremental.fold_s": ("serve.incremental.fold",),
    "serve.incremental.quiesce_s": ("serve.incremental.quiesce",),
    "serve.engine.invalidate_s": ("serve.engine.invalidate",),
    "serve.checkpoint.write_s": ("serve.checkpoint",),
    "robust.journal.write_s": ("robust.journal",),
    "serve.api.links_by_address.busy_s": ("serve.api.links_by_address",),
    "serve.api.links_by_as.busy_s": ("serve.api.links_by_as",),
    "serve.api.explain.busy_s": ("serve.api.explain",),
}

COUNTS = (
    "core.results.bytes",
    "robust.ingest.records",
    "robust.ingest.failed",
    "graph.addresses",
    "perf.flat.bytes",
    "perf.ingest.blocks",
    "perf.cache.bytes",
    "perf.pool.shards",
    "perf.flat.bundle_bytes",
    "robust.supervise.retries",
    "bgp.ip2as.lookups",
    "core.mapit.iterations",
    "serve.incremental.dirty_halves",
    "serve.checkpoint.bytes",
    "robust.journal.bytes",
)


def _ratio(part, whole) -> float:
    return part / whole if whole else 0.0


def layer_values(report: dict) -> dict:
    """One traced job's per-layer numbers from its totals and counts."""
    totals, counts = report["totals"], report["counts"]
    values = {
        metric: sum(totals.get(name, (0, 0.0, 0.0))[2] for name in names)
        for metric, names in SELF_TIMES.items()
    }
    for name in COUNTS:
        values[name] = counts.get(name, 0)
    values["traceroute.sanitize.kept_ratio"] = _ratio(
        counts.get("traceroute.sanitize.kept", 0), counts.get("traceroute.sanitize.total", 0)
    )
    values["perf.cache.hit_ratio"] = _ratio(
        counts.get("perf.cache.hits", 0), counts.get("perf.cache.lookups", 0)
    )
    calls = counts.get("core.engine.origin_calls", 0)
    values["core.engine.origin_hit_ratio"] = _ratio(
        calls - counts.get("core.engine.origin_misses", 0), calls
    )
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no MAP-IT sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]
    # a terminated run still stops its jobs and removes its working files
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    bench = Bench(args.workload, args.seed, args.seconds, bool(args.trace))
    try:
        outcome = bench.run()
    finally:
        _stop_children()
        shutil.rmtree(bench.work, ignore_errors=True)
    host = outcome["host"]
    print(
        f"host: cpus={host['cpus']} usable={host['usable_cpus']} python={host['python']} "
        f"calibration_s start={host['calibration_s'][0]:.4f} end={host['calibration_s'][1]:.4f}"
    )
    print(f"workload: {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    world, built_s = outcome["world"]
    print(f"world: {world}" + (f", built in {built_s:.1f} s" if built_s else ", from the cache"))
    for name, (value, unit, samples) in outcome["metrics"].items():
        print(f"  {name} = {value:.6g} {unit} (n={samples})")
    fail_frac = bench.failed / bench.attempted if bench.attempted else 1.0
    print(f"  fail_frac = {fail_frac:.6g} ratio ({bench.failed}/{bench.attempted})")
    for problem in bench.problems:
        print(f"FAIL: {problem}")
    OUT.mkdir(exist_ok=True)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "host": host,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "problems": bench.problems,
        "samples": {name: bench.samples[name] for name in ("setup_s", "job_wall_s")
                    if name in bench.samples},
        "metrics": {
            name: {"value": value, "unit": unit, "samples": samples}
            for name, (value, unit, samples) in outcome["metrics"].items()
        },
    }
    (OUT / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2)
    )
    correct = bench.failed == 0 and bench.attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit, _) in outcome["metrics"].items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
