"""Runtime scaling of the pipeline's hot components.

Not a paper table — engineering benchmarks for the substrate: LPM trie
lookups, trace sanitization, neighbor-set extraction, the full MAP-IT
loop, and the ``repro.perf`` execution layer (the columnar load path
behind ``--jobs``, and the binary parsed-bundle cache) on the dense
preset.

Standalone mode::

    PYTHONPATH=src python benchmarks/bench_scaling.py --smoke

times ``jobs=1`` against ``jobs=4`` end-to-end (columnar load), asserts
byte-identity, and exits non-zero when ``jobs=4`` runs slower than
``jobs=1`` by more than ``--tolerance`` (default 1.10, i.e. parallel
overhead must stay within 10% even on a single-CPU runner).
"""

import os
import random
import time

from conftest import PAPER_SEED, publish

from repro import MapIt, MapItConfig
from repro.graph.neighbors import build_interface_graph
from repro.net.prefix import prefix_of
from repro.net.trie import PrefixTrie
from repro.traceroute.sanitize import sanitize_traces


def test_trie_lookup_throughput(benchmark):
    rng = random.Random(0)
    trie = PrefixTrie()
    for index in range(20_000):
        trie.insert(prefix_of(rng.getrandbits(32), rng.randint(8, 24)), index)
    queries = [rng.getrandbits(32) for _ in range(10_000)]

    def lookup_all():
        return sum(1 for query in queries if trie.lookup_value(query) is not None)

    hits = benchmark(lookup_all)
    assert hits > 0


def test_sanitize_throughput(benchmark, paper_experiment):
    traces = paper_experiment.scenario.traces

    def run():
        return sanitize_traces(traces)

    report = benchmark(run)
    assert report.traces


def test_neighbor_extraction(benchmark, paper_experiment):
    report = paper_experiment.report

    def run():
        return build_interface_graph(
            report.traces, all_addresses=report.all_addresses
        )

    graph = benchmark(run)
    assert graph.addresses()


def test_mapit_full_run(benchmark, paper_experiment):
    scenario = paper_experiment.scenario

    def run():
        return MapIt(
            paper_experiment.graph,
            scenario.ip2as,
            org=scenario.as2org,
            rel=scenario.relationships,
            config=MapItConfig(f=0.5),
        ).run()

    result = benchmark.pedantic(run, rounds=2, iterations=1)
    assert result.inferences


def test_parallel_jobs_and_cache_sweep(tmp_path_factory):
    """End-to-end sweep of the perf layer on the dense preset: worker
    counts 1/2/4/8 through the columnar load path, plus binary
    cache cold/warm, asserting every configuration reproduces the
    serial result byte-for-byte and publishing the timings (with the
    host's CPU count — speedups are physically capped by it) to
    ``benchmarks/results/scaling_parallel.txt``."""
    from repro.io import load_bundle, save_scenario
    from repro.sim.presets import dense_scenario

    root = save_scenario(
        dense_scenario(seed=PAPER_SEED),
        tmp_path_factory.mktemp("scaling-parallel") / "ds",
    )
    config = MapItConfig(f=0.5)
    rows = []
    baseline = None
    base_total = None
    trace_count = 0
    for jobs in (1, 2, 4, 8):
        start = time.perf_counter()
        bundle = load_bundle(root, jobs=jobs)
        loaded = time.perf_counter()
        result = bundle.run_mapit(config, jobs=jobs)
        done = time.perf_counter()
        output = result.to_json()
        if baseline is None:
            baseline, base_total = output, done - start
            trace_count = len(bundle.traces)
        else:
            assert output == baseline, f"jobs={jobs} diverged from serial"
        rows.append(
            {
                "config": f"jobs={jobs}",
                "load_s": f"{loaded - start:.3f}",
                "mapit_s": f"{done - loaded:.3f}",
                "total_s": f"{done - start:.3f}",
                "speedup": f"{base_total / (done - start):.2f}x",
            }
        )
    cache = root.parent / "cache"
    for label in ("cache cold", "cache warm"):
        start = time.perf_counter()
        bundle = load_bundle(root, cache=cache)
        loaded = time.perf_counter()
        result = bundle.run_mapit(config)
        done = time.perf_counter()
        assert result.to_json() == baseline, f"{label} diverged from serial"
        rows.append(
            {
                "config": label,
                "load_s": f"{loaded - start:.3f}",
                "mapit_s": f"{done - loaded:.3f}",
                "total_s": f"{done - start:.3f}",
                "speedup": f"{base_total / (done - start):.2f}x",
            }
        )
    publish(
        "scaling_parallel",
        f"Perf layer: --jobs (columnar loader) and binary cache sweep, dense "
        f"preset seed {PAPER_SEED} ({trace_count} traces, {os.cpu_count()} "
        f"CPU(s) available)",
        rows,
    )


def _smoke(tolerance: float, seed: int, repeats: int = 3) -> int:
    """Standalone CI gate: jobs=4 must stay within *tolerance* of jobs=1.

    Times the end-to-end pipeline (columnar load + inference) best-of-
    *repeats* for each worker count, asserts byte-identity, and returns
    a non-zero exit code when parallel overhead exceeds the budget.
    """
    import tempfile
    from pathlib import Path

    from repro.io import load_bundle, save_scenario
    from repro.sim.presets import dense_scenario

    config = MapItConfig(f=0.5)
    with tempfile.TemporaryDirectory(prefix="mapit-smoke-") as tmp:
        root = save_scenario(dense_scenario(seed=seed), Path(tmp) / "ds")
        outputs = {}
        best = {}
        for jobs in (1, 4):
            best[jobs] = float("inf")
            for _ in range(repeats):
                start = time.perf_counter()
                bundle = load_bundle(root, jobs=jobs)
                result = bundle.run_mapit(config, jobs=jobs)
                best[jobs] = min(best[jobs], time.perf_counter() - start)
            outputs[jobs] = result.to_json()
    print(f"smoke: dense preset seed {seed}, {os.cpu_count()} CPU(s), best of {repeats}")
    for jobs in (1, 4):
        print(f"  jobs={jobs}  total {best[jobs]:.3f}s")
    if outputs[4] != outputs[1]:
        print("FAIL: jobs=4 output diverged from jobs=1")
        return 1
    ratio = best[4] / best[1]
    budget = tolerance
    print(f"  ratio jobs4/jobs1 = {ratio:.2f} (budget {budget:.2f})")
    if ratio > budget:
        print(f"FAIL: jobs=4 is {ratio:.2f}x jobs=1 (allowed {budget:.2f}x)")
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="run the jobs=4-vs-jobs=1 regression gate and exit",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=1.10,
        help="maximum allowed jobs=4/jobs=1 runtime ratio (default 1.10)",
    )
    parser.add_argument("--seed", type=int, default=PAPER_SEED)
    arguments = parser.parse_args()
    if not arguments.smoke:
        parser.error("the full sweep runs under pytest; --smoke is the standalone mode")
    raise SystemExit(_smoke(arguments.tolerance, arguments.seed))
