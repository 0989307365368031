"""Runtime scaling of the pipeline's hot components.

Not a paper table — engineering benchmarks for the substrate: LPM trie
and flat address-table lookups, trace sanitization, neighbor-set extraction, the full MAP-IT
loop, and the ``repro.perf`` execution layer (the columnar load path
behind ``--jobs``, and the binary parsed-bundle cache) on the dense
preset.

Standalone mode::

    PYTHONPATH=src python benchmarks/bench_scaling.py --smoke

times ``jobs=1`` against ``jobs=4`` end-to-end (columnar load), asserts
byte-identity, and exits non-zero when ``jobs=4`` runs slower than
``jobs=1`` by more than ``--tolerance`` (default 1.10, i.e. parallel
overhead must stay within 10% even on a single-CPU runner).  It also
exits non-zero when the flat address table answers any of the lookup
benchmark's queries differently from the trie, or answers them less
than ``TABLE_MIN_SPEEDUP`` times faster.
"""

import os
import random
import time

from conftest import PAPER_SEED, publish

from repro import MapIt, MapItConfig
from repro.graph.neighbors import build_interface_graph
from repro.net.prefix import prefix_of
from repro.net.table import BGP, AddressTable
from repro.net.trie import PrefixTrie
from repro.traceroute.sanitize import sanitize_traces

#: the smoke gate's floor on trie time / table time for the lookup set
TABLE_MIN_SPEEDUP = 3.0


def _lookup_set():
    """20k random prefixes (in a trie, and flattened into a table that
    answers -1 where the trie has no match) and 10k random queries."""
    rng = random.Random(0)
    trie = PrefixTrie()
    for index in range(20_000):
        trie.insert(prefix_of(rng.getrandbits(32), rng.randint(8, 24)), index)
    queries = [rng.getrandbits(32) for _ in range(10_000)]
    table = AddressTable.build(
        [((address, length, index, BGP) for address, length, index in trie.raw_items())],
        default_asn=-1,
    )
    return trie, table, queries


def _trie_answers(trie, queries):
    return [trie.lookup_value(query) for query in queries]


def _table_answers(table, queries):
    return [table.asn(query) for query in queries]


def test_trie_lookup_throughput(benchmark):
    trie, _, queries = _lookup_set()

    def lookup_all():
        return sum(1 for query in queries if trie.lookup_value(query) is not None)

    hits = benchmark(lookup_all)
    assert hits > 0


def test_table_lookup_throughput(benchmark):
    trie, table, queries = _lookup_set()

    def lookup_all():
        return sum(1 for query in queries if table.asn(query) != -1)

    hits = benchmark(lookup_all)
    assert hits == sum(1 for query in queries if trie.lookup_value(query) is not None)


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


def _table_smoke(repeats: int) -> int:
    """The lookup set through the trie and the table: identical answers
    (uncovered is None in one, -1 in the other), and the table at least
    :data:`TABLE_MIN_SPEEDUP` times faster, best of *repeats*."""
    trie, table, queries = _lookup_set()
    best = {"trie": float("inf"), "table": float("inf")}
    answers = {}
    # alternate the two so a burst of host load hits both alike
    for _ in range(repeats):
        for name, answer, structure in (
            ("trie", _trie_answers, trie),
            ("table", _table_answers, table),
        ):
            start = time.perf_counter()
            answers[name] = answer(structure, queries)
            best[name] = min(best[name], time.perf_counter() - start)
    if answers["table"] != [-1 if value is None else value for value in answers["trie"]]:
        print("FAIL: the address table and the trie disagree")
        return 1
    speedup = best["trie"] / best["table"]
    print(
        f"  lookups: trie {best['trie'] * 1e3:.1f}ms, table {best['table'] * 1e3:.1f}ms "
        f"for {len(queries)} queries over {len(table)} intervals "
        f"({speedup:.1f}x, floor {TABLE_MIN_SPEEDUP:.1f}x)"
    )
    if speedup < TABLE_MIN_SPEEDUP:
        print(f"FAIL: the table is only {speedup:.1f}x the trie")
        return 1
    return 0


def _smoke(tolerance: float, seed: int, repeats: int = 3) -> int:
    """Standalone CI gate: jobs=4 must stay within *tolerance* of jobs=1,
    and the address table must match the trie and beat it (see
    :func:`_table_smoke`).

    Times the end-to-end pipeline (columnar load + inference) best-of-
    *repeats* for each worker count, the two counts interleaved, asserts
    byte-identity, and returns a non-zero exit code when parallel
    overhead exceeds the budget.
    """
    import tempfile
    from pathlib import Path

    from repro.io import load_bundle, save_scenario
    from repro.sim.presets import dense_scenario

    config = MapItConfig(f=0.5)
    with tempfile.TemporaryDirectory(prefix="mapit-smoke-") as tmp:
        root = save_scenario(dense_scenario(seed=seed), Path(tmp) / "ds")
        outputs = {}
        best = {1: float("inf"), 4: float("inf")}
        # interleave the two (1, 4, 1, 4, ...) so host drift hits both alike
        for _ in range(repeats):
            for jobs in (1, 4):
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
    if _table_smoke(2 * repeats + 1):
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="run the jobs=4-vs-jobs=1 and table-vs-trie regression gates and exit",
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
