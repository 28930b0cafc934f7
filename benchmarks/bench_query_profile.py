"""Query-cost profile: time vs pair distance, and batch primitives.

Complements the paper's single average-query-time numbers: stratifies
the workload by true pair distance, and measures the hub-major
single-source sweep (:meth:`SPCIndex.single_source`) against issuing n
separate pair queries.
"""

import pytest

from benchmarks.conftest import run_queries
from repro.bench.workloads import stratified_query_workload
from repro.core.index import SPCIndex


@pytest.fixture(scope="module")
def profile_setup(datasets):
    graph = datasets["FB"]
    index = SPCIndex.build(graph, ordering="significant-path")
    buckets = stratified_query_workload(graph, per_bucket=100, seed=11)
    return graph, index, buckets


@pytest.mark.parametrize("distance", [1, 2, 3])
def test_query_time_by_distance(benchmark, profile_setup, distance):
    _, index, buckets = profile_setup
    pairs = buckets.get(distance)
    if not pairs:
        pytest.skip(f"no pairs at distance {distance} in this analog")
    benchmark.extra_info["pairs"] = len(pairs)
    benchmark(run_queries, index, pairs)


def test_single_source_sweep(benchmark, profile_setup):
    graph, index, _ = profile_setup
    sources = list(range(0, graph.n, max(1, graph.n // 20)))

    def sweep():
        for s in sources:
            index.single_source(s)

    benchmark(sweep)
    benchmark.extra_info["sources"] = len(sources)


def test_pairwise_equivalent_of_sweep(benchmark, profile_setup):
    graph, index, _ = profile_setup
    sources = list(range(0, graph.n, max(1, graph.n // 20)))

    def pairwise():
        for s in sources:
            for t in range(graph.n):
                index.count_with_distance(s, t)

    benchmark.pedantic(pairwise, rounds=1, iterations=1)


def test_sweep_matches_pairwise(profile_setup):
    graph, index, _ = profile_setup
    for s in (0, graph.n // 2):
        dist, count = index.single_source(s)
        for t in range(0, graph.n, 7):
            assert (dist[t], count[t]) == index.count_with_distance(s, t)
