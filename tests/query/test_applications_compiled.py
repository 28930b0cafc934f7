"""The applications drivers compile through the query layer unchanged.

Each driver's numbers must be bit-identical to the pre-query-layer
implementation (replicated inline here as the reference), and the
drivers must demonstrably go through the planner — asserted via the
``spc_query_plans_total`` metric family.
"""

from repro.applications.betweenness import (
    brandes_betweenness,
    pair_dependency,
    sampled_betweenness,
)
from repro.applications.centrality import all_closeness, all_harmonic
from repro.applications.group_betweenness import (
    GroupBetweennessEvaluator,
    group_betweenness_exact,
    group_betweenness_oracle,
    pairwise_matrices,
    spc_through_group,
)
from repro.applications.relevance import most_relevant, relevance_ranking
from repro.core.index import SPCIndex
from repro.generators.random_graphs import barabasi_albert_graph
from repro.observability.metrics import MetricsRegistry, scoped_registry
from repro.utils.rng import ensure_rng

INF = float("inf")


def _reference_sampled(oracle, n, vertices=None, samples=500, seed=0):
    """The pre-query-layer estimator, verbatim, as the bit-identity bar."""
    if n < 2:
        return {v: 0.0 for v in (vertices or range(n))}
    rng = ensure_rng(seed)
    targets = list(vertices) if vertices is not None else list(range(n))
    totals = {v: 0.0 for v in targets}
    for _ in range(samples):
        s = rng.randrange(n)
        t = rng.randrange(n)
        while t == s:
            t = rng.randrange(n)
        for v in targets:
            totals[v] += pair_dependency(oracle, s, t, v)
    scale = (n * (n - 1) / 2.0) / samples
    return {v: total * scale for v, total in totals.items()}


def _graph_and_index():
    graph = barabasi_albert_graph(40, 2, seed=3)
    return graph, SPCIndex.build(graph)


class TestSampledBetweenness:
    def test_bit_identical_to_reference(self):
        graph, index = _graph_and_index()
        got = sampled_betweenness(index, graph.n, samples=80, seed=5)
        want = _reference_sampled(index, graph.n, samples=80, seed=5)
        assert got == want  # identical floats, not approximately

    def test_vertex_subset(self):
        graph, index = _graph_and_index()
        subset = [1, 7, 20]
        got = sampled_betweenness(index, graph.n, vertices=subset,
                                  samples=40, seed=2)
        want = _reference_sampled(index, graph.n, vertices=subset,
                                  samples=40, seed=2)
        assert got == want

    def test_tracks_exact_ranking_loosely(self):
        graph, index = _graph_and_index()
        exact = brandes_betweenness(graph)
        estimate = sampled_betweenness(index, graph.n, samples=600, seed=0)
        top_exact = max(range(graph.n), key=lambda v: exact[v])
        assert estimate[top_exact] > 0


class TestRelevance:
    def test_ranking_convention(self):
        graph, index = _graph_and_index()
        ranked = relevance_ranking(index, 0, [5, 11, 23])
        expected = sorted(
            ((v,) + index.count_with_distance(0, v) for v in (5, 11, 23)),
            key=lambda row: (row[1], -row[2], row[0]),
        )
        assert ranked == expected
        assert most_relevant(index, 0, [5, 11, 23]) == ranked[0][0]


class TestCentrality:
    def test_sweep_values_unchanged(self):
        graph, index = _graph_and_index()
        closeness = all_closeness(index)
        harmonic = all_harmonic(index)
        for v in (0, 7, 39):
            dist, _ = index.single_source(v)
            dist = dist.tolist()
            reachable = [d for d in dist if d != INF]
            expected = 0.0
            if len(reachable) > 1 and sum(reachable) > 0:
                expected = (len(reachable) - 1) / sum(reachable)
                expected *= (len(reachable) - 1) / (len(dist) - 1)
            assert closeness[v] == expected
            assert harmonic[v] == sum(
                1.0 / d for u, d in enumerate(dist)
                if u != v and d != INF and d > 0
            )


class TestGroupBetweenness:
    def test_oracle_matches_exact(self):
        graph, index = _graph_and_index()
        group = [4, 9]
        pairs = [(0, 7), (1, 12), (3, 30), (6, 6), (4, 8)]
        got = group_betweenness_oracle(index, group, pairs)
        want = group_betweenness_exact(graph, group, pairs)
        assert got == want

    def test_evaluator_matches_free_function(self):
        _, index = _graph_and_index()
        pairs = [(0, 7), (1, 12), (3, 30)]
        evaluator = GroupBetweennessEvaluator(index, pairs)
        group = [4, 9, 15]
        assert evaluator.evaluate(group) == \
            group_betweenness_oracle(index, group, pairs)
        prefixes = evaluator.evaluate_incrementally(group)
        assert prefixes[-1] == evaluator.evaluate(group)

    def test_spc_through_group_duplicates_and_matrices(self):
        _, index = _graph_and_index()
        total, through = spc_through_group(index, 0, 12, [5, 5])
        total_once, through_once = spc_through_group(index, 0, 12, [5])
        assert (total, through) == (total_once, through_once)
        distance, sigma = pairwise_matrices(index, [0, 5, 12])
        assert distance[(0, 0)] == 0 and sigma[(0, 0)] == 1
        assert distance[(0, 12)] == index.count_with_distance(0, 12)[0]


class TestDriversUseThePlanner:
    def test_plans_are_recorded(self):
        graph, index = _graph_and_index()
        with scoped_registry(MetricsRegistry()) as registry:
            sampled_betweenness(index, graph.n, samples=5, seed=0)
            relevance_ranking(index, 0, [5, 11])
            all_harmonic(index)
            group_betweenness_oracle(index, [4], [(0, 7)])

            def planned(operator):
                return registry.counter(
                    "spc_query_plans_total", operator=operator
                ).value

            assert planned("topk_betweenness") == 1
            assert planned("relevance") == 1
            assert planned("single_source") == graph.n
            assert planned("batch") >= 1
            assert registry.sum_values(
                "spc_query_backends_chosen_total") > 0
