"""Compiled queries through the serving tier.

``SPCService.submit`` is now ``submit_query(Count(s, t))``; any AST node
runs under the same admission/deadline/breaker envelope and maps
failures onto the same terminal statuses. ``ClusterService.submit_query``
routes native operators onto the scatter-gather entry points and
compiles composite nodes (relevance, top-k) over cluster requests.
"""

import pytest

from repro.core.index import SPCIndex
from repro.generators.random_graphs import barabasi_albert_graph
from repro.graph.traversal import spc_bfs
from repro.io.flat_store import save_flat_labels
from repro.query import (
    Batch,
    Count,
    Distance,
    PathExists,
    Relevance,
    SetToSet,
    SingleSource,
    TopKBetweenness,
)
from repro.serving import INVALID, SERVED_DEGRADED, SERVED_INDEX, SPCService

INF = float("inf")
N = 60


@pytest.fixture(scope="module")
def graph():
    return barabasi_albert_graph(N, 2, seed=7)


@pytest.fixture(scope="module")
def index(graph):
    return SPCIndex.build(graph)


class TestServiceSubmitQuery:
    def test_submit_is_a_count_query(self, graph, index):
        service = SPCService(graph, index=index)
        result = service.submit(3, 41)
        assert result.status == SERVED_INDEX
        assert result.answer == spc_bfs(graph, 3, 41)
        node_result = service.submit_query(Count(3, 41))
        assert node_result.answer == result.answer

    def test_every_operator_serves(self, graph, index):
        service = SPCService(graph, index=index)
        assert service.submit_query(Distance(0, 9)).answer == \
            spc_bfs(graph, 0, 9)[0]
        assert service.submit_query(PathExists(0, 9)).answer is True
        dist, count = service.submit_query(SingleSource(5)).answer
        assert (dist[9], count[9]) == spc_bfs(graph, 5, 9)
        s2s = service.submit_query(SetToSet((0, 1), (40, 41))).answer
        assert s2s[1] >= 1
        ranked = service.submit_query(Relevance(0, (9, 17, 33))).answer
        assert {row[0] for row in ranked} == {9, 17, 33}
        top = service.submit_query(TopKBetweenness(k=3, samples=30)).answer
        assert len(top) == 3

    def test_batch_submits_as_one_request(self, graph, index):
        service = SPCService(graph, index=index)
        result = service.submit_query(
            Batch((Count(0, 9), Distance(1, 7), PathExists(2, 5)))
        )
        assert result.status == SERVED_INDEX
        assert result.answer == (
            spc_bfs(graph, 0, 9),
            spc_bfs(graph, 1, 7)[0],
            spc_bfs(graph, 2, 5)[1] > 0,
        )
        # One admission for the whole batch.
        assert service.counters["requests"] == 1

    def test_vertex_error_maps_to_invalid(self, graph, index):
        service = SPCService(graph, index=index)
        result = service.submit_query(Batch((Count(0, 1), Count(0, N))))
        assert result.status == INVALID
        assert service.counters[INVALID] == 1

    def test_degraded_service_still_answers(self, graph):
        service = SPCService(graph)  # no index at all: BFS path
        result = service.submit_query(Count(4, 23))
        assert result.status == SERVED_DEGRADED
        assert result.answer == spc_bfs(graph, 4, 23)


class TestClusterSubmitQuery:
    @pytest.fixture(scope="class")
    def cluster(self, graph, index, tmp_path_factory):
        from repro.serving import ClusterService

        path = tmp_path_factory.mktemp("query_cluster") / "labels.spcf"
        save_flat_labels(index.to_flat(), path)
        with ClusterService(str(path), workers=2, graph=graph) as service:
            yield service

    def test_pair_operators(self, cluster, graph):
        result = cluster.submit_query(Count(3, 41))
        assert result.ok
        assert tuple(result.answer) == spc_bfs(graph, 3, 41)
        assert cluster.submit_query(Distance(3, 41)).answer == \
            spc_bfs(graph, 3, 41)[0]
        assert cluster.submit_query(PathExists(3, 41)).answer is True

    def test_pair_batch_is_one_round_trip(self, cluster, graph):
        nodes = Batch((Count(0, 9), Distance(1, 7), PathExists(2, 5)))
        result = cluster.submit_query(nodes)
        assert result.ok
        assert result.answer == (
            spc_bfs(graph, 0, 9),
            spc_bfs(graph, 1, 7)[0],
            spc_bfs(graph, 2, 5)[1] > 0,
        )

    def test_sharded_sweeps(self, cluster, graph):
        dist, count = cluster.submit_query(SingleSource(5)).answer
        assert (dist[9], count[9]) == spc_bfs(graph, 5, 9)
        answer = cluster.submit_query(SetToSet((0, 1), (40, 41))).answer
        assert answer[1] >= 1

    def test_composite_relevance(self, cluster, index):
        result = cluster.submit_query(Relevance(0, (9, 17, 33)))
        assert result.ok
        expected = sorted(
            ((v,) + index.count_with_distance(0, v) for v in (9, 17, 33)),
            key=lambda row: (row[1], -row[2], row[0]),
        )
        assert list(result.answer) == expected

    def test_invalid_vertex(self, cluster):
        assert cluster.submit_query(Count(0, N)).status == INVALID
        assert cluster.submit_query(Relevance(0, (N,))).status == INVALID
