"""Serving reads SPCF label columns only: no tuple thaw, no SPCL files."""

import pytest

from repro.core.flat_labels import FlatLabels
from repro.core.hp_spc import build_labels
from repro.core.index import SPCIndex
from repro.exceptions import SerializationError
from repro.generators.random_graphs import barabasi_albert_graph
from repro.graph.traversal import spc_bfs
from repro.io.serialize import WIDE_BITS, save_index, save_labels
from repro.resilience import ResilientSPCIndex
from repro.serving import SERVED_DEGRADED, SPCService

PAIRS = [(0, 50), (3, 41), (12, 12), (7, 59)]


@pytest.fixture(scope="module")
def graph():
    return barabasi_albert_graph(60, 2, seed=3)


@pytest.fixture
def spcl_path(tmp_path, graph):
    # The wide packed SPCL layout a --weighted build writes.
    path = tmp_path / "labels.spcl"
    save_labels(build_labels(graph), path, bits=WIDE_BITS, graph=graph)
    return path


def refuse_conversions(monkeypatch):
    def refuse(*_args):
        raise AssertionError("a serving path converted between label forms")

    monkeypatch.setattr(FlatLabels, "to_label_set", refuse)
    monkeypatch.setattr(FlatLabels, "from_label_set", classmethod(refuse))


def test_reload_serves_columns_without_conversion(graph, tmp_path, monkeypatch):
    path = tmp_path / "index.spcf"
    save_index(SPCIndex.build(graph, engine="csr"), path, graph=graph)
    refuse_conversions(monkeypatch)
    resilient = ResilientSPCIndex(graph, index_path=path)
    assert resilient.reload()
    assert resilient.status == "index"
    truth = [spc_bfs(graph, s, t) for s, t in PAIRS]
    assert [resilient.count_with_distance(s, t) for s, t in PAIRS] == truth
    assert resilient.count_many(PAIRS) == truth
    dist, count = resilient.single_source(7)
    assert (dist[59], count[59]) == truth[3]
    assert resilient.counters["fallback_queries"] == 0


def test_resilient_refuses_spcl_and_answers_by_bfs(graph, spcl_path):
    resilient = ResilientSPCIndex(graph, index_path=spcl_path)
    assert resilient.status == "degraded"
    assert isinstance(resilient.last_error, SerializationError)
    assert resilient.counters["load_failures"] == 1
    truth = [spc_bfs(graph, s, t) for s, t in PAIRS]
    assert [resilient.count_with_distance(s, t) for s, t in PAIRS] == truth
    assert resilient.count_many(PAIRS) == truth
    assert resilient.counters["fallback_queries"] == 2 * len(PAIRS)


def test_service_refuses_spcl_and_answers_by_bfs(graph, spcl_path):
    service = SPCService(graph, index_path=spcl_path)
    health = service.health()
    assert health["status"] == "degraded"
    assert health["index"]["last_error"].startswith("SerializationError")
    for s, t in PAIRS:
        result = service.submit(s, t)
        assert result.status == SERVED_DEGRADED
        assert result.answer == spc_bfs(graph, s, t)
