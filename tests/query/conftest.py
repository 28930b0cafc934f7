"""Shared harness for the query-layer suite.

``parse_graph_table`` turns the compact ``"n=6: 0-1 0-2 ..."`` notation
the spec tables use into a :class:`Graph`; ``build_engine`` constructs a
:class:`QueryEngine` restricted to exactly one execution backend, which
is how the conformance table asserts operator-by-operator agreement
across all of them.
"""

import pytest

from repro.baselines.apsp_matrix import CountMatrixOracle
from repro.core.index import SPCIndex
from repro.graph.graph import Graph
from repro.query import QueryEngine

INF = float("inf")

#: Every exact answerer the conformance table runs each operator against.
#: "matrix" and "oracle" both answer through the duck-typed oracle backend:
#: one is the paper's dense count-matrix baseline, the other an SPCIndex.
BACKEND_KINDS = ("flat", "bfs", "bfs-csr", "matrix", "oracle")


def parse_graph_table(spec):
    """``"n=6: 0-1 2-3"`` -> Graph with 6 vertices and those edges."""
    head, _, edge_text = spec.partition(":")
    n = int(head.strip().split("=")[1])
    edges = []
    for token in edge_text.split():
        u, _, v = token.partition("-")
        edges.append((int(u), int(v)))
    return Graph.from_edges(n, edges)


def build_engine(kind, graph, index=None):
    """A QueryEngine forced onto one backend (``only`` planner filter).

    ``index`` is a prebuilt :class:`SPCIndex` of ``graph`` for the
    ``flat`` and ``oracle`` kinds (built here when ``None``).
    """
    if kind in ("flat", "oracle") and index is None:
        index = SPCIndex.build(graph)
    if kind == "flat":
        return QueryEngine(index=index)
    if kind == "bfs":
        return QueryEngine(graph=graph, backends=("bfs",))
    if kind == "bfs-csr":
        return QueryEngine(graph=graph, backends=("bfs",), bfs_engine="csr")
    if kind == "matrix":
        return QueryEngine(oracle=CountMatrixOracle.build(graph), n=graph.n)
    if kind == "oracle":
        return QueryEngine(oracle=index, n=graph.n)
    raise ValueError(f"unknown backend kind {kind!r}")


@pytest.fixture(scope="module")
def engine_for():
    """Memoising engine factory: one engine per (kind, graph spec)."""
    cache = {}

    def factory(kind, spec):
        key = (kind, spec)
        if key not in cache:
            cache[key] = build_engine(kind, parse_graph_table(spec))
        return cache[key]

    return factory
