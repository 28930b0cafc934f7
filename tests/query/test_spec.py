"""Table-driven operator conformance: one spec row, every backend.

Each row specifies an operator in the compact textual form plus its
expected answer on the spec graph; the test matrix runs every row
against every exact backend (flat labels, python BFS, CSR BFS, and the
dense count-matrix baseline and an index behind the duck-typed oracle
backend) and asserts bit-identical answers.
Rows with ``expected=None`` (the sampled estimator) are checked for
cross-backend agreement against the BFS reference instead of a pinned
literal. A hypothesis sweep then generates random graphs and random
plans and asserts the same agreement property, plus that a batch's
answer lines up child by child with running each child alone.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tests.query.conftest import BACKEND_KINDS, build_engine

from repro.exceptions import LabelingError
from repro.graph.graph import Graph
from repro.query import (
    Batch,
    Count,
    Distance,
    PathExists,
    Relevance,
    SetToSet,
    SingleSource,
    parse_query,
)

INF = float("inf")

#: Diamond with a tail and an isolated vertex: two shortest 0-3 paths,
#: vertex 4 behind the diamond, vertex 5 disconnected.
SPEC_GRAPH = "n=6: 0-1 0-2 1-3 2-3 3-4"

SPEC = (
    # -- count: (sd, spc); (0, 1) diagonal; (inf, 0) disconnected ------
    ("count 0 3", (2, 2)),
    ("count 3 0", (2, 2)),
    ("count 0 4", (3, 2)),
    ("count 0 0", (0, 1)),
    ("count 0 5", (INF, 0)),
    # -- distance --------------------------------------------------------
    ("distance 0 3", 2),
    ("distance 2 2", 0),
    ("distance 4 5", INF),
    # -- exists ----------------------------------------------------------
    ("exists 0 4", True),
    ("exists 4 5", False),
    ("exists 5 5", True),
    # -- single-source ---------------------------------------------------
    ("single-source 0", ((0, 1, 1, 2, 3, INF), (1, 1, 1, 2, 2, 0))),
    ("single-source 5", ((INF, INF, INF, INF, INF, 0), (0, 0, 0, 0, 0, 1))),
    # -- set-to-set ------------------------------------------------------
    ("set 0,1 -> 3,4", (1, 1)),
    ("set 0 -> 5", (INF, 0)),
    ("set 1,2 -> 0,3", (1, 4)),
    # -- relevance -------------------------------------------------------
    ("relevance 0 3,1,5", ((1, 1, 1), (3, 2, 2), (5, INF, 0))),
    ("relevance 3 1,2", ((1, 1, 1), (2, 1, 1))),
    # -- batches ---------------------------------------------------------
    ("count 0 3; distance 1 3; exists 0 5", ((2, 2), 1, False)),
    ("single-source 5; count 4 0", (((INF, INF, INF, INF, INF, 0),
                                     (0, 0, 0, 0, 0, 1)), (3, 2))),
    # -- sampled top-k: pinned (samples, seed) must agree everywhere ----
    ("topk 3 samples=60 seed=2", None),
    ("topk all samples=40 seed=0 vertices=1,2,3", None),
)


@pytest.fixture(scope="module")
def reference(engine_for):
    return engine_for("bfs", SPEC_GRAPH)


@pytest.mark.parametrize("kind", BACKEND_KINDS)
@pytest.mark.parametrize("expr,expected", SPEC, ids=[row[0] for row in SPEC])
def test_operator_conformance(kind, expr, expected, engine_for, reference):
    node = parse_query(expr)
    answer = engine_for(kind, SPEC_GRAPH).run(node)
    if expected is None:
        expected = reference.run(node)
    assert answer == expected


#: Two chains of 32 diamonds meeting at one hub (``diamond_chains_through_
#: hub``): the free ends 0 and 97 have 2^64 shortest paths, past int64.
#: Single-source rows are pinned at target 97; every row must also match
#: the BFS reference in full.
DIAMOND_TARGET = 97

DIAMOND_SPEC = (
    ("count 0 97", (130, 2 ** 64)),
    ("count 97 0", (130, 2 ** 64)),
    ("single-source 0", (130, 2 ** 64)),
    ("single-source 97", (0, 1)),
    ("set 0 -> 97", (130, 2 ** 64)),
    ("set 0,1 -> 97,96", None),
    ("set 0,4 -> 97", None),
)


@pytest.fixture(scope="module")
def diamond_engines():
    from tests.conftest import diamond_chains_through_hub

    graph, _, _ = diamond_chains_through_hub()
    cache = {}

    def factory(kind):
        if kind not in cache:
            cache[kind] = build_engine(kind, graph)
        return cache[kind]

    return factory


@pytest.mark.parametrize("kind", BACKEND_KINDS)
@pytest.mark.parametrize("expr,expected", DIAMOND_SPEC,
                         ids=[row[0] for row in DIAMOND_SPEC])
def test_counts_past_int64(kind, expr, expected, diamond_engines):
    node = parse_query(expr)
    if kind == "bfs-csr":
        # The int64 csr BFS kernel reports it cannot answer; never wraps.
        with pytest.raises(LabelingError):
            diamond_engines(kind).run(node)
        return
    answer = diamond_engines(kind).run(node)
    assert answer == diamond_engines("bfs").run(node)
    if expected is not None:
        if isinstance(node, SingleSource):
            answer = tuple(column[DIAMOND_TARGET] for column in answer)
        assert answer == expected


#: Square grids, corner to corner: ``C(2(k-1), k-1)`` shortest paths of
#: length ``2(k-1)``. The 34x34 count fits int64, the 35x35 one is past
#: 2^64. Rows name the label construction engine: the csr engine's int64
#: guard refuses the 35x35 grid, the python engine carries exact ints.
GRID_SPEC = (
    (34, (66, 7219428434016265740), "csr"),
    (35, (68, 28453041475240576740), "python"),
)


@pytest.fixture(scope="module")
def grid_engines():
    """Memoising engine factory over the spec grids; ``flat`` and
    ``oracle`` share one index per grid."""
    from repro.core.index import SPCIndex
    from repro.generators.classic import grid_graph

    cache = {}

    def factory(kind, side, engine):
        if (kind, side) not in cache:
            graph = grid_graph(side, side)
            index = None
            if kind in ("flat", "oracle"):
                if (None, side) not in cache:
                    cache[None, side] = SPCIndex.build(graph, engine=engine)
                index = cache[None, side]
            cache[kind, side] = build_engine(kind, graph, index=index)
        return cache[kind, side]

    return factory


@pytest.mark.parametrize("kind", BACKEND_KINDS)
@pytest.mark.parametrize("side,expected,engine", GRID_SPEC,
                         ids=[f"grid{row[0]}" for row in GRID_SPEC])
def test_large_grid_corners(kind, side, expected, engine, grid_engines):
    node = Count(0, side * side - 1)
    assert 2 ** 62 < expected[1]
    if kind == "bfs-csr":
        # The int64 csr BFS kernel's guard (INT64_MAX over the largest
        # degree) refuses both counts; it never wraps.
        with pytest.raises(LabelingError):
            grid_engines(kind, side, engine).run(node)
        return
    answer = grid_engines(kind, side, engine).run(node)
    assert answer == grid_engines("bfs", side, engine).run(node)
    assert answer == expected
    assert type(answer[1]) is int


@pytest.mark.parametrize("kind", BACKEND_KINDS)
def test_empty_set_sides(kind, engine_for):
    engine = engine_for(kind, SPEC_GRAPH)
    assert engine.run(SetToSet((), (0, 1))) == (INF, 0)
    assert engine.run(SetToSet((0,), ())) == (INF, 0)


SETTINGS = dict(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def graph_and_plan(draw):
    """A random small graph plus a random Batch over its vertices."""
    n = draw(st.integers(min_value=2, max_value=9))
    vertex = st.integers(min_value=0, max_value=n - 1)
    edges = draw(st.lists(
        st.tuples(vertex, vertex).filter(lambda e: e[0] != e[1]),
        max_size=18,
    ))
    graph = Graph.from_edges(
        n, sorted({(min(u, v), max(u, v)) for u, v in edges})
    )
    vertex_tuple = st.lists(vertex, min_size=1, max_size=3).map(tuple)
    nodes = draw(st.lists(
        st.one_of(
            st.builds(Count, vertex, vertex),
            st.builds(Distance, vertex, vertex),
            st.builds(PathExists, vertex, vertex),
            st.builds(SingleSource, vertex),
            st.builds(SetToSet, vertex_tuple, vertex_tuple),
            st.builds(Relevance, vertex, vertex_tuple),
        ),
        min_size=1, max_size=5,
    ))
    return graph, Batch(tuple(nodes))


@given(case=graph_and_plan())
@settings(**SETTINGS)
def test_backends_agree_on_generated_plans(case):
    graph, batch = case
    answers = []
    for kind in BACKEND_KINDS:
        engine = build_engine(kind, graph)
        answer = engine.run(batch)
        # Pair and non-pair children interleave: the batch answer must
        # keep child order, exactly as running each child alone.
        assert answer == tuple(engine.run(child) for child in batch.queries), \
            f"{kind} batch answer out of line with its children"
        answers.append(answer)
    for kind, answer in zip(BACKEND_KINDS[1:], answers[1:]):
        assert answer == answers[0], f"{kind} disagrees with flat"
