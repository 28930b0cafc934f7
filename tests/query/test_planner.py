"""Planner fallback edges and cache-token invalidation semantics.

The selection matrix under test: a fresh index generation wins, a stale
or absent index falls back to BFS, and ``TopKBetweenness`` flips between
the exact Brandes strategy and sampled estimation. A batch's pair
children share one backend decision, so planning it prices backends a
constant number of times however many children it has. Cache behaviour:
a hot reload (generation bump) or a staleness demotion changes the token
and every previously cached answer must miss.
"""

import pytest

from repro.core.index import SPCIndex
from repro.exceptions import PlanError, VertexError
from repro.generators import cycle_graph, path_graph
from repro.observability.metrics import MetricsRegistry, scoped_registry
from repro.query import (
    Batch,
    Count,
    Distance,
    QueryEngine,
    SingleSource,
    TopKBetweenness,
)
from repro.query.backends import FlatBackend
from repro.query.planner import QueryPlanner

INF = float("inf")


@pytest.fixture()
def big_graph():
    return cycle_graph(64)


@pytest.fixture()
def big_engine(big_graph):
    return QueryEngine(index=SPCIndex.build(big_graph), graph=big_graph)


class TestBackendSelection:
    def test_fresh_index_wins(self, big_engine):
        plan = big_engine.plan(Count(0, 40))
        assert plan.root.backend_name == "flat"

    def test_stale_index_falls_back_to_bfs(self, big_engine):
        big_engine.index.mark_stale(reason="test")
        plan = big_engine.plan(Count(0, 40))
        assert plan.root.backend_name == "bfs"
        # Exactness survives the demotion.
        assert big_engine.run(Count(0, 32)) == (32, 2)

    def test_absent_index_falls_back_to_bfs(self, big_graph):
        engine = QueryEngine(graph=big_graph)
        assert engine.plan(Count(0, 40)).root.backend_name == "bfs"

    def test_tiny_component_uses_bfs(self):
        engine = QueryEngine(graph=path_graph(5))
        assert engine.plan(Count(0, 4)).root.backend_name == "bfs"
        assert engine.run(Count(0, 4)) == (4, 1)

    def test_no_backend_raises_plan_error(self, big_graph):
        engine = QueryEngine(index=SPCIndex.build(big_graph))
        engine.index.mark_stale(reason="test")
        with pytest.raises(PlanError):
            engine.run(Count(0, 1))

    def test_batch_children_plan_independently(self, big_engine):
        batch = Batch((Count(0, 1), SingleSource(2), Distance(3, 4)))
        plan = big_engine.plan(batch)
        assert plan.root.backend_name == "batch"
        # The pair children form one group; the sweep plans on its own.
        assert plan.root.group.indexes == (0, 2)
        assert plan.root.group.pairs == [(0, 1), (3, 4)]
        assert [child.node for child in plan.root.children] == \
            [SingleSource(2)]
        assert plan.root.positions == (1,)
        lines = plan.explain().splitlines()
        assert lines[0].startswith("batch -> batch (cost ~")
        assert lines[1].startswith("  count+distance x2 -> flat (cost ~")
        assert lines[2].startswith("  single_source -> flat (cost ~")
        assert len(lines) == 3


class TestBatchPlanningCost:
    @staticmethod
    def _cost_model_calls(engine, children):
        calls = {"pair_cost": 0, "available": 0}
        backend = next(b for b in engine._backends
                       if isinstance(b, FlatBackend))
        for name in calls:
            method = getattr(backend, name)

            def counted(_method=method, _name=name):
                calls[_name] += 1
                return _method()

            setattr(backend, name, counted)
        engine.plan(Batch(tuple(Count(i % 64, (7 * i) % 64)
                                for i in range(children))))
        return calls

    def test_cost_model_calls_do_not_grow_with_children(self, big_graph):
        index = SPCIndex.build(big_graph)
        small = self._cost_model_calls(QueryEngine(index=index), 10)
        large = self._cost_model_calls(QueryEngine(index=index), 1000)
        assert small["pair_cost"] >= 1 and small["available"] >= 1
        assert large == small

    def test_backend_metric_counts_every_child(self, big_engine):
        with scoped_registry(MetricsRegistry()) as registry:
            big_engine.run(Batch(tuple(Count(i % 64, (i * 5) % 64)
                                       for i in range(1000))))
        chosen = registry.counter("spc_query_backends_chosen_total",
                                  backend="flat")
        assert chosen.value == 1000
        assert registry.counter("spc_query_backends_chosen_total",
                                backend="batch").value == 1


class TestTopKStrategies:
    def test_unpinned_samples_with_graph_is_exact(self, big_engine):
        plan = big_engine.plan(TopKBetweenness(k=3))
        assert plan.root.strategy == "exact"
        assert plan.root.backend_name == "brandes"

    def test_pinned_samples_is_sampled(self, big_engine):
        plan = big_engine.plan(TopKBetweenness(k=3, samples=50))
        assert plan.root.strategy == "sampled"
        assert plan.root.backend_name == "sampled+flat"

    def test_no_graph_forces_sampling(self, big_graph):
        engine = QueryEngine(oracle=SPCIndex.build(big_graph),
                             n=big_graph.n)
        plan = engine.plan(TopKBetweenness(k=3))
        assert plan.root.strategy == "sampled"


class TestCacheInvalidation:
    def test_same_generation_hits(self, big_engine):
        node = Count(0, 17)
        first = big_engine.run(node)
        assert big_engine.run(node) == first
        stats = big_engine.cache_stats()
        assert stats["hits"] == 1 and stats["misses"] == 1

    def test_generation_bump_misses(self, big_engine):
        node = Count(0, 17)
        big_engine.run(node)
        big_engine.generation += 1  # a hot reload bumps the generation
        assert big_engine.run(node) == (17, 1)
        stats = big_engine.cache_stats()
        assert stats["hits"] == 0 and stats["misses"] == 2

    def test_staleness_demotion_misses(self, big_engine):
        node = Count(0, 17)
        answer = big_engine.run(node)
        big_engine.index.mark_stale(reason="churn")
        # The backend line-up changed, so the token changed: same answer,
        # but recomputed on the BFS path rather than served from cache.
        assert big_engine.run(node) == answer
        stats = big_engine.cache_stats()
        assert stats["hits"] == 0 and stats["misses"] == 2

    def test_compiled_query_replans_on_token_change(self, big_engine):
        compiled = big_engine.compile(Count(0, 9))
        batch = big_engine.compile(
            Batch((Count(0, 9), SingleSource(3), Distance(0, 32))))
        assert compiled.plan.root.backend_name == "flat"
        assert batch.plan.root.group.backend_name == "flat"
        assert compiled.run() == (9, 1)
        answers = batch.run()
        assert answers[0] == (9, 1) and answers[2] == 32
        big_engine.index.mark_stale(reason="churn")
        assert compiled.plan.root.backend_name == "bfs"
        assert batch.plan.root.group.backend_name == "bfs"
        assert [child.backend_name for child in batch.plan.root.children] \
            == ["bfs"]
        assert compiled.run() == (9, 1)
        assert batch.run() == answers


class TestValidation:
    def test_vertex_error_through_batch(self, big_engine):
        with pytest.raises(VertexError):
            big_engine.run(Batch((Count(0, 1), Count(0, 64))))
        with pytest.raises(VertexError):
            big_engine.run(Count(-1, 0))
        with pytest.raises(VertexError):
            big_engine.run(Count(True, 0))

    @pytest.mark.parametrize("children", [
        (Count(0, 1), Count(64, 0), Count(0, -1)),
        (Count(0, 1), Count(0, 64)),
        (Count(0, 1), Distance(0, 64), Count(0, -1)),
        (Count(0, 1), SingleSource(65), Count(-1, 0)),
        (Count(0, 1), Count(0, 2.0)),
        (Count(False, 1),),
    ], ids=["count-s", "count-t", "distance", "single-source", "float",
            "bool"])
    def test_batch_planning_raises_what_validate_raises(self, big_engine,
                                                        children):
        """Planning checks a batch's ids in its own pass; the error names
        the same id as ``Batch.validate``, before any backend runs."""
        batch = Batch(children)
        with pytest.raises(VertexError) as expected:
            batch.validate(64)
        planner = QueryPlanner([FlatBackend(big_engine.index)])
        for run in (lambda: planner.plan(batch, n=64),
                    lambda: QueryEngine(index=big_engine.index,
                                        cache=None).run(batch),
                    lambda: big_engine.compile(batch).run()):
            with pytest.raises(VertexError) as got:
                run()
            assert got.value.vertex is expected.value.vertex

    def test_failed_validation_caches_nothing(self, big_engine):
        with pytest.raises(VertexError):
            big_engine.run(Count(0, 64))
        assert big_engine.cache_stats()["entries"] == 0
