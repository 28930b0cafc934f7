"""Tests for vertex ordering strategies (§3.4)."""

import pytest

from repro.core.hp_spc import build_labels
from repro.core.ordering import (
    DegreeOrdering,
    PushTree,
    SignificantPathOrdering,
    StaticOrdering,
    resolve_ordering,
    resolve_static_order,
)
from repro.exceptions import OrderingError
from repro.generators.classic import grid_graph, path_graph, star_graph
from repro.generators.random_graphs import barabasi_albert_graph, gnp_random_graph
from repro.graph.builders import disjoint_union
from repro.graph.graph import Graph


class TestDegreeOrdering:
    def test_static_order_by_degree_then_id(self):
        g = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2)])
        assert DegreeOrdering.static_order(g) == [0, 1, 2, 3]

    def test_ties_broken_by_id(self):
        g = path_graph(4)  # degrees: 1, 2, 2, 1
        assert DegreeOrdering.static_order(g) == [1, 2, 0, 3]

    def test_drives_engine_to_full_order(self):
        g = gnp_random_graph(20, 0.2, seed=0)
        labels = build_labels(g, ordering="degree")
        assert list(labels.order) == DegreeOrdering.static_order(g)


class TestStaticOrdering:
    def test_accepts_explicit_sequence(self):
        g = path_graph(4)
        labels = build_labels(g, ordering=[3, 1, 0, 2])
        assert labels.order == (3, 1, 0, 2)

    def test_rejects_non_permutation(self):
        g = path_graph(3)
        with pytest.raises(OrderingError, match="permutation"):
            build_labels(g, ordering=[0, 0, 1])

    def test_rejects_short_sequence(self):
        g = path_graph(3)
        with pytest.raises(OrderingError):
            build_labels(g, ordering=[0, 1])


class TestResolveOrdering:
    def test_by_name(self):
        assert isinstance(resolve_ordering("degree"), DegreeOrdering)
        assert isinstance(resolve_ordering("significant-path"), SignificantPathOrdering)
        assert isinstance(resolve_ordering("sigpath"), SignificantPathOrdering)

    def test_unknown_name(self):
        with pytest.raises(OrderingError, match="unknown ordering"):
            resolve_ordering("random")

    def test_sequence(self):
        assert isinstance(resolve_ordering([0, 1]), StaticOrdering)

    def test_passthrough_instance(self):
        strategy = DegreeOrdering()
        assert resolve_ordering(strategy) is strategy

    def test_rejects_garbage(self):
        with pytest.raises(OrderingError, match="cannot interpret"):
            resolve_ordering(42)


class TestResolveStaticOrder:
    def test_matches_degree(self):
        graph = barabasi_albert_graph(30, 2, seed=1)
        order = resolve_static_order(graph, "degree")
        assert sorted(order) == list(range(graph.n))
        assert tuple(order) == build_labels(graph).order

    def test_adaptive_ordering_rejected(self):
        with pytest.raises(OrderingError):
            resolve_static_order(grid_graph(3, 3), "significant-path")


class TestPushTree:
    def test_descendant_counts(self):
        tree = PushTree(0, [0, 1, 2, 3], {0: 0, 1: 0, 2: 1, 3: 1})
        des = tree.descendant_counts()
        assert des == {0: 4, 1: 3, 2: 1, 3: 1}

    def test_children(self):
        tree = PushTree(0, [0, 1, 2, 3], {0: 0, 1: 0, 2: 1, 3: 1})
        assert tree.children() == {0: [1], 1: [2, 3], 2: [], 3: []}


class TestSignificantPathOrdering:
    def test_starts_with_max_degree(self):
        g = star_graph(6)
        labels = build_labels(g, ordering="significant-path")
        assert labels.order[0] == 0

    def test_produces_full_permutation(self):
        g = gnp_random_graph(30, 0.15, seed=5)
        labels = build_labels(g, ordering="significant-path")
        assert sorted(labels.order) == list(range(30))

    def test_handles_disconnected_graphs(self):
        g = disjoint_union(star_graph(5), path_graph(4), path_graph(1))
        labels = build_labels(g, ordering="significant-path")
        assert sorted(labels.order) == list(range(10))

    def test_handles_edgeless_graph(self):
        g = Graph.from_edges(4, [])
        labels = build_labels(g, ordering="significant-path")
        assert sorted(labels.order) == [0, 1, 2, 3]

    def test_next_vertex_prefers_significant_path(self):
        # A broom: hub 0 with a long handle; the first push tree's
        # significant path runs down the handle, so the second pushed
        # vertex must lie on it (not one of the bristles).
        edges = [(0, i) for i in range(1, 6)]          # bristles 1..5
        edges += [(0, 6), (6, 7), (7, 8), (8, 9)]       # handle
        g = Graph.from_edges(10, edges)
        labels = build_labels(g, ordering="significant-path")
        assert labels.order[0] == 0
        assert labels.order[1] in (6, 7, 8, 9)
