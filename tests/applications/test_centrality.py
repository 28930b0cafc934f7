"""Tests for label-powered closeness/harmonic centrality."""

import math

import pytest

from repro.applications.centrality import (
    all_closeness,
    all_harmonic,
    closeness_centrality,
    harmonic_centrality,
)
from repro.baselines.bfs_counting import BFSCountingOracle
from repro.core.index import SPCIndex
from repro.generators.classic import cycle_graph, path_graph, star_graph
from repro.generators.random_graphs import gnp_random_graph
from repro.graph.graph import Graph


@pytest.fixture(scope="module")
def random_setup():
    g = gnp_random_graph(25, 0.18, seed=9)
    return g, SPCIndex.build(g)


class TestCloseness:
    def test_star_hub_highest(self):
        values = all_closeness(SPCIndex.build(star_graph(7)))
        assert values[0] == max(values)

    def test_matches_networkx(self, random_setup):
        import networkx as nx

        from repro.graph.builders import graph_to_networkx

        g, index = random_setup
        theirs = nx.closeness_centrality(graph_to_networkx(g))
        for v in range(g.n):
            assert math.isclose(
                closeness_centrality(index, v), theirs[v], abs_tol=1e-12
            )

    def test_isolated_vertex_zero(self):
        g = Graph.from_edges(3, [(0, 1)])
        assert closeness_centrality(SPCIndex.build(g), 2) == 0.0

    def test_accepts_a_bfs_oracle(self):
        g = cycle_graph(6)
        values = all_closeness(BFSCountingOracle(g))
        assert len(values) == 6
        assert max(values) - min(values) < 1e-12  # vertex-transitive
        assert values == all_closeness(SPCIndex.build(g))


class TestHarmonic:
    def test_matches_networkx(self, random_setup):
        import networkx as nx

        from repro.graph.builders import graph_to_networkx

        g, index = random_setup
        theirs = nx.harmonic_centrality(graph_to_networkx(g))
        for v in range(g.n):
            assert math.isclose(
                harmonic_centrality(index, v), theirs[v], abs_tol=1e-9
            )

    def test_path_endpoints_lowest(self):
        values = all_harmonic(SPCIndex.build(path_graph(7)))
        assert values[0] == min(values)
        assert values[3] == max(values)

    def test_disconnected_contributes_nothing(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        values = all_harmonic(SPCIndex.build(g))
        assert values[0] == 1.0
