"""Tests for the inverted label index and single-source sweeps."""

import networkx as nx
import pytest

from repro.applications.centrality import all_closeness
from repro.core.flat_labels import FlatLabels
from repro.core.hp_spc import build_labels
from repro.core.inverted import InvertedLabelIndex
from repro.exceptions import LabelingError
from repro.generators.classic import cycle_graph, grid_graph, star_graph
from repro.generators.random_graphs import gnp_random_graph
from repro.graph.graph import Graph
from repro.graph.traversal import bfs_count_from

INF = float("inf")


def diamond_chain(k):
    """``k`` diamonds joined end to end: ``2^k`` shortest paths, length ``2k``."""
    edges = []
    for i in range(k):
        left, top, bottom, right = 3 * i, 3 * i + 1, 3 * i + 2, 3 * i + 3
        edges += [(left, top), (left, bottom), (top, right), (bottom, right)]
    return Graph.from_edges(3 * k + 1, edges)


class TestSingleSource:
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_bfs(self, seed):
        g = gnp_random_graph(30, 0.15, seed=seed)
        labels = build_labels(g)
        inverted = InvertedLabelIndex(labels)
        for s in range(0, g.n, 4):
            want_dist, want_count = bfs_count_from(g, s)
            got_dist, got_count = inverted.single_source(s)
            assert got_dist == want_dist
            assert got_count == want_count

    def test_disconnected(self):
        g = Graph.from_edges(5, [(0, 1), (2, 3)])
        inverted = InvertedLabelIndex(build_labels(g))
        dist, count = inverted.single_source(0)
        assert dist[2] == INF and count[2] == 0
        assert dist[4] == INF

    def test_diagonal(self):
        g = cycle_graph(6)
        inverted = InvertedLabelIndex(build_labels(g))
        dist, count = inverted.single_source(3)
        assert dist[3] == 0
        assert count[3] == 1

    def test_grid_counts(self):
        g = grid_graph(4, 4)
        inverted = InvertedLabelIndex(build_labels(g))
        dist, count = inverted.single_source(0)
        assert count[15] == 20  # C(6, 3)


class TestBeyondInt64:
    """The inverted index is the single-source path for counts >= 2^63.

    The flat columns hold int64 counts, so a labeling with a larger count
    cannot be frozen; the inverted index sweeps the python labels with
    arbitrary-precision counts instead.
    """

    def test_single_source_past_int64(self):
        g = diamond_chain(64)
        assert g.n == 193
        labels = build_labels(g)
        with pytest.raises(LabelingError):
            FlatLabels.from_label_set(labels)
        dist, count = InvertedLabelIndex(labels).single_source(0)
        assert dist[192] == 128
        assert count[192] == 2 ** 64

    def test_closeness_matches_networkx(self):
        g = diamond_chain(64)
        nx_graph = nx.Graph()
        nx_graph.add_nodes_from(range(g.n))
        nx_graph.add_edges_from(g.edges())
        expected = nx.closeness_centrality(nx_graph)
        assert all_closeness(build_labels(g)) == [expected[v] for v in range(g.n)]


class TestPostings:
    def test_total_postings_equals_total_entries(self):
        g = gnp_random_graph(20, 0.2, seed=7)
        labels = build_labels(g)
        inverted = InvertedLabelIndex(labels)
        total = sum(len(inverted.postings(h)) for h in range(g.n))
        assert total == labels.total_entries()

    def test_top_hub_is_top_ranked(self):
        g = star_graph(8)
        labels = build_labels(g)  # hub 0 covers everything
        inverted = InvertedLabelIndex(labels)
        assert inverted.heaviest_hubs(1) == [0]
        assert inverted.hub_load()[0] == 8

    def test_unknown_hub_empty(self):
        g = cycle_graph(4)
        inverted = InvertedLabelIndex(build_labels(g))
        assert inverted.postings(99) == ()
