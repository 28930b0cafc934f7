"""Single-source sweeps over the hub-major (inverted) label view.

:attr:`~repro.core.flat_labels.FlatLabels.hub_major` groups the label
entries by hub, and :meth:`~repro.core.index.SPCIndex.single_source`
sweeps the posting lists of the source's hubs. Counts past int64, which
the flat columns reject, are answered by the exact python BFS oracle.
"""

import networkx as nx
import pytest

from repro.applications.centrality import all_closeness
from repro.baselines.bfs_counting import BFSCountingOracle
from repro.core.flat_labels import FlatLabels
from repro.core.hp_spc import build_labels
from repro.core.index import SPCIndex
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


def sweep(graph, s):
    dist, count = SPCIndex.build(graph).single_source(s)
    return dist.tolist(), count.tolist()


class TestSingleSource:
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_bfs(self, seed):
        g = gnp_random_graph(30, 0.15, seed=seed)
        index = SPCIndex.build(g)
        for s in range(0, g.n, 4):
            want_dist, want_count = bfs_count_from(g, s)
            got_dist, got_count = index.single_source(s)
            assert got_dist.tolist() == want_dist
            assert got_count.tolist() == want_count

    def test_disconnected(self):
        dist, count = sweep(Graph.from_edges(5, [(0, 1), (2, 3)]), 0)
        assert dist[2] == INF and count[2] == 0
        assert dist[4] == INF

    def test_diagonal(self):
        dist, count = sweep(cycle_graph(6), 3)
        assert dist[3] == 0
        assert count[3] == 1

    def test_grid_counts(self):
        _, count = sweep(grid_graph(4, 4), 0)
        assert count[15] == 20  # C(6, 3)


class TestBeyondInt64:
    """The python BFS oracle is the single-source path for counts >= 2^63.

    The flat columns hold int64 counts, so a labeling with a larger count
    cannot be frozen; the oracle's scalar BFS carries arbitrary-precision
    counts instead.
    """

    def test_single_source_past_int64(self):
        g = diamond_chain(64)
        assert g.n == 193
        with pytest.raises(LabelingError):
            FlatLabels.from_label_set(build_labels(g))
        dist, count = BFSCountingOracle(g).single_source(0)
        assert dist[192] == 128
        assert count[192] == 2 ** 64

    def test_closeness_matches_networkx(self):
        g = diamond_chain(64)
        nx_graph = nx.Graph()
        nx_graph.add_nodes_from(range(g.n))
        nx_graph.add_edges_from(g.edges())
        expected = nx.closeness_centrality(nx_graph)
        got = all_closeness(BFSCountingOracle(g))
        assert got == [expected[v] for v in range(g.n)]


class TestPostings:
    def test_total_postings_equals_total_entries(self):
        g = gnp_random_graph(20, 0.2, seed=7)
        flat = SPCIndex.build(g).to_flat()
        assert int(flat.hub_major.indptr[-1]) == flat.total_entries()

    def test_top_hub_is_top_ranked(self):
        flat = SPCIndex.build(star_graph(8)).to_flat()  # hub 0 covers everything
        assert flat.order[0] == 0
        view = flat.hub_major
        lengths = [int(view.indptr[r + 1] - view.indptr[r])
                   for r in range(flat.n)]
        assert lengths[0] == max(lengths) == 8
