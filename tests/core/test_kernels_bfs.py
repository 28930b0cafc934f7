"""The vectorized CSR BFS kernels must agree with the scalar traversal oracles.

Coverage spans every generator family the experiment harness uses —
classic, Erdős–Rényi/BA/WS, web copying-model, social, planar and R-MAT —
because frontier shapes differ wildly (long diameters vs hub explosions)
and the level-synchronous expansion must be exact on all of them.
"""

import numpy as np
import pytest

from repro.exceptions import LabelingError
from repro.generators.classic import barbell_graph, binary_tree, grid_graph
from repro.generators.random_graphs import (
    barabasi_albert_graph,
    gnp_random_graph,
    watts_strogatz_graph,
)
from repro.generators.rmat import rmat_graph
from repro.generators.social import caveman_graph
from repro.generators.web import copying_model_graph
from repro.graph.graph import Graph
from repro.graph.traversal import bfs_count_from, bfs_distances
from repro.kernels.bfs import (
    bfs_count_csr,
    bfs_distances_csr,
    count_guard_threshold,
    expand_ranges,
)

INF = float("inf")

FAMILIES = [
    ("grid", lambda: grid_graph(6, 7)),
    ("barbell", lambda: barbell_graph(5, 4)),
    ("binary-tree", lambda: binary_tree(5)),
    ("gnp-disconnected", lambda: gnp_random_graph(70, 0.03, seed=11)),
    ("barabasi-albert", lambda: barabasi_albert_graph(90, 3, seed=4)),
    ("watts-strogatz", lambda: watts_strogatz_graph(60, 4, 0.3, seed=8)),
    ("web-copying", lambda: copying_model_graph(80, out_degree=3, seed=5)),
    ("social-caveman", lambda: caveman_graph(6, 6, rewire=2)),
    ("rmat", lambda: rmat_graph(6, edge_factor=4, seed=13)),
    ("edgeless", lambda: Graph.from_edges(7, [])),
]


class TestExpandRanges:
    def test_concatenated_ranges(self):
        starts = np.array([3, 10, 0], dtype=np.int64)
        counts = np.array([2, 0, 3], dtype=np.int64)
        assert expand_ranges(starts, counts).tolist() == [3, 4, 0, 1, 2]

    def test_empty(self):
        empty = np.empty(0, dtype=np.int64)
        assert expand_ranges(empty, empty).size == 0


@pytest.mark.parametrize("name,make", FAMILIES, ids=[name for name, _ in FAMILIES])
class TestAgainstScalarOracles:
    def sources(self, graph):
        return sorted({0, graph.n // 2, graph.n - 1})

    def test_distances(self, name, make):
        graph = make()
        for source in self.sources(graph):
            expected = bfs_distances(graph, source)
            got = bfs_distances_csr(graph, source)
            assert got.dtype == np.int64
            # -1 in the kernel output encodes the oracle's float inf.
            assert [d if d >= 0 else INF for d in got.tolist()] == expected

    def test_counts(self, name, make):
        graph = make()
        for source in self.sources(graph):
            expected_dist, expected_count = bfs_count_from(graph, source)
            dist, count = bfs_count_csr(graph, source)
            assert [d if d >= 0 else INF for d in dist.tolist()] == expected_dist
            assert count.tolist() == expected_count


class TestOverflowGuard:
    def test_threshold_shrinks_with_degree(self):
        assert count_guard_threshold(1) > count_guard_threshold(100)

    def test_chained_diamonds_overflow(self):
        # 70 two-path diamonds in series: 2^70 shortest paths end to end,
        # far past int64. The guard must refuse rather than wrap.
        layers = 70
        edges = []
        for i in range(layers):
            base = 3 * i
            edges += [(base, base + 1), (base, base + 2),
                      (base + 1, base + 3), (base + 2, base + 3)]
        graph = Graph.from_edges(3 * layers + 1, edges)
        with pytest.raises(LabelingError):
            bfs_count_csr(graph, 0)

    def test_safe_counts_untouched(self):
        # 20 diamonds (2^20 paths) stay comfortably inside int64.
        layers = 20
        edges = []
        for i in range(layers):
            base = 3 * i
            edges += [(base, base + 1), (base, base + 2),
                      (base + 1, base + 3), (base + 2, base + 3)]
        graph = Graph.from_edges(3 * layers + 1, edges)
        _, count = bfs_count_csr(graph, 0)
        assert int(count[3 * layers]) == 2 ** layers
