"""The vectorized hub-push kernel must reproduce the scalar builder exactly.

Every comparison here is *bit-identity*: same entries, same counts, same
canonical/non-canonical split, same construction counters — across the
generator families, explicit orders, and the reduction hooks
(``multiplicity``, ``skip``, ``prune=False``).
"""

import random

import pytest

from repro.core.flat_labels import FlatLabels
from repro.core.hp_spc import BuildStats, build_labels
from repro.core.index import SPCIndex
from repro.exceptions import LabelingError, OrderingError
from repro.generators.classic import barbell_graph, grid_graph, random_tree
from repro.generators.random_graphs import (
    barabasi_albert_graph,
    gnp_random_graph,
    watts_strogatz_graph,
)
from repro.generators.rmat import rmat_graph
from repro.generators.social import caveman_graph
from repro.generators.web import copying_model_graph
from repro.graph.graph import Graph
from repro.kernels.hub_push import build_flat_labels_csr

FAMILIES = [
    ("grid", lambda: grid_graph(5, 6)),
    ("barbell", lambda: barbell_graph(4, 3)),
    ("tree", lambda: random_tree(45, seed=2)),
    ("gnp-disconnected", lambda: gnp_random_graph(60, 0.04, seed=3)),
    ("barabasi-albert", lambda: barabasi_albert_graph(80, 2, seed=5)),
    ("watts-strogatz", lambda: watts_strogatz_graph(50, 4, 0.2, seed=9)),
    ("web-copying", lambda: copying_model_graph(70, out_degree=3, seed=6)),
    ("social-caveman", lambda: caveman_graph(5, 6, rewire=2)),
    ("rmat", lambda: rmat_graph(6, edge_factor=4, seed=12)),
    ("edgeless", lambda: Graph.from_edges(8, [])),
]


def reference_flat(graph, **kwargs):
    return FlatLabels.from_label_set(build_labels(graph, **kwargs))


@pytest.mark.parametrize("name,make", FAMILIES, ids=[name for name, _ in FAMILIES])
class TestBitIdentity:
    def test_degree_order(self, name, make):
        graph = make()
        expected = reference_flat(graph)
        got = build_flat_labels_csr(graph)
        assert got.equals(expected)
        got.validate_sorted()

    def test_random_explicit_order(self, name, make):
        graph = make()
        order = list(range(graph.n))
        random.Random(31).shuffle(order)
        expected = reference_flat(graph, ordering=order)
        assert build_flat_labels_csr(graph, ordering=order).equals(expected)

    def test_stats_match_scalar_builder(self, name, make):
        graph = make()
        scalar_stats, kernel_stats = BuildStats(), BuildStats()
        build_labels(graph, stats=scalar_stats)
        build_flat_labels_csr(graph, stats=kernel_stats)
        assert kernel_stats.as_dict() == scalar_stats.as_dict()


class TestReductionHooks:
    def graph(self):
        return watts_strogatz_graph(40, 4, 0.25, seed=7)

    def test_multiplicity(self):
        graph = self.graph()
        rng = random.Random(3)
        mult = [rng.randint(1, 4) for _ in range(graph.n)]
        expected = reference_flat(graph, multiplicity=mult)
        assert build_flat_labels_csr(graph, multiplicity=mult).equals(expected)

    def test_skip(self):
        graph = self.graph()
        rng = random.Random(4)
        skip = [rng.random() < 0.3 for _ in range(graph.n)]
        expected = reference_flat(graph, skip=skip)
        assert build_flat_labels_csr(graph, skip=skip).equals(expected)

    def test_prune_false_pl_spc(self):
        graph = self.graph()
        expected = reference_flat(graph, prune=False)
        assert build_flat_labels_csr(graph, prune=False).equals(expected)

    def test_validates_lengths(self):
        graph = self.graph()
        with pytest.raises(ValueError):
            build_flat_labels_csr(graph, multiplicity=[1, 2])
        with pytest.raises(ValueError):
            build_flat_labels_csr(graph, skip=[True])


class TestEngineParameter:
    def test_build_labels_csr_engine(self):
        graph = barabasi_albert_graph(60, 2, seed=8)
        reference = FlatLabels.from_label_set(build_labels(graph))
        assert SPCIndex.build(graph, engine="csr").to_flat().equals(reference)

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError):
            SPCIndex.build(grid_graph(3, 3), engine="simd")

    def test_adaptive_ordering_rejected(self):
        with pytest.raises(OrderingError):
            SPCIndex.build(grid_graph(3, 3), ordering="significant-path",
                           engine="csr")


class TestOverflowGuard:
    def diamond_chain(self, layers):
        edges = []
        for i in range(layers):
            base = 3 * i
            edges += [(base, base + 1), (base, base + 2),
                      (base + 1, base + 3), (base + 2, base + 3)]
        return Graph.from_edges(3 * layers + 1, edges)

    def test_int64_overflow_raises(self):
        # 2^70 shortest paths end to end: the kernel must refuse, while the
        # python engine (arbitrary precision) handles the same graph fine.
        graph = self.diamond_chain(70)
        with pytest.raises(LabelingError):
            build_flat_labels_csr(graph)
        assert build_labels(graph).total_entries() > 0

    def test_safe_chain_is_identical(self):
        graph = self.diamond_chain(18)
        assert build_flat_labels_csr(graph).equals(reference_flat(graph))
