"""The vectorized hub-push kernel must reproduce the scalar builder exactly.

Every label comparison here is *bit-identity*: same entries, same counts,
same canonical/non-canonical split, across the generator families and
explicit orders (batch widths are covered in ``test_batch_push.py``). The construction counters the two
engines share (pushes, label entries, checkpoint lifecycle) must match
too; the sweep-work counters differ by design.
"""

import random
from unittest import mock

import numpy as np
import pytest

from repro.core.batch_query import count_many
from repro.core.flat_labels import FlatLabels
from repro.core.hp_spc import BuildStats, build_labels
from repro.core.index import SPCIndex
from repro.exceptions import LabelingError, OrderingError
from repro.generators.classic import (
    barbell_graph,
    cycle_graph,
    grid_graph,
    random_tree,
)
from repro.generators.random_graphs import (
    barabasi_albert_graph,
    gnp_random_graph,
    watts_strogatz_graph,
)
from repro.generators.rmat import rmat_graph
from repro.generators.social import caveman_graph
from repro.generators.web import copying_model_graph
from repro.graph.graph import Graph
from repro.kernels import hub_push
from repro.kernels.hub_push import build_flat_labels_csr, default_batch_size

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
        for counter in BuildStats.SHARED:
            assert getattr(kernel_stats, counter) == getattr(scalar_stats,
                                                             counter), counter


def test_ordering_list_and_named_ordering():
    graph = barabasi_albert_graph(150, 2, seed=3)
    order = list(np.random.default_rng(0).permutation(graph.n))
    with mock.patch.object(hub_push, "MAX_BATCH", 4):
        got = build_flat_labels_csr(graph, ordering=order)
    assert got.equals(reference_flat(graph, ordering=order))


def test_columns_are_compact():
    graph = barabasi_albert_graph(300, 3, seed=2)
    got = build_flat_labels_csr(graph)
    wide = reference_flat(graph)
    assert got.equals(wide)
    assert got.rank.dtype == np.uint32
    assert got.dist.dtype == np.uint16
    assert got.count.dtype == np.uint32
    assert not got.count_dtype_escaped()
    assert got.nbytes() < wide.nbytes()


def test_lazy_hub_derivation():
    graph = cycle_graph(9)
    flat = build_flat_labels_csr(graph)
    # hub is derived on demand from order[rank] and matches the frozen form
    np.testing.assert_array_equal(np.asarray(flat.hub),
                                  np.asarray(reference_flat(graph).hub))


def test_stats_counters_populated():
    graph = barabasi_albert_graph(120, 2, seed=4)
    stats = BuildStats()
    flat = build_flat_labels_csr(graph, stats=stats)
    assert stats.pushes == graph.n
    assert stats.label_entries == flat.total_entries() - graph.n
    assert stats.visits > 0
    assert stats.join_terms > 0
    assert stats.prunes > 0


def test_default_batch_size_bounds():
    assert default_batch_size(1) == 1
    assert 1 <= default_batch_size(100) <= hub_push.MAX_BATCH
    assert 1 <= default_batch_size(10**6) <= hub_push.MAX_BATCH
    # tiny scratch budget forces narrow batches, never zero
    assert default_batch_size(10**6, scratch_bytes=1) == 1


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


def diamond_chain(layers):
    """A chain of diamonds: ``spc(0, 3 * layers) == 2**layers`` at small
    degrees (so the int64 count guard stays loose)."""
    edges = []
    for i in range(layers):
        base = 3 * i
        edges += [(base, base + 1), (base, base + 2),
                  (base + 1, base + 3), (base + 2, base + 3)]
    return Graph.from_edges(3 * layers + 1, edges)


class TestOverflowGuard:
    def test_int64_overflow_raises(self):
        # 2^70 shortest paths end to end: the kernel must refuse, while the
        # python engine (arbitrary precision) handles the same graph fine.
        graph = diamond_chain(70)
        with pytest.raises(LabelingError):
            build_flat_labels_csr(graph)
        assert build_labels(graph).total_entries() > 0

    def test_safe_chain_is_identical(self):
        graph = diamond_chain(18)
        assert build_flat_labels_csr(graph).equals(reference_flat(graph))


# -- count overflow escape ---------------------------------------------------


def test_count_overflow_escapes_uint32_to_int64():
    graph = diamond_chain(33)  # 2**33 > uint32 max
    flat = build_flat_labels_csr(graph)
    assert flat.count_dtype_escaped()
    assert flat.count.dtype == np.int64
    assert flat.equals(reference_flat(graph))
    ((dist, count),) = count_many(flat, [(0, 3 * 33)])
    assert dist == 2 * 33
    assert count == 2**33


def test_small_counts_stay_uint32():
    graph = diamond_chain(8)
    flat = build_flat_labels_csr(graph)
    assert flat.count.dtype == np.uint32
    ((_, count),) = count_many(flat, [(0, 3 * 8)])
    assert count == 2**8
