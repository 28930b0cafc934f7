"""Rank-batched construction engine: bit-identity, storage modes, knobs."""

import numpy as np
import pytest

from repro.core.flat_labels import FlatLabels
from repro.core.hp_spc import BuildStats, build_labels
from repro.core.index import SPCIndex
from repro.generators.classic import (
    complete_graph,
    cycle_graph,
    grid_graph,
    path_graph,
    star_graph,
)
from repro.generators.random_graphs import barabasi_albert_graph
from repro.graph.graph import Graph
from repro.kernels.batch_push import (
    build_flat_labels_batched,
    default_batch_size,
)
from repro.kernels.hub_push import build_flat_labels_csr


def _zoo():
    return [
        barabasi_albert_graph(300, 3, seed=5),
        cycle_graph(17),
        path_graph(40),
        complete_graph(9),
        grid_graph(7, 6),
        star_graph(12),
        Graph.from_edges(1, []),
        Graph.from_edges(5, []),  # fully disconnected
    ]


@pytest.mark.parametrize("batch_size", [1, 3, 8, 1000])
def test_bit_identical_to_sequential_csr_across_batch_sizes(batch_size):
    for graph in _zoo():
        reference = build_flat_labels_csr(graph)
        batched = build_flat_labels_batched(graph, batch_size=batch_size)
        assert batched.equals(reference), (
            f"n={graph.n} m={graph.m} batch_size={batch_size}"
        )


def test_batch_size_one_degenerates_to_sequential():
    graph = barabasi_albert_graph(200, 2, seed=1)
    assert build_flat_labels_batched(graph, batch_size=1).equals(
        build_flat_labels_csr(graph)
    )


def test_spill_and_mmap_storage_match_ram_build(tmp_path):
    graph = barabasi_albert_graph(400, 3, seed=9)
    ram = build_flat_labels_batched(graph, batch_size=8)
    spill_dir = tmp_path / "spill"
    mmap_dir = tmp_path / "cols"
    spill_dir.mkdir()
    mmap_dir.mkdir()
    spilled = build_flat_labels_batched(graph, batch_size=8,
                                        spill_dir=str(spill_dir),
                                        mmap_dir=str(mmap_dir))
    assert spilled.equals(ram)
    # the final columns really are memory-mapped files
    assert isinstance(spilled.rank, np.memmap)
    assert any(mmap_dir.iterdir())
    # spill scratch is cleaned up after finalize
    assert not any(spill_dir.iterdir())


def test_compact_columns_with_exact_values(tmp_path):
    graph = barabasi_albert_graph(300, 3, seed=2)
    compacted = build_flat_labels_batched(graph, batch_size=4)
    wide = build_flat_labels_batched(graph, batch_size=4, compact=False)
    assert compacted.equals(wide)
    assert compacted.count.dtype == np.uint32
    assert not compacted.count_dtype_escaped()
    assert compacted.nbytes() < wide.nbytes()


def test_lazy_hub_derivation():
    graph = cycle_graph(9)
    flat = build_flat_labels_batched(graph)
    reference = build_flat_labels_csr(graph)
    # hub is derived on demand from order[rank] and matches the frozen form
    np.testing.assert_array_equal(np.asarray(flat.hub),
                                  np.asarray(reference.hub))


def test_ordering_list_and_named_ordering():
    graph = barabasi_albert_graph(150, 2, seed=3)
    order = list(np.random.default_rng(0).permutation(graph.n))
    assert build_flat_labels_batched(graph, ordering=order, batch_size=4).equals(
        build_flat_labels_csr(graph, ordering=order)
    )


def test_stats_counters_populated():
    graph = barabasi_albert_graph(120, 2, seed=4)
    stats = BuildStats()
    flat = build_flat_labels_batched(graph, stats=stats, batch_size=4)
    assert stats.pushes == graph.n
    assert stats.label_entries == flat.total_entries()
    assert stats.visits > 0
    assert stats.join_terms > 0


def test_default_batch_size_bounds():
    assert default_batch_size(1) == 1
    assert 1 <= default_batch_size(100) <= 16
    assert 1 <= default_batch_size(10**6) <= 16
    # tiny scratch budget forces narrow batches, never zero
    assert default_batch_size(10**6, scratch_bytes=1) == 1


# -- engine wiring ----------------------------------------------------------


def test_build_labels_csr_batch_engine_matches_python():
    graph = barabasi_albert_graph(150, 2, seed=6)
    reference = FlatLabels.from_label_set(build_labels(graph))
    assert build_flat_labels_batched(graph).equals(reference)
    assert SPCIndex.build(graph, engine="csr-batch").to_flat().equals(reference)


def test_spc_index_csr_batch_engine(tmp_path):
    graph = barabasi_albert_graph(200, 3, seed=8)
    index = SPCIndex.build(graph, engine="csr-batch", batch_size=4)
    reference = SPCIndex.build(graph, engine="csr")
    assert index.to_flat().equals(reference.to_flat())
    assert index.n == graph.n
    pairs = [(0, 5), (3, 199), (17, 17)]
    assert index.count_many(pairs) == reference.count_many(pairs)


def test_unsupported_knobs_raise():
    graph = cycle_graph(6)
    with pytest.raises(ValueError, match="checkpoint"):
        SPCIndex.build(graph, engine="csr-batch", checkpoint=object())
    with pytest.raises(ValueError, match="csr-batch"):
        SPCIndex.build(graph, engine="csr", batch_size=4)
    with pytest.raises(ValueError, match="csr-batch"):
        SPCIndex.build(graph, engine="python", spill_dir="/tmp/x")
    with pytest.raises(ValueError, match="batch_size"):
        build_flat_labels_batched(graph, batch_size=0)


# -- count overflow escape ---------------------------------------------------


def _doubling_diamond_chain(stages):
    """A chain of diamond gadgets: spc(source, sink) == 2**stages.

    Every stage forks into two middle vertices and rejoins, doubling the
    number of shortest paths while keeping degrees (and hence the int64
    count guard) tiny.
    """
    edges = []
    source = 0
    next_id = 1
    for _ in range(stages):
        a, b, join = next_id, next_id + 1, next_id + 2
        edges += [(source, a), (source, b), (a, join), (b, join)]
        source = join
        next_id += 3
    return Graph.from_edges(next_id, edges), source


def test_count_overflow_escapes_uint32_to_int64():
    graph, sink = _doubling_diamond_chain(33)  # 2**33 > uint32 max
    flat = build_flat_labels_batched(graph, batch_size=4)
    assert flat.count_dtype_escaped()
    assert flat.count.dtype == np.int64
    assert flat.equals(build_flat_labels_csr(graph))
    from repro.core.batch_query import count_many

    ((dist, count),) = count_many(flat, [(0, sink)])
    assert dist == 2 * 33
    assert count == 2**33


def test_small_counts_stay_uint32():
    graph, sink = _doubling_diamond_chain(8)
    flat = build_flat_labels_batched(graph)
    assert flat.count.dtype == np.uint32
    from repro.core.batch_query import count_many

    ((_, count),) = count_many(flat, [(0, sink)])
    assert count == 2**8
