"""Property-based tests for the flat/batched query and construction engines.

On arbitrary random graphs and orders, the vectorized paths must agree
with the tuple-based reference engine pair-for-pair, round trips through
the flat store and the packed byte format must be lossless, and the csr
construction kernels must reproduce sequential HP-SPC.
"""

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import batch_query
from repro.core.batch_query import (
    count_many,
    count_pair,
    count_set_to_set,
    single_source,
)
from repro.core.flat_labels import FlatLabels
from repro.core.hp_spc import build_labels
from repro.core.query import count_query, count_set_query
from repro.graph.graph import Graph
from repro.io.serialize import labels_from_bytes, labels_to_bytes

SETTINGS = dict(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def graphs(draw, max_n=14, edge_bias=0.25):
    """Random simple graphs (often disconnected) with random vertex orders."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if draw(st.booleans()) and draw(st.floats(0, 1)) < edge_bias * 2:
                edges.append((u, v))
    return Graph.from_edges(n, edges)


@st.composite
def graphs_with_orders(draw, max_n=12):
    graph = draw(graphs(max_n=max_n))
    order = list(range(graph.n))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    random.Random(seed).shuffle(order)
    return graph, order


@given(graphs())
@settings(**SETTINGS)
def test_count_many_agrees_with_count_query_pairwise(graph):
    labels = build_labels(graph)
    flat = FlatLabels.from_label_set(labels)
    pairs = [(s, t) for s in range(graph.n) for t in range(graph.n)]
    for (s, t), got in zip(pairs, count_many(flat, pairs)):
        assert got == count_query(labels, s, t)


@given(graphs_with_orders())
@settings(**SETTINGS)
def test_count_many_agrees_under_random_orders(graph_and_order):
    graph, order = graph_and_order
    labels = build_labels(graph, ordering=order)
    flat = FlatLabels.from_label_set(labels)
    pairs = [(s, t) for s in range(graph.n) for t in range(graph.n)]
    for (s, t), got in zip(pairs, count_many(flat, pairs)):
        assert got == count_query(labels, s, t)


@given(graphs(max_n=40, edge_bias=0.06), st.booleans(),
       st.sampled_from([1, 40, 300, 1 << 17]), st.data())
@settings(**SETTINGS)
def test_count_many_agrees_with_count_pair(graph, compact, cap, data):
    """Core plus tail, at any chunking, equals the scalar merge.

    Sparse graphs keep labels short, so the core (sized by the label
    columns' bytes) holds only a prefix of the ranks and most rows have a
    tail; compacting narrows the columns and so the core.
    """
    flat = FlatLabels.from_label_set(build_labels(graph))
    if compact:
        flat = flat.compact()
    vertex = st.integers(min_value=0, max_value=graph.n - 1)
    pairs = data.draw(st.lists(st.tuples(vertex, vertex), max_size=60))
    saved = batch_query.CHUNK_ENTRIES
    batch_query.CHUNK_ENTRIES = cap
    try:
        answers = count_many(flat, pairs)
    finally:
        batch_query.CHUNK_ENTRIES = saved
    assert answers == [count_pair(flat, s, t) for s, t in pairs]


@given(graphs())
@settings(**SETTINGS)
def test_single_source_agrees_with_count_query(graph):
    labels = build_labels(graph)
    flat = FlatLabels.from_label_set(labels)
    for s in range(graph.n):
        dist, count = single_source(flat, s)
        for t in range(graph.n):
            assert (dist[t], count[t]) == count_query(labels, s, t)


@given(graphs(), st.integers(min_value=0, max_value=2**16))
@settings(**SETTINGS)
def test_set_to_set_agrees_with_reference(graph, seed):
    labels = build_labels(graph)
    flat = FlatLabels.from_label_set(labels)
    rng = random.Random(seed)
    size = max(1, graph.n // 3)
    sources = rng.sample(range(graph.n), min(size, graph.n))
    targets = rng.sample(range(graph.n), min(size, graph.n))
    assert count_set_to_set(flat, sources, targets) == count_set_query(
        labels, sources, targets
    )


@given(graphs_with_orders())
@settings(**SETTINGS)
def test_flat_round_trip_through_serialized_form(graph_and_order):
    graph, order = graph_and_order
    labels = build_labels(graph, ordering=order)
    flat = FlatLabels.from_label_set(labels)
    thawed = flat.to_label_set()
    assert thawed.order == labels.order
    for v in range(graph.n):
        assert thawed.canonical(v) == labels.canonical(v)
        assert thawed.noncanonical(v) == labels.noncanonical(v)
    reloaded, _ = labels_from_bytes(labels_to_bytes(thawed))
    assert FlatLabels.from_label_set(reloaded).equals(flat)


@given(graphs_with_orders())
@settings(**SETTINGS)
def test_csr_engine_bit_identical_on_random_graphs(graph_and_order):
    from repro.kernels.hub_push import build_flat_labels_csr

    graph, order = graph_and_order
    python_labels = build_labels(graph, ordering=order)
    flat = build_flat_labels_csr(graph, ordering=order)
    assert flat.equals(FlatLabels.from_label_set(python_labels))


@given(graphs_with_orders(), st.integers(min_value=1, max_value=6))
@settings(**SETTINGS)
def test_csr_batch_engine_bit_identical_on_random_graphs(graph_and_order,
                                                         batch_size):
    """The csr engine's rank-batched sweep == its width-1 sequential loop."""
    from unittest import mock

    from repro.kernels import hub_push

    graph, order = graph_and_order
    with mock.patch.object(hub_push, "MAX_BATCH", 1):
        reference = hub_push.build_flat_labels_csr(graph, ordering=order)
    with mock.patch.object(hub_push, "MAX_BATCH", batch_size):
        batched = hub_push.build_flat_labels_csr(graph, ordering=order)
    assert batched.equals(reference)
    # ...and both match the frozen python reference engine.
    python_labels = build_labels(graph, ordering=order)
    assert batched.equals(FlatLabels.from_label_set(python_labels))


@given(graphs_with_orders())
@settings(**SETTINGS)
def test_flat_store_round_trip_lossless(graph_and_order):
    """SPCF save/load (in RAM and mmap) preserves the labeling bit-for-bit."""
    import os
    import tempfile

    from repro.io.flat_store import load_flat_labels, save_flat_labels
    from repro.kernels.hub_push import build_flat_labels_csr

    graph, order = graph_and_order
    flat = build_flat_labels_csr(graph, ordering=order)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "labels.spcf")
        save_flat_labels(flat, path)
        assert load_flat_labels(path).equals(flat)
        mapped = load_flat_labels(path, mmap=True)
        assert mapped.equals(flat)
        del mapped
