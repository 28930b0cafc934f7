"""Rank-batched sweep of the csr engine: every batch width is bit-identical.

``hub_push.MAX_BATCH`` caps how many ranks share one sweep; width 1 is the
sequential rank-by-rank loop. Each width must reproduce that loop and the
python reference engine entry for entry.
"""

from unittest import mock

import pytest

from repro.core.flat_labels import FlatLabels
from repro.core.hp_spc import build_labels
from repro.generators.classic import (
    complete_graph,
    cycle_graph,
    grid_graph,
    path_graph,
    star_graph,
)
from repro.generators.random_graphs import barabasi_albert_graph
from repro.graph.graph import Graph
from repro.kernels import hub_push
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


def _build(graph, width):
    with mock.patch.object(hub_push, "MAX_BATCH", width):
        return build_flat_labels_csr(graph)


@pytest.mark.parametrize("batch_size", [1, 3, 8, 1000])
def test_bit_identical_to_sequential_csr_across_batch_sizes(batch_size):
    for graph in _zoo():
        sequential = _build(graph, 1)
        batched = _build(graph, batch_size)
        assert batched.equals(sequential), (
            f"n={graph.n} m={graph.m} batch_size={batch_size}"
        )
        python = FlatLabels.from_label_set(build_labels(graph))
        assert batched.equals(python), (
            f"n={graph.n} m={graph.m} batch_size={batch_size}"
        )


def test_batch_size_one_degenerates_to_sequential():
    graph = barabasi_albert_graph(200, 2, seed=1)
    sequential = _build(graph, 1)
    assert sequential.equals(FlatLabels.from_label_set(build_labels(graph)))
    # the default width yields the same labeling as the width-1 loop
    assert build_flat_labels_csr(graph).equals(sequential)
