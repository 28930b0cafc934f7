"""FlatLabels: CSR freeze/thaw, size accounting, validation."""

import pytest

from repro.core.flat_labels import FlatLabels, flatten_labels
from repro.core.hp_spc import build_labels
from repro.core.labels import LabelSet
from repro.exceptions import LabelingError
from repro.generators.classic import barbell_graph, cycle_graph, grid_graph
from repro.io.serialize import labels_from_bytes, labels_to_bytes


def _flat_for(graph):
    return FlatLabels.from_label_set(build_labels(graph))


class TestFreeze:
    def test_entries_match_label_set(self):
        labels = build_labels(grid_graph(4, 5))
        flat = FlatLabels.from_label_set(labels)
        assert flat.n == labels.n
        assert flat.total_entries() == labels.total_entries()
        for v in range(labels.n):
            rank, hub, dist, count = flat.row(v)
            expected = labels.merged(v)
            assert rank.tolist() == [r for r, _, _, _ in expected]
            assert hub.tolist() == [h for _, h, _, _ in expected]
            assert dist.tolist() == [d for _, _, d, _ in expected]
            assert count.tolist() == [c for _, _, _, c in expected]

    def test_rows_are_rank_sorted(self):
        flat = _flat_for(barbell_graph(4, 3))
        assert flat.validate_sorted()

    def test_canonical_flags_preserved(self):
        labels = build_labels(grid_graph(3, 4))
        flat = FlatLabels.from_label_set(labels)
        expected_canonical = sum(len(labels.canonical(v)) for v in range(labels.n))
        assert int(flat.canonical.sum()) == expected_canonical

    def test_order_preserved(self):
        labels = build_labels(cycle_graph(8))
        flat = FlatLabels.from_label_set(labels)
        assert flat.order.tolist() == list(labels.order)

    def test_requires_order(self):
        labels = LabelSet(3)
        with pytest.raises(LabelingError):
            FlatLabels.from_label_set(labels)

    def test_flatten_alias(self):
        labels = build_labels(cycle_graph(5))
        assert flatten_labels(labels).equals(FlatLabels.from_label_set(labels))

    def test_label_size_and_nbytes(self):
        labels = build_labels(cycle_graph(6))
        flat = FlatLabels.from_label_set(labels)
        assert [flat.label_size(v) for v in range(6)] == labels.size_histogram()
        assert flat.nbytes() > 0
        assert flat.packed_size_bytes() == labels.packed_size_bytes()


class TestRoundTrip:
    def test_label_set_round_trip_exact(self):
        labels = build_labels(grid_graph(4, 4))
        flat = FlatLabels.from_label_set(labels)
        thawed = flat.to_label_set()
        assert thawed.order == labels.order
        for v in range(labels.n):
            assert thawed.canonical(v) == labels.canonical(v)
            assert thawed.noncanonical(v) == labels.noncanonical(v)
            assert thawed.merged(v) == labels.merged(v)

    def test_flat_round_trip_exact(self):
        flat = _flat_for(barbell_graph(3, 2))
        again = FlatLabels.from_label_set(flat.to_label_set())
        assert flat.equals(again)

    def test_serialized_round_trip(self):
        """FlatLabels -> LabelSet -> packed bytes -> LabelSet -> FlatLabels."""
        labels = build_labels(grid_graph(3, 5))
        flat = FlatLabels.from_label_set(labels)
        blob = labels_to_bytes(flat.to_label_set())
        reloaded, _ = labels_from_bytes(blob)
        assert FlatLabels.from_label_set(reloaded).equals(flat)


