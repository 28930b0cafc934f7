"""Tests for directed (§7) label serialization."""

import random

import pytest

from repro.directed.labeling import build_directed_labels
from repro.exceptions import CountOverflowError, SerializationError
from repro.graph.digraph import WeightedDigraph
from repro.io.serialize import (
    labels_from_bytes,
    labels_to_bytes,
    load_directed_labels,
    save_directed_labels,
)


@pytest.fixture
def digraph():
    rng = random.Random(3)
    edges = [
        (u, v, rng.choice((1, 2, 3)))
        for u in range(18)
        for v in range(18)
        if u != v and rng.random() < 0.15
    ]
    return WeightedDigraph.from_edges(18, edges)


class TestDirectedRoundtrip:
    def test_roundtrip(self, digraph, tmp_path):
        l_in, l_out = build_directed_labels(digraph)
        path = tmp_path / "directed.idx"
        written = save_directed_labels(l_in, l_out, path)
        assert written == path.stat().st_size
        loaded_in, loaded_out = load_directed_labels(path)
        for v in range(digraph.n):
            assert loaded_in.merged(v) == l_in.merged(v)
            assert loaded_out.merged(v) == l_out.merged(v)
        assert loaded_in.order == l_in.order

    def test_queries_survive_roundtrip(self, digraph, tmp_path):
        from repro.core.query import merge_join_rows
        from repro.graph.traversal import spc_dijkstra

        l_in, l_out = build_directed_labels(digraph)
        path = tmp_path / "directed.idx"
        save_directed_labels(l_in, l_out, path)
        loaded_in, loaded_out = load_directed_labels(path)
        for s in range(digraph.n):
            for t in range(digraph.n):
                if s == t:
                    continue
                got = merge_join_rows(loaded_out.merged(s), loaded_in.merged(t), s, t)
                assert got == spc_dijkstra(digraph, s, t)

    def test_count_overflow_refuses_to_write(self, tmp_path):
        # 32 directed diamonds end at a high-degree hub, so L^out(0) holds
        # the hub with 2^32 paths: past the 31-bit field, never saturated.
        k, hub = 32, 97
        edges = [(hub - 1, hub, 1)] + [(hub, hub + 1 + j, 1) for j in range(20)]
        for i in range(k):
            left = 3 * i
            edges += [(left, left + 1, 1), (left, left + 2, 1),
                      (left + 1, left + 3, 1), (left + 2, left + 3, 1)]
        graph = WeightedDigraph.from_edges(hub + 21, edges)
        l_in, l_out = build_directed_labels(graph)
        assert max(count for _, _, _, count in l_out.merged(0)) == 2**32
        path = tmp_path / "directed.idx"
        with pytest.raises(CountOverflowError):
            save_directed_labels(l_in, l_out, path)
        assert not path.exists()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.idx"
        path.write_bytes(b"NOPE" + b"\x00" * 40)
        with pytest.raises(SerializationError, match="magic"):
            load_directed_labels(path)

    def test_truncated(self, digraph, tmp_path):
        l_in, l_out = build_directed_labels(digraph)
        path = tmp_path / "directed.idx"
        save_directed_labels(l_in, l_out, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-3])
        with pytest.raises(SerializationError, match="truncated"):
            load_directed_labels(path)


class TestByteCodecs:
    def test_bytes_roundtrip(self, digraph):
        l_in, _ = build_directed_labels(digraph)
        blob = labels_to_bytes(l_in)
        back, used = labels_from_bytes(blob)
        assert used == len(blob)
        assert back.order == l_in.order
        assert back.total_entries() == l_in.total_entries()

    def test_concatenated_blobs_parse_independently(self, digraph):
        l_in, l_out = build_directed_labels(digraph)
        blob = labels_to_bytes(l_in) + labels_to_bytes(l_out)
        first, used = labels_from_bytes(blob)
        second, _ = labels_from_bytes(blob[used:])
        assert first.total_entries() == l_in.total_entries()
        assert second.total_entries() == l_out.total_entries()
