"""Tests for binary label serialization and the packed encodings (§6)."""

import pytest

from tests.conftest import assert_oracle_exact, diamond_chains_through_hub

from repro.core.hp_spc import build_labels
from repro.core.index import SPCIndex
from repro.exceptions import CountOverflowError, SerializationError
from repro.generators.classic import grid_graph
from repro.generators.random_graphs import gnp_random_graph
from repro.io.serialize import (
    WIDE_BITS,
    load_index,
    load_labels,
    pack_entry,
    save_index,
    save_labels,
    unpack_entry,
)


class TestEntryPacking:
    def test_roundtrip_default(self):
        word = pack_entry(12345, 7, 999)
        assert unpack_entry(word) == (12345, 7, 999)
        assert word < 2**64

    def test_roundtrip_wide(self):
        word = pack_entry(2**31, 2**20, 2**100, bits=WIDE_BITS)
        assert unpack_entry(word, bits=WIDE_BITS) == (2**31, 2**20, 2**100)

    def test_field_extremes(self):
        hub = 2**23 - 1
        dist = 2**10 - 1
        count = 2**31 - 1
        assert unpack_entry(pack_entry(hub, dist, count)) == (hub, dist, count)

    def test_count_overflow_raises(self):
        # Never saturated: a count past its field is refused.
        with pytest.raises(CountOverflowError) as excinfo:
            pack_entry(0, 0, 2**31)
        assert excinfo.value.bits == 31
        assert excinfo.value.count == 2**31

    def test_hub_overflow_always_raises(self):
        with pytest.raises(SerializationError, match="hub"):
            pack_entry(2**23, 0, 1)

    def test_dist_overflow_always_raises(self):
        with pytest.raises(SerializationError, match="distance"):
            pack_entry(0, 2**10, 1)

    def test_negative_count_rejected(self):
        with pytest.raises(SerializationError, match="negative"):
            pack_entry(0, 0, -1)


class TestLabelFiles:
    @pytest.fixture
    def labels(self):
        return build_labels(gnp_random_graph(25, 0.15, seed=3))

    def test_roundtrip(self, labels, tmp_path):
        path = tmp_path / "labels.bin"
        written = save_labels(labels, path)
        assert written == path.stat().st_size
        loaded = load_labels(path)
        assert loaded.n == labels.n
        assert loaded.order == labels.order
        for v in range(labels.n):
            assert loaded.canonical(v) == labels.canonical(v)
            assert loaded.noncanonical(v) == labels.noncanonical(v)

    def test_roundtrip_wide_bits(self, tmp_path):
        labels = build_labels(grid_graph(5, 5))
        path = tmp_path / "wide.bin"
        save_labels(labels, path, bits=WIDE_BITS)
        loaded = load_labels(path)
        assert loaded.merged(0) == labels.merged(0)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(SerializationError, match="magic"):
            load_labels(path)

    def test_truncated_file(self, labels, tmp_path):
        path = tmp_path / "labels.bin"
        save_labels(labels, path)
        blob = path.read_bytes()
        path.write_bytes(blob + b"\x00" * 4)
        with pytest.raises(SerializationError, match="trailing"):
            load_labels(path)

    def test_unfinalized_labels_rejected(self, tmp_path):
        from repro.core.labels import LabelSet

        labels = LabelSet(2)
        with pytest.raises(SerializationError, match="order"):
            save_labels(labels, tmp_path / "x.bin")

    def test_distance_overflow_on_deep_graphs(self, tmp_path):
        # The 10-bit distance field caps at 1023 (graphs of diameter
        # beyond that — e.g. kilometre-long paths — need the wide Exp-6
        # packing, whose 32-bit distances succeed).
        from repro.core.labels import LabelSet

        labels = LabelSet(2)
        labels.set_order([0, 1])
        labels.append_canonical(0, 0, 0, 0, 1)
        labels.append_canonical(1, 0, 0, 1030, 1)  # distance 1030 > 1023
        labels.append_canonical(1, 1, 1, 0, 1)
        labels.finalize()
        with pytest.raises(SerializationError, match="distance"):
            save_labels(labels, tmp_path / "deep.bin")
        save_labels(labels, tmp_path / "deep_wide.bin", bits=WIDE_BITS)
        loaded = load_labels(tmp_path / "deep_wide.bin")
        assert loaded.total_entries() == labels.total_entries()

    def test_count_overflow_refuses_to_write(self, tmp_path):
        # The chain end's entry for the top hub counts 2^32 paths, past
        # the paper's 31-bit field: the save fails and leaves no file.
        graph, s, _ = diamond_chains_through_hub()
        labels = build_labels(graph)
        path = tmp_path / "overflow.bin"
        with pytest.raises(CountOverflowError):
            save_labels(labels, path)
        assert not path.exists()
        save_labels(labels, path, bits=WIDE_BITS)
        assert load_labels(path).merged(s) == labels.merged(s)


class TestIndexFiles:
    def test_index_roundtrip_queries(self, tmp_path):
        g = gnp_random_graph(22, 0.18, seed=5)
        index = SPCIndex.build(g)
        path = tmp_path / "index.bin"
        save_index(index, path)
        loaded = load_index(path)
        assert_oracle_exact(loaded, g)

    def test_load_index_answers_from_spcl_labels(self, tmp_path):
        g = gnp_random_graph(22, 0.18, seed=5)
        path = tmp_path / "labels.spcl"
        save_labels(build_labels(g), path, bits=WIDE_BITS, graph=g)
        assert path.read_bytes()[:4] == b"SPCL"
        loaded = load_index(path)
        assert_oracle_exact(loaded, g)
        pairs = [(0, 21), (4, 4), (3, 17)]
        assert loaded.count_many(pairs) == [loaded.count_with_distance(s, t)
                                            for s, t in pairs]

    def test_counts_past_31_bits_are_exact(self, tmp_path):
        graph, _, _ = diamond_chains_through_hub(k=40, leaves=10)
        path = tmp_path / "index.bin"
        save_index(SPCIndex.build(graph), path, graph=graph)
        assert path.read_bytes()[:4] == b"SPCF"
        loaded = load_index(path)
        assert loaded.count_with_distance(0, 120) == (80, 2**40)
        assert loaded.count_many([(0, 120)]) == [(80, 2**40)]

    def test_size_matches_packed_accounting(self, tmp_path):
        g = gnp_random_graph(20, 0.2, seed=6)
        index = SPCIndex.build(g)
        path = tmp_path / "labels.bin"
        written = save_labels(index.labels, path)
        # File = magic+version + checksummed v3 header + order section +
        # per-vertex counters + packed entries + two section CRCs.
        from repro.io.serialize import _HEADER_SIZE

        header = 4 + 4 + _HEADER_SIZE + 4
        order_section = 8 * g.n + 4
        entries_overhead = 8 * g.n + 4
        overhead = header + order_section + entries_overhead
        assert written == overhead + index.size_bytes()
