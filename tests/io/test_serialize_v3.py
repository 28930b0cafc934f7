"""v3 on-disk format: checksums catch damage, errors carry byte offsets,
legacy v2 files still load, and saves are atomic."""

import os
import struct

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.hp_spc import build_labels
from repro.exceptions import SerializationError
from repro.generators.classic import grid_graph
from repro.generators.random_graphs import gnp_random_graph
from repro.io.serialize import (
    _HEADER_SIZE,
    MAGIC,
    WIDE_BITS,
    _entries_payload,
    graph_fingerprint,
    labels_from_bytes,
    labels_from_bytes_with_meta,
    labels_to_bytes,
    load_labels,
    load_labels_with_meta,
    peek_label_meta,
    read_label_meta,
    save_labels,
)
from repro.testing.faults import TransientIOErrors, corrupt_bytes, flip_bit, truncate_file


@pytest.fixture()
def labeled():
    graph = gnp_random_graph(30, 0.12, seed=11)
    return graph, build_labels(graph)


def assert_identical(a, b):
    assert a.order == b.order
    for v in range(a.n):
        assert a.canonical(v) == b.canonical(v)
        assert a.noncanonical(v) == b.noncanonical(v)


class TestChecksums:
    def test_header_bit_flip_detected(self, tmp_path, labeled):
        graph, labels = labeled
        path = tmp_path / "l.bin"
        save_labels(labels, path, graph=graph)
        flip_bit(path, 12, 5)  # inside the v3 header
        with pytest.raises(SerializationError, match="header checksum"):
            load_labels(path)

    def test_order_section_bit_flip_detected(self, tmp_path, labeled):
        graph, labels = labeled
        path = tmp_path / "l.bin"
        save_labels(labels, path, graph=graph)
        flip_bit(path, 8 + _HEADER_SIZE + 4 + 3, 1)  # inside the order payload
        with pytest.raises(SerializationError, match="order section at byte"):
            load_labels(path)

    def test_entries_section_bit_flip_detected(self, tmp_path, labeled):
        graph, labels = labeled
        path = tmp_path / "l.bin"
        total = save_labels(labels, path, graph=graph)
        flip_bit(path, total - 20, 7)  # inside the entries payload
        with pytest.raises(SerializationError, match="entries section"):
            load_labels(path)

    def test_truncation_names_byte_offset(self, tmp_path, labeled):
        graph, labels = labeled
        path = tmp_path / "l.bin"
        save_labels(labels, path, graph=graph)
        truncate_file(path, 9)
        with pytest.raises(SerializationError, match="truncated while reading .* at byte"):
            load_labels(path)

    def test_trailing_bytes_rejected(self, tmp_path, labeled):
        graph, labels = labeled
        path = tmp_path / "l.bin"
        save_labels(labels, path, graph=graph)
        with open(path, "ab") as handle:
            handle.write(b"\x00" * 7)
        with pytest.raises(SerializationError, match="7 trailing bytes"):
            load_labels(path)

    def test_entry_count_blob_length_mismatch(self, labeled):
        """Inflating a vertex's entry counter must be caught even though the
        payload CRC is recomputed to match (a 'consistent lie')."""
        graph, labels = labeled
        blob = bytearray(labels_to_bytes(labels, fingerprint=graph_fingerprint(graph)))
        entries_start = 8 + _HEADER_SIZE + 4 + 8 * labels.n + 4
        (n_canonical,) = struct.unpack_from("<I", blob, entries_start)
        struct.pack_into("<I", blob, entries_start, n_canonical + 1)
        # Re-seal the section CRC so only the structural check can object.
        import zlib

        (_, entries_len) = struct.unpack_from("<QQ", blob, 8 + _HEADER_SIZE - 16)
        payload = bytes(blob[entries_start : entries_start + entries_len])
        struct.pack_into("<I", blob, entries_start + entries_len,
                         zlib.crc32(payload) & 0xFFFFFFFF)
        with pytest.raises(SerializationError):
            labels_from_bytes(bytes(blob))

    def test_bad_magic(self, tmp_path, labeled):
        graph, labels = labeled
        path = tmp_path / "l.bin"
        save_labels(labels, path)
        corrupt_bytes(path, 0, b"NOPE")
        with pytest.raises(SerializationError, match="bad magic"):
            load_labels(path)


class TestFingerprint:
    def test_fingerprint_round_trips(self, tmp_path, labeled):
        graph, labels = labeled
        path = tmp_path / "l.bin"
        save_labels(labels, path, graph=graph)
        meta = read_label_meta(path)
        assert meta.version == 3
        assert meta.fingerprint == graph_fingerprint(graph)
        _, meta2 = load_labels_with_meta(path)
        assert meta2.fingerprint == meta.fingerprint

    def test_no_graph_means_no_fingerprint(self, tmp_path, labeled):
        _, labels = labeled
        path = tmp_path / "l.bin"
        save_labels(labels, path)
        assert read_label_meta(path).fingerprint is None

    def test_fingerprint_distinguishes_graphs(self):
        a = gnp_random_graph(30, 0.12, seed=1)
        b = gnp_random_graph(30, 0.12, seed=2)
        assert graph_fingerprint(a) != graph_fingerprint(b)
        assert graph_fingerprint(a) == graph_fingerprint(a)


class TestV2Compat:
    def make_v2_blob(self, labels, bits=(23, 10, 31)):
        """Hand-build a legacy v2 file: no checksums, no fingerprint."""
        return b"".join((
            MAGIC,
            struct.pack("<I", 2),
            struct.pack("<QBBH", labels.n, *bits),
            struct.pack(f"<{labels.n}Q", *labels.order),
            _entries_payload(labels, bits),
        ))

    def test_v2_blob_still_loads(self, labeled):
        _, labels = labeled
        parsed, used = labels_from_bytes(self.make_v2_blob(labels))
        assert_identical(parsed, labels)

    def test_v2_meta_has_no_fingerprint(self, labeled):
        _, labels = labeled
        meta = peek_label_meta(self.make_v2_blob(labels))
        assert meta.version == 2
        assert meta.fingerprint is None

    def test_v2_truncation_still_typed(self, labeled):
        _, labels = labeled
        blob = self.make_v2_blob(labels)
        with pytest.raises(SerializationError, match="truncated while reading"):
            labels_from_bytes(blob[:-3])

    def test_unsupported_version_rejected(self, labeled):
        _, labels = labeled
        blob = bytearray(self.make_v2_blob(labels))
        struct.pack_into("<I", blob, 4, 9)
        with pytest.raises(SerializationError, match="unsupported version 9"):
            labels_from_bytes(bytes(blob))


class TestAtomicityAndRetries:
    def test_save_replaces_not_appends(self, tmp_path, labeled):
        graph, labels = labeled
        path = tmp_path / "l.bin"
        first = save_labels(labels, path, graph=graph)
        second = save_labels(labels, path, graph=graph)
        assert first == second == os.path.getsize(path)
        assert not [p for p in os.listdir(tmp_path) if p.endswith(".tmp")]

    def test_transient_io_error_retried(self, tmp_path, labeled):
        graph, labels = labeled
        path = tmp_path / "l.bin"
        save_labels(labels, path, graph=graph)
        with TransientIOErrors(failures=2) as fault:
            parsed = load_labels(path, retries=2, retry_wait=0)
        assert fault.raised == 2
        assert_identical(parsed, labels)

    def test_transient_io_error_exhausts_retries(self, tmp_path, labeled):
        graph, labels = labeled
        path = tmp_path / "l.bin"
        save_labels(labels, path, graph=graph)
        with TransientIOErrors(failures=3), pytest.raises(OSError):
            load_labels(path, retries=1, retry_wait=0)

    def test_missing_file_never_retried(self, tmp_path):
        with TransientIOErrors(failures=0) as fault:
            with pytest.raises(FileNotFoundError):
                load_labels(tmp_path / "absent.bin", retries=5, retry_wait=0)
        assert fault.raised == 0


class TestRoundTripProperties:
    """Hypothesis: save/load is the identity for arbitrary graphs, both
    encodings, with and without fingerprints."""

    @given(
        n=st.integers(min_value=1, max_value=24),
        p=st.one_of(st.just(0.0), st.floats(min_value=0.05, max_value=0.5)),
        seed=st.integers(min_value=0, max_value=2**16),
        bits=st.sampled_from(["default", "wide"]),
        with_fingerprint=st.booleans(),
    )
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_save_load_identity(self, n, p, seed, bits, with_fingerprint):
        graph = gnp_random_graph(n, p, seed=seed)
        labels = build_labels(graph)
        fingerprint = graph_fingerprint(graph) if with_fingerprint else None
        use_bits = WIDE_BITS if bits == "wide" else (23, 10, 31)
        blob = labels_to_bytes(labels, bits=use_bits, fingerprint=fingerprint)
        parsed, used, meta = labels_from_bytes_with_meta(blob)
        assert used == len(blob)
        assert meta.fingerprint == fingerprint
        assert meta.bits == use_bits
        assert_identical(parsed, labels)

    @given(drop=st.integers(min_value=1, max_value=80))
    @settings(max_examples=40, deadline=None)
    def test_any_truncation_is_typed(self, drop):
        """Chopping any suffix off a v3 blob must raise SerializationError —
        never a struct.error, never silently parse."""
        graph = grid_graph(4, 4)
        labels = build_labels(graph)
        blob = labels_to_bytes(labels, fingerprint=graph_fingerprint(graph))
        cut = blob[: max(0, len(blob) - drop)]
        with pytest.raises(SerializationError):
            labels_from_bytes(cut)
