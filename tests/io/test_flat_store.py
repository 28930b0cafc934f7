"""SPCF v4 flat label files: round trips, mmap, corruption, dispatch."""

import os
import struct
import zlib

import numpy as np
import pytest

from repro.core.flat_labels import FlatLabels
from repro.core.hp_spc import build_labels
from repro.core.index import SPCIndex
from repro.exceptions import SerializationError
from repro.generators.classic import cycle_graph, star_graph
from repro.generators.random_graphs import barabasi_albert_graph
from repro.graph.graph import Graph
from repro.io.flat_store import (
    FLAT_MAGIC,
    load_flat_labels,
    load_flat_labels_with_meta,
    read_flat_meta,
    save_flat_labels,
)
from repro.io.serialize import (
    graph_fingerprint,
    load_index,
    load_labels,
    load_labels_with_meta,
)
from repro.kernels.hub_push import build_flat_labels_csr


@pytest.fixture(scope="module")
def ba_graph():
    return barabasi_albert_graph(400, 3, seed=5)


@pytest.fixture(scope="module")
def ba_flat(ba_graph):
    return build_flat_labels_csr(ba_graph)


def test_round_trip_lossless(tmp_path, ba_flat):
    path = tmp_path / "labels.spcf"
    written = save_flat_labels(ba_flat, path)
    assert written == os.path.getsize(path)
    assert load_flat_labels(path).equals(ba_flat)


def test_mmap_load_matches_ram_load(tmp_path, ba_flat):
    path = tmp_path / "labels.spcf"
    save_flat_labels(ba_flat, path)
    mapped = load_flat_labels(path, mmap=True)
    assert isinstance(mapped.dist, np.memmap)
    assert mapped.equals(ba_flat)


def test_columns_narrowed_on_save(tmp_path, ba_graph, ba_flat):
    # the python engine's freeze emits int64 columns; the file stores the
    # narrowest lossless widths and load keeps them narrow
    wide = FlatLabels.from_label_set(build_labels(ba_graph))
    assert wide.count.dtype == np.int64
    path = tmp_path / "labels.spcf"
    save_flat_labels(wide, path)
    back = load_flat_labels(path)
    assert back.count.dtype == np.uint32
    assert back.dist.dtype == np.uint16
    assert back.equals(ba_flat)


def test_fingerprint_embedded_and_meta(tmp_path, ba_graph, ba_flat):
    path = tmp_path / "labels.spcf"
    save_flat_labels(ba_flat, path, graph=ba_graph)
    flat, meta = load_flat_labels_with_meta(path)
    assert flat.equals(ba_flat)
    assert meta.fingerprint == graph_fingerprint(ba_graph)
    assert meta.n == ba_graph.n
    assert meta.entries == ba_flat.total_entries()
    header_only = read_flat_meta(path)
    assert header_only.fingerprint == meta.fingerprint
    assert header_only.total_bytes == os.path.getsize(path)


def test_no_fingerprint_reads_as_none(tmp_path, ba_flat):
    path = tmp_path / "labels.spcf"
    save_flat_labels(ba_flat, path)
    assert read_flat_meta(path).fingerprint is None


def test_unknown_encoding_rejected(tmp_path, ba_flat):
    with pytest.raises(ValueError, match="encoding"):
        save_flat_labels(ba_flat, tmp_path / "x.spcf", encoding="zstd")


@pytest.mark.parametrize("offset", [5, 28],
                         ids=["encoding-byte", "n-exceptions"])
def test_nonraw_header_rejected(tmp_path, ba_flat, offset):
    """A header naming any encoding but raw (byte 5) or any exceptions
    (the u64 at byte 28) is refused at parse time, even with a valid CRC."""
    from repro.io.flat_store import _HEADER_SIZE, open_shared

    path = tmp_path / "labels.spcf"
    save_flat_labels(ba_flat, path)
    blob = bytearray(path.read_bytes())
    blob[offset] = 1
    header_end = 4 + _HEADER_SIZE
    blob[header_end:header_end + 4] = struct.pack(
        "<I", zlib.crc32(bytes(blob[4:header_end])) & 0xFFFFFFFF)
    path.write_bytes(bytes(blob))
    for load in (load_flat_labels, read_flat_meta, open_shared, load_index,
                 load_labels):
        with pytest.raises(SerializationError, match="encoding"):
            load(path)


@pytest.mark.parametrize("mmap", [False, True])
def test_every_corrupted_byte_region_is_caught(tmp_path, ba_flat, mmap):
    path = tmp_path / "labels.spcf"
    save_flat_labels(ba_flat, path)
    size = os.path.getsize(path)
    blob = path.read_bytes()
    # one offset inside each region: header, order, middle, tail
    for offset in (5, 70, size // 2, size - 3):
        corrupt = tmp_path / "corrupt.spcf"
        flipped = bytearray(blob)
        flipped[offset] ^= 0xFF
        corrupt.write_bytes(bytes(flipped))
        with pytest.raises(SerializationError):
            load_flat_labels(corrupt, mmap=mmap)


@pytest.mark.parametrize("mmap", [False, True])
def test_truncation_is_caught(tmp_path, ba_flat, mmap):
    path = tmp_path / "labels.spcf"
    save_flat_labels(ba_flat, path)
    blob = path.read_bytes()
    truncated = tmp_path / "trunc.spcf"
    truncated.write_bytes(blob[:-50])
    with pytest.raises(SerializationError):
        load_flat_labels(truncated, mmap=mmap)


def test_trailing_bytes_are_caught(tmp_path, ba_flat):
    path = tmp_path / "labels.spcf"
    save_flat_labels(ba_flat, path)
    path.write_bytes(path.read_bytes() + b"extra")
    with pytest.raises(SerializationError, match="trailing|implies"):
        load_flat_labels(path)


def test_wrong_magic_rejected(tmp_path):
    path = tmp_path / "bogus.spcf"
    path.write_bytes(b"SPCL" + b"\0" * 100)
    with pytest.raises(SerializationError, match="magic"):
        load_flat_labels(path)
    assert FLAT_MAGIC == b"SPCF"


def test_verify_false_skips_crc_checks(tmp_path, ba_flat):
    path = tmp_path / "labels.spcf"
    save_flat_labels(ba_flat, path)
    size = os.path.getsize(path)
    blob = bytearray(path.read_bytes())
    blob[size - 1] ^= 0xFF  # canonical-section CRC byte
    path.write_bytes(bytes(blob))
    with pytest.raises(SerializationError):
        load_flat_labels(path)
    assert load_flat_labels(path, verify=False).equals(ba_flat)


def test_missing_file_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        load_flat_labels(tmp_path / "absent.spcf")


# -- format dispatch ---------------------------------------------------------


def test_load_index_dispatches_on_magic(tmp_path, ba_graph, ba_flat):
    path = tmp_path / "index.spcf"
    save_flat_labels(ba_flat, path, graph=ba_graph)
    index = load_index(path, mmap=True)
    assert isinstance(index, SPCIndex)
    assert index.n == ba_graph.n
    reference = SPCIndex.from_flat(ba_flat)
    pairs = [(0, 1), (5, 399), (7, 7)]
    assert index.count_many(pairs) == reference.count_many(pairs)


def test_load_labels_dispatches_on_magic(tmp_path, ba_flat):
    path = tmp_path / "index.spcf"
    save_flat_labels(ba_flat, path)
    labels = load_labels(path)
    assert labels.total_entries() == ba_flat.total_entries()
    _, meta = load_labels_with_meta(path)
    assert meta.n == ba_flat.n


# -- edge shapes -------------------------------------------------------------


@pytest.mark.parametrize("graph", [
    Graph.from_edges(1, []),
    Graph.from_edges(4, []),  # disconnected: some rows, all self-entries
    cycle_graph(3),
    star_graph(5),
])
def test_degenerate_graphs_round_trip(tmp_path, graph):
    flat = build_flat_labels_csr(graph)
    path = tmp_path / "tiny.spcf"
    save_flat_labels(flat, path)
    assert load_flat_labels(path).equals(flat)
    assert load_flat_labels(path, mmap=True).equals(flat)


class TestOpenShared:
    """Multi-process open guard: read-only columns, race check."""

    def test_open_shared_round_trip(self, tmp_path, ba_flat):
        from repro.io.flat_store import file_signature, open_shared

        path = tmp_path / "labels.spcf"
        save_flat_labels(ba_flat, path)
        flat, meta, signature = open_shared(path)
        assert meta.n == ba_flat.n
        assert signature == file_signature(path)
        assert np.array_equal(flat.rank, ba_flat.rank)
        assert np.array_equal(flat.dist, ba_flat.dist)

    def test_columns_are_read_only(self, tmp_path, ba_flat):
        from repro.io.flat_store import open_shared

        path = tmp_path / "labels.spcf"
        save_flat_labels(ba_flat, path)
        flat, _, _ = open_shared(path)
        for column in (flat.order, flat.indptr, flat.rank, flat.dist,
                       flat.count, flat.canonical):
            with pytest.raises((ValueError, RuntimeError)):
                column[0] = 0

    def test_signature_tracks_rewrites(self, tmp_path, ba_flat):
        import time

        from repro.io.flat_store import file_signature

        path = tmp_path / "labels.spcf"
        save_flat_labels(ba_flat, path)
        first = file_signature(path)
        time.sleep(0.02)
        save_flat_labels(ba_flat, path)
        assert file_signature(path) != first


def test_read_label_meta_dispatches_to_spcf(tmp_path, ba_graph, ba_flat):
    from repro.io.serialize import read_label_meta

    path = tmp_path / "labels.spcf"
    save_flat_labels(ba_flat, path, fingerprint=graph_fingerprint(ba_graph))
    meta = read_label_meta(path)
    assert meta.n == ba_flat.n
    assert meta.fingerprint == graph_fingerprint(ba_graph)
