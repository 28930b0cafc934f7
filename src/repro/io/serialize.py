"""Binary index and label files: SPCF for indexes, packed SPCL for labelings.

An unweighted :class:`~repro.core.index.SPCIndex` has one file format:
:func:`save_index` writes, and :func:`load_index` reads, the exact
columnar SPCF v4 file of :mod:`repro.io.flat_store`. Builds, the
rebuild-behind publish and both serving tiers all use it.

The SPCL format of this module holds the :class:`LabelSet` files SPCF
does not cover: weighted labelings (the wide Exp-6 packing, 32 + 32 +
128 bits) and directed label pairs (``SPCD``, two SPCL blobs). A label entry ``(w, sd(v,w), σ_{v,w})`` packs into
``sum(bits)`` bits — the paper's default is 23 bits of hub id, 10 bits
of distance and 31 bits of count (§6). A count that does not fit its
field raises :class:`~repro.exceptions.CountOverflowError`; nothing is
ever saturated, so a file never holds a count it cannot answer exactly.

File layout, version 3 (little-endian)::

    magic b"SPCL" | version u32 |
    header: n u64, hub_bits u8, dist_bits u8, count_bits u16,
            fp_n u64, fp_m u64, fp_degree_hash u64,
            order_len u64, entries_len u64 | header_crc u32 |
    order payload (n × u64)              | order_crc u32 |
    entries payload (per-vertex counters + packed entries) | entries_crc u32

Every section carries a CRC32 so truncation and bit-flips surface as a
typed :class:`~repro.exceptions.SerializationError` with byte-offset
context instead of a garbage index. The ``fp_*`` triple is the *graph
fingerprint* (:func:`graph_fingerprint`) recorded at save time when the
graph is available; loaders can check it against the live graph to detect
stale indexes. Version-2 files (no checksums, no fingerprint) still load.

All writers go through :func:`atomic_write_bytes` — write to a temp file
in the destination directory, flush + fsync, then ``os.replace`` — so a
crashed or killed save never leaves a half-written file at the target
path.
"""

import contextlib
import os
import struct
import tempfile
import time
import zlib

from repro.core.labels import LabelSet
from repro.exceptions import CountOverflowError, SerializationError
from repro.observability.metrics import get_registry

MAGIC = b"SPCL"
VERSION = 3
#: Oldest on-disk version :func:`labels_from_bytes` still reads.
OLDEST_READABLE_VERSION = 2

#: The paper's default packing: 23 + 10 + 31 = 64 bits per entry.
DEFAULT_BITS = (23, 10, 31)
#: The Exp-6 Delaunay packing: 32 + 32 + 128 bits per entry.
WIDE_BITS = (32, 32, 128)

_HEADER_FMT = "<QBBHQQQQQ"
_HEADER_SIZE = struct.calcsize(_HEADER_FMT)
#: ``fp_m`` sentinel marking "no fingerprint recorded at save time".
NO_FINGERPRINT = (1 << 64) - 1


def _entry_bytes(bits):
    total = sum(bits)
    if total % 8:
        raise SerializationError(f"entry width {total} is not a whole number of bytes")
    return total // 8


def pack_entry(hub, dist, count, bits=DEFAULT_BITS):
    """Pack one entry into an int of ``sum(bits)`` bits (hub|dist|count).

    Every field must fit its width: a count past ``2^count_bits - 1``
    raises :class:`CountOverflowError`, the other fields
    :class:`SerializationError`.
    """
    hub_bits, dist_bits, count_bits = bits
    if not 0 <= hub < (1 << hub_bits):
        raise SerializationError(f"hub {hub} does not fit in {hub_bits} bits")
    if not 0 <= dist < (1 << dist_bits):
        raise SerializationError(f"distance {dist} does not fit in {dist_bits} bits")
    if count < 0:
        raise SerializationError(f"negative count {count}")
    if count >= (1 << count_bits):
        raise CountOverflowError(count, count_bits)
    return (hub << (dist_bits + count_bits)) | (dist << count_bits) | count


def unpack_entry(word, bits=DEFAULT_BITS):
    """Inverse of :func:`pack_entry`: returns ``(hub, dist, count)``."""
    hub_bits, dist_bits, count_bits = bits
    count = word & ((1 << count_bits) - 1)
    dist = (word >> count_bits) & ((1 << dist_bits) - 1)
    hub = word >> (dist_bits + count_bits)
    if hub >= (1 << hub_bits):
        raise SerializationError("word wider than the declared encoding")
    return hub, dist, count


# -- integrity helpers ---------------------------------------------------------


def graph_fingerprint(graph):
    """``(n, m, degree_hash)`` triple identifying the graph an index serves.

    ``degree_hash`` is the CRC32 of the degree sequence, so two graphs with
    the same vertex/edge counts but different structure almost surely get
    different fingerprints. Cheap to compute (one pass over the adjacency)
    and stable across processes — unlike Python's salted ``hash``.
    """
    import numpy as np

    degrees = np.fromiter(
        (len(row) for row in graph.adjacency), dtype=np.uint64, count=graph.n
    )
    return (graph.n, graph.m, zlib.crc32(degrees.tobytes()) & 0xFFFFFFFF)


def atomic_write_bytes(path, blob):
    """Write ``blob`` to ``path`` atomically; returns bytes written.

    The bytes land in a temp file in the destination directory, are
    flushed and fsynced, and only then renamed over ``path`` with
    ``os.replace`` — a crash mid-save leaves the previous file (or no
    file) intact, never a truncated one.
    """
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(
        prefix=os.path.basename(path) + ".", suffix=".tmp", dir=directory
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(blob)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
    return len(blob)


def _read_bytes(path):
    """Read a whole file. Separate function so the fault-injection harness
    (:mod:`repro.testing.faults`) can wrap it with transient I/O errors."""
    with open(path, "rb") as handle:
        return handle.read()


def _read_with_retries(path, retries=0, retry_wait=0.01):
    """Read ``path``, retrying transient ``OSError`` with linear backoff.

    ``FileNotFoundError`` is never retried — a missing file is a state,
    not a glitch.
    """
    attempt = 0
    while True:
        try:
            return _read_bytes(path)
        except FileNotFoundError:
            raise
        except OSError:
            if attempt >= retries:
                raise
            attempt += 1
            time.sleep(retry_wait * attempt)


class _Reader:
    """Bounds-checked cursor over a byte blob.

    Every read names what it is reading and raises
    :class:`SerializationError` with byte-offset context on truncation, so
    a cut-short file reports *where* and *what* was missing instead of
    surfacing a raw ``struct.error``.
    """

    __slots__ = ("blob", "offset", "context", "limit")

    def __init__(self, blob, context, offset=0, limit=None):
        self.blob = blob
        self.offset = offset
        self.context = context
        self.limit = len(blob) if limit is None else limit

    def remaining(self):
        return self.limit - self.offset

    def take(self, nbytes, what):
        if self.offset + nbytes > self.limit:
            raise SerializationError(
                f"{self.context}: truncated while reading {what} at byte "
                f"{self.offset}: need {nbytes} bytes, {self.remaining()} available"
            )
        chunk = self.blob[self.offset : self.offset + nbytes]
        self.offset += nbytes
        return chunk

    def unpack(self, fmt, what):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), what))


class LabelFileMeta:
    """Parsed header of a label blob: version, shape, encoding, fingerprint.

    ``fingerprint`` is the ``(n, m, degree_hash)`` triple recorded at save
    time, or ``None`` for v2 files and v3 files saved without a graph.
    """

    __slots__ = ("version", "n", "bits", "fingerprint", "total_bytes")

    def __init__(self, version, n, bits, fingerprint, total_bytes):
        self.version = version
        self.n = n
        self.bits = bits
        self.fingerprint = fingerprint
        self.total_bytes = total_bytes

    def __repr__(self):
        return (
            f"LabelFileMeta(version={self.version}, n={self.n}, "
            f"bits={self.bits}, fingerprint={self.fingerprint})"
        )


def _crc(payload):
    return zlib.crc32(payload) & 0xFFFFFFFF


def _entries_payload(labels, bits):
    """The per-vertex counters + packed entries body (shared by v2/v3)."""
    entry_bytes = _entry_bytes(bits)
    parts = []
    for v in range(labels.n):
        canonical = labels.canonical(v)
        noncanonical = labels.noncanonical(v)
        parts.append(struct.pack("<II", len(canonical), len(noncanonical)))
        for row in (canonical, noncanonical):
            for _, hub, dist, count in row:
                word = pack_entry(hub, dist, count, bits)
                parts.append(word.to_bytes(entry_bytes, "little"))
    return b"".join(parts)


def labels_to_bytes(labels, bits=DEFAULT_BITS, fingerprint=None):
    """Encode a finalized :class:`LabelSet` as a standalone v3 byte blob.

    ``fingerprint`` is an optional ``(n, m, degree_hash)`` triple from
    :func:`graph_fingerprint`; when given, loaders can verify the blob
    against the live graph before serving queries from it.
    """
    if labels.order is None:
        raise SerializationError("labels must have an order; call set_order() first")
    if fingerprint is None:
        fp_n, fp_m, fp_deg = labels.n, NO_FINGERPRINT, 0
    else:
        fp_n, fp_m, fp_deg = fingerprint
    order_payload = struct.pack(f"<{labels.n}Q", *labels.order)
    entries_payload = _entries_payload(labels, bits)
    head = MAGIC + struct.pack("<I", VERSION)
    header = struct.pack(
        _HEADER_FMT,
        labels.n, bits[0], bits[1], bits[2],
        fp_n, fp_m, fp_deg,
        len(order_payload), len(entries_payload),
    )
    parts = [head, header, struct.pack("<I", _crc(head + header))]
    for payload in (order_payload, entries_payload):
        parts.append(payload)
        parts.append(struct.pack("<I", _crc(payload)))
    return b"".join(parts)


def _parse_entries(reader, labels, n, bits):
    """Fill ``labels`` from a per-vertex counters + packed entries body."""
    entry_bytes = _entry_bytes(bits)
    rank_of = labels.rank_of
    for v in range(n):
        n_canonical, n_noncanonical = reader.unpack(
            "<II", f"entry counters of vertex {v}"
        )
        for kind in range(2):
            count_entries = n_canonical if kind == 0 else n_noncanonical
            append = labels.append_canonical if kind == 0 else labels.append_noncanonical
            for i in range(count_entries):
                chunk = reader.take(entry_bytes, f"entry {i} of vertex {v}")
                word = int.from_bytes(chunk, "little")
                hub, dist, count = unpack_entry(word, bits)
                if hub >= n:
                    raise SerializationError(
                        f"{reader.context}: entry {i} of vertex {v} names "
                        f"hub {hub} outside [0, {n})"
                    )
                append(v, rank_of[hub], hub, dist, count)


def _parse_order(reader, n):
    order = list(reader.unpack(f"<{n}Q", "vertex order"))
    if sorted(order) != list(range(n)):
        raise SerializationError(
            f"{reader.context}: stored order is not a permutation of [0, {n})"
        )
    return order


def peek_label_meta(blob, context="<bytes>"):
    """Parse (and for v3, CRC-verify) just the header of a label blob."""
    reader = _Reader(blob, context)
    if reader.take(4, "magic") != MAGIC:
        raise SerializationError(f"{context}: not a label blob (bad magic)")
    (version,) = reader.unpack("<I", "format version")
    if version == 2:
        n, hub_bits, dist_bits, count_bits = reader.unpack("<QBBH", "v2 header")
        return LabelFileMeta(2, n, (hub_bits, dist_bits, count_bits), None, None)
    if version != VERSION:
        raise SerializationError(
            f"{context}: unsupported version {version} "
            f"(this build reads versions {OLDEST_READABLE_VERSION}..{VERSION})"
        )
    header = reader.take(_HEADER_SIZE, "v3 header")
    (stored_crc,) = reader.unpack("<I", "header checksum")
    actual = _crc(blob[:8] + header)
    if stored_crc != actual:
        raise SerializationError(
            f"{context}: header checksum mismatch "
            f"(stored {stored_crc:#010x}, computed {actual:#010x}) — "
            "the file header is corrupt"
        )
    n, hub_bits, dist_bits, count_bits, fp_n, fp_m, fp_deg, order_len, entries_len = (
        struct.unpack(_HEADER_FMT, header)
    )
    fingerprint = None if fp_m == NO_FINGERPRINT else (fp_n, fp_m, fp_deg)
    total = reader.offset + order_len + 4 + entries_len + 4
    return LabelFileMeta(
        VERSION, n, (hub_bits, dist_bits, count_bits), fingerprint, total
    )


def read_label_meta(path, retries=0, retry_wait=0.01):
    """Read and parse just the header of a label file on disk.

    Dispatches on the magic like the loaders: packed SPCL files yield a
    :class:`LabelFileMeta`, SPCF flat files a
    :class:`repro.io.flat_store.FlatFileMeta` (both carry
    ``fingerprint``), and neither reads past the header — index watchers
    poll this on every change, so it must stay cheap for multi-GB files.
    """
    if _peek_magic(path, retries, retry_wait) == b"SPCF":
        from repro.io.flat_store import read_flat_meta

        return read_flat_meta(path, retries=retries, retry_wait=retry_wait)
    blob = _read_with_retries(path, retries, retry_wait)
    return peek_label_meta(blob, context=str(path))


def _labels_from_bytes_v2(blob, context):
    """Legacy v2 parse (no checksums), with bounds-checked truncation errors."""
    reader = _Reader(blob, context, offset=8)
    n, hub_bits, dist_bits, count_bits = reader.unpack("<QBBH", "v2 header")
    bits = (hub_bits, dist_bits, count_bits)
    labels = LabelSet(n)
    labels.set_order(_parse_order(reader, n))
    _parse_entries(reader, labels, n, bits)
    labels.finalize()
    return labels, reader.offset


def labels_from_bytes(blob, context="<bytes>"):
    """Inverse of :func:`labels_to_bytes`; returns ``(labels, bytes_used)``.

    Reads the current v3 format (verifying every section checksum) and
    legacy v2 blobs. Truncation, bit-flips, bad lengths, and trailing
    garbage inside the declared sections all raise
    :class:`SerializationError` naming the failing section and byte offset.
    """
    labels, used, _ = labels_from_bytes_with_meta(blob, context)
    return labels, used


def labels_from_bytes_with_meta(blob, context="<bytes>"):
    """:func:`labels_from_bytes` variant also returning the parsed header."""
    meta = peek_label_meta(blob, context)
    if meta.version == 2:
        labels, used = _labels_from_bytes_v2(blob, context)
        meta.total_bytes = used
        return labels, used, meta
    reader = _Reader(blob, context, offset=8 + _HEADER_SIZE + 4)
    n = meta.n
    sections = []
    _, _, _, _, _, _, _, order_len, entries_len = struct.unpack(
        _HEADER_FMT, blob[8 : 8 + _HEADER_SIZE]
    )
    if order_len != 8 * n:
        raise SerializationError(
            f"{context}: order section declares {order_len} bytes "
            f"but n={n} needs {8 * n}"
        )
    for name, length in (("order", order_len), ("entries", entries_len)):
        start = reader.offset
        payload = reader.take(length, f"{name} section")
        (stored_crc,) = reader.unpack("<I", f"{name} checksum")
        actual = _crc(payload)
        if stored_crc != actual:
            raise SerializationError(
                f"{context}: {name} section at byte {start} failed its "
                f"checksum (stored {stored_crc:#010x}, computed {actual:#010x}) — "
                "truncated or bit-flipped file"
            )
        sections.append((payload, start))
    labels = LabelSet(n)
    order_payload, _ = sections[0]
    order_reader = _Reader(order_payload, context)
    labels.set_order(_parse_order(order_reader, n))
    entries_payload, entries_start = sections[1]
    entries_reader = _Reader(entries_payload, context)
    _parse_entries(entries_reader, labels, n, meta.bits)
    if entries_reader.remaining():
        raise SerializationError(
            f"{context}: entries section has {entries_reader.remaining()} "
            f"bytes beyond the declared per-vertex entries "
            f"(entry-count/blob-length mismatch at byte "
            f"{entries_start + entries_reader.offset})"
        )
    labels.finalize()
    return labels, reader.offset, meta


def save_labels(labels, path, bits=DEFAULT_BITS, graph=None, fingerprint=None):
    """Atomically write a finalized :class:`LabelSet`; returns bytes written.

    Pass ``graph`` (or a precomputed ``fingerprint`` triple) to embed the
    graph fingerprint so loaders can detect stale indexes.
    """
    registry = get_registry()
    save_start = time.perf_counter() if registry.enabled else None
    if fingerprint is None and graph is not None:
        fingerprint = graph_fingerprint(graph)
    blob = labels_to_bytes(labels, bits=bits, fingerprint=fingerprint)
    written = atomic_write_bytes(path, blob)
    if save_start is not None:
        registry.histogram("spc_io_seconds", op="save").observe(
            time.perf_counter() - save_start
        )
        registry.counter("spc_io_bytes_total", op="save").inc(written)
    return written


def _peek_magic(path, retries=0, retry_wait=0.01):
    """The first four bytes of ``path`` (format dispatch)."""
    attempt = 0
    while True:
        try:
            with open(path, "rb") as handle:
                return handle.read(4)
        except OSError:
            if attempt >= retries:
                raise
            time.sleep(retry_wait * (attempt + 1))
            attempt += 1


def load_labels(path, retries=0, retry_wait=0.01):
    """Read a :class:`LabelSet` written by :func:`save_labels`.

    Dispatches on the file magic, so SPCF index files (:func:`save_index`)
    load here too — their columns are thawed into an exact tuple-based
    :class:`LabelSet`. This is the offline reader; serving paths load SPCF
    columns with :mod:`repro.io.flat_store` and never thaw.
    ``retries`` re-reads the file after transient ``OSError`` (with linear
    backoff); corruption and truncation raise :class:`SerializationError`.
    """
    labels, _ = load_labels_with_meta(path, retries=retries, retry_wait=retry_wait)
    return labels


def load_labels_with_meta(path, retries=0, retry_wait=0.01):
    """:func:`load_labels` variant also returning the file metadata.

    Packed SPCL files yield a :class:`LabelFileMeta`; SPCF flat files
    yield a :class:`repro.io.flat_store.FlatFileMeta` (both carry
    ``fingerprint``).
    """
    registry = get_registry()
    load_start = time.perf_counter() if registry.enabled else None
    if _peek_magic(path, retries, retry_wait) == b"SPCF":
        from repro.io.flat_store import load_flat_labels_with_meta

        flat, meta = load_flat_labels_with_meta(path, retries=retries,
                                                retry_wait=retry_wait)
        return flat.to_label_set(), meta
    blob = _read_with_retries(path, retries, retry_wait)
    labels, used, meta = labels_from_bytes_with_meta(blob, context=str(path))
    if used != len(blob):
        raise SerializationError(
            f"{path}: {len(blob) - used} trailing bytes after the label data "
            f"(file is {len(blob)} bytes, format ends at byte {used})"
        )
    if load_start is not None:
        registry.histogram("spc_io_seconds", op="load").observe(
            time.perf_counter() - load_start
        )
        registry.counter("spc_io_bytes_total", op="load").inc(len(blob))
    return labels, meta


def save_index(index, path, graph=None, fingerprint=None):
    """Atomically write a plain :class:`~repro.core.index.SPCIndex` as an
    SPCF v4 file (:mod:`repro.io.flat_store`); returns bytes written.

    Counts are stored exactly. Pass ``graph`` (or a precomputed
    ``fingerprint`` triple) to embed the graph fingerprint so loaders
    can detect stale indexes.
    """
    # deferred: flat_store imports this module at load time.
    from repro.io.flat_store import write_flat

    return write_flat(index.to_flat(), path, graph=graph, fingerprint=fingerprint)


def load_index(path, retries=0, retry_wait=0.01, mmap=False):
    """Load an :class:`~repro.core.index.SPCIndex` saved by :func:`save_index`.

    SPCF files are served as their CSR columns; with ``mmap=True`` the
    columns stay memory-mapped, so a multi-GB index opens without
    loading into RAM. SPCL label files (weighted builds) are frozen into
    columns once and ignore ``mmap``. ``retries`` re-reads the file after
    transient ``OSError``.
    """
    from repro.core.flat_labels import FlatLabels
    from repro.core.index import SPCIndex

    if _peek_magic(path, retries, retry_wait) == b"SPCF":
        from repro.io.flat_store import load_flat_labels

        flat = load_flat_labels(path, mmap=mmap, retries=retries,
                                retry_wait=retry_wait)
    else:
        labels = load_labels(path, retries=retries, retry_wait=retry_wait)
        flat = FlatLabels.from_label_set(labels)
    return SPCIndex.from_flat(flat)


DIRECTED_MAGIC = b"SPCD"


def save_directed_labels(l_in, l_out, path, bits=DEFAULT_BITS, graph=None,
                         fingerprint=None):
    """Atomically write a §7 label pair (``L^in``, ``L^out``) to one file."""
    if fingerprint is None and graph is not None:
        fingerprint = graph_fingerprint(graph)
    blob_in = labels_to_bytes(l_in, bits=bits, fingerprint=fingerprint)
    blob_out = labels_to_bytes(l_out, bits=bits, fingerprint=fingerprint)
    blob = b"".join((
        DIRECTED_MAGIC,
        struct.pack("<QQ", len(blob_in), len(blob_out)),
        blob_in,
        blob_out,
    ))
    return atomic_write_bytes(path, blob)


def load_directed_labels(path, retries=0, retry_wait=0.01):
    """Read a label pair written by :func:`save_directed_labels`."""
    blob = _read_with_retries(path, retries, retry_wait)
    context = str(path)
    reader = _Reader(blob, context)
    if reader.take(4, "magic") != DIRECTED_MAGIC:
        raise SerializationError(f"{context}: not a directed label file (bad magic)")
    len_in, len_out = reader.unpack("<QQ", "directed section lengths")
    expected = 4 + 16 + len_in + len_out
    if len(blob) != expected:
        raise SerializationError(
            f"{context}: directed label file is {len(blob)} bytes but the "
            f"header declares {expected} (truncated or trailing bytes)"
        )
    l_in, used_in = labels_from_bytes(
        reader.take(len_in, "L^in blob"), context=f"{context}[L^in]"
    )
    if used_in != len_in:
        raise SerializationError(
            f"{context}: L^in blob declares {len_in} bytes but its label "
            f"data ends at byte {used_in}"
        )
    l_out, used_out = labels_from_bytes(
        reader.take(len_out, "L^out blob"), context=f"{context}[L^out]"
    )
    if used_out != len_out:
        raise SerializationError(
            f"{context}: L^out blob declares {len_out} bytes but its label "
            f"data ends at byte {used_out}"
        )
    return l_in, l_out
