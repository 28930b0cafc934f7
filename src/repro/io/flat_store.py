"""SPCF v4: the one index file format — columnar, checksummed, mmap-able.

Every unweighted index is written to and served from an SPCF file:
``repro-spc build``, :func:`repro.io.serialize.save_index`, the
rebuild-behind publish of :class:`~repro.dynamic.maintenance
.MaintenanceController`, :class:`~repro.serving.service.SPCService` and
:class:`~repro.serving.cluster.ClusterService` all use it, and a build
checkpoint (:mod:`repro.io.checkpoint`) carries its label prefix as an
SPCF image behind a small envelope. The file stores the
:class:`~repro.core.flat_labels.FlatLabels` CSR columns directly:

``````
SPCF | header (56 B) | header CRC32 |
  order   n x int64          | CRC32 |
  indptr  (n+1) x int64      | CRC32 |
  rank    entries x uint32   | CRC32 |
  dist    entries x {uint16|uint32} | CRC32 |
  count   entries x {uint32|int64}  | CRC32 |
  canonical entries x uint8  | CRC32 |
``````

Properties the serving path needs:

* **No hub column.** ``hub == order[rank]`` always, so hubs are
  re-derived lazily after load instead of costing 8 bytes an entry.
* **Exact counts.** uint32 with the explicit int64 overflow escape —
  never a saturated count. (The paper's packed 64-bit entries of §6
  survive only as the index-size accounting of
  :meth:`FlatLabels.packed_size_bytes`.)
* **mmap-able.** Every section is a contiguous typed slab at a known
  offset, so ``load_flat_labels(path, mmap=True)`` memory-maps the
  columns and a million-vertex index serves queries without residing
  in RAM.
* **Crash-safe, corruption-loud.** Streamed atomic writes (temp file +
  fsync + rename) and per-section CRC32s, same discipline as SPCL v3.

The header's encoding byte and exceptions count must both be 0; any
other value is a :class:`SerializationError` at parse time, so a file
whose columns this reader does not lay out is never misread.

``load_index``/``load_labels`` in :mod:`repro.io.serialize` dispatch on
the magic, so every CLI/serving path opens SPCF as well as the SPCL
files that weighted and directed labelings still use.
"""

import contextlib
import os
import struct
import tempfile
import time
import zlib

import numpy as np

from repro.core.flat_labels import FlatLabels, narrow_dtypes
from repro.exceptions import SerializationError
from repro.io.serialize import (
    NO_FINGERPRINT,
    _Reader,
    _read_with_retries,
    graph_fingerprint,
)
from repro.observability.metrics import get_registry

INT = np.int64

FLAT_MAGIC = b"SPCF"
FLAT_VERSION = 4

#: header after the magic: version, encoding (always 0), rank/dist/count
#: dtype codes, reserved u8 + u16, then n, entries, n_exceptions (always
#: 0), fingerprint triple.
_HEADER_FMT = "<6BH6Q"
_HEADER_SIZE = struct.calcsize(_HEADER_FMT)

#: dtype codes are itemsizes; signedness is fixed per column (int64 only
#: ever appears as the count escape).
_DTYPE_BY_CODE = {1: np.uint8, 2: np.uint16, 4: np.uint32, 8: INT}
_CODE_BY_DTYPE = {np.dtype(d): c for c, d in _DTYPE_BY_CODE.items()}

_CHUNK = 16 << 20  # streaming write/verify granularity (bytes)


class FlatFileMeta:
    """Parsed SPCF header: shape, column dtypes, fingerprint."""

    __slots__ = ("version", "n", "entries", "rank_dtype", "dist_dtype",
                 "count_dtype", "fingerprint", "total_bytes")

    def __init__(self, version, n, entries, rank_dtype, dist_dtype,
                 count_dtype, fingerprint, total_bytes):
        self.version = version
        self.n = n
        self.entries = entries
        self.rank_dtype = rank_dtype
        self.dist_dtype = dist_dtype
        self.count_dtype = count_dtype
        self.fingerprint = fingerprint
        self.total_bytes = total_bytes

    def __repr__(self):
        return (f"FlatFileMeta(version={self.version}, n={self.n}, "
                f"entries={self.entries}, fingerprint={self.fingerprint})")


class _SectionWriter:
    """Stream sections to a file handle, appending a CRC32 after each."""

    def __init__(self, handle):
        self.handle = handle
        self.total = 0

    def raw(self, payload):
        self.handle.write(payload)
        self.total += len(payload)

    def section(self, column):
        """Write one typed slab + CRC, chunked so mmap columns stream."""
        crc = 0
        for lo in range(0, column.size, _CHUNK // column.itemsize or 1):
            part = np.ascontiguousarray(
                column[lo:lo + (_CHUNK // column.itemsize or 1)]
            ).tobytes()
            crc = zlib.crc32(part, crc)
            self.handle.write(part)
            self.total += len(part)
        self.raw(struct.pack("<I", crc & 0xFFFFFFFF))


def save_flat_labels(flat, path, graph=None, fingerprint=None, encoding="raw"):
    """Atomically write ``flat`` as an SPCF v4 file; returns bytes written.

    Column dtypes are narrowed to the smallest lossless width on the way
    out, so saving an int64-column labeling produces the same file as
    saving its :meth:`FlatLabels.compact` twin. Pass ``graph`` (or a
    ``fingerprint`` triple) to embed the graph fingerprint for staleness
    detection. ``encoding`` accepts only ``"raw"``, the one SPCF
    encoding; the keyword stays for callers that name it.
    """
    if encoding != "raw":
        raise ValueError(f"unknown encoding {encoding!r}; SPCF has only 'raw'")
    return write_flat(flat, path, graph=graph, fingerprint=fingerprint)


def write_flat(flat, path, graph=None, fingerprint=None):
    """The SPCF writer behind :func:`save_flat_labels` and
    :func:`repro.io.serialize.save_index`; returns bytes written."""
    registry = get_registry()
    save_start = time.perf_counter() if registry.enabled else None
    if fingerprint is None and graph is not None:
        fingerprint = graph_fingerprint(graph)
    with atomic_sections(path) as writer:
        count_dtype = write_spcf(writer, flat, fingerprint)
    if count_dtype == INT and registry.enabled:
        registry.counter("spc_count_overflow_escapes_total").inc()
    if save_start is not None:
        registry.histogram("spc_io_seconds", op="save").observe(
            time.perf_counter() - save_start
        )
        registry.counter("spc_io_bytes_total", op="save").inc(writer.total)
    return writer.total


@contextlib.contextmanager
def atomic_sections(path):
    """Yield a :class:`_SectionWriter` whose bytes replace ``path`` atomically.

    The sections stream into a temp file beside ``path``, which is fsynced
    and renamed over ``path`` only when the block exits cleanly; a crash or
    an exception mid-write leaves the previous file (or none) intact.
    """
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(prefix=os.path.basename(path) + ".",
                               suffix=".tmp", dir=directory)
    try:
        with os.fdopen(fd, "wb") as handle:
            writer = _SectionWriter(handle)
            yield writer
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)


def write_spcf(writer, flat, fingerprint=None):
    """Stream ``flat`` as one SPCF v4 image; returns the count dtype used."""
    fp = fingerprint if fingerprint is not None else (NO_FINGERPRINT,) * 3
    indptr = np.ascontiguousarray(flat.indptr, dtype=INT)
    order = np.ascontiguousarray(flat.order, dtype=INT)
    rank = np.ascontiguousarray(flat.rank, dtype=np.uint32)
    dist_dtype, count_dtype = narrow_dtypes(flat.dist, flat.count)
    header = struct.pack(
        _HEADER_FMT,
        FLAT_VERSION,
        0,  # encoding: raw
        _CODE_BY_DTYPE[rank.dtype],
        _CODE_BY_DTYPE[np.dtype(dist_dtype)],
        _CODE_BY_DTYPE[np.dtype(count_dtype)],
        0,
        0,
        flat.n,
        flat.total_entries(),
        0,  # n_exceptions
        fp[0], fp[1], fp[2],
    )
    writer.raw(FLAT_MAGIC)
    writer.raw(header)
    writer.raw(struct.pack("<I", zlib.crc32(header) & 0xFFFFFFFF))
    writer.section(order)
    writer.section(indptr)
    writer.section(rank)
    writer.section(np.asarray(flat.dist).astype(dist_dtype, copy=False))
    writer.section(np.asarray(flat.count).astype(count_dtype, copy=False))
    writer.section(np.asarray(flat.canonical).astype(np.uint8, copy=False))
    return count_dtype


def _parse_header(blob, context):
    reader = _Reader(blob, context)
    if reader.take(4, "magic") != FLAT_MAGIC:
        raise SerializationError(f"{context}: not an SPCF flat label file "
                                 "(bad magic)")
    header = reader.take(_HEADER_SIZE, "header")
    (declared_crc,) = reader.unpack("<I", "header checksum")
    if zlib.crc32(header) & 0xFFFFFFFF != declared_crc:
        raise SerializationError(f"{context}: header checksum mismatch "
                                 "(corrupt file)")
    (version, encoding, rank_code, dist_code, count_code, _r8, _r16,
     n, entries, n_exceptions, fp_n, fp_m, fp_deg) = struct.unpack(
        _HEADER_FMT, header
    )
    if version != FLAT_VERSION:
        raise SerializationError(
            f"{context}: unsupported SPCF version {version} "
            f"(this reader handles {FLAT_VERSION})"
        )
    if encoding != 0 or n_exceptions != 0:
        raise SerializationError(
            f"{context}: unsupported SPCF encoding {encoding} with "
            f"{n_exceptions} exceptions (this reader handles raw columns only)"
        )
    for what, code in (("rank", rank_code), ("dist", dist_code),
                       ("count", count_code)):
        if code not in _DTYPE_BY_CODE:
            raise SerializationError(
                f"{context}: unknown {what} dtype code {code}"
            )
    fingerprint = (None if fp_n == NO_FINGERPRINT
                   else (fp_n, fp_m, fp_deg))
    return FlatFileMeta(version, n, entries,
                        np.dtype(_DTYPE_BY_CODE[rank_code]),
                        np.dtype(_DTYPE_BY_CODE[dist_code]),
                        np.dtype(_DTYPE_BY_CODE[count_code]),
                        fingerprint, 0)


def _section_layout(meta):
    """``[(name, dtype, count), ...]`` in file order for this header."""
    n, entries = meta.n, meta.entries
    return [
        ("order", np.dtype(INT), n),
        ("indptr", np.dtype(INT), n + 1),
        ("rank", meta.rank_dtype, entries),
        ("dist", meta.dist_dtype, entries),
        ("count", meta.count_dtype, entries),
        ("canonical", np.dtype(np.uint8), entries),
    ]


def _verify_sections(path, meta, layout, offsets, context):
    """Stream the file once, checking every section CRC."""
    with open(path, "rb") as handle:
        for (name, dtype, count), offset in zip(layout, offsets):
            nbytes = dtype.itemsize * count
            handle.seek(offset)
            crc = 0
            remaining = nbytes
            while remaining:
                part = handle.read(min(_CHUNK, remaining))
                if not part:
                    raise SerializationError(
                        f"{context}: truncated while verifying {name}"
                    )
                crc = zlib.crc32(part, crc)
                remaining -= len(part)
            declared = handle.read(4)
            if len(declared) != 4:
                raise SerializationError(
                    f"{context}: truncated {name} checksum"
                )
            if crc & 0xFFFFFFFF != struct.unpack("<I", declared)[0]:
                raise SerializationError(
                    f"{context}: {name} section checksum mismatch "
                    "(corrupt file)"
                )


def _frame(meta, size, context):
    """Section offsets for ``meta``; ``size`` must be exactly the image."""
    layout = _section_layout(meta)
    offsets = []
    cursor = 4 + _HEADER_SIZE + 4
    for _, dtype, count in layout:
        offsets.append(cursor)
        cursor += dtype.itemsize * count + 4
    meta.total_bytes = cursor
    if size != cursor:
        raise SerializationError(
            f"{context}: file is {size} bytes but the header implies "
            f"{cursor} (truncated or trailing bytes)"
        )
    return layout, offsets


def _assemble(meta, columns, context):
    indptr = columns["indptr"]
    if indptr.size == 0 or indptr[0] != 0 or int(indptr[-1]) != meta.entries \
            or (indptr.size > 1 and bool(np.any(np.diff(indptr) < 0))):
        raise SerializationError(
            f"{context}: indptr column is not a valid CSR row index"
        )
    canonical = columns["canonical"].view(np.bool_)
    return FlatLabels(meta.n, indptr, columns["rank"], None, columns["dist"],
                      columns["count"], canonical, columns["order"])


def parse_spcf(blob, context="<bytes>", verify=True):
    """Parse an in-memory SPCF image into ``(flat, meta)``.

    ``blob`` is any bytes-like object holding exactly one image (a
    ``memoryview`` slice parses without a copy); the columns are
    zero-copy views over it. ``verify`` checks every section CRC.
    """
    meta = _parse_header(blob, context)
    layout, offsets = _frame(meta, len(blob), context)
    columns = {}
    for (name, dtype, count), offset in zip(layout, offsets):
        nbytes = dtype.itemsize * count
        if verify:
            (declared,) = struct.unpack(
                "<I", blob[offset + nbytes:offset + nbytes + 4]
            )
            if zlib.crc32(blob[offset:offset + nbytes]) & 0xFFFFFFFF \
                    != declared:
                raise SerializationError(
                    f"{context}: {name} section checksum mismatch "
                    "(corrupt file)"
                )
        columns[name] = np.frombuffer(blob, dtype=dtype, count=count,
                                      offset=offset)
    return _assemble(meta, columns, context), meta


def load_flat_labels_with_meta(path, mmap=False, verify=True, retries=0,
                               retry_wait=0.01):
    """:func:`load_flat_labels` variant also returning :class:`FlatFileMeta`."""
    registry = get_registry()
    load_start = time.perf_counter() if registry.enabled else None
    context = str(path)
    if mmap:
        with open(path, "rb") as handle:
            head = handle.read(4 + _HEADER_SIZE + 4)
        meta = _parse_header(head, context)
        layout, offsets = _frame(meta, os.path.getsize(path), context)
        if verify:
            _verify_sections(path, meta, layout, offsets, context)
        columns = {
            name: (np.memmap(path, dtype=dtype, mode="r", offset=offset,
                             shape=(count,))
                   if count else np.empty(0, dtype=dtype))
            for (name, dtype, count), offset in zip(layout, offsets)
        }
        flat = _assemble(meta, columns, context)
    else:
        flat, meta = parse_spcf(_read_with_retries(path, retries, retry_wait),
                                context, verify=verify)
    if load_start is not None:
        registry.histogram("spc_io_seconds", op="load").observe(
            time.perf_counter() - load_start
        )
        registry.counter("spc_io_bytes_total", op="load").inc(meta.total_bytes)
        if mmap:
            registry.counter("spc_label_mmap_bytes_total").inc(
                meta.total_bytes
            )
    return flat, meta


def load_flat_labels(path, mmap=False, verify=True, retries=0,
                     retry_wait=0.01):
    """Read a :class:`FlatLabels` written by :func:`save_flat_labels`.

    ``mmap=True`` memory-maps the columns so opening a multi-GB index
    is O(1) in resident memory. ``verify=True`` (default) checks every
    section CRC first — one streaming pass; ``verify=False`` trusts the
    file for fastest possible opens.
    ``retries`` re-reads after transient ``OSError`` like the SPCL
    loader; corruption and truncation raise :class:`SerializationError`.
    """
    flat, _ = load_flat_labels_with_meta(path, mmap=mmap, verify=verify,
                                         retries=retries,
                                         retry_wait=retry_wait)
    return flat


def file_signature(path):
    """``(st_ino, st_size, st_mtime_ns)`` identity of the file at ``path``.

    The inode number pins the *bytes* (atomic saves replace the inode),
    so two equal signatures mean two opens mapped the same arena. Cluster
    workers report the signature they mapped, and the reload watcher
    polls it to see a new file.
    """
    stat = os.stat(path)
    return (stat.st_ino, stat.st_size, stat.st_mtime_ns)


def open_shared(path, verify=True):
    """Open an SPCF file as a zero-copy, read-only, multi-process arena.

    The serving-cluster contract on top of plain ``mmap=True`` loading:

    * **read-only columns** — every mapped column is hardened against
      writes (``writeable=False``), so a worker bug can never corrupt
      the arena other processes serve from.
    * **replace-race guard** — the file identity (:func:`file_signature`)
      is captured before and after mapping; an atomic save landing
      mid-open would otherwise let the header checks pass against one
      inode and the columns map another.

    Returns ``(flat, meta, signature)`` — the signature is the
    generation token reload protocols compare.
    """
    context = str(path)
    before = file_signature(path)
    flat, meta = load_flat_labels_with_meta(path, mmap=True, verify=verify)
    after = file_signature(path)
    if before != after:
        raise SerializationError(
            f"{context}: file was replaced while being mapped "
            f"(signature {before} became {after}); retry the open"
        )
    for name in ("indptr", "rank", "dist", "count", "canonical", "order"):
        column = getattr(flat, name)
        if column.flags.writeable:
            column.flags.writeable = False
    return flat, meta, before


def read_flat_meta(path, retries=0, retry_wait=0.01):
    """Parse just the SPCF header of ``path`` (no column data is read)."""
    with open(path, "rb") as handle:
        head = handle.read(4 + _HEADER_SIZE + 4)
    meta = _parse_header(head, str(path))
    layout = _section_layout(meta)
    meta.total_bytes = 4 + _HEADER_SIZE + 4 + sum(
        dtype.itemsize * count + 4 for _, dtype, count in layout
    )
    return meta
