"""Rank-watermark checkpoints for resumable HP-SPC construction.

The hub-pushing loop (§3.2) is a clean prefix computation: after the
first ``k`` pushes, *all* of their effects live in the label rows — the
per-push scratch state is reset between roots. A checkpoint is therefore
just ``(order, watermark, labels-so-far)``: resuming seeds the labels and
continues pushing at rank ``watermark``, and the finished labeling is
entry-for-entry identical to an uninterrupted build.

The prefix is stored as the same flat columns an index file holds, so
checkpoints are engine-neutral: a build checkpointed under the python
engine can resume under the csr kernel and vice versa.

File layout (little-endian)::

    magic b"SPCK" | version u32 (2) | envelope_len u32 | envelope_crc u32 |
    envelope | SPCF v4 image of the prefix labels

    envelope := watermark u64 | n_wide u64 |
                n_wide × (entry u64, count := u8 length + that many bytes)

The SPCF image (:mod:`repro.io.flat_store`) is byte-for-byte an index
file of the prefix labels: the order, the graph fingerprint and a CRC32
per section live where SPCF keeps them. The envelope's wide list holds
the exact count of every entry past int64 (only the python engine
produces them) by its index in the entry columns, whose count slot holds
0; the csr kernel refuses to resume such a checkpoint.

Writes are atomic (temp file + fsync + rename), so a crash *during* a
save leaves the previous checkpoint intact. Every byte is covered by a
checksum or a structural check, so a corrupted or truncated file, or a
file of another version (the v1 per-entry layout), raises
:class:`~repro.exceptions.CheckpointError` instead of resuming garbage.
"""

import contextlib
import os
import struct
import time

import numpy as np

from repro.exceptions import CheckpointError, SerializationError
from repro.io.flat_store import atomic_sections, parse_spcf, write_spcf
from repro.io.serialize import _crc, _Reader, _read_bytes, graph_fingerprint
from repro.observability.events import get_event_log
from repro.observability.metrics import get_registry

MAGIC = b"SPCK"
VERSION = 2

_INT64_MAX = int(np.iinfo(np.int64).max)


class CheckpointPrefix:
    """A loaded checkpoint: the labels of the first ``watermark`` pushes.

    ``flat`` is a :class:`~repro.core.flat_labels.FlatLabels` whose
    ``order`` is the build's vertex order; ``wide`` maps an entry index
    to its exact count when that count is past int64 (its ``flat.count``
    slot holds 0).
    """

    __slots__ = ("watermark", "flat", "wide", "fingerprint")

    def __init__(self, watermark, flat, wide, fingerprint):
        self.watermark = watermark
        self.flat = flat
        self.wide = wide
        self.fingerprint = fingerprint

    def __repr__(self):
        return (f"CheckpointPrefix(n={self.flat.n}, "
                f"watermark={self.watermark})")


def _encode_count(count):
    raw = count.to_bytes((count.bit_length() + 7) // 8 or 1, "little")
    if len(raw) > 255:
        raise CheckpointError("count too wide for the checkpoint varint (>255 bytes)")
    return bytes((len(raw),)) + raw


def decode_checkpoint(blob, context="<bytes>"):
    """Parse and integrity-check an SPCK blob into a :class:`CheckpointPrefix`."""
    try:
        reader = _Reader(blob, context)
        if reader.take(4, "magic") != MAGIC:
            raise CheckpointError(f"{context}: not a checkpoint file (bad magic)")
        (version,) = reader.unpack("<I", "checkpoint version")
        if version != VERSION:
            raise CheckpointError(
                f"{context}: unsupported checkpoint version {version} "
                f"(this reader handles {VERSION})"
            )
        envelope_len, stored_crc = reader.unpack("<II", "envelope header")
        envelope = reader.take(envelope_len, "checkpoint envelope")
        actual = _crc(envelope)
        if stored_crc != actual:
            raise CheckpointError(
                f"{context}: checkpoint envelope failed its checksum "
                f"(stored {stored_crc:#010x}, computed {actual:#010x})"
            )
        body = _Reader(envelope, context)
        watermark, n_wide = body.unpack("<QQ", "watermark")
        wide = {}
        for i in range(n_wide):
            index, width = body.unpack("<QB", f"wide count {i}")
            wide[index] = int.from_bytes(body.take(width, f"wide count {i}"),
                                         "little")
        if body.remaining():
            raise CheckpointError(
                f"{context}: {body.remaining()} bytes beyond the declared "
                "wide counts"
            )
        flat, meta = parse_spcf(memoryview(blob)[reader.offset:], context)
    except CheckpointError:
        raise
    except SerializationError as exc:
        raise CheckpointError(str(exc)) from exc
    n = flat.n
    if watermark > n:
        raise CheckpointError(
            f"{context}: watermark {watermark} exceeds vertex count {n}"
        )
    if not np.array_equal(np.sort(flat.order), np.arange(n)):
        raise CheckpointError(
            f"{context}: stored order is not a permutation of [0, {n})"
        )
    if flat.rank.size and int(flat.rank.max()) >= watermark:
        raise CheckpointError(
            f"{context}: an entry at rank {int(flat.rank.max())} lies "
            f"beyond the watermark {watermark}"
        )
    for index, count in wide.items():
        if index >= flat.rank.size or flat.count[index] != 0 \
                or count <= _INT64_MAX:
            raise CheckpointError(
                f"{context}: wide count of entry {index} does not match "
                "the entry columns"
            )
    return CheckpointPrefix(watermark, flat, wide, meta.fingerprint)


class BuildCheckpoint:
    """Periodic rank-watermark checkpointing for a single build.

    Pass one to :func:`repro.core.hp_spc.build_labels` or
    :func:`repro.kernels.hub_push.build_flat_labels_csr` (``checkpoint=``):
    every ``every`` completed pushes the partial labeling is atomically
    written to ``path``, and a later build with the same graph/ordering
    resumes from the highest saved watermark. On successful completion the
    file is removed unless ``keep=True``.

    ``every=0`` disables periodic saves (the file is still consulted for
    resume), which a caller can use to resume without re-checkpointing.
    """

    def __init__(self, path, every=200, keep=False):
        self.path = os.fspath(path)
        self.every = int(every)
        self.keep = keep
        self.saves = 0

    def exists(self):
        return os.path.exists(self.path)

    def should_save(self, watermark, n):
        """True when ``watermark`` completed pushes warrant a periodic save."""
        if self.every <= 0:
            return False
        return watermark < n and watermark % self.every == 0

    def save(self, watermark, freeze, fingerprint=None):
        """Atomically persist the build prefix up to ``watermark`` pushes.

        ``freeze`` is the engine's zero-argument converter from its native
        prefix to ``(flat, wide)`` — the columns plus the ``{entry index:
        count}`` of counts past int64. It runs here, so the save's timing
        covers the whole conversion to bytes.
        """
        registry = get_registry()
        save_start = time.perf_counter() if registry.enabled else None
        flat, wide = freeze()
        envelope = b"".join([struct.pack("<QQ", watermark, len(wide))] + [
            struct.pack("<Q", index) + _encode_count(count)
            for index, count in sorted(wide.items())
        ])
        with atomic_sections(self.path) as writer:
            writer.raw(MAGIC + struct.pack("<III", VERSION, len(envelope),
                                           _crc(envelope)))
            writer.raw(envelope)
            write_spcf(writer, flat, fingerprint)
        self.saves += 1
        if save_start is not None:
            registry.histogram("spc_checkpoint_seconds", op="save").observe(
                time.perf_counter() - save_start
            )
        get_event_log().emit("build.checkpoint", watermark=watermark,
                             path=self.path)

    def load(self, graph=None, order=None):
        """Return the saved :class:`CheckpointPrefix`, or None when absent.

        Validates integrity, and — when given — that the checkpoint matches
        the live ``graph`` (fingerprint) and the build's ``order``;
        mismatches raise :class:`CheckpointError` rather than silently
        resuming a build of a different problem.
        """
        registry = get_registry()
        load_start = time.perf_counter() if registry.enabled else None
        try:
            blob = _read_bytes(self.path)
        except FileNotFoundError:
            return None
        prefix = decode_checkpoint(blob, context=self.path)
        if load_start is not None:
            registry.histogram("spc_checkpoint_seconds", op="load").observe(
                time.perf_counter() - load_start
            )
        if graph is not None and prefix.fingerprint is not None:
            live = graph_fingerprint(graph)
            if live != prefix.fingerprint:
                raise CheckpointError(
                    f"{self.path}: checkpoint was taken for a different graph "
                    f"(checkpoint fingerprint {prefix.fingerprint}, live {live})"
                )
        if order is not None and not np.array_equal(np.asarray(order),
                                                     prefix.flat.order):
            raise CheckpointError(
                f"{self.path}: checkpoint was taken under a different vertex order"
            )
        return prefix

    def discard(self):
        """Remove the checkpoint file (no-op when ``keep`` or absent)."""
        if self.keep:
            return
        with contextlib.suppress(FileNotFoundError):
            os.remove(self.path)
