"""Property-based tests for columnar build checkpoints.

On random small graphs, orders and watermarks: a build killed right after
its checkpoint save and then resumed must equal the uninterrupted python
build column for column, under every pairing of crashed and resumed
engines; any single flipped bit in the checkpoint file must be refused,
never resumed; and a file in the old v1 per-entry layout must be
rejected by name, never misread.
"""

import os
import random
import struct
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tests.properties.test_flat_properties import graphs

from repro.core.flat_labels import FlatLabels
from repro.core.hp_spc import build_labels
from repro.exceptions import CheckpointError
from repro.io.checkpoint import BuildCheckpoint
from repro.io.serialize import _crc, graph_fingerprint
from repro.kernels.hub_push import build_flat_labels_csr
from repro.testing.faults import CrashingCheckpoint, SimulatedKill, flip_bit

SETTINGS = dict(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

ENGINES = {
    "python": lambda graph, order, checkpoint: FlatLabels.from_label_set(
        build_labels(graph, ordering=order, checkpoint=checkpoint)
    ),
    "csr": lambda graph, order, checkpoint: build_flat_labels_csr(
        graph, ordering=order, checkpoint=checkpoint
    ),
}


@st.composite
def prefixes(draw):
    """``(graph, order, watermark)`` with ``1 <= watermark < n``."""
    graph = draw(graphs(max_n=14).filter(lambda g: g.n >= 2))
    order = list(range(graph.n))
    random.Random(draw(st.integers(0, 2**16))).shuffle(order)
    watermark = draw(st.integers(min_value=1, max_value=graph.n - 1))
    return graph, order, watermark


def crash_after_save(engine, graph, order, watermark, path):
    """Run ``engine`` until its checkpoint save at ``watermark``, then kill it."""
    crashing = CrashingCheckpoint(path, every=watermark, crash_after=1)
    with pytest.raises(SimulatedKill):
        ENGINES[engine](graph, order, crashing)


@given(prefixes())
@settings(**SETTINGS)
def test_resume_matches_uninterrupted_build_for_every_engine_pair(case):
    graph, order, watermark = case
    reference = ENGINES["python"](graph, order, None)
    with tempfile.TemporaryDirectory() as scratch:
        for crashed in ENGINES:
            for resumed in ENGINES:
                path = os.path.join(scratch, f"{crashed}-{resumed}.ckpt")
                crash_after_save(crashed, graph, order, watermark, path)
                prefix = BuildCheckpoint(path).load(graph=graph, order=order)
                assert prefix.watermark == watermark
                finished = ENGINES[resumed](graph, order, BuildCheckpoint(path))
                assert finished.equals(reference), (crashed, resumed)


@given(prefixes(), st.data())
@settings(**SETTINGS)
def test_any_flipped_bit_is_refused(case, data):
    graph, order, watermark = case
    with tempfile.TemporaryDirectory() as scratch:
        path = os.path.join(scratch, "build.ckpt")
        crash_after_save("python", graph, order, watermark, path)
        size = os.path.getsize(path)
        # Half the draws land in the first 64 bytes: the SPCK envelope and
        # the SPCF header are a small share of the file but carry the
        # watermark, the lengths and the dtypes.
        offset = data.draw(st.one_of(st.integers(0, min(63, size - 1)),
                                     st.integers(0, size - 1)), label="offset")
        bit = data.draw(st.integers(0, 7), label="bit")
        flip_bit(path, offset, bit)
        with pytest.raises(CheckpointError):
            BuildCheckpoint(path).load(graph=graph, order=order)
        for engine in ENGINES:
            with pytest.raises(CheckpointError):
                ENGINES[engine](graph, order, BuildCheckpoint(path))


def v1_blob(order, watermark, labels, fingerprint):
    """A checkpoint in the retired v1 layout: per-entry records with
    varint counts behind one payload CRC."""
    n = len(order)
    parts = [struct.pack("<QQQQQ", n, watermark, *fingerprint),
             struct.pack(f"<{n}Q", *order)]
    for v in range(n):
        rows = [[e for e in labels.canonical(v) if e[0] < watermark],
                [e for e in labels.noncanonical(v) if e[0] < watermark]]
        parts.append(struct.pack("<II", *map(len, rows)))
        for row in rows:
            for rank, _hub, dist, count in row:
                raw = count.to_bytes((count.bit_length() + 7) // 8 or 1, "little")
                parts.append(struct.pack("<QQB", rank, dist, len(raw)) + raw)
    payload = b"".join(parts)
    return (b"SPCK" + struct.pack("<IQI", 1, len(payload), _crc(payload))
            + payload)


@given(prefixes())
@settings(**SETTINGS)
def test_v1_file_is_rejected_by_version(case):
    graph, order, watermark = case
    labels = build_labels(graph, ordering=order)
    with tempfile.TemporaryDirectory() as scratch:
        path = os.path.join(scratch, "old.ckpt")
        with open(path, "wb") as handle:
            handle.write(v1_blob(order, watermark, labels,
                                 graph_fingerprint(graph)))
        with pytest.raises(CheckpointError, match="version 1"):
            BuildCheckpoint(path).load(graph=graph, order=order)
        for engine in ENGINES:
            with pytest.raises(CheckpointError, match="version 1"):
                ENGINES[engine](graph, order, BuildCheckpoint(path))
