"""Checkpoint/resume: a resumed build must be bit-identical to an
uninterrupted one, and damaged checkpoints must be rejected, not resumed."""

import pytest

from repro.core.hp_spc import BuildStats, build_labels
from repro.core.ordering import resolve_static_order
from repro.exceptions import CheckpointError
from repro.generators.classic import grid_graph
from repro.generators.random_graphs import barabasi_albert_graph, gnp_random_graph
from repro.io.checkpoint import BuildCheckpoint, decode_checkpoint, encode_checkpoint
from repro.io.serialize import graph_fingerprint
from repro.kernels.hub_push import build_flat_labels_csr
from repro.testing.faults import CrashingCheckpoint, SimulatedKill, flip_bit


def assert_identical(a, b):
    assert a.order == b.order
    for v in range(a.n):
        assert a.canonical(v) == b.canonical(v), f"canonical label of {v} differs"
        assert a.noncanonical(v) == b.noncanonical(v), f"non-canonical of {v} differs"


def partial_checkpoint(graph, watermark, path, every):
    """Run a build that crashes after its first checkpoint save."""
    checkpoint = CrashingCheckpoint(path, every=every, crash_after=1)
    with pytest.raises(SimulatedKill):
        build_labels(graph, checkpoint=checkpoint)
    assert checkpoint.exists()
    return checkpoint


class TestRoundTrip:
    def test_encode_decode_identity(self):
        graph = gnp_random_graph(25, 0.15, seed=1)
        order = resolve_static_order(graph, "degree")
        canonical = [[(0, order[0], 2, 3)] for _ in range(graph.n)]
        noncanonical = [[(1, order[1], 4, 10**40)] for _ in range(graph.n)]
        fingerprint = graph_fingerprint(graph)
        blob = encode_checkpoint(
            tuple(order), 7, canonical, noncanonical, fingerprint
        )
        decoded = decode_checkpoint(blob)
        assert list(decoded.order) == list(order)
        assert decoded.watermark == 7
        assert decoded.canonical == canonical
        assert decoded.noncanonical == noncanonical  # huge count survives varint
        assert decoded.fingerprint == fingerprint

    def test_corrupt_checkpoint_rejected(self, tmp_path):
        graph = grid_graph(5, 5)
        path = tmp_path / "build.ckpt"
        partial_checkpoint(graph, 10, path, every=10)
        flip_bit(path, 40, 2)
        with pytest.raises(CheckpointError):
            BuildCheckpoint(path).load(graph=graph)

    def test_truncated_checkpoint_rejected(self, tmp_path):
        graph = grid_graph(5, 5)
        path = tmp_path / "build.ckpt"
        partial_checkpoint(graph, 10, path, every=10)
        blob = path.read_bytes()
        path.write_bytes(blob[:-5])
        with pytest.raises(CheckpointError):
            BuildCheckpoint(path).load(graph=graph)

    def test_wrong_graph_rejected(self, tmp_path):
        graph = gnp_random_graph(30, 0.1, seed=4)
        other = gnp_random_graph(30, 0.1, seed=5)
        path = tmp_path / "build.ckpt"
        partial_checkpoint(graph, 10, path, every=10)
        with pytest.raises(CheckpointError):
            BuildCheckpoint(path).load(graph=other)

    def test_missing_file_loads_none(self, tmp_path):
        assert BuildCheckpoint(tmp_path / "absent.ckpt").load() is None


class TestResumeIdentity:
    @pytest.mark.parametrize("crashed,resumed", [
        ("python", "python"), ("csr", "csr"), ("python", "csr"), ("csr", "python"),
    ])
    def test_kill_between_checkpoints_then_resume(self, tmp_path, crashed, resumed):
        """The headline chaos property: SIGKILL mid-build, resume, and the
        final labels are entry-for-entry identical — across engines too."""
        graph = barabasi_albert_graph(60, 2, seed=8)
        path = tmp_path / "build.ckpt"

        crashing = CrashingCheckpoint(path, every=15, crash_after=1)
        with pytest.raises(SimulatedKill):
            if crashed == "csr":
                build_flat_labels_csr(graph, checkpoint=crashing)
            else:
                build_labels(graph, checkpoint=crashing)
        assert crashing.exists()

        stats = BuildStats()
        resume = BuildCheckpoint(path, every=15)
        if resumed == "csr":
            finished = build_flat_labels_csr(
                graph, stats=stats, checkpoint=resume
            ).to_label_set()
        else:
            finished = build_labels(graph, stats=stats, checkpoint=resume)
        reference = build_labels(graph)

        assert_identical(finished, reference)
        assert stats.resumed_pushes == 15
        assert stats.pushes == graph.n - 15  # only the suffix was re-pushed
        assert not resume.exists()  # discarded after a successful finish

    def test_resume_is_noop_when_no_checkpoint(self, tmp_path):
        graph = grid_graph(4, 6)
        stats = BuildStats()
        checkpoint = BuildCheckpoint(tmp_path / "c.ckpt", every=7)
        labels = build_labels(graph, stats=stats, checkpoint=checkpoint)
        assert stats.resumed_pushes == 0
        assert stats.checkpoint_saves > 0
        assert_identical(labels, build_labels(graph))

    def test_keep_retains_checkpoint_file(self, tmp_path):
        graph = grid_graph(4, 4)
        checkpoint = BuildCheckpoint(tmp_path / "c.ckpt", every=5, keep=True)
        build_labels(graph, checkpoint=checkpoint)
        assert checkpoint.exists()
