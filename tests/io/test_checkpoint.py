"""Checkpoint/resume: a resumed build must be bit-identical to an
uninterrupted one, and damaged checkpoints must be rejected, not resumed."""

import pytest

from tests.conftest import diamond_chains_through_hub

from repro.core.hp_spc import BuildStats, _freeze_prefix, _thaw_prefix, build_labels
from repro.core.ordering import resolve_static_order
from repro.exceptions import CheckpointError
from repro.generators.classic import grid_graph
from repro.generators.random_graphs import barabasi_albert_graph, gnp_random_graph
from repro.io.checkpoint import BuildCheckpoint, decode_checkpoint
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
    def test_encode_decode_identity(self, tmp_path):
        graph = gnp_random_graph(25, 0.15, seed=1)
        order = resolve_static_order(graph, "degree")
        canonical = [[(0, order[0], 2, 3)] for _ in range(graph.n)]
        noncanonical = [[(1, order[1], 4, 10**40)] for _ in range(graph.n)]
        fingerprint = graph_fingerprint(graph)
        path = tmp_path / "c.ckpt"
        BuildCheckpoint(path).save(
            7, lambda: _freeze_prefix(order, canonical, noncanonical), fingerprint
        )
        decoded = decode_checkpoint(path.read_bytes())
        assert decoded.flat.order.tolist() == list(order)
        assert decoded.watermark == 7
        assert decoded.fingerprint == fingerprint
        thawed_can = [[] for _ in range(graph.n)]
        thawed_non = [[] for _ in range(graph.n)]
        _thaw_prefix(decoded, thawed_can, thawed_non)
        assert thawed_can == canonical
        assert thawed_non == noncanonical  # huge count survives in the envelope

    def test_corrupt_checkpoint_rejected(self, tmp_path):
        graph = grid_graph(5, 5)
        path = tmp_path / "build.ckpt"
        partial_checkpoint(graph, 10, path, every=10)
        flip_bit(path, 40, 2)
        with pytest.raises(CheckpointError):
            BuildCheckpoint(path).load(graph=graph)

    def test_every_single_bit_flip_rejected(self, tmp_path):
        graph = grid_graph(4, 4)
        path = tmp_path / "build.ckpt"
        partial_checkpoint(graph, 6, path, every=6)
        blob = path.read_bytes()
        for bit in range(8 * len(blob)):
            damaged = bytearray(blob)
            damaged[bit // 8] ^= 1 << (bit % 8)
            with pytest.raises(CheckpointError):
                decode_checkpoint(bytes(damaged))

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

    @pytest.mark.parametrize("defect,match", [
        ("watermark", "exceeds vertex count"),
        ("rank", "beyond the watermark"),
        ("permutation", "not a permutation"),
        ("trailing", "trailing bytes"),
        ("order", "different vertex order"),
    ])
    def test_inconsistent_checkpoint_rejected(self, tmp_path, defect, match):
        """Checksums pass, but the prefix contradicts itself or the build."""
        graph = grid_graph(4, 4)
        n = graph.n
        order = resolve_static_order(graph, "degree")
        labels = build_labels(graph)
        canonical = [labels.canonical(v) for v in range(n)]
        noncanonical = [labels.noncanonical(v) for v in range(n)]
        stored_order = [0] * n if defect == "permutation" else order
        watermark = {"watermark": n + 1, "rank": 3}.get(defect, n)
        path = tmp_path / "build.ckpt"
        BuildCheckpoint(path).save(
            watermark,
            lambda: _freeze_prefix(stored_order, canonical, noncanonical),
            graph_fingerprint(graph),
        )
        if defect == "trailing":
            path.write_bytes(path.read_bytes() + b"\0")
        expected = order[::-1] if defect == "order" else order
        with pytest.raises(CheckpointError, match=match):
            BuildCheckpoint(path).load(graph=graph, order=expected)

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

    @pytest.mark.parametrize("crashed", ["csr", "python"])
    def test_csr_batches_stop_at_every_watermark(self, tmp_path, crashed):
        """``every=7`` is not a multiple of the batch width: the csr engine
        must cut its batches at 14, 21, ... so each watermark is saved, and
        a crash at 14 leaves exactly the 14-push prefix behind."""
        graph = barabasi_albert_graph(60, 2, seed=8)
        path = tmp_path / "build.ckpt"
        crashing = CrashingCheckpoint(path, every=7, crash_after=2)
        with pytest.raises(SimulatedKill):
            if crashed == "csr":
                build_flat_labels_csr(graph, checkpoint=crashing)
            else:
                build_labels(graph, checkpoint=crashing)
        assert decode_checkpoint(path.read_bytes()).watermark == 14

        stats = BuildStats()
        resume = BuildCheckpoint(path, every=7)
        finished = build_flat_labels_csr(graph, stats=stats, checkpoint=resume)
        assert_identical(finished.to_label_set(), build_labels(graph))
        assert stats.resumed_pushes == 14
        assert stats.pushes == graph.n - 14
        assert stats.checkpoint_saves == len(range(21, graph.n, 7))

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


class TestWideCounts:
    """Counts past int64 exist only under the python engine; its
    checkpoints must carry them exactly, and csr must refuse them."""

    @pytest.mark.parametrize("k", [32, 64])
    def test_python_kill_resume_is_bit_identical(self, tmp_path, k):
        graph, _s, _t = diamond_chains_through_hub(k)
        path = tmp_path / "build.ckpt"
        crashing = CrashingCheckpoint(path, every=100, crash_after=1)
        with pytest.raises(SimulatedKill):
            build_labels(graph, checkpoint=crashing)
        wide = decode_checkpoint(path.read_bytes()).wide
        # k diamonds double the count k times: 2^64 at k=64 is past int64.
        assert max(wide.values(), default=0) == (2**64 if k == 64 else 0)
        stats = BuildStats()
        resumed = build_labels(graph, stats=stats,
                               checkpoint=BuildCheckpoint(path, every=100))
        assert stats.resumed_pushes == 100
        assert_identical(resumed, build_labels(graph))

    def test_csr_refuses_to_resume_wide_counts(self, tmp_path):
        graph, _s, _t = diamond_chains_through_hub(64)
        path = tmp_path / "build.ckpt"
        with pytest.raises(SimulatedKill):
            build_labels(graph, checkpoint=CrashingCheckpoint(path, every=100))
        with pytest.raises(CheckpointError, match="python engine"):
            build_flat_labels_csr(graph, checkpoint=BuildCheckpoint(path))
        assert BuildCheckpoint(path).exists()  # refused, not consumed
