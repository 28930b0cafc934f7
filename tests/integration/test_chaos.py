"""Chaos suite: every injected failure must end in either a correct
answer or a typed ReproError — never a crash, never a wrong count.

The fault matrix covers the index lifecycle end to end: on-disk damage
(truncation, bit-flips), missing files, stale indexes, flaky reads,
and a process killed between checkpoints. :class:`ResilientSPCIndex` is
the system under test for the query side; the checkpointing builders
for the construction side.
"""

import pytest

from repro.baselines.bfs_counting import spc_all_pairs
from repro.core.flat_labels import FlatLabels
from repro.core.hp_spc import BuildStats, build_labels
from repro.core.index import SPCIndex
from repro.exceptions import SerializationError, StaleIndexError, VertexError
from repro.generators.random_graphs import barabasi_albert_graph, gnp_random_graph
from repro.io.checkpoint import BuildCheckpoint
from repro.io.serialize import load_labels, save_index
from repro.resilience import ResilientSPCIndex
from repro.testing.faults import (
    CrashingCheckpoint,
    SimulatedKill,
    TransientIOErrors,
    flip_bit,
    truncate_file,
)

INF = float("inf")


@pytest.fixture(scope="module")
def world():
    """One graph, its ground truth, and a pristine saved index blob."""
    graph = gnp_random_graph(40, 0.1, seed=7)
    dist, count = spc_all_pairs(graph)
    index = SPCIndex.build(graph)
    return graph, dist, count, index


@pytest.fixture()
def saved(world, tmp_path):
    graph, dist, count, index = world
    path = tmp_path / "index.bin"
    save_index(index, path, graph=graph)
    return graph, dist, count, path


def truth(dist, count, s, t):
    return (dist[s][t], count[s][t]) if count[s][t] else (INF, 0)


def assert_answers_match(resilient, dist, count, pairs):
    for s, t in pairs:
        assert resilient.count_with_distance(s, t) == truth(dist, count, s, t)


PROBE_PAIRS = [(0, 5), (3, 3), (12, 30), (1, 39), (7, 22)]


class TestQueryDegradation:
    def test_healthy_index_serves_labels(self, saved):
        graph, dist, count, path = saved
        resilient = ResilientSPCIndex(graph, index_path=path)
        assert resilient.status == "index"
        assert_answers_match(resilient, dist, count, PROBE_PAIRS)
        assert resilient.counters["index_queries"] == len(PROBE_PAIRS)
        assert resilient.counters["fallback_queries"] == 0

    def test_truncated_index_degrades_correctly(self, saved):
        graph, dist, count, path = saved
        truncate_file(path, 25)
        resilient = ResilientSPCIndex(graph, index_path=path)
        assert resilient.status == "degraded"
        assert resilient.counters["load_failures"] == 1
        assert isinstance(resilient.last_error, SerializationError)
        assert_answers_match(resilient, dist, count, PROBE_PAIRS)
        assert resilient.counters["fallback_queries"] == len(PROBE_PAIRS)

    @pytest.mark.parametrize("offset,bit", [(10, 2), (70, 0), (300, 7)])
    def test_bit_flipped_index_degrades_correctly(self, saved, offset, bit):
        graph, dist, count, path = saved
        flip_bit(path, offset, bit)
        resilient = ResilientSPCIndex(graph, index_path=path)
        assert resilient.status == "degraded"
        assert isinstance(resilient.last_error, SerializationError)
        assert_answers_match(resilient, dist, count, PROBE_PAIRS)
        assert resilient.counters["fallback_queries"] == len(PROBE_PAIRS)

    def test_missing_index_degrades_correctly(self, world, tmp_path):
        graph, dist, count, _ = world
        resilient = ResilientSPCIndex(graph, index_path=tmp_path / "absent.bin")
        assert resilient.status == "degraded"
        assert isinstance(resilient.last_error, FileNotFoundError)
        assert_answers_match(resilient, dist, count, PROBE_PAIRS)

    def test_stale_index_detected_by_fingerprint(self, saved):
        graph, dist, count, path = saved
        other = gnp_random_graph(40, 0.1, seed=8)
        resilient = ResilientSPCIndex(other, index_path=path)
        assert resilient.status == "degraded"
        assert resilient.counters["verify_failures"] == 1
        assert isinstance(resilient.last_error, StaleIndexError)

    def test_transient_io_recovers_with_retries(self, saved):
        graph, dist, count, path = saved
        with TransientIOErrors(failures=1):
            resilient = ResilientSPCIndex(graph, index_path=path, io_retries=2)
        assert resilient.status == "index"
        assert_answers_match(resilient, dist, count, PROBE_PAIRS)

    def test_transient_io_without_retries_degrades(self, saved):
        graph, dist, count, path = saved
        with TransientIOErrors(failures=1):
            resilient = ResilientSPCIndex(graph, index_path=path, io_retries=0)
        assert resilient.status == "degraded"
        assert_answers_match(resilient, dist, count, PROBE_PAIRS)

    def test_repair_by_reload(self, saved):
        graph, dist, count, path = saved
        truncate_file(path, 25)
        resilient = ResilientSPCIndex(graph, index_path=path)
        assert resilient.status == "degraded"
        save_index(SPCIndex.build(graph), path, graph=graph)  # operator fixes it
        assert resilient.reload()
        assert resilient.status == "index"
        assert_answers_match(resilient, dist, count, PROBE_PAIRS)

    def test_batched_queries_degrade_too(self, saved):
        graph, dist, count, path = saved
        truncate_file(path, 25)
        resilient = ResilientSPCIndex(graph, index_path=path)
        answers = resilient.count_many(PROBE_PAIRS)
        assert answers == [truth(dist, count, s, t) for s, t in PROBE_PAIRS]

    def test_vertex_errors_are_not_degradation(self, saved):
        graph, dist, count, path = saved
        resilient = ResilientSPCIndex(graph, index_path=path)
        with pytest.raises(VertexError):
            resilient.count(0, graph.n)
        with pytest.raises(VertexError):
            resilient.count_many([(0, 1), (-1, 2)])
        assert resilient.status == "index"  # caller bugs never demote the index

    def test_explain_is_operator_readable(self, saved):
        graph, dist, count, path = saved
        truncate_file(path, 25)
        resilient = ResilientSPCIndex(graph, index_path=path)
        snapshot = resilient.explain()
        assert snapshot["status"] == "degraded"
        assert "SerializationError" in snapshot["last_error"]
        assert snapshot["counters"]["load_failures"] == 1


class TestConstructionChaos:
    def test_kill_resume_save_load_end_to_end(self, tmp_path):
        """The full lifecycle under fire: build dies between checkpoints,
        resumes, saves atomically, loads checksummed, answers correctly."""
        graph = barabasi_albert_graph(50, 2, seed=3)
        dist, count = spc_all_pairs(graph)
        ckpt_path = tmp_path / "build.ckpt"

        with pytest.raises(SimulatedKill):
            build_labels(graph, checkpoint=CrashingCheckpoint(ckpt_path, every=10))
        assert ckpt_path.exists()

        stats = BuildStats()
        labels = build_labels(
            graph, stats=stats, checkpoint=BuildCheckpoint(ckpt_path, every=10)
        )
        assert stats.resumed_pushes == 10
        reference = build_labels(graph)
        assert labels.order == reference.order
        for v in range(graph.n):
            assert labels.canonical(v) == reference.canonical(v)
            assert labels.noncanonical(v) == reference.noncanonical(v)

        index_path = tmp_path / "index.bin"
        save_index(SPCIndex(FlatLabels.from_label_set(labels)), index_path,
                   graph=graph)
        resilient = ResilientSPCIndex(graph, index_path=index_path)
        assert resilient.status == "index"
        for s, t in [(0, 9), (4, 4), (11, 40), (2, 49)]:
            assert resilient.count_with_distance(s, t) == truth(dist, count, s, t)

    def test_crash_during_save_leaves_previous_file(self, saved, monkeypatch):
        """Atomicity: dying inside the save never clobbers the old index."""
        import repro.io.serialize as serialize

        graph, dist, count, path = saved
        before = path.read_bytes()

        real_replace = serialize.os.replace

        def dying_replace(src, dst):
            raise SimulatedKill("killed before rename")

        monkeypatch.setattr(serialize.os, "replace", dying_replace)
        with pytest.raises(SimulatedKill):
            save_index(SPCIndex.build(graph), path, graph=graph)
        monkeypatch.setattr(serialize.os, "replace", real_replace)

        assert path.read_bytes() == before  # old bytes intact, no temp litter
        assert not [p for p in path.parent.iterdir() if p.name.endswith(".tmp")]
        assert load_labels(path) is not None
