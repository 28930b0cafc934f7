"""Tests for the rebuild-behind maintenance controller.

The contract under test: mutations are absorbed into a versioned
journal, a supervised background worker rebuilds the static index,
the result is published atomically — and at no point does any query
return a wrong count, including while a worker is being killed,
resumed from a checkpoint, or recovering from a corrupted one.
"""

import os
import threading

import pytest

from tests.conftest import diamond_chains_through_hub

from repro.dynamic import MaintenanceController, MaintenanceSLO
from repro.generators.random_graphs import barabasi_albert_graph
from repro.graph.traversal import spc_bfs
from repro.serving import SERVED_INDEX, SPCService
from repro.serving.cluster import ClusterService
from repro.testing.faults import KillDuringRebuild, flip_bit


@pytest.fixture
def graph():
    return barabasi_albert_graph(90, 2, seed=5)


def missing_edges(graph, count, start=0):
    found = []
    for u in range(graph.n):
        for v in range(u + 1, graph.n):
            if not graph.has_edge(u, v):
                found.append((u, v))
                if len(found) >= start + count:
                    return found[start:]
    return found[start:]


def assert_exact(controller, pairs):
    current = controller.dynamic.current_graph()
    for s, t in pairs:
        assert controller.count_with_distance(s, t) == spc_bfs(current, s, t)


class TestRebuildBehind:
    def test_threshold_triggers_background_publish(self, graph, tmp_path):
        with MaintenanceController(
                graph, str(tmp_path / "index.spc1"),
                rebuild_threshold=3, poll_interval=0.01) as controller:
            for u, v in missing_edges(graph, 3):
                controller.insert_edge(u, v)
            assert controller.rebuild_now(timeout=60.0)
            assert controller.pending_mutations == 0
            assert controller.published_version == controller.version
            assert controller.stats()["counters"]["publishes"] >= 1
            assert os.path.exists(controller.index_path)
            assert_exact(controller, [(0, 40), (5, 77), (12, 63)])

    def test_journal_tail_replayed_after_publish(self, graph, tmp_path):
        # Mutations landing while a build is in flight must survive the
        # publish as a pending overlay, not be silently folded or lost.
        release = threading.Event()

        def hold_first_retry(controller, attempt):
            release.wait(10.0)

        with MaintenanceController(
                graph, str(tmp_path / "index.spc1"),
                rebuild_threshold=100, poll_interval=0.01) as controller:
            early = missing_edges(graph, 2)
            late = missing_edges(graph, 2, start=2)
            for u, v in early:
                controller.insert_edge(u, v)
            snapshot_version = controller.version
            # Land more churn before the drain completes; the controller
            # may cover it in the same cycle or leave it as tail — either
            # way every answer must stay exact and versions consistent.
            for u, v in late:
                controller.insert_edge(u, v)
            assert controller.rebuild_now(timeout=60.0)
            assert controller.published_version >= snapshot_version
            assert_exact(controller, early + late + [(0, 50)])

    def test_deletion_churn_publishes_exact_index(self, graph, tmp_path):
        with MaintenanceController(
                graph, str(tmp_path / "index.spc1"),
                rebuild_threshold=2, poll_interval=0.01) as controller:
            edges = list(graph.edges())[:2]
            for u, v in edges:
                controller.delete_edge(u, v)
            assert controller.rebuild_now(timeout=60.0)
            current = controller.dynamic.current_graph()
            for u, v in edges:
                assert not current.has_edge(u, v)
            assert_exact(controller, [(0, 30), (7, 81), (22, 59)])

    def test_cancelled_mutations_drain_without_build(self, graph, tmp_path):
        # insert e then delete e: the journal clears with no build needed.
        with MaintenanceController(
                graph, str(tmp_path / "index.spc1"),
                rebuild_threshold=100, poll_interval=0.01) as controller:
            publishes_before = controller.stats()["counters"]["publishes"]
            (u, v), = missing_edges(graph, 1)
            controller.insert_edge(u, v)
            controller.delete_edge(u, v)
            assert controller.rebuild_now(timeout=30.0)
            assert controller.pending_mutations == 0
            counters = controller.stats()["counters"]
            assert counters["publishes"] == publishes_before

    def test_rebuild_now_skips_the_debounce(self, graph, tmp_path):
        # At default settings one mutation is below the threshold and the
        # age trigger is 7.5 s away; a waiting caller makes it due now.
        with MaintenanceController(
                graph, str(tmp_path / "index.spc1")) as controller:
            (u, v), = missing_edges(graph, 1)
            controller.insert_edge(u, v)
            assert controller.rebuild_now(timeout=2.0)
            assert controller.published_version == controller.version
            assert_exact(controller, [(0, 40), (u, v)])

    def test_staleness_slo_breach_is_counted(self, graph, tmp_path):
        slo = MaintenanceSLO(max_staleness_seconds=1e9,
                             max_pending_mutations=1)
        with MaintenanceController(
                graph, str(tmp_path / "index.spc1"),
                rebuild_threshold=100, slo=slo,
                poll_interval=0.01) as controller:
            for u, v in missing_edges(graph, 2):
                controller.insert_edge(u, v)
            controller.rebuild_now(timeout=60.0)
            assert controller.stats()["counters"]["slo_pending_breaches"] >= 1

    def test_published_index_serves_the_cluster(self, graph, tmp_path):
        # One published file serves both tiers: the cluster maps it as is.
        with MaintenanceController(
                graph, str(tmp_path / "index.spc1"),
                rebuild_threshold=1, poll_interval=0.01) as controller:
            (u, v), = missing_edges(graph, 1)
            controller.insert_edge(u, v)
            assert controller.rebuild_now(timeout=60.0)
            published = controller.published_graph
            with ClusterService(controller.index_path, workers=1) as cluster:
                for s, t in [(0, 44), (3, 71), (u, v), (12, 89)]:
                    result = cluster.submit(s, t, timeout=30)
                    assert result.status == SERVED_INDEX
                    assert result.answer == spc_bfs(published, s, t)


class TestExactCounts:
    """Counts past the paper's 31-bit packed field survive publish and
    hot reload exactly: 40 diamonds from 0 to 120 give 2^40 paths."""

    def test_service_answers_exactly_across_publishes(self, tmp_path):
        graph, _, _ = diamond_chains_through_hub(k=40, leaves=10)
        expected = (80, 2**40)

        def reload(_controller, _version, published):
            service.set_graph(published)
            service.check_reload()

        with MaintenanceController(
                graph, str(tmp_path / "index.spcf"), rebuild_threshold=100,
                poll_interval=0.01, on_publish=reload) as controller:
            service = SPCService(graph, index_path=controller.index_path,
                                 reload_check_every=0)
            result = service.submit(0, 120)
            assert (result.status, result.answer) == (SERVED_INDEX, expected)
            generation = result.generation
            leaf = graph.n - 1
            controller.insert_edge(leaf - 1, leaf)  # far from the chain
            assert controller.rebuild_now(timeout=60.0)
            result = service.submit(0, 120)
            assert (result.status, result.answer) == (SERVED_INDEX, expected)
            assert result.generation > generation
            assert controller.count_with_distance(0, 120) == expected


class TestChaos:
    def test_kill_then_resume_from_checkpoint(self, graph, tmp_path):
        fault = KillDuringRebuild(str(tmp_path / "markers"), after_saves=1,
                                  times=1)
        os.makedirs(str(tmp_path / "markers"), exist_ok=True)
        with MaintenanceController(
                graph, str(tmp_path / "index.spc1"),
                rebuild_threshold=1, poll_interval=0.01,
                retry_backoff=0.05, checkpoint_every=8,
                _fault=fault) as controller:
            (u, v), = missing_edges(graph, 1)
            controller.insert_edge(u, v)
            assert controller.rebuild_now(timeout=120.0)
            counters = controller.stats()["counters"]
            assert counters["worker_crashes"] >= 1
            assert counters["rebuild_retries"] >= 1
            assert counters["resumed_pushes"] > 0
            assert counters["publishes"] >= 1
            assert_exact(controller, [(0, 44), (3, 71), (u, v)])

    def test_corrupt_checkpoint_discarded(self, graph, tmp_path):
        fault = KillDuringRebuild(str(tmp_path / "markers"), after_saves=1,
                                  times=1)
        os.makedirs(str(tmp_path / "markers"), exist_ok=True)
        corrupted = []

        def corrupt(controller, attempt):
            if os.path.exists(controller.checkpoint_path):
                flip_bit(controller.checkpoint_path, 12, 2)
                corrupted.append(attempt)

        with MaintenanceController(
                graph, str(tmp_path / "index.spc1"),
                rebuild_threshold=1, poll_interval=0.01,
                retry_backoff=0.05, checkpoint_every=8,
                _fault=fault, _before_retry=corrupt) as controller:
            (u, v), = missing_edges(graph, 1)
            controller.insert_edge(u, v)
            assert controller.rebuild_now(timeout=120.0)
            counters = controller.stats()["counters"]
            assert corrupted
            assert counters["checkpoint_discards"] >= 1
            assert counters["publishes"] >= 1
            assert_exact(controller, [(0, 44), (3, 71), (u, v)])

    def test_hung_worker_killed_on_timeout(self, graph, tmp_path):
        fault = KillDuringRebuild(str(tmp_path / "markers"), after_saves=1,
                                  times=1, kind="hang", hang_seconds=60.0)
        os.makedirs(str(tmp_path / "markers"), exist_ok=True)
        with MaintenanceController(
                graph, str(tmp_path / "index.spc1"),
                rebuild_threshold=1, poll_interval=0.01,
                task_timeout=1.5, retry_backoff=0.05, checkpoint_every=8,
                _fault=fault) as controller:
            (u, v), = missing_edges(graph, 1)
            controller.insert_edge(u, v)
            assert controller.rebuild_now(timeout=120.0)
            counters = controller.stats()["counters"]
            assert counters["rebuild_timeouts"] >= 1
            assert counters["publishes"] >= 1
            assert_exact(controller, [(0, 44), (u, v)])


class TestServingIntegration:
    def test_publish_swaps_service_generation(self, graph, tmp_path):
        from repro.serving import SPCService

        index_path = str(tmp_path / "index.spc1")
        published = []

        def on_publish(controller, covered, new_graph):
            service.set_graph(new_graph)
            service.check_reload()
            published.append(covered)

        with MaintenanceController(
                graph, index_path, rebuild_threshold=1,
                poll_interval=0.01, on_publish=on_publish) as controller:
            service = SPCService(graph, index_path=index_path,
                                 reload_check_every=0)
            gen_before = service.health()["generation"]
            (u, v), = missing_edges(graph, 1)
            controller.insert_edge(u, v)
            assert controller.rebuild_now(timeout=60.0)
            assert published
            assert service.health()["generation"] == gen_before + 1
            # The reloaded index serves the *new* graph exactly.
            result = service.submit(u, v)
            assert result.ok
            assert result.answer == (1, 1)

    def test_publish_cycle_never_thaws(self, graph, tmp_path, monkeypatch):
        from repro.core.flat_labels import FlatLabels

        def refuse(flat):
            raise AssertionError("the publish cycle thawed the label columns")

        monkeypatch.setattr(FlatLabels, "to_label_set", refuse)
        index_path = str(tmp_path / "index.spc1")

        def on_publish(controller, covered, new_graph):
            service.set_graph(new_graph)
            service.check_reload()

        with MaintenanceController(
                graph, index_path, rebuild_threshold=2,
                poll_interval=0.01, on_publish=on_publish) as controller:
            service = SPCService(graph, index_path=index_path,
                                 reload_check_every=0)
            for u, v in missing_edges(graph, 2):
                controller.insert_edge(u, v)
            assert controller.rebuild_now(timeout=60.0)
            assert controller.stats()["counters"]["publishes"] >= 1
            assert service.health()["status"] == "index"
            current = controller.dynamic.current_graph()
            pairs = [(0, 40), (5, 77), (12, 63)]
            assert_exact(controller, pairs)
            assert service.query_many(pairs) == [spc_bfs(current, s, t)
                                                 for s, t in pairs]

    def test_set_graph_demotes_then_reload_repromotes(self, graph, tmp_path):
        from repro.serving import SPCService

        index_path = str(tmp_path / "index.spc1")
        with MaintenanceController(
                graph, index_path, rebuild_threshold=100,
                poll_interval=0.01) as controller:
            service = SPCService(graph, index_path=index_path,
                                 reload_check_every=0)
            assert service.submit(0, 40).status == "index"
            (u, v), = missing_edges(graph, 1)
            controller.insert_edge(u, v)
            new_graph = controller.dynamic.current_graph()
            # Demote first: between the mutation landing and the rebuild
            # publishing, the service must answer exactly from BFS on the
            # new graph rather than serve stale labels.
            service.set_graph(new_graph)
            degraded = service.submit(0, 40)
            assert degraded.ok
            assert degraded.status == "degraded"
            assert degraded.answer == spc_bfs(new_graph, 0, 40)
            # Once the rebuild publishes a fresh index file, check_reload
            # re-promotes the service onto it.
            assert controller.rebuild_now(timeout=60.0)
            assert service.check_reload()
            promoted = service.submit(0, 40)
            assert promoted.status == "index"
            assert promoted.answer == spc_bfs(new_graph, 0, 40)

