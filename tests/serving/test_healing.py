"""Self-healing cluster: supervision, degraded answers, hedging, drains.

The contract under fire: a SIGKILLed worker is respawned with bounded
backoff and its in-flight work is replayed (the other workers never
stall); a SIGSTOPped worker is declared stalled, killed, and respawned;
a torn pipe write is *that worker's* death, not a router crash; a
surviving worker answers everything exactly, and with no live worker at
all the BFS fallback does (``SERVED_DEGRADED``); slow requests are
hedged to another idle worker and duplicates never double-resolve;
drains and rolling restarts swap processes without dropping answers;
and ``close()`` resolves every outstanding future even when a worker is
wedged.
"""

import os
import signal
import threading
import time

import pytest
from tests.conftest import hold_worker, holding_cluster

from repro.core.batch_query import count_many, count_set_to_set, single_source
from repro.core.index import SPCIndex
from repro.exceptions import DeadlineExceeded
from repro.generators.random_graphs import barabasi_albert_graph
from repro.io.flat_store import save_flat_labels
from repro.serving import (
    DEADLINE,
    ERROR,
    SERVED_DEGRADED,
    SERVED_INDEX,
    ClusterService,
)
from repro.serving.cluster import HEDGE_FLOOR
from repro.serving.jobs import _StatsJob
from repro.testing.faults import StalledWorker, TornPipeWrite
from repro.utils.rng import random_pairs

N = 240


@pytest.fixture(scope="module")
def graph():
    return barabasi_albert_graph(N, 3, seed=17)


@pytest.fixture(scope="module")
def flat(graph):
    return SPCIndex.build(graph).to_flat()


@pytest.fixture(scope="module")
def arena(flat, tmp_path_factory):
    path = tmp_path_factory.mktemp("healing") / "labels.spcf"
    save_flat_labels(flat, path)
    return str(path)


def _wait(predicate, timeout=10.0, interval=0.01):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


class TestRespawn:
    def test_sigkill_respawns_and_replays(self, arena, flat):
        pairs = list(random_pairs(N, 24, rng=5))
        oracle = count_many(flat, pairs)
        with ClusterService(arena, workers=2,
                            respawn_backoff=0.05) as service:
            victim = service._workers[0]
            pid = victim.process.pid
            futures = [service.submit_nowait(s, t) for s, t in pairs]
            os.kill(pid, signal.SIGKILL)
            for (s, t), future, want in zip(pairs, futures, oracle):
                result = future.result(timeout=30)
                assert result.status == SERVED_INDEX, result.error
                assert result.answer == want, (s, t)
            assert _wait(lambda: service.stats()["workers"][0]["alive"])
            stats = service.stats()
            assert stats["counters"]["respawns"] >= 1
            assert stats["workers"][0]["pid"] != pid
            # The healed worker serves again.
            assert service.submit(0, 1).status == SERVED_INDEX

    def test_backoff_doubles_then_resets(self, arena):
        with ClusterService(arena, workers=1, respawn_backoff=0.05,
                            respawn_backoff_max=0.4) as service:
            worker = service._workers[0]
            base = service._respawn_backoff
            assert worker.backoff == base
            for _ in range(2):
                pid = worker.process.pid
                os.kill(pid, signal.SIGKILL)
                assert _wait(lambda: service.stats()["workers"][0]["alive"]
                             and service.stats()["workers"][0]["pid"] != pid)
            # Two consecutive deaths: the next delay has doubled twice
            # (bounded by the cap).
            assert worker.backoff == pytest.approx(base * 4)
            assert service.submit(0, 1).ok

    def test_respawn_onto_a_newer_file_answers_under_no_old_generation(
            self, tmp_path):
        """The worker dies, a publish replaces the file before
        ``check_reload``, then the worker respawns: it maps the new file,
        so it must not answer as generation 0."""
        from repro.graph.graph import Graph
        from repro.graph.traversal import spc_bfs

        old = barabasi_albert_graph(30, 2, seed=1)
        new = Graph.from_edges(30, list(old.edges()) + [(0, 29)])
        assert spc_bfs(old, 0, 29)[0] > 1
        path = tmp_path / "labels.spcf"
        save_flat_labels(SPCIndex.build(old).to_flat(), path)
        new_flat = SPCIndex.build(new).to_flat()
        with ClusterService(str(path), workers=1, respawn_backoff=0.5,
                            reload_check_every=0) as service:
            assert service.submit(0, 29, timeout=10).answer == spc_bfs(
                old, 0, 29)
            os.kill(service._workers[0].process.pid, signal.SIGKILL)
            save_flat_labels(new_flat, path)  # lands inside the backoff
            result = service.submit(0, 29, timeout=10)
            if result.ok:  # only a worker still on the old file may answer
                assert result.generation == 0
                assert result.answer == spc_bfs(old, 0, 29)
            else:
                assert result.status == ERROR, result
            assert service.check_reload()
            result = service.submit(0, 29, timeout=10)
        assert result.status == SERVED_INDEX, result.error
        assert result.generation == 1
        assert result.answer == spc_bfs(new, 0, 29) == (1, 1)


class TestStallSupervision:
    def test_sigstop_is_killed_and_respawned(self, arena, tmp_path):
        fault = StalledWorker(tmp_path, after_replies=1, times=1)
        with ClusterService(arena, workers=1, default_deadline=0.5,
                            stall_timeout=0.2, respawn_backoff=0.05,
                            heartbeat_interval=0.1,
                            _fault=fault) as service:
            # The first reply stalls the worker mid-batch (SIGSTOP: the
            # pipe stays open, so only stall supervision can see it).
            first = service.submit(0, 1)
            assert first.status == DEADLINE
            stats = service.stats()
            assert stats["counters"]["stalls"] >= 1
            assert stats["counters"]["respawns"] >= 1
            # The respawned worker serves (its fault marker is spent).
            result = service.submit(0, 2)
            assert result.status == SERVED_INDEX, result.error

    def test_idle_heartbeat_detects_silent_stall(self, arena):
        with ClusterService(arena, workers=1, stall_timeout=0.2,
                            respawn_backoff=0.05,
                            heartbeat_interval=0.1) as service:
            pid = service.stats()["workers"][0]["pid"]
            assert service.submit(0, 1).status == SERVED_INDEX
            # SIGSTOP an *idle* worker: the pipe stays open, the process
            # is alive — only the missed heartbeat pong can expose it.
            os.kill(pid, signal.SIGSTOP)
            assert _wait(lambda: service.stats()["counters"]["stalls"] >= 1)
            assert _wait(lambda: service.stats()["workers"][0]["alive"]
                         and service.stats()["workers"][0]["pid"] != pid)
            assert service.submit(0, 2).status == SERVED_INDEX


    def test_worker_stats_on_a_stopped_worker_ends_at_its_timeout(self,
                                                                 arena):
        # A stopped worker looks idle until its next heartbeat is due, so
        # its pinned STATS probe goes to it and never comes back.
        with ClusterService(arena, workers=2) as service:
            pid = service.stats()["workers"][0]["pid"]
            os.kill(pid, signal.SIGSTOP)
            try:
                started = time.monotonic()
                with pytest.raises(DeadlineExceeded):
                    service.worker_stats(timeout=1.0)
                assert time.monotonic() - started < 1.0 + 0.5
            finally:
                os.kill(pid, signal.SIGCONT)


class TestTornPipe:
    def test_torn_frame_is_worker_death_not_router_crash(self, arena,
                                                         flat, tmp_path):
        fault = TornPipeWrite(tmp_path, after_replies=1, times=1)
        pairs = list(random_pairs(N, 12, rng=9))
        oracle = count_many(flat, pairs)
        with ClusterService(arena, workers=1, respawn_backoff=0.05,
                            _fault=fault) as service:
            futures = [service.submit_nowait(s, t) for s, t in pairs]
            for (s, t), future, want in zip(pairs, futures, oracle):
                result = future.result(timeout=30)
                assert result.status == SERVED_INDEX, result.error
                assert result.answer == want, (s, t)
            stats = service.stats()
            assert stats["counters"]["worker_failures"] >= 1
            assert stats["counters"]["respawns"] >= 1
            # The router survived the torn frame and still serves.
            assert service.submit(1, 2).status == SERVED_INDEX


class TestHedging:
    def test_hedge_beats_stalled_worker(self, arena, tmp_path):
        fault = StalledWorker(tmp_path, after_replies=1, times=1)
        with ClusterService(arena, workers=2, hedge_delay=0.05,
                            heartbeat_interval=0, respawn_backoff=0.05,
                            _fault=fault) as service:
            pids = [w["pid"] for w in service.stats()["workers"]]
            # Worker 0 takes the batch and SIGSTOPs itself before
            # replying; no deadline, so only the hedge can cover it.
            result = service.submit(0, 1, timeout=None)
            assert result.status == SERVED_INDEX, result.error
            stats = service.stats()
            assert stats["counters"]["hedges"] >= 1
            assert stats["counters"]["hedge_wins"] >= 1
            # Wake the stalled leg so its held-back duplicate reply is
            # delivered — it must be discarded, never double-resolved.
            for pid in pids:
                try:
                    StalledWorker.resume(pid)
                except ProcessLookupError:
                    pass
            assert service.submit(0, 2).status == SERVED_INDEX
            assert service.stats()["counters"][SERVED_INDEX] >= 2

    def test_auto_hedge_needs_latency_samples(self, arena):
        with ClusterService(arena, workers=2,
                            hedge_delay="auto") as service:
            assert service._hedge_delay_for() is None
            for _ in range(16):
                service._latency.append(0.01)
            delay = service._hedge_delay_for()
            assert delay is not None
            assert delay >= HEDGE_FLOOR


class TestDegradedRouting:
    def test_peer_covers_dead_shard_exactly(self, arena, flat, tmp_path):
        # One of two workers dies for good while work is queued: the
        # survivor answers every queued pair, sweep and set query from
        # the same arena, exactly and with status index.
        fault = StalledWorker(tmp_path, after_replies=1, times=1)
        with ClusterService(arena, workers=2, respawn=False,
                            heartbeat_interval=0, hedge_delay=None,
                            _fault=fault) as service:
            held = service.submit_many_nowait([(0, 1)], timeout=None)
            marker = os.path.join(str(tmp_path), "stall-0")
            assert _wait(lambda: os.path.exists(marker))
            victim = next(w for w in service._workers
                          if w.state == "busy")
            pairs = list(random_pairs(N, 24, rng=15))
            futures = [service.submit_nowait(s, t) for s, t in pairs]
            os.kill(victim.process.pid, signal.SIGKILL)
            sweep = service.single_source(3)
            sts = service.set_to_set([0, 1], [N - 1, N - 2])
            assert held.result(timeout=30).status == SERVED_INDEX
            for future, want in zip(futures, count_many(flat, pairs)):
                result = future.result(timeout=30)
                assert result.status == SERVED_INDEX, result.error
                assert result.answer == want
            assert sweep.status == SERVED_INDEX, sweep.error
            want = single_source(flat, 3)
            assert (sweep.answer[0] == want[0]).all()
            assert (sweep.answer[1] == want[1]).all()
            assert sts.status == SERVED_INDEX, sts.error
            assert sts.answer == count_set_to_set(flat, [0, 1],
                                                  [N - 1, N - 2])
            stats = service.stats()
            assert stats["counters"]["worker_failures"] == 1
            assert sum(w["alive"] for w in stats["workers"]) == 1

    def test_peer_covers_scatter_gather(self, arena, flat):
        with ClusterService(arena, workers=2, respawn=False,
                            heartbeat_interval=0) as service:
            os.kill(service._workers[1].process.pid, signal.SIGKILL)
            assert _wait(lambda: not service.stats()["workers"][1]["alive"])
            pairs = list(random_pairs(N, 32, rng=16))
            batch = service.submit_many(pairs)
            assert batch.status == SERVED_INDEX, batch.error
            assert batch.answer == count_many(flat, pairs)
            want = single_source(flat, 3)
            result = service.single_source(3)
            assert result.status == SERVED_INDEX, result.error
            dist, count = result.answer
            assert (dist == want[0]).all()
            assert (count == want[1]).all()
            sts = service.set_to_set([0, 3, 9], [5, 100, N - 1])
            assert sts.status == SERVED_INDEX, sts.error
            assert sts.answer == count_set_to_set(flat, [0, 3, 9],
                                                  [5, 100, N - 1])

    def test_bfs_fallback_when_pool_is_gone(self, arena, graph, flat):
        with ClusterService(arena, workers=1, respawn=False,
                            heartbeat_interval=0, graph=graph) as service:
            os.kill(service._workers[0].process.pid, signal.SIGKILL)
            assert _wait(lambda: not service.stats()["workers"][0]["alive"])
            pairs = list(random_pairs(N, 6, rng=11))
            oracle = count_many(flat, pairs)
            for (s, t), want in zip(pairs, oracle):
                result = service.submit(s, t)
                assert result.status == SERVED_DEGRADED, result.error
                assert result.ok
                assert result.answer == want, (s, t)
            # Scatter-gather jobs take the whole-job BFS path too.
            ss = service.single_source(2)
            assert ss.status == SERVED_DEGRADED
            want = single_source(flat, 2)
            assert (ss.answer[0] == want[0]).all()
            assert (ss.answer[1] == want[1]).all()
            sts = service.set_to_set([0, 1], [N - 1, N - 2])
            assert sts.status == SERVED_DEGRADED
            assert sts.answer == count_set_to_set(flat, [0, 1],
                                                  [N - 1, N - 2])

    def test_no_fallback_no_peers_fails_typed(self, arena):
        with ClusterService(arena, workers=1, respawn=False,
                            heartbeat_interval=0) as service:
            os.kill(service._workers[0].process.pid, signal.SIGKILL)
            assert _wait(lambda: not service.stats()["workers"][0]["alive"])
            result = service.submit(0, 1)
            assert result.status == ERROR
            assert "no live workers" in str(result.error)


class TestDrains:
    def test_drain_swaps_the_process(self, arena):
        with ClusterService(arena, workers=2) as service:
            old_pid = service.stats()["workers"][0]["pid"]
            assert service.drain(0).result(timeout=30) is True
            stats = service.stats()
            assert stats["workers"][0]["pid"] != old_pid
            assert stats["workers"][0]["alive"]
            assert stats["counters"]["drains"] >= 1
            assert service.submit(0, 1).status == SERVED_INDEX

    def test_drain_without_respawn_retires_the_slot(self, arena):
        with ClusterService(arena, workers=2) as service:
            assert service.drain(1, respawn=False).result(timeout=30) is True
            stats = service.stats()
            assert stats["workers"][1]["state"] == "stopped"
            # The surviving worker still serves.
            assert service.submit(0, 1).status == SERVED_INDEX

    def test_drain_flushes_inflight_first(self, arena, flat, tmp_path):
        pairs = list(random_pairs(N, 16, rng=13))
        oracle = count_many(flat, pairs)
        # The drain lands while one batch is in flight and the rest is
        # queued behind it.
        with holding_cluster(arena, tmp_path) as service:
            held, pid = hold_worker(service, tmp_path)
            futures = [service.submit_nowait(s, t) for s, t in pairs]
            drained = service.drain(0)
            StalledWorker.resume(pid)
            assert held.result(timeout=30).status == SERVED_INDEX
            for future, want in zip(futures, oracle):
                result = future.result(timeout=30)
                assert result.status == SERVED_INDEX, result.error
                assert result.answer == want
            assert drained.result(timeout=30) is True

    def test_rolling_restart_replaces_every_worker(self, arena):
        with ClusterService(arena, workers=2) as service:
            before = [w["pid"] for w in service.stats()["workers"]]
            assert service.rolling_restart(timeout=30) is True
            after = [w["pid"] for w in service.stats()["workers"]]
            assert all(a != b for a, b in zip(after, before))
            assert all(w["alive"] for w in service.stats()["workers"])
            assert service.submit(0, 1).status == SERVED_INDEX

    def test_drain_validates_index(self, arena):
        with ClusterService(arena, workers=1) as service:
            with pytest.raises(ValueError):
                service.drain(7)


class TestCloseResolvesFutures:
    def test_close_resolves_wedged_inflight(self, arena, tmp_path):
        # A worker SIGSTOPs holding a no-deadline batch; with heartbeats
        # off, only the server-side ceiling (60 s) would kill it, long
        # after this test. close() must still resolve every outstanding
        # future terminally.
        fault = StalledWorker(tmp_path, after_replies=1, times=1)
        service = ClusterService(arena, workers=1, heartbeat_interval=0,
                                 respawn=False, _fault=fault)
        marker = os.path.join(str(tmp_path), "stall-0")
        futures = [service.submit_nowait(0, i) for i in range(4)]
        assert _wait(lambda: os.path.exists(marker))
        pid = service.stats()["workers"][0]["pid"]
        resolved = threading.Event()

        def wait_all():
            for future in futures:
                future.result(timeout=30)
            resolved.set()

        waiter = threading.Thread(target=wait_all, daemon=True)
        waiter.start()
        closer = threading.Thread(target=lambda: service.close(timeout=1.0),
                                  daemon=True)
        closer.start()
        assert resolved.wait(timeout=15), "submit() futures hung across close"
        statuses = {f.result().status for f in futures}
        assert statuses <= {ERROR}
        try:
            os.kill(pid, signal.SIGCONT)
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        closer.join(timeout=30)
        assert not closer.is_alive()

    def test_close_resolves_queued_work(self, arena, tmp_path):
        # Eight requests queue behind a worker stopped on its first
        # reply; close() arrives while they are still queued, then the
        # worker resumes. Closing must flush the queue, not strand it.
        service = holding_cluster(arena, tmp_path)
        held, pid = hold_worker(service, tmp_path)
        futures = [service.submit_nowait(0, i) for i in range(8)]
        closer = threading.Thread(target=service.close, daemon=True)
        closer.start()
        assert _wait(lambda: service._closing)
        StalledWorker.resume(pid)
        closer.join(timeout=30)
        assert not closer.is_alive()
        statuses = {f.result(timeout=10).status for f in futures + [held]}
        assert statuses == {SERVED_INDEX}


class TestBreakerRecovery:
    def test_breaker_recovers_after_respawn(self, arena):
        # Death records a breaker failure (threshold=1 trips it open);
        # the respawned worker's HELLO and the first served probe are
        # the successes that walk it back closed.
        with ClusterService(arena, workers=1, failure_threshold=1,
                            reset_timeout=0.01,
                            respawn_backoff=0.05) as service:
            pid = service.stats()["workers"][0]["pid"]
            os.kill(pid, signal.SIGKILL)
            assert _wait(
                lambda: service.stats()["counters"]["worker_failures"] >= 1)
            assert service.breaker.snapshot()["counters"]["opened"] >= 1
            assert _wait(lambda: service.stats()["workers"][0]["alive"]
                         and service.stats()["workers"][0]["pid"] != pid)
            # A served probe through the half-open breaker closes it.
            assert _wait(lambda: service.submit(0, 1).ok
                         and service.breaker.state == "closed")


class TestGatherRegression:
    """The stats fan-out gathers one probe per worker (unit level)."""

    def _job(self):
        from concurrent.futures import Future

        return _StatsJob(Future(), None, 0.0, [0, 1])

    def test_duplicate_replies_are_deduped(self):
        job = self._job()
        assert job.register_reply(0, "a") is False
        # A replayed probe's duplicate answer for the same worker: dropped.
        assert job.register_reply(0, "a-dup") is False
        assert job.replies[0] == "a"
        assert job.register_reply(1, "b") is True
        assert job.merge() == ["a", "b"]

    def test_done_job_rejects_stragglers(self):
        job = self._job()
        job.done = True
        assert job.register_reply(0, "late") is False
        assert job.replies == {}

    def test_non_uniform_jobs_accept_mixed(self):
        # Workers mid-reload answer from different generations; a stats
        # probe reports each one as it is.
        job = self._job()
        job.register_reply(0, {"generation": 1})
        assert job.register_reply(1, {"generation": 2}) is True
