"""ClusterService: one pool of worker processes serving one arena.

Covers the contract end to end: pair batches match the in-process
oracle, ``submit_many``/``single_source``/``set_to_set`` each go whole
to one worker in one round-trip, terminal statuses mirror
:class:`SPCService.submit`, a rolling hot reload never mixes
generations in one response, and workers prove they share (not
duplicate) the label arena.
"""

import os
import threading
import time

import numpy as np
import pytest
from tests.conftest import hold_worker, holding_cluster, wait_for

from repro.core.batch_query import count_many, count_set_to_set, single_source
from repro.core.index import SPCIndex
from repro.generators.random_graphs import barabasi_albert_graph
from repro.io.flat_store import save_flat_labels
from repro.serving import (
    DEADLINE,
    ERROR,
    INVALID,
    SERVED_INDEX,
    SHED,
    TERMINAL_STATUSES,
    ClusterService,
)
from repro.testing.faults import StalledWorker
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
    path = tmp_path_factory.mktemp("cluster") / "labels.spcf"
    save_flat_labels(flat, path)
    return str(path)


@pytest.fixture(scope="module")
def cluster(arena):
    with ClusterService(arena, workers=2) as service:
        yield service


class TestPairServing:
    def test_matches_oracle_under_batching(self, cluster, flat):
        pairs = list(random_pairs(N, 80, rng=3))
        oracle = count_many(flat, pairs)
        futures = [cluster.submit_nowait(s, t) for s, t in pairs]
        for (s, t), future, want in zip(pairs, futures, oracle):
            result = future.result(timeout=30)
            assert result.status == SERVED_INDEX, result.error
            assert tuple(result.answer) == tuple(want), (s, t)

    def test_submit_blocks_for_a_terminal_result(self, cluster, flat):
        result = cluster.submit(1, 2)
        assert result.ok
        assert tuple(result.answer) == tuple(count_many(flat, [(1, 2)])[0])
        assert result.elapsed >= 0

    def test_batching_actually_coalesces(self, arena, flat, tmp_path):
        with holding_cluster(arena, tmp_path, max_batch=128) as service:
            held, pid = hold_worker(service, tmp_path)
            pairs = list(random_pairs(N, 64, rng=5))
            futures = [service.submit_nowait(s, t) for s, t in pairs]
            StalledWorker.resume(pid)
            assert held.result(timeout=30).ok
            for future in futures:
                assert future.result(timeout=30).ok
            stats = service.stats()
            # 64 requests queued behind a busy worker ride far fewer
            # round-trips than 64 (the held batch, then one more).
            assert stats["counters"]["batches"] < 16

    def test_lone_request_on_idle_cluster_needs_no_clock(self, arena):
        # A frozen clock never lets a coalescing timer expire: a request
        # must go out because the worker is idle, not because time passed.
        with ClusterService(arena, workers=1, clock=lambda: 0.0,
                            heartbeat_interval=0, hedge_delay=None) as service:
            future = service.submit_nowait(3, 4)
            result = future.result(timeout=10)
        assert result.status == SERVED_INDEX, result.error

    def test_work_queued_behind_a_busy_worker_rides_next_batches(
            self, arena, flat, tmp_path):
        max_batch, k = 16, 40
        with holding_cluster(arena, tmp_path, max_batch=max_batch) as service:
            long_job = list(random_pairs(N, 500, rng=21))
            held, pid = hold_worker(service, tmp_path, long_job)
            sizes = []
            send = service._send

            def recording_send(worker, message):
                if message[0] == "pairs":
                    sizes.append(len(message[2]))
                return send(worker, message)

            service._send = recording_send
            before = service.stats()["counters"]["batches"]
            pairs = list(random_pairs(N, k, rng=22))
            futures = [service.submit_nowait(s, t) for s, t in pairs]
            StalledWorker.resume(pid)
            assert held.result(timeout=30).ok
            for future, want in zip(futures, count_many(flat, pairs)):
                result = future.result(timeout=30)
                assert result.status == SERVED_INDEX, result.error
                assert tuple(result.answer) == tuple(want)
            trips = service.stats()["counters"]["batches"] - before
        assert trips <= -(-k // max_batch) + 1
        assert sum(sizes) == k
        assert max(sizes) <= max_batch

    def test_invalid_vertex_is_a_status(self, cluster):
        result = cluster.submit(0, N + 7)
        assert result.status == INVALID
        assert not result.ok

    def test_deadline_is_a_status(self, cluster):
        result = cluster.submit(0, 1, timeout=1e-9)
        assert result.status == DEADLINE
        assert result.error.budget == 1e-9

    def test_shedding_past_admission_bounds(self, arena, tmp_path):
        with holding_cluster(arena, tmp_path, capacity=1,
                      queue_limit=1) as service:
            held, pid = hold_worker(service, tmp_path)
            futures = [service.submit_nowait(0, i % N) for i in range(30)]
            StalledWorker.resume(pid)
            assert held.result(timeout=30).ok
            statuses = {f.result(timeout=30).status for f in futures}
            assert SHED in statuses
            shed = [f.result() for f in futures
                    if f.result().status == SHED]
            assert all(r.error.retry_after <= 5.0 for r in shed)

    def test_submit_many_matches_oracle_across_shards(self, cluster, flat):
        pairs = list(random_pairs(N, 96, rng=11))
        result = cluster.submit_many(pairs)
        assert result.status == SERVED_INDEX, result.error
        assert len(result.answer) == len(pairs)
        for got, want in zip(result.answer, count_many(flat, pairs)):
            assert tuple(got) == tuple(want)

    def test_submit_many_empty_and_nowait(self, cluster, flat):
        assert cluster.submit_many([]).answer == []
        future = cluster.submit_many_nowait([(1, 2), (3, 4)])
        result = future.result(timeout=30)
        want = count_many(flat, [(1, 2), (3, 4)])
        assert [tuple(a) for a in result.answer] == [tuple(w) for w in want]

    def test_submit_many_rejects_bad_vertices_up_front(self, cluster):
        result = cluster.submit_many([(0, 1), (2, N + 9)])
        assert result.status == INVALID
        assert not result.ok
        result = cluster.submit_many([(0, "x")])
        assert result.status == INVALID

    def test_asubmit_is_awaitable(self, cluster, flat):
        import asyncio

        async def drive():
            results = await asyncio.gather(
                cluster.asubmit(3, 4), cluster.asubmit(5, 6))
            return results

        results = asyncio.run(drive())
        want = count_many(flat, [(3, 4), (5, 6)])
        assert [tuple(r.answer) for r in results] == [tuple(w) for w in want]


class TestCountsPastInt64:
    def test_worker_answers_exactly(self, tmp_path):
        """Two 32-diamond chains meeting at a hub: 2^64 shortest paths."""
        from tests.conftest import diamond_chains_through_hub

        graph, s, t = diamond_chains_through_hub()
        path = tmp_path / "chains.spcf"
        save_flat_labels(SPCIndex.build(graph, engine="csr").to_flat(), path)
        with ClusterService(str(path), workers=1) as service:
            single = service.submit(s, t, timeout=30)
            batch = service.submit_many([(s, t), (t, s), (s, s)], timeout=30)
            sweep = service.single_source(s, timeout=30)
            sts = service.set_to_set([s], [t], timeout=30)
        assert sweep.status == SERVED_INDEX, sweep.error
        assert (sweep.answer[0][t], sweep.answer[1][t]) == (130, 2 ** 64)
        assert sts.answer == (130, 2 ** 64)
        assert single.status == SERVED_INDEX, single.error
        assert tuple(single.answer) == (130, 2 ** 64)
        assert batch.status == SERVED_INDEX, batch.error
        assert [tuple(a) for a in batch.answer] == [(130, 2 ** 64),
                                                    (130, 2 ** 64), (0, 1)]


@pytest.fixture(scope="module")
def chains(tmp_path_factory):
    """The 2^64 diamond chains, their arena, and their free ends."""
    from tests.conftest import diamond_chains_through_hub

    graph, s, t = diamond_chains_through_hub()
    path = tmp_path_factory.mktemp("chains") / "chains.spcf"
    save_flat_labels(SPCIndex.build(graph, engine="csr").to_flat(), path)
    return graph, str(path), s, t


class TestCoalescedBatches:
    """``submit`` pairs queued behind a held worker go out as one batch,
    and the batch's reply settles every pair at once."""

    def test_exact_past_int64(self, chains, tmp_path):
        from repro.graph.traversal import spc_bfs

        graph, path, s, t = chains
        pairs = [(s, t), (t, s)] + list(random_pairs(graph.n, 40, rng=9))
        pairs += [(s, 40), (t, t), (s, t)]
        with holding_cluster(path, tmp_path) as service:
            held, pid = hold_worker(service, tmp_path)
            futures = [service.submit_nowait(u, v, timeout=30)
                       for u, v in pairs]
            StalledWorker.resume(pid)
            results = [future.result(timeout=30) for future in futures]
            assert held.result(timeout=30).ok
            counters = service.stats()["counters"]
        assert counters["batches"] < counters["requests"]
        for (u, v), result in zip(pairs, results):
            assert result.status == SERVED_INDEX, result.error
            dist, count = result.answer
            assert type(count) is int
            assert (dist, count) == spc_bfs(graph, u, v), (u, v)
        assert tuple(results[0].answer) == (130, 2 ** 64)
        assert tuple(results[1].answer) == (130, 2 ** 64)

    def test_spent_budget_ends_one_pair(self, chains, tmp_path):
        """The worker holds its first reply and the coalesced batch's reply
        both; one pair's budget runs out while its batch is in flight."""
        from repro.graph.traversal import spc_bfs

        graph, path, s, t = chains
        fault = StalledWorker(tmp_path, after_replies=1, times=2)
        pairs = [(s, t), (0, 5), (t, 3), (7, 11)]
        with ClusterService(path, workers=1, heartbeat_interval=0,
                            hedge_delay=None, _fault=fault) as service:
            held, pid = hold_worker(service, tmp_path)
            futures = [service.submit_nowait(u, v, timeout=30)
                       for u, v in pairs]
            short = service.submit_nowait(s, t, timeout=0.5)
            futures.append(service.submit_nowait(t, s, timeout=30))
            StalledWorker.resume(pid)
            assert held.result(timeout=30).ok
            # The coalesced batch is computed; its reply is held past the
            # short pair's budget.
            assert wait_for(lambda: os.path.exists(
                os.path.join(str(tmp_path), "stall-1")))
            time.sleep(0.6)
            StalledWorker.resume(pid)
            results = [future.result(timeout=30) for future in futures]
            late = short.result(timeout=30)
            counters = service.stats()["counters"]
        assert late.status == DEADLINE
        assert late.error.budget == 0.5
        for (u, v), result in zip(pairs + [(t, s)], results):
            assert result.status == SERVED_INDEX, result.error
            assert tuple(result.answer) == spc_bfs(graph, u, v)
        assert counters["batches"] == 2
        assert counters["requests"] == 1 + len(pairs) + 2
        assert counters["requests"] == sum(
            counters[status] for status in TERMINAL_STATUSES)
        assert counters[DEADLINE] == 1


class TestScatterGather:
    def test_single_source_concatenates_shards(self, cluster, flat):
        for s in (0, 7, N - 1):
            result = cluster.single_source(s)
            assert result.ok, result.error
            dist, count = result.answer
            want_d, want_c = single_source(flat, s)
            assert np.array_equal(dist, want_d)
            assert np.array_equal(count, want_c)

    def test_set_to_set_merges_partials(self, cluster, flat):
        sources = [0, 3, 9]
        targets = [5, 100, 150, 200, N - 1]
        result = cluster.set_to_set(sources, targets)
        assert result.ok, result.error
        assert result.answer == count_set_to_set(flat, sources, targets)

    def test_set_to_set_empty_sets(self, cluster):
        result = cluster.set_to_set([], [1, 2])
        assert result.ok
        assert result.answer == (float("inf"), 0)

    def test_gather_validates_vertices(self, cluster):
        result = cluster.set_to_set([0], [N + 1])
        assert result.status == INVALID

    def test_each_request_is_one_round_trip(self, cluster, flat):
        calls = (
            lambda: cluster.submit_many(list(random_pairs(N, 96, rng=12))),
            lambda: cluster.single_source(7),
            lambda: cluster.set_to_set([0, 3, 9], [5, 100, N - 1]),
        )
        for call in calls:
            before = cluster.stats()["counters"]["batches"]
            assert call().status == SERVED_INDEX
            assert cluster.stats()["counters"]["batches"] == before + 1


class TestSharedMemory:
    def test_workers_share_the_arena(self, cluster):
        stats = cluster.worker_stats()
        assert len(stats) == 2
        for worker in stats:
            if not worker["supported"]:  # pragma: no cover - non-Linux
                pytest.skip("/proc smaps not available")
            # Read-only mmap: no private dirty pages of the label file.
            assert worker["map_private_dirty_kb"] == 0
            assert worker["rss_kb"] > 0

    def test_distinct_processes(self, cluster):
        stats = cluster.worker_stats()
        pids = {w["pid"] for w in stats}
        assert len(pids) == 2
        assert os.getpid() not in pids


class TestLifecycleAndFailure:
    def test_close_is_idempotent_and_rejects_after(self, arena):
        service = ClusterService(arena, workers=1)
        assert service.submit(0, 1).ok
        service.close()
        service.close()
        result = service.submit(0, 1)
        assert result.status == ERROR

    def test_worker_death_fails_inflight_without_respawn(self, arena,
                                                         tmp_path):
        # respawn=False restores the pre-supervision fail-fast contract:
        # death permanently removes the worker and fails its work, both
        # the held in-flight batch and the requests queued behind it.
        with holding_cluster(arena, tmp_path, failure_threshold=1,
                      respawn=False) as service:
            held, _ = hold_worker(service, tmp_path)
            futures = [service.submit_nowait(0, i) for i in range(4)]
            service._workers[0].process.kill()
            assert held.result(timeout=30).status == ERROR
            statuses = [f.result(timeout=30).status for f in futures]
            assert set(statuses) == {ERROR}
            deadline = time.monotonic() + 5
            while (time.monotonic() < deadline
                   and service.stats()["counters"]["worker_failures"] == 0):
                time.sleep(0.01)
            assert service.stats()["counters"]["worker_failures"] == 1

    def test_worker_death_heals_and_replays_by_default(self, arena,
                                                       tmp_path):
        # The supervisor respawns the worker and replays its in-flight
        # keys, so the same scenario now resolves every future exactly.
        with holding_cluster(arena, tmp_path, respawn_backoff=0.05) as service:
            held, _ = hold_worker(service, tmp_path)
            futures = [service.submit_nowait(0, i) for i in range(4)]
            service._workers[0].process.kill()
            assert held.result(timeout=30).status == SERVED_INDEX
            results = [f.result(timeout=30) for f in futures]
            assert all(r.status == SERVED_INDEX for r in results)
            stats = service.stats()
            assert stats["counters"]["worker_failures"] >= 1
            assert stats["counters"]["respawns"] >= 1
            assert stats["workers"][0]["alive"]

    def test_validation(self, arena):
        with pytest.raises(ValueError):
            ClusterService(arena, workers=0)
        with pytest.raises(ValueError):
            ClusterService(arena, workers=1, max_batch=0)


class TestHotReload:
    """Satellite: rolling reload must never mix generations in a reply."""

    def test_rolling_reload_bumps_every_worker(self, flat, tmp_path):
        path = tmp_path / "labels.spcf"
        save_flat_labels(flat, path)
        with ClusterService(path, workers=2) as service:
            assert service.generation == 0
            time.sleep(0.05)  # let mtime_ns tick past the first save
            save_flat_labels(flat, path)
            assert service.check_reload() is True
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline and service.generation < 1:
                time.sleep(0.01)
            assert service.generation == 1
            assert all(w["generation"] == 1
                       for w in service.stats()["workers"])
            result = service.submit(0, 1)
            assert result.ok
            assert result.generation == 1

    def test_check_reload_is_quiet_without_changes(self, arena):
        with ClusterService(arena, workers=1) as service:
            assert service.check_reload() is False

    def test_no_response_ever_mixes_generations(self, flat, tmp_path):
        """Sweeps racing a live swap each come from one generation.

        A writer thread rewrites the arena (bumping the generation)
        while readers hammer ``single_source`` on a two-worker pool.
        Every answer must be served and match the oracle: one worker
        answers each sweep whole, from the one arena it has mapped.
        """
        path = tmp_path / "labels.spcf"
        save_flat_labels(flat, path)
        want = {s: single_source(flat, s) for s in range(0, N, 37)}
        with ClusterService(path, workers=2,
                            reload_check_every=0) as service:
            stop = threading.Event()
            swaps = []

            def writer():
                while not stop.is_set():
                    time.sleep(0.02)
                    save_flat_labels(flat, path)
                    if service.check_reload():
                        swaps.append(1)

            thread = threading.Thread(target=writer)
            thread.start()
            try:
                results = []
                for _ in range(30):
                    for s in want:
                        results.append((s, service.single_source(s)))
            finally:
                stop.set()
                thread.join()
            assert len(swaps) >= 1, "writer never triggered a reload"
            for s, result in results:
                assert result.ok, result.error
                dist, count = result.answer
                assert np.array_equal(dist, want[s][0])
                assert np.array_equal(count, want[s][1])
