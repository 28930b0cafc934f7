"""One request lifecycle for both serving tiers.

:class:`SPCService` and :class:`ClusterService` share admission, the
deadline rule, the status table and the outcome tally
(:mod:`repro.serving.admission`). These tests hold both tiers to that
single contract: every request is counted exactly once, in counters and
in metrics; one table of scenarios ends in the same status, error type
and counter deltas on either tier; and a request with no deadline still
carries the server-side ceiling, so a stalled worker holding it is
killed.
"""

import os
import signal
import sys
import threading

import pytest
from tests.conftest import hold_worker, holding_cluster, wait_for

from repro.core.index import SPCIndex
from repro.exceptions import (
    CircuitOpenError,
    DeadlineExceeded,
    ReproError,
    ServiceOverloaded,
    VertexError,
)
from repro.generators.random_graphs import barabasi_albert_graph
from repro.io.flat_store import save_flat_labels
from repro.observability.metrics import MetricsRegistry, scoped_registry
from repro.query.ast import Batch, Relevance, SetToSet
from repro.serving import (
    CIRCUIT_OPEN,
    DEADLINE,
    ERROR,
    INVALID,
    SERVED_DEGRADED,
    SERVED_INDEX,
    SHED,
    TERMINAL_STATUSES,
    ClusterService,
    SPCService,
    admission,
)
from repro.testing.faults import StalledWorker

N = 120


@pytest.fixture(scope="module")
def graph():
    return barabasi_albert_graph(N, 3, seed=23)


@pytest.fixture(scope="module")
def index(graph):
    return SPCIndex.build(graph)


@pytest.fixture(scope="module")
def arena(index, tmp_path_factory):
    path = tmp_path_factory.mktemp("lifecycle") / "labels.spcf"
    save_flat_labels(index.to_flat(), path)
    return str(path)


def outcome_sum(counters):
    return sum(counters[status] for status in TERMINAL_STATUSES)


def assert_counted_once(counters, registry, prefix):
    assert counters["requests"] == outcome_sum(counters), counters
    requests = registry.get(f"{prefix}_requests_total").value
    outcomes = registry.sum_values(f"{prefix}_request_outcomes_total")
    assert requests == outcomes == counters["requests"]


class BlockedOracle:
    """Holds degraded-path pair queries on an event, pinning a slot."""

    def __init__(self, service):
        self.entered = threading.Event()
        self.release = threading.Event()
        oracle = service.resilient_index._oracle
        original = oracle.count_with_distance

        def blocked(s, t, deadline=None):
            self.entered.set()
            self.release.wait(timeout=10.0)
            return original(s, t, deadline=deadline)

        oracle.count_with_distance = blocked


def in_thread(call):
    thread = threading.Thread(target=call, daemon=True)
    thread.start()
    return thread


class TestEveryRequestCountedOnce:
    def test_service(self, graph, index):
        registry = MetricsRegistry()
        with scoped_registry(registry):
            service = SPCService(graph, index=index)
            assert service.submit_query(SetToSet([], [1])).ok
            assert service.submit_query(Batch(())).ok
            assert service.submit(0, N + 3).status == INVALID
            assert service.submit(0, 1, timeout=1e-9).status == DEADLINE
            assert service.submit(1, 5).status == SERVED_INDEX
            assert service.submit_query(Relevance(0, (1, 2))).ok
            tiny = SPCService(graph, capacity=1, queue_limit=0)
            blocker = BlockedOracle(tiny)
            holder = in_thread(lambda: tiny.submit(0, 7))
            assert blocker.entered.wait(timeout=5.0)
            assert tiny.submit(1, 8).status == SHED
            blocker.release.set()
            holder.join(timeout=10.0)
        counters = service.stats()["counters"]
        assert counters["requests"] == 6
        tiny_counters = tiny.stats()["counters"]
        assert tiny_counters["requests"] == 2
        assert counters["requests"] == outcome_sum(counters)
        assert tiny_counters["requests"] == outcome_sum(tiny_counters)
        # Both services publish into one registry: its families add up.
        requests = registry.get("spc_requests_total").value
        assert requests == registry.sum_values("spc_request_outcomes_total")
        assert requests == 8

    def test_cluster(self, arena, tmp_path):
        registry = MetricsRegistry()
        with scoped_registry(registry), holding_cluster(
                arena, tmp_path, capacity=1, queue_limit=0) as cluster:
            held, pid = hold_worker(cluster, tmp_path)
            assert cluster.submit_nowait(0, 2).result(30).status == SHED
            StalledWorker.resume(pid)
            assert held.result(timeout=30).ok
            assert cluster.set_to_set([], [1]).ok
            assert cluster.submit_many([]).ok
            assert cluster.submit(0, N + 3).status == INVALID
            assert cluster.submit(0, 1, timeout=1e-9).status == DEADLINE
            assert cluster.submit(1, 5).status == SERVED_INDEX
            assert cluster.single_source(3).status == SERVED_INDEX
            assert cluster.submit_query(Relevance(0, (1, 2))).ok
            counters = cluster.stats()["counters"]
        # The composite is counted as the requests it issues, not itself.
        assert counters[SERVED_INDEX] >= 6
        assert_counted_once(counters, registry, "spc_cluster")

    def test_threads_racing_the_tally(self, graph, index):
        # Eight threads submit at once under a 10 µs switch interval: a
        # lost update in the shared tally would break the equalities.
        registry = MetricsRegistry()
        with scoped_registry(registry):
            service = SPCService(graph, index=index, capacity=4,
                                 queue_limit=64)

        def client(seed):
            for i in range(150):
                target = N + 1 if i % 5 == 0 else (seed * 31 + i) % N
                service.submit(seed % N, target)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=client, args=(seed,))
                       for seed in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        counters = service.stats()["counters"]
        assert counters["requests"] == 8 * 150
        assert counters[INVALID] == 8 * 30
        assert_counted_once(counters, registry, "spc")

    def test_threads_racing_the_cluster_queue(self, arena, index):
        # Eight submitters share the router's pair queue under a 10 µs
        # switch interval; batches settle many pairs at once. A torn
        # queue entry or a lost slot release would break an equality.
        registry = MetricsRegistry()
        with scoped_registry(registry):
            cluster = ClusterService(arena, workers=2, capacity=4,
                                     queue_limit=4096)
        results = {}

        def client(seed):
            pairs = [(seed % N, (seed * 31 + i) % N) for i in range(150)]
            futures = [cluster.submit_nowait(s, t, timeout=30)
                       for s, t in pairs]
            results[seed] = (pairs, [f.result(timeout=60) for f in futures])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=client, args=(seed,))
                       for seed in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        try:
            assert not any(thread.is_alive() for thread in threads)
            counters = cluster.stats()["counters"]
            in_flight = cluster.stats()["admission"]["in_flight"]
        finally:
            cluster.close()
        assert counters["requests"] == 8 * 150
        assert counters["batches"] < counters["requests"]
        assert in_flight == 0
        assert_counted_once(counters, registry, "spc_cluster")
        assert len(results) == 8
        for pairs, answers in results.values():
            for (s, t), result in zip(pairs, answers):
                assert result.status == SERVED_INDEX, result
                assert tuple(result.answer) == tuple(
                    index.count_with_distance(s, t))


# -- one status table, both tiers ----------------------------------------------

#: (scenario, terminal status, exact error type or None)
SCENARIOS = (
    ("shed", SHED, ServiceOverloaded),
    ("circuit_open", CIRCUIT_OPEN, CircuitOpenError),
    ("deadline", DEADLINE, DeadlineExceeded),
    ("invalid", INVALID, VertexError),
    ("error", ERROR, ReproError),
    ("index", SERVED_INDEX, None),
    ("degraded", SERVED_DEGRADED, None),
)


class _Tier:
    """Runs one scenario on a tier; ``close`` undoes its set-up in order."""

    def __init__(self, graph, index, arena, tmp_path):
        self.graph, self.index = graph, index
        self.arena, self.tmp_path = arena, tmp_path
        self.cleanup = []

    def close(self):
        for step in self.cleanup:
            step()


class ServiceTier(_Tier):
    """Drives one scenario on :class:`SPCService`."""

    def run(self, scenario):
        if scenario == "shed":
            service = SPCService(self.graph, capacity=1, queue_limit=0)
            blocker = BlockedOracle(service)
            holder = in_thread(lambda: service.submit(0, 7))
            assert blocker.entered.wait(timeout=5.0)
            self.cleanup.append(lambda: (blocker.release.set(),
                                         holder.join(timeout=10.0)))
        elif scenario == "circuit_open":
            service = SPCService(self.graph, failure_threshold=1)
            service.breaker.record_failure()
        elif scenario == "error":
            service = SPCService(self.graph)
            oracle = service.resilient_index._oracle

            def broken(*args, deadline=None):
                raise ReproError("injected oracle failure")

            oracle.count_with_distance = oracle.single_source = broken
        elif scenario == "degraded":
            service = SPCService(self.graph)
        else:
            service = SPCService(self.graph, index=self.index)
        before = service.stats()["counters"]
        timeout = 1e-9 if scenario == "deadline" else None
        target = N + 3 if scenario == "invalid" else 9
        result = self.request(service, target, timeout)
        return result, before, service.stats()["counters"]

    def request(self, service, target, timeout):
        return service.submit(0, target, timeout=timeout)


class RaisingTier(ServiceTier):
    """Drives one scenario through a raising :class:`SPCService` variant.

    The error it raises, or the answer it returns, stands in for the
    :class:`QueryResult` that :meth:`SPCService.submit` would give.
    """

    call = None

    def request(self, service, target, timeout):
        try:
            answer = self.call(service, target, timeout)
        except ReproError as exc:
            return admission.QueryResult(admission.status_of(exc), error=exc)
        status = (SERVED_INDEX if service.resilient_index.status == "index"
                  else SERVED_DEGRADED)
        return admission.QueryResult(status, answer)


class QueryTier(RaisingTier):
    @staticmethod
    def call(service, target, timeout):
        return service.query(0, target, timeout=timeout)


class QueryManyTier(RaisingTier):
    @staticmethod
    def call(service, target, timeout):
        return service.query_many([(0, target), (1, 2)], timeout=timeout)


class SingleSourceTier(RaisingTier):
    @staticmethod
    def call(service, target, timeout):
        return service.single_source(target, timeout=timeout)


class ClusterTier(_Tier):
    """Drives one scenario on :class:`ClusterService`."""

    def run(self, scenario):
        if scenario == "shed":
            cluster = holding_cluster(self.arena, self.tmp_path, capacity=1,
                                      queue_limit=0)
            _, pid = hold_worker(cluster, self.tmp_path)
            self.cleanup.append(lambda: StalledWorker.resume(pid))
        elif scenario == "degraded":
            cluster = ClusterService(self.arena, workers=1, respawn=False,
                                     graph=self.graph, heartbeat_interval=0)
            os.kill(cluster._workers[0].process.pid, signal.SIGKILL)
            assert wait_for(
                lambda: cluster.stats()["workers"][0]["state"] == "dead")
        else:
            cluster = ClusterService(self.arena, workers=1,
                                     failure_threshold=1)
        self.cleanup.append(cluster.close)
        if scenario == "circuit_open":
            cluster.breaker.record_failure()
        elif scenario == "error":
            cluster.close()
        before = cluster.stats()["counters"]
        timeout = 1e-9 if scenario == "deadline" else None
        target = N + 3 if scenario == "invalid" else 9
        result = cluster.submit(0, target, timeout=timeout)
        return result, before, cluster.stats()["counters"]


@pytest.mark.parametrize(
    "tier", [ServiceTier, ClusterTier, QueryTier, QueryManyTier,
             SingleSourceTier],
    ids=["service", "cluster", "query", "query_many", "single_source"])
@pytest.mark.parametrize("scenario, status, error_type", SCENARIOS,
                         ids=[row[0] for row in SCENARIOS])
def test_status_conformance(tier, scenario, status, error_type, graph, index,
                            arena, tmp_path):
    driver = tier(graph, index, arena, tmp_path)
    try:
        result, before, after = driver.run(scenario)
    finally:
        driver.close()
    assert result.status == status, result
    if error_type is None:
        assert result.error is None
        assert result.answer is not None
    else:
        assert type(result.error) is error_type, result.error
    deltas = {key: after[key] - before[key]
              for key in ("requests", *TERMINAL_STATUSES)}
    want = dict.fromkeys(deltas, 0)
    want["requests"] = 1
    want[status] = 1
    assert deltas == want


# -- the server-side ceiling -----------------------------------------------------

def test_no_deadline_request_gets_the_ceiling(arena, tmp_path, monkeypatch):
    monkeypatch.setattr(admission, "MAX_REQUEST_SECONDS", 0.3)
    fault = StalledWorker(tmp_path, after_replies=1, times=1)
    with ClusterService(arena, workers=1, heartbeat_interval=0,
                        hedge_delay=None, stall_timeout=0.2,
                        respawn_backoff=0.05, _fault=fault) as cluster:
        # The worker SIGSTOPs before replying. Heartbeats are off, so only
        # the batch's budget (the ceiling: no timeout, no default) can
        # get it killed.
        result = cluster.submit_nowait(0, 1).result(timeout=30)
        assert result.status in (DEADLINE, SERVED_INDEX), result
        if result.status == DEADLINE:
            assert result.error.budget == 0.3
        counters = cluster.stats()["counters"]
        assert counters["stalls"] == 1
        assert wait_for(lambda: cluster.stats()["counters"]["respawns"] >= 1)
        assert cluster.submit(0, 2, timeout=10).status == SERVED_INDEX
