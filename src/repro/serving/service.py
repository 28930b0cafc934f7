"""`SPCService` — the resilient index behind production traffic controls.

:class:`~repro.resilience.ResilientSPCIndex` guarantees *correct* answers
under index failure; this layer guarantees *bounded* answers under load.
Every request passes through four defences:

1. **Admission control** — at most ``capacity`` requests execute
   concurrently; up to ``queue_limit`` more wait (within their deadline).
   Beyond that the request is **shed** with a typed
   :class:`~repro.exceptions.ServiceOverloaded` carrying a retry-after
   hint derived from observed service latency — melting down is the one
   thing a loaded service must never do.
2. **Deadline budget** — ``timeout`` (or ``default_deadline``) becomes a
   :class:`~repro.serving.deadline.Deadline` threaded all the way into the
   label-scan chunks and BFS levels, so even the degraded path returns
   (with :class:`~repro.exceptions.DeadlineExceeded`) within one
   checkpoint interval of the budget.
3. **Circuit breaker** — consecutive degraded-path failures trip a
   :class:`~repro.serving.breaker.CircuitBreaker`; while open, degraded
   queries fail fast with :class:`~repro.exceptions.CircuitOpenError`
   instead of each burning a full deadline (the corrupt-index +
   slow-fallback meltdown).
4. **Hot reload** — an :class:`~repro.serving.reload.IndexWatcher` polls
   the on-disk SPCF index file between requests (the same file a
   :class:`~repro.serving.cluster.ClusterService` maps); a rebuilt file
   is re-verified and swapped in atomically, bumping the observable
   ``generation`` without dropping in-flight requests.

:meth:`SPCService.submit` never raises for per-request failures: it maps
every outcome onto a :class:`QueryResult` with a terminal ``status`` —
``"index"``, ``"degraded"``, ``"shed"``, ``"circuit_open"``,
``"deadline"``, ``"invalid"`` or ``"error"`` — which is what the chaos
gate asserts over a 1000-query burst. :meth:`SPCService.query` is the
raising variant for callers that prefer exceptions. ``health()`` and
``stats()`` expose generation counters, breaker state, admission depth
and per-outcome tallies for operators.
"""

import threading
import time

from repro.exceptions import (
    CircuitOpenError,
    DeadlineExceeded,
    ReproError,
    ServiceOverloaded,
    VertexError,
)
from repro.observability.events import get_event_log
from repro.observability.metrics import get_registry
from repro.observability.tracing import get_tracer
from repro.query.ast import Count
from repro.query.engine import QueryEngine
from repro.resilience import ResilientSPCIndex
from repro.serving.admission import DEFAULT_RETRY_AFTER_CAP, AdmissionQueue
from repro.serving.breaker import CircuitBreaker
from repro.serving.deadline import Deadline
from repro.serving.reload import IndexWatcher

#: Terminal statuses a request can end in (the chaos-gate contract).
SERVED_INDEX = "index"
SERVED_DEGRADED = "degraded"
SHED = "shed"
CIRCUIT_OPEN = "circuit_open"
DEADLINE = "deadline"
INVALID = "invalid"
ERROR = "error"

TERMINAL_STATUSES = frozenset(
    (SERVED_INDEX, SERVED_DEGRADED, SHED, CIRCUIT_OPEN, DEADLINE, INVALID, ERROR)
)


class QueryResult:
    """One request's terminal outcome: status, answer or typed error."""

    __slots__ = ("status", "answer", "error", "elapsed", "generation",
                 "degraded_shards")

    def __init__(self, status, answer=None, error=None, elapsed=0.0, generation=0,
                 degraded_shards=()):
        self.status = status
        self.answer = answer
        self.error = error
        self.elapsed = elapsed
        self.generation = generation
        self.degraded_shards = tuple(degraded_shards)

    @property
    def ok(self):
        """True when an exact answer was produced (index or degraded)."""
        return self.status in (SERVED_INDEX, SERVED_DEGRADED)

    def __repr__(self):
        degraded = (f", degraded_shards={self.degraded_shards}"
                    if self.degraded_shards else "")
        return (
            f"QueryResult(status={self.status!r}, answer={self.answer!r}, "
            f"elapsed={self.elapsed * 1e3:.2f}ms, gen={self.generation}"
            f"{degraded})"
        )


class SPCService:
    """Deadline-bounded, load-shedding, hot-reloading counting service.

    Parameters
    ----------
    graph:
        The live graph queries refer to.
    index_path / index:
        Where the served index comes from (see
        :class:`~repro.resilience.ResilientSPCIndex`).
    capacity:
        Maximum concurrently executing requests.
    queue_limit:
        Maximum requests allowed to wait for a slot; more are shed.
    retry_after_cap:
        Ceiling (seconds) on the retry-after hint attached to shed
        requests; ``None`` disables the clamp (see
        :class:`~repro.serving.admission.AdmissionQueue`).
    default_deadline:
        Per-request budget in seconds when the caller gives none
        (``None`` = unlimited).
    breaker:
        A :class:`CircuitBreaker` for the degraded path, or ``None`` to
        build one from ``failure_threshold`` / ``reset_timeout``.
    reload_check_every:
        Poll the index file for changes every N admissions (0 disables
        polling; ``check_reload()`` stays available).
    bfs_engine / io_retries / require_fingerprint:
        Forwarded to the underlying resilient index.
    clock:
        Monotonic clock, injectable for deterministic tests.
    """

    def __init__(self, graph, index_path=None, index=None, *,
                 capacity=8, queue_limit=16, default_deadline=None,
                 retry_after_cap=DEFAULT_RETRY_AFTER_CAP,
                 breaker=None, failure_threshold=5, reset_timeout=1.0,
                 reload_check_every=16, bfs_engine="python", io_retries=1,
                 require_fingerprint=False, clock=time.monotonic):
        if default_deadline is not None and default_deadline <= 0:
            raise ValueError("default_deadline must be positive or None")
        self._clock = clock
        self._admission = AdmissionQueue(capacity, queue_limit,
                                         retry_after_cap=retry_after_cap,
                                         clock=clock)
        self.capacity = capacity
        self.queue_limit = queue_limit
        self.default_deadline = default_deadline
        if breaker is None:
            breaker = CircuitBreaker(failure_threshold=failure_threshold,
                                     reset_timeout=reset_timeout, clock=clock)
        self._resilient = ResilientSPCIndex(
            graph, index_path=index_path, index=index, bfs_engine=bfs_engine,
            io_retries=io_retries, require_fingerprint=require_fingerprint,
            breaker=breaker,
        )
        # Compiled queries run over the resilient facade with the result
        # cache OFF: the live graph can mutate in place under churn
        # without bumping the generation, and a cached answer would
        # outlive the data it was computed from.
        self._query_engine = QueryEngine(resilient=self._resilient, cache=None)
        self._watcher = None if index_path is None else IndexWatcher(index_path)
        self._reload_check_every = reload_check_every
        self._reload_lock = threading.Lock()
        self._stats_lock = threading.Lock()
        self.counters = {
            "requests": 0,
            SERVED_INDEX: 0,
            SERVED_DEGRADED: 0,
            SHED: 0,
            CIRCUIT_OPEN: 0,
            DEADLINE: 0,
            INVALID: 0,
            ERROR: 0,
            "reloads": 0,
            "reload_failures": 0,
        }

    # -- admission control ----------------------------------------------------

    def _admit(self, deadline):
        """Take an execution slot or raise :class:`ServiceOverloaded`.

        Delegates to the shared :class:`~repro.serving.admission
        .AdmissionQueue`: a request waits in the bounded queue only while
        its deadline allows; a full queue (or an exhausted budget while
        queued) sheds the request immediately with a capped retry-after
        hint.
        """
        ordinal = self._admission.admit(deadline)
        poll = (self._reload_check_every
                and ordinal % self._reload_check_every == 0)
        registry = get_registry()
        if registry.enabled:
            registry.gauge("spc_inflight_requests").set(
                self._admission.in_flight
            )
            registry.gauge("spc_queued_requests").set(self._admission.queued)
        if poll:
            self.check_reload()

    def _release(self, elapsed):
        self._admission.release(elapsed)
        registry = get_registry()
        if registry.enabled:
            registry.histogram("spc_request_seconds").observe(elapsed)
            registry.gauge("spc_inflight_requests").set(
                self._admission.in_flight
            )
            registry.gauge("spc_queued_requests").set(self._admission.queued)

    # -- hot reload -----------------------------------------------------------

    def check_reload(self):
        """Poll the index file; swap in a changed one. True when swapped.

        Safe to call from any thread (and from :class:`~repro.serving
        .reload.ReloadThread`); the swap itself is atomic inside
        :meth:`ResilientSPCIndex.reload`, so in-flight requests finish on
        the snapshot they started with.
        """
        if self._watcher is None:
            return False
        with self._reload_lock:
            # poll() adopted the signature it saw as the baseline. Marking
            # again after the load could adopt a later write the load never
            # saw (a restore racing a failed load would then leave the
            # service degraded for good); the next poll reloads it instead.
            if not self._watcher.poll():
                return False
            ok = self._resilient.reload()
        with self._stats_lock:
            self.counters["reloads" if ok else "reload_failures"] += 1
        registry = get_registry()
        if registry.enabled:
            registry.counter(
                "spc_reloads_total", outcome="success" if ok else "failure"
            ).inc()
        get_event_log().emit("service.reload",
                             outcome="success" if ok else "failure",
                             generation=self._resilient.generation)
        return ok

    def set_graph(self, graph):
        """Adopt a new live graph under edge churn (rebuild-behind swaps).

        Delegates to :meth:`ResilientSPCIndex.set_graph`: the lagging
        index is demoted (exact BFS answers on the *new* graph take over)
        until the next :meth:`check_reload` verifies the freshly
        published file against the new fingerprint. A maintenance
        ``on_publish`` hook should call this then ``check_reload()``.
        """
        self._resilient.set_graph(graph)

    # -- request execution ----------------------------------------------------

    def _bump(self, status):
        with self._stats_lock:
            self.counters[status] += 1
        registry = get_registry()
        if registry.enabled:
            if status == "requests":
                registry.counter("spc_requests_total").inc()
            else:
                registry.counter("spc_request_outcomes_total",
                                 status=status).inc()

    def _execute(self, work, deadline):
        """Admission + deadline + execution; returns ``(answer, status)``."""
        self._bump("requests")
        self._admit(deadline)
        started = self._clock()
        try:
            with get_tracer().span("serve.request"):
                if deadline is not None:
                    deadline.check()
                answer = work(deadline)
            status = (SERVED_INDEX if self._resilient.status == "index"
                      else SERVED_DEGRADED)
            self._bump(status)
            return answer, status
        finally:
            self._release(self._clock() - started)

    def _deadline(self, timeout):
        budget = self.default_deadline if timeout is None else timeout
        return Deadline.of(budget, clock=self._clock)

    def query(self, s, t, timeout=None):
        """``(sd(s,t), spc(s,t))`` under the service's defences.

        Raises the typed serving errors (:class:`ServiceOverloaded`,
        :class:`DeadlineExceeded`, :class:`CircuitOpenError`) and
        :class:`VertexError`; never returns a wrong count.
        """
        deadline = self._deadline(timeout)
        answer, _ = self._execute(
            lambda d: self._resilient.count_with_distance(s, t, deadline=d),
            deadline,
        )
        return answer

    def query_many(self, pairs, timeout=None):
        """Batched ``(sd, spc)`` tuples under one shared deadline budget."""
        pairs = list(pairs)
        deadline = self._deadline(timeout)
        answer, _ = self._execute(
            lambda d: self._resilient.count_many(pairs, deadline=d), deadline,
        )
        return answer

    def single_source(self, s, timeout=None):
        """``(dist, count)`` arrays from ``s`` under the service's defences."""
        deadline = self._deadline(timeout)
        answer, _ = self._execute(
            lambda d: self._resilient.single_source(s, deadline=d), deadline,
        )
        return answer

    def submit(self, s, t, timeout=None):
        """Non-raising :meth:`query`: always a terminal :class:`QueryResult`.

        Per-request failures (shed, open circuit, blown deadline, invalid
        vertex, typed library errors) become statuses; only genuine bugs
        (non-:class:`ReproError` exceptions) propagate. Compiled as a
        :class:`~repro.query.ast.Count` through :meth:`submit_query`.
        """
        return self.submit_query(Count(s, t), timeout=timeout)

    def submit_query(self, node, timeout=None):
        """Run any compiled query AST node under the service's defences.

        The node is planned and executed by the service's
        :class:`~repro.query.engine.QueryEngine` over the resilient
        facade — the plan mirrors the live serving path (``flat`` while
        an index generation is loaded, ``bfs`` once degraded) — inside
        exactly the admission/deadline/breaker envelope of :meth:`submit`,
        with the same terminal :class:`QueryResult` statuses.
        """
        started = self._clock()
        deadline = self._deadline(timeout)
        try:
            answer, status = self._execute(
                lambda d: self._query_engine.run(node, deadline=d), deadline,
            )
        except ServiceOverloaded as exc:
            self._bump(SHED)
            result = QueryResult(SHED, error=exc)
        except CircuitOpenError as exc:
            self._bump(CIRCUIT_OPEN)
            result = QueryResult(CIRCUIT_OPEN, error=exc)
        except DeadlineExceeded as exc:
            self._bump(DEADLINE)
            result = QueryResult(DEADLINE, error=exc)
        except VertexError as exc:
            self._bump(INVALID)
            result = QueryResult(INVALID, error=exc)
        except ReproError as exc:
            self._bump(ERROR)
            result = QueryResult(ERROR, error=exc)
        else:
            result = QueryResult(status, answer=answer)
        result.elapsed = self._clock() - started
        result.generation = self._resilient.generation
        return result

    # -- observability --------------------------------------------------------

    @property
    def generation(self):
        """Monotonic count of successful index (re)loads."""
        return self._resilient.generation

    @property
    def breaker(self):
        """The fallback-path :class:`CircuitBreaker` (operator access)."""
        return self._resilient.breaker

    @property
    def resilient_index(self):
        """The wrapped :class:`ResilientSPCIndex` (operator access)."""
        return self._resilient

    def stats(self):
        """Flat counter snapshot for dashboards and the smoke gates."""
        with self._stats_lock:
            counters = dict(self.counters)
        return {
            "counters": counters,
            "generation": self._resilient.generation,
            "ema_latency": self._admission.ema_latency,
            "admission": self._admission.snapshot(),
        }

    def health(self):
        """Liveness/readiness snapshot: serving path, breaker, admission."""
        snapshot = self.stats()
        index = self._resilient.explain()
        breaker = self._resilient.breaker
        snapshot["index"] = index
        snapshot["status"] = index["status"]
        if breaker is not None:
            snapshot["breaker"] = breaker.snapshot()
        return snapshot

    def __repr__(self):
        return (
            f"SPCService(status={self._resilient.status!r}, "
            f"generation={self._resilient.generation}, "
            f"capacity={self.capacity})"
        )
