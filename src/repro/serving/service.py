"""`SPCService` — the resilient index behind production traffic controls.

:class:`~repro.resilience.ResilientSPCIndex` guarantees *correct* answers
under index failure; this layer guarantees *bounded* answers under load.
It is the in-process executor of the request lifecycle in
:mod:`repro.serving.admission`, which it shares with
:class:`~repro.serving.cluster.ClusterService`: admission, deadline,
status table and outcome tally are written there once. Every request
passes through four defences:

1. **Admission control** — at most ``capacity`` requests execute
   concurrently; up to ``queue_limit`` more wait (within their deadline).
   Beyond that the request is **shed** with a typed
   :class:`~repro.exceptions.ServiceOverloaded` carrying a retry-after
   hint derived from observed service latency — melting down is the one
   thing a loaded service must never do.
2. **Deadline budget** — ``timeout`` (or ``default_deadline``, or else
   the server-side ceiling :data:`~repro.serving.admission
   .MAX_REQUEST_SECONDS`) becomes a :class:`~repro.serving.deadline
   .Deadline` threaded all the way into the label-scan chunks and BFS
   levels, so even the degraded path returns (with
   :class:`~repro.exceptions.DeadlineExceeded`) within one checkpoint
   interval of the budget.
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

from repro.exceptions import ReproError
from repro.observability.events import get_event_log
from repro.observability.tracing import get_tracer
from repro.query.ast import Count
from repro.query.engine import QueryEngine
from repro.resilience import ResilientSPCIndex
from repro.serving.admission import (
    DEFAULT_RETRY_AFTER_CAP,
    SERVED_DEGRADED,
    SERVED_INDEX,
    AdmissionQueue,
    RequestLifecycle,
)
from repro.serving.breaker import CircuitBreaker
from repro.serving.reload import IndexWatcher


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
        (``None``: :data:`~repro.serving.admission.MAX_REQUEST_SECONDS`).
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
        self._clock = clock
        self._life = RequestLifecycle(
            "spc", AdmissionQueue.admit, capacity=capacity,
            queue_limit=queue_limit, retry_after_cap=retry_after_cap,
            default_deadline=default_deadline,
            reload_check_every=reload_check_every,
            counters=("reloads", "reload_failures"), queue_gauge=True,
            clock=clock)
        self._admission = self._life.admission
        self.counters = self._life.counters
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
        self._reload_lock = threading.Lock()

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
        self._life.bump("reloads" if ok else "reload_failures",
                        family="spc_reloads_total",
                        outcome="success" if ok else "failure")
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

    def _execute(self, work, timeout):
        """Admission, deadline and execution of one request.

        Returns its :class:`QueryResult`, tallied once whatever the
        outcome: a library error ends the request in its status (see
        :func:`~repro.serving.admission.status_of`); any other exception
        is a bug and propagates untallied.
        """
        life = self._life
        started = self._clock()
        try:
            deadline = life.deadline(timeout, started)
            if life.admit(deadline):
                self.check_reload()
            admitted = self._clock()
            try:
                with get_tracer().span("serve.request"):
                    deadline.check()
                    answer = work(deadline)
            finally:
                life.release(self._clock() - admitted)
        except ReproError as exc:
            return life.fail(exc, self._clock() - started,
                             self._resilient.generation)
        status = (SERVED_INDEX if self._resilient.status == "index"
                  else SERVED_DEGRADED)
        return life.finish(status, self._clock() - started, answer=answer,
                           generation=self._resilient.generation)

    def _answer(self, work, timeout):
        """:meth:`_execute`, then the answer or the request's typed error."""
        result = self._execute(work, timeout)
        if result.error is not None:
            raise result.error
        return result.answer

    def query(self, s, t, timeout=None):
        """``(sd(s,t), spc(s,t))`` under the service's defences.

        Raises the typed serving errors (:class:`ServiceOverloaded`,
        :class:`DeadlineExceeded`, :class:`CircuitOpenError`) and
        :class:`VertexError`; never returns a wrong count. Like
        :meth:`query_many` and :meth:`single_source`, it tallies the
        request once, as :meth:`submit` would, before it raises.
        """
        return self._answer(
            lambda d: self._resilient.count_with_distance(s, t, deadline=d),
            timeout)

    def query_many(self, pairs, timeout=None):
        """Batched ``(sd, spc)`` tuples under one shared deadline budget."""
        pairs = list(pairs)
        return self._answer(
            lambda d: self._resilient.count_many(pairs, deadline=d), timeout)

    def single_source(self, s, timeout=None):
        """``(dist, count)`` arrays from ``s`` under the service's defences."""
        return self._answer(
            lambda d: self._resilient.single_source(s, deadline=d), timeout)

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
        return self._execute(
            lambda d: self._query_engine.run(node, deadline=d), timeout)

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
        return {
            "counters": self._life.snapshot(),
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
