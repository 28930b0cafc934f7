"""Graceful query-time degradation: serve from the index when healthy,
fall back to online BFS when not.

A production counting service must answer even when its index file is
missing, truncated, bit-flipped, or built for yesterday's graph. A
:class:`ResilientSPCIndex` wraps that policy:

* **load + verify** — the SPCF index file (as written by
  :func:`repro.io.serialize.save_index`) is read as flat label columns
  through the checksummed loader of :mod:`repro.io.flat_store`, and its
  stored graph fingerprint (n, m, degree hash) is checked against the
  live graph; any failure (a packed SPCL label file included) is recorded
  and demotes the serving path instead of crashing.
* **serve** — healthy indexes answer through :class:`~repro.core.index
  .SPCIndex` (including the vectorized flat engine for batches); degraded
  state answers through the exact online
  :class:`~repro.baselines.bfs_counting.BFSCountingOracle` — slower but
  always correct, never a wrong count.
* **observe** — ``counters`` tallies index hits, fallback hits, load,
  verification and staleness failures, so operators can alarm on
  degradation; ``last_error`` keeps the typed reason; ``generation``
  counts successful (re)loads so hot swaps are visible downstream.
* **defend** — every query accepts a ``deadline`` (:class:`repro.serving
  .Deadline`) that the BFS fallback honours between levels, and an
  optional :class:`~repro.serving.breaker.CircuitBreaker` gates the
  fallback path: when the degraded path keeps timing out, queries fail
  fast with :class:`~repro.exceptions.CircuitOpenError` instead of each
  burning a full deadline.

All state transitions (index swap, demotion, counters) happen under one
lock, and queries snapshot the index reference once — concurrent readers
never see a torn swap. Invalid vertex ids raise
:class:`~repro.exceptions.VertexError` on both paths — degradation never
converts a caller bug into a silent answer.
"""

import threading

from repro.baselines.bfs_counting import BFSCountingOracle
from repro.core.index import SPCIndex
from repro.exceptions import (
    DeadlineExceeded,
    LabelingError,
    ReproError,
    SerializationError,
    StaleIndexError,
    VertexError,
)
# The traced benchmark (perfbench/layers.py) times reloads under this name.
from repro.io.flat_store import (
    load_flat_labels_with_meta as load_labels_with_meta,
)
from repro.io.serialize import graph_fingerprint
from repro.observability.events import get_event_log
from repro.observability.metrics import get_registry

INF = float("inf")


class ResilientSPCIndex:
    """Shortest-path-counting facade that degrades instead of failing.

    Parameters
    ----------
    graph:
        The live :class:`~repro.graph.graph.Graph` queries refer to.
    index_path:
        Optional path to a persisted SPCF index (:func:`repro.io.serialize
        .save_index`). Missing, corrupt or stale files, and packed SPCL
        label files, put the facade in degraded (BFS) mode rather than
        raising.
    index:
        Alternatively, an in-memory :class:`SPCIndex` to adopt (still
        verified against the graph's vertex count and its ``stale`` flag).
    bfs_engine:
        Engine for the fallback oracle (``"python"`` or ``"csr"``).
    io_retries:
        Transient-``OSError`` re-reads attempted by the loader.
    require_fingerprint:
        When True, refuse to serve from index files that carry no graph
        fingerprint (saved without a graph) instead of trusting a
        vertex-count check.
    breaker:
        Optional :class:`~repro.serving.breaker.CircuitBreaker` guarding
        the BFS fallback path. When open, degraded queries raise
        :class:`~repro.exceptions.CircuitOpenError` immediately.
    """

    def __init__(self, graph, index_path=None, index=None, bfs_engine="python",
                 io_retries=1, require_fingerprint=False, breaker=None):
        self._graph = graph
        self._path = index_path
        self._io_retries = io_retries
        self._require_fingerprint = require_fingerprint
        self._oracle = BFSCountingOracle(graph, engine=bfs_engine)
        self._breaker = breaker
        self._index = None
        self._last_error = None
        self._lock = threading.Lock()
        self.generation = 0
        self.counters = {
            "index_queries": 0,
            "fallback_queries": 0,
            "load_failures": 0,
            "verify_failures": 0,
            "query_failures": 0,
            "stale_detections": 0,
            "graph_swaps": 0,
        }
        if index is not None:
            if index.n != graph.n:
                self._record("verify_failures")
                self._last_error = StaleIndexError(
                    graph_fingerprint(graph), (index.n, None, None),
                    context="in-memory index",
                )
            else:
                self._index = index
                self.generation = 1
            self._publish_state()
        elif index_path is not None:
            self.reload()
        else:
            self._publish_state()

    # -- lifecycle -----------------------------------------------------------

    def _record(self, kind, delta=1):
        """Bump a lifecycle counter (dict + registry mirror).

        The dict stays the stable programmatic surface (``explain()``,
        existing callers); the registry mirror makes the same tallies
        scrapeable as ``spc_index_events_total{kind=...}``.
        """
        self.counters[kind] += delta
        registry = get_registry()
        if registry.enabled:
            registry.counter("spc_index_events_total", kind=kind).inc(delta)

    def _publish_state(self):
        """Reflect serving path and generation into registry gauges."""
        registry = get_registry()
        if registry.enabled:
            registry.gauge("spc_serving_degraded").set(
                0 if self._index is not None else 1
            )
            registry.gauge("spc_index_generation").set(self.generation)

    def reload(self):
        """(Re)load and verify the index file; True when now serving from it.

        Every failure mode is recorded (``load_failures`` for I/O, format
        corruption and files that are not SPCF, such as packed SPCL
        labels; ``verify_failures`` for fingerprint mismatches)
        and leaves the facade in degraded mode with ``last_error`` set.
        A success atomically swaps the served index and bumps
        ``generation``; readers mid-query keep the snapshot they started
        with, so a swap never tears an in-flight answer.
        """
        try:
            flat, meta = load_labels_with_meta(
                self._path, retries=self._io_retries
            )
        except (OSError, ReproError) as exc:
            with self._lock:
                self._index = None
                self._record("load_failures")
                self._last_error = exc
                self._publish_state()
            get_event_log().emit("index.reload", outcome="failure",
                                 error=str(exc))
            return False
        live = graph_fingerprint(self._graph)
        error = None
        if meta.fingerprint is not None:
            if meta.fingerprint != live:
                error = StaleIndexError(
                    live, meta.fingerprint, context=str(self._path)
                )
        elif self._require_fingerprint:
            error = SerializationError(
                f"{self._path}: index carries no graph fingerprint "
                "(require_fingerprint=True)"
            )
        elif flat.n != self._graph.n:
            error = StaleIndexError(
                live, (flat.n, None, None), context=str(self._path)
            )
        with self._lock:
            if error is not None:
                self._index = None
                self._record("verify_failures")
                self._last_error = error
                self._publish_state()
                get_event_log().emit("index.reload", outcome="failure",
                                     error=str(error))
                return False
            self._index = SPCIndex.from_flat(flat)
            self._last_error = None
            self.generation += 1
            self._publish_state()
            get_event_log().emit("index.reload", outcome="success",
                                 generation=self.generation)
        if self._breaker is not None:
            # A freshly verified index invalidates the degraded-path failure
            # streak: close the breaker so recovery is immediate rather than
            # waiting out a reset timeout that no longer reflects reality.
            self._breaker.reset()
        return True

    def set_graph(self, graph):
        """Adopt a new live graph (edge churn) and demote the served index.

        Under rebuild-behind maintenance the logical graph moves while the
        on-disk index lags one swap behind. The moment the facade learns
        about the new graph, the currently loaded index — built for the
        *previous* graph — can no longer be trusted, so it is demoted
        here: queries answer exactly from the (new-graph) BFS oracle
        until :meth:`reload` verifies the freshly published file against
        the new fingerprint. Call this *before* ``check_reload()`` from a
        maintenance ``on_publish`` hook and the swap is
        degrade-then-promote, never wrong.
        """
        with self._lock:
            self._graph = graph
            self._oracle = BFSCountingOracle(graph,
                                             engine=self._oracle._engine)
            self._record("graph_swaps")
            if self._index is not None:
                self._index = None
                self._publish_state()
        get_event_log().emit("index.graph_swapped", n=graph.n, m=graph.m)

    @property
    def status(self):
        """``"index"`` when serving from labels, ``"degraded"`` on BFS."""
        return "index" if self._index is not None else "degraded"

    @property
    def n(self):
        """Vertex count of the live graph (the query id space)."""
        return self._graph.n

    @property
    def last_error(self):
        """The typed error that caused the last load/verify failure, if any."""
        return self._last_error

    @property
    def breaker(self):
        """The fallback-path circuit breaker, when one was attached."""
        return self._breaker

    def explain(self):
        """Operator snapshot: serving path, counters, and last error."""
        with self._lock:
            snapshot = {
                "status": "index" if self._index is not None else "degraded",
                "index_path": None if self._path is None else str(self._path),
                "generation": self.generation,
                "counters": dict(self.counters),
                "last_error": None if self._last_error is None
                else f"{type(self._last_error).__name__}: {self._last_error}",
            }
        if self._breaker is not None:
            snapshot["breaker"] = self._breaker.snapshot()
        return snapshot

    # -- queries -------------------------------------------------------------

    def _check_vertex(self, v):
        if not isinstance(v, int) or not 0 <= v < self._graph.n:
            raise VertexError(v, self._graph.n)

    def _snapshot_index(self):
        """One consistent read of the served index, demoting stale labels.

        The staleness flag (:meth:`SPCIndex.mark_stale`, set e.g. by
        :class:`repro.dynamic.incremental.DynamicSPCIndex` after edge
        insertions) is honoured *at query time*: an index that went stale
        mid-serving is demoted here rather than silently answering for
        yesterday's graph.
        """
        with self._lock:
            index = self._index
            if index is not None and index.stale:
                self._record("stale_detections")
                self._last_error = StaleIndexError(
                    graph_fingerprint(self._graph), index.stale_reason,
                    context="stale in-memory index",
                )
                self._index = None
                self._publish_state()
                get_event_log().emit("index.demoted", reason="stale")
                return None
            return index

    def _demote(self, index, exc):
        """The loaded index misbehaved at query time: record and demote."""
        with self._lock:
            self._record("query_failures")
            self._last_error = exc
            if self._index is index:
                self._index = None
                self._publish_state()
        get_event_log().emit("index.demoted", reason=type(exc).__name__)

    def _serve(self, answers, from_index, from_graph, deadline):
        """The degrade ladder every query takes, written once.

        Snapshot the served index and answer with ``from_index(index)``;
        an index that misbehaves (:class:`SerializationError`,
        :class:`LabelingError`) is demoted and the query falls through to
        ``from_graph()``, the exact online BFS, behind the deadline and
        the breaker. ``answers`` is added to the counter of the path that
        answered.
        """
        index = self._snapshot_index()
        if index is not None:
            try:
                answer = from_index(index)
            except (SerializationError, LabelingError) as exc:
                # The loaded index misbehaved at query time: demote it and
                # keep serving — the BFS answer below is exact.
                self._demote(index, exc)
            else:
                with self._lock:
                    self._record("index_queries", answers)
                return answer
        if deadline is not None:
            deadline.check()
        breaker = self._breaker
        if breaker is not None:
            breaker.before_call()  # raises CircuitOpenError when open
        try:
            answer = from_graph()
        except (DeadlineExceeded, SerializationError, LabelingError):
            if breaker is not None:
                breaker.record_failure()
            raise
        if breaker is not None:
            breaker.record_success()
        with self._lock:
            self._record("fallback_queries", answers)
        return answer

    def count_with_distance(self, s, t, deadline=None):
        """``(sd(s,t), spc(s,t))`` — from the index, or BFS when degraded."""
        self._check_vertex(s)
        self._check_vertex(t)
        return self._serve(
            1, lambda index: index.count_with_distance(s, t),
            lambda: self._oracle.count_with_distance(s, t, deadline=deadline),
            deadline)

    def count(self, s, t, deadline=None):
        """``spc(s, t)``: the number of shortest paths (0 if disconnected)."""
        return self.count_with_distance(s, t, deadline=deadline)[1]

    def distance(self, s, t, deadline=None):
        """``sd(s, t)``; ``inf`` when disconnected."""
        return self.count_with_distance(s, t, deadline=deadline)[0]

    def count_many(self, pairs, deadline=None):
        """Batched ``(sd, spc)`` tuples; vectorized when the index is healthy."""
        pairs = list(pairs)
        for s, t in pairs:
            self._check_vertex(s)
            self._check_vertex(t)

        def sweep():
            oracle = self._oracle.count_with_distance
            return [oracle(s, t, deadline=deadline) for s, t in pairs]

        return self._serve(
            len(pairs), lambda index: index.count_many(pairs, deadline=deadline),
            sweep, deadline)

    def single_source(self, s, deadline=None):
        """``(dist, count)`` numpy arrays from ``s`` over every vertex.

        Served by the vectorized flat engine when healthy, by one online
        counting BFS when degraded — identical conventions either way
        (float64 ``inf`` distances, int64 counts, ``(0, 1)`` diagonal).
        """
        self._check_vertex(s)
        return self._serve(
            1, lambda index: index.single_source(s),
            lambda: self._oracle.single_source(s, deadline=deadline), deadline)

    def set_to_set(self, sources, targets, deadline=None):
        """``(sd(S, T), spc(S, T))``: min distance over all pairs, counts
        summed at that minimum — vectorized when healthy, one counting
        BFS per source when degraded.

        This is the degraded twin of the cluster's ``set_to_set``, so a
        cluster that lost every worker can still answer exactly from the
        logical graph.
        """
        sources = [int(v) for v in sources]
        targets = [int(v) for v in targets]
        for v in sources:
            self._check_vertex(v)
        for v in targets:
            self._check_vertex(v)
        if not sources or not targets:
            return (INF, 0)

        def sweep():
            best, sigma = INF, 0
            for s in sources:
                dist, count = self._oracle.single_source(s, deadline=deadline)
                d = dist[targets]
                local = d.min()
                if local > best or local == INF:
                    continue
                # Summed as python ints: two int64 counts can sum past int64.
                local_sigma = sum(count[targets][d == local].tolist())
                if local < best:
                    best, sigma = local, local_sigma
                else:
                    sigma += local_sigma
            return (int(best), sigma) if sigma else (INF, 0)

        return self._serve(
            1, lambda index: index.set_to_set(sources, targets), sweep,
            deadline)

    def __repr__(self):
        return (
            f"ResilientSPCIndex(n={self._graph.n}, status={self.status!r}, "
            f"fallback_queries={self.counters['fallback_queries']})"
        )
