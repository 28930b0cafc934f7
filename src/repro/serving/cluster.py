"""Shared-memory multiprocess serving cluster: one pool of workers.

:class:`ClusterService` is the multiprocess sibling of
:class:`~repro.serving.service.SPCService`, and the multiprocess executor
of the same request lifecycle (:mod:`repro.serving.admission`): one gate
(closed check, vertex validation, breaker, admission) in front of every
request, one deadline rule, one status table and one outcome tally. N
worker processes each map the *same* SPCF v4 flat label file read-only
(one physical copy of the label columns, shared through the page cache —
see :func:`repro.io.flat_store.open_shared`), and a selectors-based
router thread owns the rest of the serving defences: a circuit breaker
over worker health, hot reload by file-signature watching, and the same
non-raising :class:`~repro.serving.admission.QueryResult` surface. The
job types live in :mod:`repro.serving.jobs` and the frame decoder in
:mod:`repro.serving.protocol`; this module is the router and its
supervisor.

The workers are one pool of identical processes: any worker answers any
query from its own map of the full arena, so every request goes, whole,
to whichever worker is idle. A caller's pair batch, a ``single_source``
sweep and a ``set_to_set`` query each cost one worker round-trip, and
one reply carries one reload generation, so no answer ever mixes two
index versions.

The router earns its throughput from *batching*, not just parallelism:
``submit`` pairs are coalesced into one ``count_many`` round-trip, so the
per-request cost amortises one IPC hop and one vectorized kernel over
the whole batch instead of paying a python merge-join per query.
Batching is group commit, not a timer: the pending pairs go out the
moment a worker is idle (up to ``max_batch``), and whatever arrives
while every worker is busy rides the next batch. Batches therefore stay
small at light load and grow with load on their own.

A ``submit`` pair is one ``(s, t, budget, expires, started, future)``
tuple in the pair queue, not an object; a batch travels as the columns
of its tuples, and its reply settles every pair in one step (one
admission release and one outcome tally for the batch, then one
:class:`~repro.serving.admission.QueryResult` per future).

Hot reload is rolling: the router bumps a target generation when the
watcher sees a new file signature, then tells each worker to remap once
it is idle and holds no pinned work — in-flight batches always complete
on the arena they started on, and a worker whose remap fails keeps
serving its old (still-mapped) inode rather than going dark. Each
generation names the file signature read when it was made; a worker
that mapped another (respawned onto a file published since) answers
nothing until the next reload.

The cluster *heals itself* rather than failing safe. The router is also
a supervisor: worker death is detected three ways (the process sentinel
fd in the selector, pipe EOF through a router-side incremental frame
decoder that treats torn frames as that worker's death, and
heartbeat/stall timeouts that SIGKILL wedged-but-alive processes), the
worker is respawned with bounded exponential backoff re-mapping the
arena at the current target generation, and only *its* in-flight work is
replayed — the other workers never stall. While no worker is serving,
queued work waits for a respawn; when none is coming and a ``graph`` was
provided, a BFS fallback thread answers exactly from the logical graph
via :class:`~repro.resilience.ResilientSPCIndex` with status
``SERVED_DEGRADED`` instead of an error. Tail robustness comes from
hedging: a request that outlives its latency-derived hedge delay is
duplicated to another idle worker at the same generation and the first
answer wins, deduplicated on resolve. Planned maintenance uses the same
machinery: :meth:`ClusterService.drain` stops admitting to one worker,
flushes its in-flight batch, then swaps the process — a rolling restart
is just a drain per worker, and hot reload is the in-place special case
of the same wait-until-idle state machine.
"""

import asyncio
import collections
import itertools
import os
import selectors
import threading
import time
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FutureTimeout

import numpy as np

from repro.exceptions import (
    DeadlineExceeded,
    ReproError,
    SerializationError,
    VertexError,
)
from repro.io.flat_store import file_signature, read_flat_meta
from repro.observability.events import get_event_log
from repro.observability.metrics import get_registry
from repro.query.ast import PAIR_OPS, Batch, Count, SetToSet, SingleSource
from repro.query.backends import normalize_pair, normalize_single_source
from repro.query.engine import QueryEngine
from repro.serving import admission, protocol
from repro.serving.admission import (
    DEADLINE,
    DEFAULT_RETRY_AFTER_CAP,
    ERROR,
    SERVED_DEGRADED,
    SERVED_INDEX,
    AdmissionQueue,
    QueryResult,
    RequestLifecycle,
    status_of,
)
from repro.serving.breaker import CircuitBreaker
from repro.serving.deadline import Deadline
from repro.serving.jobs import (
    INF,
    _ClusterOracle,
    _PairBatchJob,
    _SetToSetJob,
    _SingleSourceJob,
    _StatsJob,
    _set_result,
)
from repro.serving.protocol import _FrameDecoder, _WorkerGone
from repro.serving.reload import IndexWatcher
from repro.utils.forking import start_child

#: Worker lifecycle states as the router sees them.
STARTING = "starting"
IDLE = "idle"
BUSY = "busy"
RELOADING = "reloading"
STOPPED = "stopped"
DEAD = "dead"

#: BFS engine of the fallback oracle that answers while no worker is live.
FALLBACK_ENGINE = "csr"

#: An automatic hedge fires once a request has waited this many times
#: the cluster's observed p95 round-trip latency...
HEDGE_MULTIPLIER = 4.0

#: ...but never sooner than this many seconds.
HEDGE_FLOOR = 0.01

#: Seconds to wait for every worker's HELLO at start (also the stall
#: allowance for a respawning worker's HELLO).
START_TIMEOUT = 60.0


def _deadline_error(deadline):
    """A :class:`DeadlineExceeded` carrying the request's real budget."""
    return DeadlineExceeded(deadline.budget, deadline.elapsed())


def _pair_deadline(budget, expires, clock):
    """The :class:`Deadline` a queued pair's float budget and expiry
    stand for; built only for an error or the BFS fallback."""
    if budget is None:
        return Deadline(None, clock=clock)
    return Deadline(budget, clock=clock, start=expires - budget)


def _err_exception(kind, message, deadline):
    """Rehydrate a worker's ERR reply as the typed error it was raised as."""
    if kind == protocol.ERR_DEADLINE:
        return _deadline_error(deadline)
    if kind == protocol.ERR_SERIALIZATION:
        return SerializationError(message)
    if kind == protocol.ERR_VERTEX:
        error = VertexError(None, 0)
        error.args = (message,)  # the wire carries only the worker's text
        return error
    return ReproError(message)


class _Worker:
    """Router-side record of one worker slot and its current process.

    The slot index is stable across the supervisor's respawns;
    ``process``/``conn``/``decoder`` are replaced on each incarnation.
    ``stale`` marks a worker whose arena is not the one its generation
    names: it answers nothing until the next reload.
    """

    __slots__ = ("index", "process", "conn", "conn_fd", "decoder",
                 "sentinel_fd", "generation", "stale", "state", "pinned",
                 "draining", "drain_respawn", "drain_futures",
                 "respawn_at", "backoff", "respawns", "died_at", "hello_at",
                 "spawned_at", "ping_sent_at", "last_seen",
                 "busy_since", "busy_budget", "gone")

    def __init__(self, index, backoff):
        self.index = index
        self.process = None
        self.conn = None
        self.conn_fd = None
        self.decoder = None
        self.sentinel_fd = None
        self.generation = 0
        self.stale = False
        self.state = STARTING
        self.pinned = collections.deque()
        self.draining = False
        self.drain_respawn = False
        self.drain_futures = []
        self.respawn_at = None
        self.backoff = backoff
        self.respawns = 0
        self.died_at = None
        self.hello_at = None
        self.spawned_at = 0.0
        self.ping_sent_at = None
        self.last_seen = 0.0
        self.busy_since = None
        self.busy_budget = None
        self.gone = False

    @property
    def live(self):
        """True while the worker can still be given work."""
        return self.state not in (DEAD, STOPPED)

    @property
    def serving(self):
        """True while the worker's process is up, past HELLO, and on the
        arena its generation names (or remapping onto a new one)."""
        if self.state == RELOADING:
            return True
        return self.state in (IDLE, BUSY) and not self.stale


class _Flight:
    """One in-flight worker round-trip the router is waiting on.

    A pair flight's ``members`` are the columns of the pairs it sent,
    ``(sources, targets, budgets, expires, started, futures)``.
    ``twin`` links the two legs of a hedged request (by batch id);
    ``cancelled`` marks the losing leg once the other resolved — its
    reply is discarded on arrival, so duplicates never double-resolve.
    ``key`` is the worker index of a pinned stats probe, ``None`` for
    work any worker may answer.
    """

    __slots__ = ("kind", "batch_id", "worker", "message",
                 "sent_at", "budget", "members", "job", "key",
                 "twin", "is_hedge", "cancelled")

    def __init__(self, kind, batch_id, worker, message, sent_at, budget):
        self.kind = kind
        self.batch_id = batch_id
        self.worker = worker
        self.message = message
        self.sent_at = sent_at
        self.budget = budget
        self.members = None
        self.job = None
        self.key = None
        self.twin = None
        self.is_hedge = False
        self.cancelled = False


class _BatchMetrics:
    """Per-batch metric instruments, resolved once at construction (the
    per-request ones are the :class:`~repro.serving.admission
    .RequestLifecycle`'s; rare paths look theirs up per call)."""

    __slots__ = ("batch_size", "batches", "batch_seconds")

    def __init__(self, registry):
        self.batch_size = registry.histogram(
            "spc_cluster_batch_size",
            buckets=(1, 2, 4, 8, 16, 32, 64, 128, 256))
        self.batches = registry.counter("spc_cluster_batches_total")
        self.batch_seconds = registry.histogram("spc_cluster_batch_seconds")


class _DegradedExecutor(threading.Thread):
    """BFS-fallback thread that answers while no worker process is live.

    The router hands it stranded work (whole jobs, or the queued pairs);
    it executes against the cluster's
    :class:`~repro.resilience.ResilientSPCIndex` and posts the outcome
    back through the router inbox, so terminal resolution stays
    single-threaded in the router. Answers are exact (online BFS on the
    logical graph) and carry ``SERVED_DEGRADED``.
    """

    def __init__(self, service):
        super().__init__(name="spc-cluster-degraded", daemon=True)
        self._service = service
        self._items = collections.deque()
        self._cond = threading.Condition()
        self._stopped = False

    def submit(self, item):
        """Queue one stranded work item (router thread only)."""
        with self._cond:
            self._items.append(item)
            self._cond.notify()

    def close(self):
        """Finish queued work, then exit the thread."""
        with self._cond:
            self._stopped = True
            self._cond.notify()

    def run(self):
        while True:
            with self._cond:
                while not self._items and not self._stopped:
                    self._cond.wait()
                if not self._items and self._stopped:
                    return
                item = self._items.popleft()
            if item[0] == "pairs":
                sources, targets, budgets, expires, _, _ = item[1]
                count = self._service._fallback.count_with_distance
                clock = self._service._clock
                outcome = [self._one(lambda s=s, t=t, budget=budget, at=at: (
                    count(s, t, deadline=_pair_deadline(budget, at, clock))))
                    for s, t, budget, at in zip(sources, targets, budgets,
                                                expires)]
            else:
                job = item[1]
                outcome = self._one(
                    lambda: job.fallback(self._service._fallback))
            self._service._inbox.append(("degraded_done", (item, outcome)))
            self._service._wake()

    @staticmethod
    def _one(work):
        """One fallback call mapped onto a (status, answer, error) triple."""
        try:
            return (SERVED_DEGRADED, work(), None)
        except ReproError as exc:
            return (status_of(exc), None, exc)


class ClusterService:
    """Multiprocess serving tier: one worker pool over one shared arena.

    Parameters
    ----------
    index_path:
        SPCF v4 index file, as written by
        :func:`~repro.io.serialize.save_index`, ``repro-spc build`` or a
        :class:`~repro.dynamic.maintenance.MaintenanceController` publish.
    workers:
        Worker-process count. Every worker maps the whole arena and
        answers any request.
    max_batch:
        Largest pair batch the router sends in one round-trip. Pending
        pairs are flushed as soon as a worker is idle; pairs that arrive
        while every worker is busy queue up and ride the next batch, so
        batch size follows load up to this cap.
    capacity / queue_limit / retry_after_cap:
        Admission control (see
        :class:`~repro.serving.admission.AdmissionQueue`); the router
        admits up to ``capacity + queue_limit`` outstanding requests and
        sheds the rest with a capped retry-after hint.
    default_deadline:
        Per-request budget in seconds when the caller gives none
        (``None``: :data:`~repro.serving.admission.MAX_REQUEST_SECONDS`).
    breaker / failure_threshold / reset_timeout:
        Circuit breaker over worker failures (a worker death or a
        corrupt-arena error trips it; request-level deadline and vertex
        errors do not).
    reload_check_every:
        Poll the index file signature every N admissions (0 disables
        polling; :meth:`check_reload` stays available).
    verify:
        Forwarded to :func:`~repro.io.flat_store.open_shared` (CRC
        checks on map).
    clock:
        Monotonic clock, injectable for deterministic tests.
    graph:
        Optional logical :class:`~repro.graph.graph.Graph` behind the
        arena. When given, a BFS fallback
        (:class:`~repro.resilience.ResilientSPCIndex`) answers exactly
        while *no* worker is live and no respawn is coming — results
        come back ``SERVED_DEGRADED`` instead of failing. Without it,
        such work fails with a typed ``ERROR``. While any worker serves,
        it answers the queued work itself.
    respawn / respawn_backoff / respawn_backoff_max:
        Supervision: a dead worker is respawned after ``respawn_backoff``
        seconds, doubling per consecutive failure up to
        ``respawn_backoff_max``; a worker that served longer than
        ``respawn_backoff_max`` resets its backoff. ``respawn=False``
        restores the old fail-fast behaviour (death permanently removes
        the worker).
    heartbeat_interval / stall_timeout:
        Idle workers are pinged every ``heartbeat_interval`` seconds
        (0 disables); a missed pong, or a batch overrunning its deadline
        budget by ``stall_timeout``, declares the worker stalled: it is
        SIGKILLed and respawned. Every request carries a budget (a
        request with no timeout and no ``default_deadline`` gets
        :data:`~repro.serving.admission.MAX_REQUEST_SECONDS`), so every
        batch is covered.
    hedge_delay:
        Tail hedging. ``"auto"`` (default) duplicates a request to an
        idle worker at the same generation once it has waited
        :data:`HEDGE_MULTIPLIER` × the observed p95 round-trip latency
        (at least :data:`HEDGE_FLOOR` seconds, needs 16 samples); a
        float pins the delay; ``None`` disables. The first answer wins,
        the loser is discarded on arrival — hedges never double-resolve.

    Workers get :data:`START_TIMEOUT` seconds to say HELLO.
    """

    def __init__(self, index_path, *, workers=2, max_batch=64, capacity=64,
                 queue_limit=256, retry_after_cap=DEFAULT_RETRY_AFTER_CAP,
                 default_deadline=None, breaker=None, failure_threshold=5,
                 reset_timeout=1.0, reload_check_every=64, verify=True,
                 clock=time.monotonic, graph=None, respawn=True,
                 respawn_backoff=0.05, respawn_backoff_max=2.0,
                 heartbeat_interval=0.5, stall_timeout=2.0,
                 hedge_delay="auto", _fault=None):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if respawn_backoff <= 0 or respawn_backoff_max < respawn_backoff:
            raise ValueError("respawn_backoff must be positive and <= "
                             "respawn_backoff_max")
        if heartbeat_interval < 0:
            raise ValueError("heartbeat_interval must be >= 0 (0 disables)")
        if stall_timeout <= 0:
            raise ValueError("stall_timeout must be positive")
        if hedge_delay is not None and hedge_delay != "auto":
            hedge_delay = float(hedge_delay)
            if hedge_delay < 0:
                raise ValueError("hedge_delay must be >= 0, 'auto', or None")
        self.index_path = str(index_path)
        meta = read_flat_meta(self.index_path)
        self.n = meta.n
        self.max_batch = max_batch
        self.default_deadline = default_deadline
        self._clock = clock
        self._life = RequestLifecycle(
            "spc_cluster", AdmissionQueue.offer, capacity=capacity,
            queue_limit=queue_limit, retry_after_cap=retry_after_cap,
            default_deadline=default_deadline,
            reload_check_every=reload_check_every,
            counters=("batches", "reloads", "reload_failures",
                      "worker_failures", "respawns", "stalls", "hedges",
                      "hedge_wins", "drains", "replays"),
            clock=clock)
        self._admission = self._life.admission
        if breaker is None:
            breaker = CircuitBreaker(failure_threshold=failure_threshold,
                                     reset_timeout=reset_timeout, clock=clock)
        self.breaker = breaker
        self._watcher = IndexWatcher(self.index_path)
        self._target_generation = 0
        self._closing = False
        self._closed = False
        registry = get_registry()
        self._metrics = _BatchMetrics(registry) if registry.enabled else None
        self._asleep = False
        self._inbox = collections.deque()
        self._pending = collections.deque()  # appended by submit_nowait
        # The arena signature each generation names, read when the
        # generation is made (None: the file was unreadable then).
        self._signatures = {0: self._arena_signature()}
        self._jobs = collections.deque()
        self._inflight = {}
        self._next_batch_id = 0
        self._start_error = None
        self._failed = False
        self._ready = threading.Event()
        self._verify = verify
        self._fault = _fault
        self._respawn = respawn
        self._respawn_backoff = respawn_backoff
        self._respawn_backoff_max = respawn_backoff_max
        self._heartbeat_interval = heartbeat_interval
        self._stall_timeout = stall_timeout
        self._hedge_delay = hedge_delay
        self._latency = collections.deque(maxlen=64)
        self._fallback_inflight = 0
        self._reaped = []
        self._fallback = None
        self._executor = None
        if graph is not None:
            if graph.n != meta.n:
                raise ValueError(
                    f"fallback graph has {graph.n} vertices but the arena "
                    f"has {meta.n}")
            from repro.resilience import ResilientSPCIndex

            self._fallback = ResilientSPCIndex(graph,
                                               bfs_engine=FALLBACK_ENGINE)
            self._executor = _DegradedExecutor(self)
            self._executor.start()
        self._selector = selectors.DefaultSelector()
        self._wake_r, self._wake_w = os.pipe()
        os.set_blocking(self._wake_w, False)
        self._selector.register(self._wake_r, selectors.EVENT_READ, None)
        self._workers = []
        for index in range(workers):
            worker = _Worker(index, respawn_backoff)
            self._workers.append(worker)
            self._spawn_process(worker, 0)
        workers = self._workers
        registry.gauge("spc_cluster_workers").track(
            lambda: sum(1 for w in workers if w.live))
        self._router = threading.Thread(target=self._run,
                                        name="spc-cluster-router",
                                        daemon=True)
        self._router.start()
        if not self._ready.wait(START_TIMEOUT):
            self.close()
            raise SerializationError(
                f"cluster workers did not come up within {START_TIMEOUT}s")
        if self._start_error is not None:
            error = self._start_error
            self.close()
            raise SerializationError(f"cluster worker failed to start: "
                                     f"{error}")

    def _spawn_process(self, worker, generation):
        """Fork a fresh process behind ``worker`` and wire it into the
        selector. Reusable by the supervisor: respawns after a death and
        replacements after a drain both come through here."""
        process, parent_conn = start_child(
            worker_entry, (self.index_path, generation, self._verify,
                           self._fault),
            name=f"spc-cluster-worker-{worker.index}", duplex=True)
        fd = parent_conn.fileno()
        os.set_blocking(fd, False)
        worker.process = process
        worker.conn = parent_conn
        worker.conn_fd = fd
        worker.decoder = _FrameDecoder(fd)
        worker.sentinel_fd = process.sentinel
        worker.generation = generation
        worker.stale = False
        worker.state = STARTING
        worker.gone = False
        worker.pinned.clear()
        worker.spawned_at = self._clock()
        worker.last_seen = worker.spawned_at
        worker.ping_sent_at = None
        worker.busy_since = None
        worker.busy_budget = None
        self._selector.register(fd, selectors.EVENT_READ, ("conn", worker))
        self._selector.register(process.sentinel, selectors.EVENT_READ,
                                ("exit", worker))

    def _detach(self, worker):
        """Unwire a worker's fds from the selector and close its pipe.
        Safe to call once per incarnation; death and drain both end here."""
        if worker.gone:
            return
        worker.gone = True
        for fd in (worker.conn_fd, worker.sentinel_fd):
            if fd is None:
                continue
            try:
                self._selector.unregister(fd)
            except (KeyError, ValueError, OSError, RuntimeError):
                pass
        if worker.conn is not None:
            try:
                worker.conn.close()
            except OSError:  # pragma: no cover - already torn down
                pass
        worker.conn = None
        worker.conn_fd = None
        worker.decoder = None
        worker.sentinel_fd = None

    # -- submission surface ---------------------------------------------------

    def submit_nowait(self, s, t, timeout=None):
        """Admit one pair query; resolves to a :class:`QueryResult`.

        Never raises: admission shedding, an open breaker and invalid
        vertices resolve the returned future immediately with the
        matching terminal status, exactly like
        :meth:`SPCService.submit <repro.serving.service.SPCService.submit>`
        but without blocking the caller.

        The pair's budget and expiry stay floats: a
        :class:`~repro.serving.deadline.Deadline` is built only for an
        error or the BFS fallback.
        """
        started = self._clock()
        future = Future()
        if timeout is None:
            timeout = self.default_deadline
        if timeout is None:
            budget = admission.MAX_REQUEST_SECONDS
            expires = started + budget
        elif isinstance(timeout, Deadline):
            budget, expires = timeout.budget, timeout.expires_at
        elif timeout > 0:
            budget, expires = timeout, started + timeout
        else:
            raise ValueError(
                f"deadline budget must be positive, got {timeout!r}")
        if self._admit(future, started, (s, t)):
            self._pending.append((int(s), int(t), budget, expires, started,
                                  future))
            self._wake()
        return future

    def submit(self, s, t, timeout=None):
        """Blocking :meth:`submit_nowait`: always a terminal result."""
        return self.submit_nowait(s, t, timeout=timeout).result()

    def asubmit(self, s, t, timeout=None):
        """Awaitable :meth:`submit_nowait` for asyncio front ends."""
        return asyncio.wrap_future(self.submit_nowait(s, t, timeout=timeout))

    def submit_many_nowait(self, pairs, timeout=None):
        """Admit a whole pair batch as one request; returns a future.

        The future resolves to a single :class:`QueryResult` whose
        ``answer`` is a list of ``(dist, count)`` tuples aligned with
        ``pairs``. Admission, deadline, breaker, and the router hop are
        paid once for the batch — the high-throughput front door for
        callers that already hold many pairs, where per-pair futures
        would dominate the (vectorized) kernel cost. One worker answers
        the whole batch in one round-trip, so it shares one terminal
        status and one index generation: an invalid vertex, expired
        deadline, or shed rejects all of it.
        """
        pairs = list(pairs)
        if not pairs:
            return self._served_empty([])
        try:
            sources = np.fromiter((p[0] for p in pairs), dtype=np.int64,
                                  count=len(pairs))
            targets = np.fromiter((p[1] for p in pairs), dtype=np.int64,
                                  count=len(pairs))
        except (TypeError, ValueError):
            # Some id is not an integer: the gate names it.
            return self._submit_job(None, [v for p in pairs for v in p],
                                    timeout)
        extremes = [int(ids.min()) for ids in (sources, targets)]
        extremes += [int(ids.max()) for ids in (sources, targets)]
        return self._submit_job(
            lambda future, deadline, started: _PairBatchJob(
                future, deadline, started, sources.tolist(),
                targets.tolist()),
            extremes, timeout)

    def submit_many(self, pairs, timeout=None):
        """Blocking :meth:`submit_many_nowait`: always a terminal result."""
        return self.submit_many_nowait(pairs, timeout=timeout).result()

    def single_source(self, s, timeout=None):
        """``(dist, count)`` arrays from ``s``, swept by one worker.

        Returns a :class:`QueryResult` whose ``answer`` is the
        ``(dist, count)`` array pair.
        """
        return self._submit_job(
            lambda future, deadline, started: _SingleSourceJob(
                future, deadline, started, int(s)),
            [s], timeout).result()

    def set_to_set(self, sources, targets, timeout=None):
        """``(sd(S, T), spc(S, T))``, answered by one worker."""
        sources = [int(v) for v in sources]
        targets = [int(v) for v in targets]
        if not sources or not targets:
            return self._served_empty((INF, 0)).result()
        return self._submit_job(
            lambda future, deadline, started: _SetToSetJob(
                future, deadline, started, sources, targets),
            sources + targets, timeout).result()

    def submit_query(self, node, timeout=None):
        """Run a compiled query AST node against the cluster.

        Operators the cluster serves natively map straight onto its
        entry points — :class:`~repro.query.ast.Count` is
        :meth:`submit`, a :class:`~repro.query.ast.Batch` of pair
        operators is one :meth:`submit_many` round-trip, single-source
        and set-to-set queries are one round-trip each. Everything
        else (relevance, top-k betweenness, mixed batches) compiles
        through a :class:`~repro.query.engine.QueryEngine` whose backend
        issues cluster requests, so composite answers inherit the
        cluster's shedding/deadline/breaker behaviour per sub-request.
        Answers are normalised to the query layer's value conventions.
        """
        deadline = self._life.deadline(timeout, self._clock())
        if type(node) is Count:
            return self.submit(node.s, node.t, timeout=deadline)
        if isinstance(node, PAIR_OPS):
            result = self.submit(node.s, node.t, timeout=deadline)
            if result.ok:
                result.answer = node.from_pair(*normalize_pair(*result.answer))
            return result
        if isinstance(node, SingleSource):
            result = self.single_source(node.s, timeout=deadline)
            if result.ok:
                result.answer = normalize_single_source(*result.answer)
            return result
        if isinstance(node, SetToSet):
            result = self.set_to_set(list(node.sources), list(node.targets),
                                     timeout=deadline)
            if result.ok:
                result.answer = normalize_pair(*result.answer)
            return result
        if isinstance(node, Batch) and all(
                isinstance(child, PAIR_OPS) for child in node.queries):
            pairs = [(child.s, child.t) for child in node.queries]
            result = self.submit_many(pairs, timeout=deadline)
            if result.ok:
                result.answer = tuple(
                    child.from_pair(*normalize_pair(*answer))
                    for child, answer in zip(node.queries, result.answer)
                )
            return result
        return self._submit_composite(node, deadline)

    def _submit_composite(self, node, deadline):
        """Compile a non-native node over a cluster-backed query engine.

        Each backend call is a real cluster request (counted and defended
        individually); the composite result degrades if any sub-request
        was served degraded, and the first failed sub-request terminates
        the composite with that sub-request's status.
        """
        started = self._clock()
        adapter = _ClusterOracle(self, deadline)
        engine = QueryEngine(oracle=adapter, n=self.n, cache=None)
        try:
            answer = engine.run(node, deadline=deadline)
        except ReproError as exc:
            result = QueryResult(status_of(exc), error=exc)
        else:
            status = SERVED_DEGRADED if adapter.degraded else SERVED_INDEX
            result = QueryResult(status, answer=answer)
        result.elapsed = self._clock() - started
        result.generation = self.generation
        return result

    def _admit(self, future, started, vertices):
        """The gate every request passes: closed check, vertex validation,
        breaker and admission, in that order.

        Returns True when admitted, or False after resolving ``future``
        with the terminal result of whichever step refused it.
        """
        life = self._life
        try:
            if self._closed or self._closing or self._failed:
                raise ReproError("cluster is closed")
            for v in vertices:
                try:
                    if 0 <= v < self.n:
                        continue
                except TypeError:  # not a number: still not a vertex
                    pass
                raise VertexError(v, self.n)
            self.breaker.before_call()
            poll = life.admit(None)
        except ReproError as exc:
            future.set_result(life.fail(exc, self._clock() - started,
                                        self.generation))
            return False
        if poll:
            self.check_reload()
        return True

    def _submit_job(self, factory, vertices, timeout):
        """:meth:`_admit` a job and queue it; returns the
        future (blocking entry points call ``.result()`` on it)."""
        started = self._clock()
        future = Future()
        deadline = self._life.deadline(timeout, started)
        if self._admit(future, started, vertices):
            self._inbox.append(("job", factory(future, deadline, started)))
            self._wake()
        return future

    def _served_empty(self, answer):
        """An empty request: answered without a worker, but tallied."""
        future = Future()
        future.set_result(self._life.finish(SERVED_INDEX, 0.0, answer=answer,
                                            generation=self.generation))
        return future

    # -- hot reload -----------------------------------------------------------

    def check_reload(self):
        """Poll the file signature; start a rolling swap when it moved."""
        if self._closed:
            return False
        if not self._watcher.poll():
            return False
        self._watcher.mark()
        self.reload()
        return True

    def reload(self):
        """Force a rolling remap of every worker onto the file as it is
        now; the new generation names that file's signature."""
        self._inbox.append(("reload", self._arena_signature()))
        self._wake()

    def _arena_signature(self):
        try:
            return file_signature(self.index_path)
        except OSError:
            return None

    def drain(self, worker_index, respawn=True):
        """Gracefully retire one worker; returns a future.

        The worker stops admitting new batches, finishes its in-flight
        work, and is then stopped. With ``respawn=True`` (the default) a
        fresh process is forked in its place and the future resolves
        ``True`` once the replacement says HELLO — a rolling restart of
        one slot. With ``respawn=False`` the slot is retired for good
        and the future resolves as soon as the old process is stopped.
        The future resolves ``False`` if the cluster shuts down (or the
        worker dies) before the drain completes — death mid-drain falls
        back to the ordinary supervision path.
        """
        worker_index = int(worker_index)
        if not (0 <= worker_index < len(self._workers)):
            raise ValueError(f"no worker {worker_index} "
                             f"(cluster has {len(self._workers)})")
        future = Future()
        if self._closed or self._closing:
            future.set_result(False)
            return future
        self._inbox.append(("drain", (worker_index, bool(respawn), future)))
        self._wake()
        return future

    def rolling_restart(self, timeout=60.0):
        """Drain-and-respawn every worker, one at a time.

        Each slot is fully replaced (old process stopped, new process
        mapped and serving) before the next drain starts, so capacity
        never drops by more than one worker. Returns True when every
        slot came back; False as soon as one drain fails or times out.
        """
        for worker in list(self._workers):
            if not worker.live:
                continue
            try:
                if not self.drain(worker.index, respawn=True).result(timeout):
                    return False
            except TimeoutError:
                return False
        return True

    # -- observability --------------------------------------------------------

    @property
    def generation(self):
        """Lowest generation any live worker is still serving."""
        generations = [w.generation for w in self._workers if w.live]
        return min(generations) if generations else 0

    @property
    def target_generation(self):
        """Generation the current/last rolling reload is driving toward."""
        return self._target_generation

    def stats(self):
        """Counter snapshot plus per-worker state for dashboards."""
        return {
            "counters": self._life.snapshot(),
            "generation": self.generation,
            "target_generation": self._target_generation,
            "ema_latency": self._admission.ema_latency,
            "admission": self._admission.snapshot(),
            "breaker": self.breaker.snapshot(),
            "workers": [
                {"index": w.index, "state": w.state,
                 "generation": w.generation,
                 "pid": w.process.pid if w.process is not None else None,
                 "alive": (w.process.is_alive()
                           if w.process is not None else False),
                 "respawns": w.respawns, "draining": w.draining}
                for w in self._workers
            ],
        }

    def worker_stats(self, timeout=30.0):
        """Memory/identity probes from every live worker (RSS, mapping
        sharing evidence, arena signature). Raises on a closed cluster,
        and :class:`DeadlineExceeded` when a worker (a stopped one, say)
        has not answered within ``timeout`` seconds."""
        if self._closed or self._closing or self._failed:
            raise ReproError("cluster is closed")
        live = [w.index for w in self._workers if w.live]
        if not live:
            raise ReproError("no live workers")
        future = Future()
        started = self._clock()
        job = _StatsJob(future, self._life.deadline(timeout, started), started,
                        live)
        self._inbox.append(("job", job))
        self._wake()
        try:
            return future.result(timeout=timeout)
        except FutureTimeout:
            raise DeadlineExceeded(timeout, self._clock() - started) from None

    # -- lifecycle ------------------------------------------------------------

    def close(self, timeout=10.0):
        """Drain in-flight work, stop workers, join the router.

        Shutdown is terminal for every caller: any future still waiting
        when the router exits — or stuck because the router itself is
        wedged — is resolved with an ``ERROR`` :class:`QueryResult`, so
        ``submit()`` callers can never hang across a close.
        """
        if self._closed:
            return
        self._closed = True
        self._inbox.append(("close", None))
        self._wake()
        self._router.join(timeout=timeout)
        if self._router.is_alive():  # pragma: no cover - wedged router
            # Last resort: the router thread did not exit in time. Its
            # state is frozen from our point of view; resolving the
            # leftover futures here is safe (terminal bookkeeping is
            # idempotent via the done flags) and keeps the no-hang
            # promise even in this degenerate case.
            self._failed = True
            self._fail_everything(ReproError("cluster router wedged "
                                             "during close"))
        if self._executor is not None:
            self._executor.close()
            self._executor.join(timeout=timeout)
        # One snapshot: a router that outlived the join above may still
        # move a worker's process into _reaped and clear the slot.
        processes = [w.process for w in self._workers] + list(self._reaped)
        for process in processes:
            if process is None:
                continue
            process.join(timeout=timeout)
            if process.is_alive():  # pragma: no cover - stuck worker
                process.terminate()
                process.join(timeout=1.0)
        try:
            self._selector.close()
        except OSError:  # pragma: no cover
            pass
        for fd in (self._wake_r, self._wake_w):
            try:
                os.close(fd)
            except OSError:
                pass

    def __enter__(self):
        """Context-manager entry: the service itself."""
        return self

    def __exit__(self, exc_type, exc, tb):
        """Context-manager exit: always :meth:`close`."""
        self.close()
        return False

    def __repr__(self):
        live = sum(1 for w in self._workers if w.live)
        return (f"ClusterService(workers={live}/{len(self._workers)}, "
                f"generation={self.generation})")

    # -- router thread --------------------------------------------------------

    def _wake(self):
        # Deduplicated: the write (a syscall per request at peak load) is
        # only needed when the router is parked in select(). The waker
        # clears the flag itself so a burst of producers pays one syscall,
        # not one per request — the byte already in the pipe guarantees
        # the router will wake and drain everything appended after it.
        # The router re-checks the inbox *after* re-arming the flag, so a
        # producer that reads a stale False still gets its item seen
        # before any sleep.
        if not self._asleep:
            return
        self._asleep = False
        try:
            os.write(self._wake_w, b"x")
        except (OSError, ValueError):
            pass

    def _run(self):
        try:
            while True:
                self._drain_inbox()
                now = self._clock()
                self._check_health(now)
                self._dispatch()
                # One sort of the latency window per loop, for both uses.
                delay = self._hedge_delay_for() if self._inflight else None
                self._maybe_hedge(self._clock(), delay)
                if self._closing and self._quiescent():
                    break
                timer = self._health_timer(self._clock(), delay)
                self._asleep = True
                if self._inbox:
                    self._asleep = False
                    continue
                try:
                    events = self._selector.select(timer)
                except OSError:  # pragma: no cover - selector torn down
                    break
                finally:
                    self._asleep = False
                for key, _ in events:
                    if key.data is None:
                        try:
                            os.read(self._wake_r, 4096)
                        except OSError:
                            pass
                    else:
                        # Both the pipe fd and the process sentinel route
                        # through the decoder pump: buffered final replies
                        # are delivered before the death is declared.
                        self._on_conn_readable(key.data[1])
        finally:
            # Terminal no matter how the router exits (clean close or an
            # unexpected exception): every queued, in-flight, and future
            # submission resolves — submit() callers can never hang.
            self._closing = True
            try:
                self._shutdown_workers()
            finally:
                self._failed = True
                self._fail_everything(ReproError("cluster is closed"))

    def _drain_inbox(self):
        while self._inbox:
            kind, payload = None, None
            try:
                item = self._inbox.popleft()
            except IndexError:  # pragma: no cover - racing producer
                break
            kind = item[0]
            payload = item[1] if len(item) > 1 else None
            if kind == "job":
                if isinstance(payload, _StatsJob):
                    for index in payload.workers:
                        self._workers[index].pinned.append((payload, index))
                else:
                    self._jobs.append(payload)
            elif kind == "reload":
                self._target_generation += 1
                self._signatures[self._target_generation] = payload
            elif kind == "drain":
                self._on_drain_request(*payload)
            elif kind == "degraded_done":
                self._on_degraded_done(*payload)
            elif kind == "close":
                self._closing = True

    def _quiescent(self):
        if self._inflight or self._inbox or self._fallback_inflight:
            return False
        if self._pending or self._jobs:
            return False
        if any(w.state == RELOADING for w in self._workers):
            return False
        return all(not w.pinned for w in self._workers)

    def _dispatch(self):
        now = self._clock()
        for worker in self._workers:
            if worker.state != IDLE:
                continue
            if worker.draining:
                self._complete_drain(worker)
                continue
            if (worker.generation < self._target_generation
                    and not worker.pinned):
                if self._send(worker, (protocol.RELOAD,
                                       self._target_generation)):
                    worker.state = RELOADING
                    worker.busy_since = now
                continue
            if worker.pinned:
                job, key = worker.pinned.popleft()
                self._dispatch_job(worker, job, key)
                continue
            if worker.stale:
                continue  # waits for the reload that names its arena
            if self._jobs:
                self._dispatch_job(worker, self._jobs.popleft())
                continue
            if self._pending:
                self._dispatch_pairs(worker)
        self._route_stranded()

    def _next_id(self):
        self._next_batch_id += 1
        return self._next_batch_id

    def _send(self, worker, message):
        """Send on a worker pipe; a write failure IS that worker's death."""
        try:
            worker.conn.send(message)
            return True
        except (OSError, ValueError, BrokenPipeError, AttributeError):
            self._on_worker_death(worker)
            return False

    def _take_pending(self, limit):
        """Pop up to ``limit`` queued pairs, oldest first (router only)."""
        pending = self._pending
        popleft = pending.popleft
        return [popleft() for _ in range(min(len(pending), limit))]

    def _dispatch_pairs(self, worker):
        """Send the oldest queued pairs, up to ``max_batch``, as one batch.

        Pairs whose own budget is already spent end ``DEADLINE`` here and
        are not sent. The batch's budget is its latest expiry.
        """
        now = self._clock()
        while self._pending:
            batch = self._take_pending(self.max_batch)
            members = tuple(zip(*batch))
            if min(members[3]) > now:
                break
            expired = tuple(zip(*[pair for pair in batch if pair[3] <= now]))
            self._settle(expired, DEADLINE, errors=map(
                self._pair_error, expired[2], expired[3]), now=now)
            batch = [pair for pair in batch if pair[3] > now]
            if batch:
                members = tuple(zip(*batch))
                break
        else:
            return
        budget = max(members[3]) - now
        batch_id = self._next_id()
        message = (protocol.PAIRS, batch_id, members[0], members[1], budget)
        if not self._send(worker, message):
            self._pending.extendleft(reversed(batch))
            return
        now = self._clock()
        flight = _Flight("pairs", batch_id, worker, message, now, budget)
        flight.members = members
        worker.state = BUSY
        worker.busy_since = now
        worker.busy_budget = flight.budget
        self._inflight[batch_id] = flight
        metrics = self._metrics
        if metrics is not None:
            metrics.batch_size.observe(len(batch))

    def _dispatch_job(self, worker, job, key=None):
        """Send ``job`` to ``worker``; ``key`` names a pinned stats probe."""
        if job.done:
            return
        budget = job.deadline.remaining()
        if budget <= 0:
            self._finish_job(job, DEADLINE, error=_deadline_error(job.deadline))
            return
        batch_id = self._next_id()
        message = job.message(batch_id, budget)
        if not self._send(worker, message):
            if key is None:
                self._jobs.append(job)
            else:
                self._finish_job(job, ERROR,
                                 error=ReproError("worker died"))
            return
        now = self._clock()
        flight = _Flight("job", batch_id, worker, message, now, budget)
        flight.job = job
        flight.key = key
        worker.state = BUSY
        worker.busy_since = now
        worker.busy_budget = budget
        self._inflight[batch_id] = flight

    def _route_stranded(self):
        """Decide the fate of queued work while no worker is serving.

        A serving worker answers it; otherwise wait for a starting or
        respawning worker; otherwise hand the backlog to the BFS fallback
        executor (exact answers, ``SERVED_DEGRADED``); otherwise fail.
        Only the last rung loses work, and it is only reached when
        nothing can ever answer again.
        """
        if not self._pending and not self._jobs:
            return
        workers = self._workers
        if any(w.serving and not w.draining for w in workers):
            return
        if not self._closing and any(
                w.respawn_at is not None
                or (w.live and not w.stale
                    and (not w.draining or w.drain_respawn))
                for w in workers):
            return  # a STARTING, respawning or replacement worker is coming
        if self._fallback is None:
            self._fail_queued(ReproError("no live workers"))
            return
        batch = self._take_pending(len(self._pending))
        if batch:
            self._fallback_inflight += 1
            self._executor.submit(("pairs", tuple(zip(*batch))))
        while self._jobs:
            job = self._jobs.popleft()
            if not job.done:
                self._fallback_inflight += 1
                self._executor.submit(("job", job))

    def _fail_queued(self, error):
        """Fail every queued pair and job."""
        batch = self._take_pending(len(self._pending))
        if batch:
            self._settle(tuple(zip(*batch)), ERROR,
                         errors=itertools.repeat(error))
        while self._jobs:
            self._finish_job(self._jobs.popleft(), ERROR, error=error)

    # -- reply handling -------------------------------------------------------

    def _on_conn_readable(self, worker):
        """Pump one worker's pipe through its frame decoder.

        The router never trusts worker framing: a short read, a torn
        length header, or an unpicklable body is *that worker's* death,
        never a router crash — every complete frame buffered before the
        tear is still delivered first.
        """
        if worker.gone or worker.decoder is None:
            return
        try:
            messages = worker.decoder.pump()
        except _WorkerGone:
            self._on_worker_death(worker)
            return
        for message in messages:
            self._handle_message(worker, message)
            if worker.gone:
                return
        if worker.decoder is not None and worker.decoder.eof:
            self._on_worker_death(worker)

    def _handle_message(self, worker, message):
        worker.last_seen = self._clock()
        kind = message[0]
        if kind == protocol.HELLO:
            self._on_hello(worker, message)
            return
        if kind == protocol.PONG:
            worker.ping_sent_at = None
            worker.generation = message[1]
            return
        if kind == protocol.RELOADED:
            self._on_reloaded(worker, message)
            return
        if kind == protocol.ERR and message[1] is None:
            # Startup failure: the worker could not map the arena.
            if not self._ready.is_set():
                self._start_error = message[3]
                self._ready.set()
            self._on_worker_death(worker)
            return
        batch_id = message[1]
        flight = self._inflight.pop(batch_id, None)
        if flight is None:  # pragma: no cover - stray reply
            return
        worker.state = IDLE
        worker.busy_since = None
        worker.busy_budget = None
        if flight.cancelled:
            # The hedge race was already decided by the other leg; this
            # reply only frees the worker.
            return
        if flight.twin is not None:
            twin = flight.twin
            twin.cancelled = True
            twin.twin = None
            flight.twin = None
            if flight.is_hedge:
                self._life.bump("hedge_wins",
                                family="spc_cluster_hedge_wins_total")
        if message[0] == protocol.OK:
            self._latency.append(self._clock() - flight.sent_at)
        if flight.kind == "pairs":
            self._on_pairs_reply(flight, message)
        else:
            self._on_job_reply(flight, message)

    def _on_hello(self, worker, message):
        now = self._clock()
        self._adopt(worker, message[1], message[3])
        worker.state = IDLE
        worker.hello_at = now
        worker.busy_since = None
        worker.ping_sent_at = None
        if not self._ready.is_set():
            if all(w.state != STARTING for w in self._workers):
                self._ready.set()
        else:
            # A respawned (or drain-replacement) worker is back: count
            # it as recovery evidence so an open breaker can close.
            self.breaker.record_success()
            if worker.died_at is not None:
                get_registry().histogram("spc_cluster_respawn_seconds").observe(
                    now - worker.died_at)
            get_event_log().emit("cluster_worker_up", worker=worker.index,
                                 generation=worker.generation,
                                 respawns=worker.respawns)
        worker.died_at = None
        self._resolve_drains(worker, True)

    def _adopt(self, worker, generation, signature):
        """Take a worker's HELLO or reload: it serves ``generation`` only
        over the arena that generation names. One that mapped a file
        published since (a respawn racing a publish, ahead of
        :meth:`check_reload`) is stale until the next reload."""
        worker.generation = generation
        known = self._signatures.get(generation)
        if known is None:  # unreadable when named: the first map names it
            known = self._signatures[generation] = signature
        worker.stale = known != signature

    def _on_pairs_reply(self, flight, message):
        """Settle a pair batch in one step: every pair ``SERVED_INDEX``,
        but ``DEADLINE`` where its own budget ran out first."""
        members = flight.members
        now = self._clock()
        self._count_batch(flight, now)
        _, _, budgets, expires, _, _ = members
        if message[0] == protocol.ERR:
            errors = [self._pair_error(budget, at, message[2], message[3])
                      for budget, at in zip(budgets, expires)]
            self._settle(members, self._failed_status(errors[0]),
                         errors=errors, now=now)
            return
        self.breaker.record_success()
        status, answers, errors = SERVED_INDEX, message[3], None
        if now >= min(expires):  # some pair's own budget ran out in flight
            errors = [self._pair_error(budget, at) if now >= at else None
                      for budget, at in zip(budgets, expires)]
            status = [SERVED_INDEX if e is None else DEADLINE for e in errors]
            answers = [a if e is None else None
                       for a, e in zip(answers, errors)]
        self._settle(members, status, answers, errors, message[2], now)

    def _pair_error(self, budget, expires, kind=protocol.ERR_DEADLINE,
                    text=None):
        """One pair's typed error; a deadline one carries its own budget."""
        return _err_exception(kind, text,
                              _pair_deadline(budget, expires, self._clock))

    def _count_batch(self, flight, now):
        """Tally one worker round-trip; returns the batch metric handles."""
        self._life.bump("batches")
        metrics = self._metrics
        if metrics is not None:
            metrics.batches.inc()
            metrics.batch_seconds.observe(now - flight.sent_at)
        return metrics

    def _failed_status(self, error):
        """The status a worker's ERR reply ends its requests in; a
        worker-side failure (status ``error``) counts against the breaker."""
        status = status_of(error)
        if status == ERROR:
            self.breaker.record_failure()
        return status

    def _on_job_reply(self, flight, message):
        job = flight.job
        if flight.key is None:
            # A job is one worker round-trip, same as a router-built pair
            # batch; a caller's pair batch also feeds the batch sizes.
            metrics = self._count_batch(flight, self._clock())
            if metrics is not None and isinstance(job, _PairBatchJob):
                metrics.batch_size.observe(len(job.sources))
        if message[0] == protocol.ERR:
            error = _err_exception(message[2], message[3], job.deadline)
            self._finish_job(job, self._failed_status(error), error=error)
            return
        self.breaker.record_success()
        answer = message[3]
        if flight.key is not None:
            if not job.register_reply(flight.key, answer):
                return
            answer = job.merge()
        self._finish_job(job, SERVED_INDEX, answer=answer,
                         generation=message[2])

    def _on_reloaded(self, worker, message):
        generation, ok, detail = message[1], message[2], message[3]
        worker.state = IDLE
        worker.busy_since = None
        registry = get_registry()
        if ok:
            self._adopt(worker, generation, detail)
            self._life.bump("reloads", family="spc_cluster_reloads_total",
                            outcome="success")
            if registry.enabled:
                registry.gauge("spc_cluster_generation").set(self.generation)
            get_event_log().emit("cluster_worker_reloaded",
                                 worker=worker.index, generation=generation)
        else:
            self._life.bump("reload_failures",
                            family="spc_cluster_reloads_total",
                            outcome="failure")
            get_event_log().emit("cluster_reload_failed",
                                 worker=worker.index, detail=str(detail))

    def _on_worker_death(self, worker):
        if worker.state in (DEAD, STOPPED):
            return
        now = self._clock()
        was_starting = worker.state == STARTING
        worker.state = DEAD
        worker.died_at = now
        worker.busy_since = None
        worker.busy_budget = None
        worker.ping_sent_at = None
        was_draining = worker.draining
        worker.draining = False
        self._detach(worker)
        if worker.process is not None:
            self._reaped.append(worker.process)
            worker.process = None
        self._life.bump("worker_failures",
                        family="spc_cluster_worker_failures_total")
        self.breaker.record_failure()
        get_event_log().emit("cluster_worker_died", worker=worker.index)
        # Replay, don't fail: only this worker's in-flight work is
        # touched — the other workers never notice.
        dead_batches = [bid for bid, flight in self._inflight.items()
                        if flight.worker is worker]
        for batch_id in dead_batches:
            self._replay(self._inflight.pop(batch_id))
        while worker.pinned:
            job, _ = worker.pinned.popleft()
            self._finish_job(job, ERROR, error=ReproError("worker died"))
        if was_starting and not self._ready.is_set():
            if self._start_error is None:
                self._start_error = "worker exited before HELLO"
            self._ready.set()
            return
        if self._respawn and not self._closing:
            # Bounded exponential backoff; a worker that stayed healthy
            # longer than the cap earns a fresh (minimal) backoff.
            if (worker.hello_at is not None
                    and now - worker.hello_at > self._respawn_backoff_max):
                worker.backoff = self._respawn_backoff
            worker.respawn_at = now + worker.backoff
            worker.backoff = min(worker.backoff * 2,
                                 self._respawn_backoff_max)
        else:
            worker.respawn_at = None
        if was_draining:
            self._resolve_drains(worker, False)

    def _replay(self, flight):
        """Re-queue a dead worker's in-flight work for someone else.

        Cancelled hedge legs carry no work; a flight whose hedge twin is
        still racing just detaches (the twin now answers alone). Replays
        go to the *front* of the pair queue so the oldest requests keep
        their place in line.
        """
        if flight.cancelled:
            return
        if flight.twin is not None:
            flight.twin.twin = None
            flight.twin = None
            return
        self._life.bump("replays")
        if flight.kind == "pairs":
            self._pending.extendleft(reversed(list(zip(*flight.members))))
            return
        job = flight.job
        if job.done:
            return
        if flight.key is not None:
            # A worker-pinned probe (STATS) cannot run anywhere else.
            self._finish_job(job, ERROR, error=ReproError("worker died"))
        else:
            self._jobs.append(job)

    # -- supervision ----------------------------------------------------------

    def _check_health(self, now):
        """One supervision sweep: respawns due, stalls, missed pongs."""
        for worker in self._workers:
            if worker.state == DEAD:
                if (worker.respawn_at is not None and now >= worker.respawn_at
                        and not self._closing):
                    self._respawn_now(worker)
                continue
            if worker.state == STARTING:
                if now - worker.spawned_at > START_TIMEOUT:
                    self._stall_kill(worker, "no HELLO within start_timeout")
                continue
            if worker.state == BUSY:
                if (now - worker.busy_since
                        > worker.busy_budget + self._stall_timeout):
                    self._stall_kill(worker, "batch overran its deadline "
                                             "budget")
                continue
            if worker.state == RELOADING:
                if (worker.busy_since is not None
                        and now - worker.busy_since
                        > self._stall_timeout + 5.0):
                    self._stall_kill(worker, "reload stalled")
                continue
            if worker.state == IDLE and self._heartbeat_interval > 0:
                if worker.ping_sent_at is not None:
                    if now - worker.ping_sent_at > self._stall_timeout:
                        self._stall_kill(worker, "missed heartbeat pong")
                elif now - worker.last_seen >= self._heartbeat_interval:
                    if self._send(worker, (protocol.PING,)):
                        worker.ping_sent_at = now

    def _health_timer(self, now, hedge_delay):
        """Earliest supervision or hedge deadline, as a select() timeout;
        ``hedge_delay`` is this loop's :meth:`_hedge_delay_for`."""
        deadline = None

        def consider(at):
            nonlocal deadline
            if at is not None and (deadline is None or at < deadline):
                deadline = at

        for worker in self._workers:
            if worker.state == DEAD:
                consider(worker.respawn_at)
            elif worker.state == STARTING:
                consider(worker.spawned_at + START_TIMEOUT)
            elif worker.state == BUSY:
                consider(worker.busy_since + worker.busy_budget
                         + self._stall_timeout)
            elif worker.state == RELOADING:
                if worker.busy_since is not None:
                    consider(worker.busy_since + self._stall_timeout + 5.0)
            elif worker.state == IDLE and self._heartbeat_interval > 0:
                if worker.ping_sent_at is not None:
                    consider(worker.ping_sent_at + self._stall_timeout)
                else:
                    consider(worker.last_seen + self._heartbeat_interval)
        if hedge_delay is not None:
            for flight in self._inflight.values():
                if not (flight.twin is not None or flight.is_hedge
                        or flight.cancelled or flight.key is not None):
                    consider(flight.sent_at + hedge_delay)
        if deadline is None:
            return None
        return max(deadline - now, 0.0)

    def _stall_kill(self, worker, reason):
        """A stalled worker is indistinguishable from a dead one to its
        callers — SIGKILL it (works through SIGSTOP too) and let the
        ordinary death path replay and respawn."""
        self._life.bump("stalls", family="spc_cluster_stalls_total")
        get_event_log().emit("cluster_worker_stalled", worker=worker.index,
                             reason=reason, state=worker.state)
        if worker.process is not None:
            try:
                worker.process.kill()
            except (OSError, ValueError):  # pragma: no cover - racing exit
                pass
        self._on_worker_death(worker)

    def _respawn_now(self, worker):
        worker.respawn_at = None
        worker.respawns += 1
        self._life.bump("respawns", family="spc_cluster_respawns_total")
        get_event_log().emit("cluster_worker_respawn", worker=worker.index,
                             attempt=worker.respawns)
        self._spawn_process(worker, self._target_generation)

    # -- hedging --------------------------------------------------------------

    def _hedge_delay_for(self):
        """Seconds a request may wait before a hedge fires, or None."""
        delay = self._hedge_delay
        if delay is None:
            return None
        if delay != "auto":
            return delay
        samples = self._latency
        if len(samples) < 16:
            return None
        ordered = sorted(samples)
        p95 = ordered[int(0.95 * (len(ordered) - 1))]
        return max(HEDGE_FLOOR, p95 * HEDGE_MULTIPLIER)

    def _maybe_hedge(self, now, delay):
        """Hedge every primary flight older than ``delay`` seconds."""
        if delay is None:
            return
        for flight in list(self._inflight.values()):
            if (flight.twin is not None or flight.is_hedge
                    or flight.cancelled):
                continue
            if flight.key is not None:
                continue  # a pinned probe runs on its own worker only
            if now - flight.sent_at < delay:
                continue
            sibling = self._hedge_sibling(flight)
            if sibling is None:
                continue
            self._dispatch_hedge(flight, sibling, now)

    def _hedge_sibling(self, flight):
        """Any idle worker at the same generation as the primary's."""
        for worker in self._workers:
            if (worker is not flight.worker and worker.state == IDLE
                    and not worker.draining and not worker.stale
                    and worker.generation == flight.worker.generation):
                return worker
        return None

    def _dispatch_hedge(self, flight, sibling, now):
        batch_id = self._next_id()
        message = flight.message[:1] + (batch_id,) + flight.message[2:]
        if not self._send(sibling, message):
            return
        hedge = _Flight(flight.kind, batch_id, sibling, message, now,
                        flight.budget)
        hedge.members = flight.members
        hedge.job = flight.job
        hedge.is_hedge = True
        hedge.twin = flight
        flight.twin = hedge
        sibling.state = BUSY
        sibling.busy_since = now
        sibling.busy_budget = flight.budget
        self._inflight[batch_id] = hedge
        self._life.bump("hedges", family="spc_cluster_hedges_total")
        get_event_log().emit("cluster_hedge", worker=flight.worker.index,
                             sibling=sibling.index)

    # -- drains ---------------------------------------------------------------

    def _on_drain_request(self, worker_index, respawn, future):
        worker = self._workers[worker_index]
        if not worker.live:
            future.set_result(False)
            return
        if not worker.draining:
            worker.draining = True
            worker.drain_respawn = respawn
            self._life.bump("drains", family="spc_cluster_drains_total")
            get_event_log().emit("cluster_worker_drain",
                                 worker=worker.index, respawn=respawn)
        worker.drain_respawn = worker.drain_respawn and respawn
        worker.drain_futures.append(future)

    def _complete_drain(self, worker):
        """The draining worker went idle: stop it and (maybe) replace it.

        Hot swap-in of a fresh process is just this state machine with
        ``drain_respawn=True`` — the drain futures resolve when the
        replacement says HELLO, so a rolling restart can wait on full
        capacity, not merely on the old process exiting.
        """
        self._send(worker, (protocol.STOP,))
        if worker.state in (DEAD, STOPPED):
            return  # the STOP send already declared it dead
        self._detach(worker)
        worker.state = STOPPED
        worker.draining = False
        if worker.process is not None:
            self._reaped.append(worker.process)
            worker.process = None
        get_event_log().emit("cluster_worker_drained", worker=worker.index)
        if worker.drain_respawn and not self._closing:
            self._spawn_process(worker, self._target_generation)
        else:
            self._resolve_drains(worker, True)

    def _resolve_drains(self, worker, outcome):
        while worker.drain_futures:
            _set_result(worker.drain_futures.pop(), outcome)

    # -- degraded execution ---------------------------------------------------

    def _on_degraded_done(self, item, outcome):
        self._fallback_inflight -= 1
        if item[0] == "pairs":
            status, answers, errors = zip(*outcome)
            self._settle(item[1], status, answers, errors)
            return
        job = item[1]
        status, answer, error = outcome
        self._finish_job(job, status, answer=answer, error=error)

    def _shutdown_workers(self):
        for worker in self._workers:
            if not worker.live:
                continue
            if worker.conn is not None:
                try:
                    worker.conn.send((protocol.STOP,))
                except (OSError, ValueError, BrokenPipeError):
                    pass
            self._detach(worker)
            worker.state = STOPPED

    def _fail_everything(self, error):
        """Terminally resolve every queued, in-flight, and inbox future.

        Idempotent (the ``done`` flags make double-resolution a no-op)
        and callable from the closing thread as a last resort, so no
        ``submit()`` caller can ever hang across shutdown.
        """
        self._fail_queued(error)
        for flight in list(self._inflight.values()):
            if flight.cancelled:
                continue
            if flight.kind == "pairs":
                if not (flight.is_hedge and flight.twin is not None):
                    # Racing hedge legs share their pairs: the primary
                    # leg fails them once.
                    self._settle(flight.members, ERROR,
                                 errors=itertools.repeat(error))
            elif flight.job is not None:
                self._finish_job(flight.job, ERROR, error=error)
        self._inflight.clear()
        for worker in self._workers:
            while worker.pinned:
                job, _ = worker.pinned.popleft()
                self._finish_job(job, ERROR, error=error)
            self._resolve_drains(worker, False)
        while self._inbox:
            try:
                item = self._inbox.popleft()
            except IndexError:  # pragma: no cover - racing producer
                break
            kind = item[0]
            if kind == "job":
                self._finish_job(item[1], ERROR, error=error)
            elif kind == "drain":
                _set_result(item[1][2], False)
            elif kind == "degraded_done":
                self._on_degraded_done(*item[1])

    # -- terminal bookkeeping -------------------------------------------------

    def _settle(self, members, status, answers=None, errors=None,
                generation=0, now=None):
        """End a batch of pairs together: one lifecycle settle (admission
        slots, latency EMA, outcome tally), then one :class:`QueryResult`
        per future. ``status`` is one status for every pair or one per
        pair; ``answers`` and ``errors`` align with the columns of
        ``members``."""
        _, _, _, _, started, futures = members
        if now is None:
            now = self._clock()
        elapsed = [now - start for start in started]
        if isinstance(status, str):
            outcomes, status = {status: len(elapsed)}, itertools.repeat(status)
        else:
            outcomes = collections.Counter(status)
        self._life.settle(elapsed, outcomes)
        nothing = itertools.repeat(None)
        results = map(QueryResult, status, answers or nothing,
                      errors or nothing, elapsed, itertools.repeat(generation))
        for future, result in zip(futures, results):
            _set_result(future, result)

    def _finish_job(self, job, status, answer=None, error=None, generation=0):
        if job.done:
            return
        job.done = True
        elapsed = self._clock() - job.started
        if job.admitted:
            self._life.settle([elapsed], {status: 1})
        job.resolve(QueryResult(status, answer, error, elapsed, generation))


def worker_entry(conn, path, generation, verify, fault=None):
    """Process target: import-light wrapper around ``worker_main``.

    Kept at module top level so it stays picklable under spawn-based
    start methods, and imported lazily so the parent's module graph is
    not re-imported by fork children. ``fault`` is the optional
    test-only fault hook threaded through to the worker loop.
    """
    from repro.serving.worker import worker_main

    worker_main(conn, path, generation, verify=verify, fault=fault)
