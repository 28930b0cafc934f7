"""Shared-memory multiprocess serving cluster with scatter-gather sharding.

:class:`ClusterService` is the multiprocess sibling of
:class:`~repro.serving.service.SPCService`. N worker processes each map
the *same* SPCF v4 flat label file read-only (one physical copy of the
label columns, shared through the page cache — see
:func:`repro.io.flat_store.open_shared`), and a selectors-based router
thread owns the serving defences: admission control with capped
retry-after hints, a circuit breaker over worker health, hot reload by
file-signature watching, and the same non-raising
:class:`~repro.serving.service.QueryResult` surface.

The router earns its throughput from *batching*, not just parallelism:
pair requests destined for the same shard are coalesced into one
``count_many`` round-trip, so the per-request cost amortises one IPC
hop and one vectorized kernel over the whole batch instead of paying a
python merge-join per query. Batching is group commit, not a timer: a
shard's pending pairs go out the moment one of its workers is idle (up
to ``max_batch``), and whatever arrives while every worker of the shard
is busy rides the next batch. Batches therefore stay small at light
load and grow with load on their own.

Sharding is routing, not partitioning — every worker maps the full
arena, and the :class:`~repro.serving.shards.ShardPlan` decides which
worker pool answers which vertex range. ``single_source`` scatters one
range slice per shard and concatenates; ``set_to_set`` scatters the
target side and merges the partial ``(delta, sigma)`` answers. Every
worker reply carries its reload generation, and a gather whose replies
straddle a generation swap is retried whole rather than ever mixing two
index versions in one response.

Hot reload is shard-by-shard: the router bumps a target generation when
the watcher sees a new file signature, then tells each worker to remap
only when that worker is idle and every lower-numbered shard has already
swapped — in-flight batches always complete on the arena they started
on, and a worker whose remap fails keeps serving its old (still-mapped)
inode rather than going dark.

The cluster *heals itself* rather than failing safe. The router is also
a supervisor: worker death is detected three ways (the process sentinel
fd in the selector, pipe EOF through a router-side incremental frame
decoder that treats torn frames as that worker's death, and
heartbeat/stall timeouts that SIGKILL wedged-but-alive processes), the
worker is respawned with bounded exponential backoff re-mapping the
arena at the current target generation, and only *its* in-flight keys
are replayed — other shards never stall. While a shard is down or
respawning its traffic is answered degraded-but-exact: idle peer
workers adopt the down shard (every worker maps the full arena), or —
when no worker is live at all and a ``graph`` was provided — a BFS
fallback thread answers from the logical graph via
:class:`~repro.resilience.ResilientSPCIndex`; either way the
:class:`~repro.serving.service.QueryResult` carries a
``degraded_shards`` annotation instead of an error. Tail robustness
comes from hedging: a sub-request that outlives its latency-derived
hedge delay is duplicated to a sibling replica and the first
generation-consistent answer wins, deduplicated on resolve. Planned
maintenance uses the same machinery: :meth:`ClusterService.drain` stops
admitting to one worker, flushes its in-flight batch, then swaps the
process — a rolling restart is just a drain per worker, and hot reload
is the in-place special case of the same wait-until-idle state machine.
"""

import asyncio
import collections
import multiprocessing
import os
import pickle
import selectors
import struct
import threading
import time
from concurrent.futures import Future, InvalidStateError

import numpy as np

from repro.exceptions import (
    CircuitOpenError,
    DeadlineExceeded,
    ReproError,
    SerializationError,
    ServiceOverloaded,
    VertexError,
)
from repro.io.flat_store import read_flat_meta
from repro.observability.events import get_event_log
from repro.observability.metrics import get_registry
from repro.query.ast import PAIR_OPS, Batch, Count, SetToSet, SingleSource
from repro.query.backends import normalize_pair, normalize_single_source
from repro.query.engine import QueryEngine
from repro.serving import protocol
from repro.serving.admission import DEFAULT_RETRY_AFTER_CAP, AdmissionQueue
from repro.serving.breaker import CircuitBreaker
from repro.serving.deadline import Deadline
from repro.serving.reload import IndexWatcher
from repro.serving.service import (
    CIRCUIT_OPEN,
    DEADLINE,
    ERROR,
    INVALID,
    SERVED_DEGRADED,
    SERVED_INDEX,
    SHED,
    QueryResult,
)
from repro.serving.shards import ShardPlan

INF = float("inf")

#: Worker lifecycle states as the router sees them.
STARTING = "starting"
IDLE = "idle"
BUSY = "busy"
RELOADING = "reloading"
STOPPED = "stopped"
DEAD = "dead"

#: Whole-gather retries allowed when replies straddle a generation swap.
GATHER_RETRY_LIMIT = 3

_ERR_STATUS = {
    protocol.ERR_DEADLINE: DEADLINE,
    protocol.ERR_VERTEX: INVALID,
    protocol.ERR_SERIALIZATION: ERROR,
    protocol.ERR_ERROR: ERROR,
}


def _err_exception(kind, message):
    """Rehydrate a worker's typed ERR reply into a library exception."""
    if kind == protocol.ERR_SERIALIZATION:
        return SerializationError(message)
    return ReproError(message)


def _deadline_error(deadline):
    """A :class:`DeadlineExceeded` carrying the request's real budget."""
    if deadline is None:  # pragma: no cover - defensive
        return DeadlineExceeded(0.0, 0.0)
    return DeadlineExceeded(deadline.budget, deadline.elapsed())


def _set_result(future, result):
    """Resolve a caller future, tolerating a lost terminal race.

    The wedged-router last resort in :meth:`ClusterService.close` can
    fail futures from the closing thread while the router is still
    finishing them; whoever loses that race must be a no-op, never an
    ``InvalidStateError`` escaping into the router loop.
    """
    try:
        future.set_result(result)
    except InvalidStateError:  # pragma: no cover - shutdown race
        pass


class _WorkerGone(Exception):
    """Internal: the worker behind a pipe can never speak again."""


class _FrameDecoder:
    """Incremental router-side decoder for Connection-framed pickles.

    The router must never trust a worker's framing: a process dying
    inside ``write(2)`` leaves a truncated length-prefixed frame on the
    pipe, and a blocking ``Connection.recv`` on that would wedge (or
    crash) the router itself. This decoder reads the raw (non-blocking)
    fd, buffers bytes, and yields only complete frames; a zero-byte
    read marks ``eof`` (worker death — any buffered partial frame is
    simply the torn write it died inside), and a frame that fails to
    unpickle raises :class:`_WorkerGone`, failing that worker only.

    Wire format matches CPython's ``multiprocessing.connection``: a
    4-byte big-endian signed length, with ``-1`` escaping to an 8-byte
    unsigned extended length, then the pickled payload.
    """

    __slots__ = ("fd", "eof", "_buf")

    def __init__(self, fd):
        self.fd = fd
        self.eof = False
        self._buf = bytearray()

    def pump(self):
        """Drain the fd; return complete decoded messages, set ``eof``.

        Raises :class:`_WorkerGone` on an undecodable frame. Messages
        decoded before an EOF are still returned — the caller processes
        them, then checks ``eof`` and runs the death path.
        """
        while not self.eof:
            try:
                chunk = os.read(self.fd, 1 << 16)
            except BlockingIOError:
                break
            except OSError as exc:
                raise _WorkerGone(f"pipe read failed: {exc}") from exc
            if not chunk:
                self.eof = True
                break
            self._buf += chunk
        messages = []
        while True:
            frame = self._next_frame()
            if frame is None:
                break
            try:
                messages.append(pickle.loads(frame))
            except Exception as exc:
                raise _WorkerGone(f"undecodable frame: {exc!r}") from exc
        return messages

    def _next_frame(self):
        buf = self._buf
        if len(buf) < 4:
            return None
        size, = struct.unpack("!i", bytes(buf[:4]))
        offset = 4
        if size == -1:
            if len(buf) < 12:
                return None
            size, = struct.unpack("!Q", bytes(buf[4:12]))
            offset = 12
        if size < 0:
            raise _WorkerGone(f"corrupt frame length {size}")
        if len(buf) < offset + size:
            return None
        frame = bytes(buf[offset:offset + size])
        del buf[:offset + size]
        return frame


class _Worker:
    """Router-side record of one worker slot and its current process.

    The slot (index, shard) is stable across the supervisor's respawns;
    ``process``/``conn``/``decoder`` are replaced on each incarnation.
    """

    __slots__ = ("index", "shard", "process", "conn", "conn_fd", "decoder",
                 "sentinel_fd", "generation", "state", "pinned",
                 "draining", "drain_respawn", "drain_futures",
                 "respawn_at", "backoff", "respawns", "died_at", "hello_at",
                 "spawned_at", "ping_sent_at", "last_seen",
                 "busy_since", "busy_budget", "gone")

    def __init__(self, index, shard, backoff):
        self.index = index
        self.shard = shard
        self.process = None
        self.conn = None
        self.conn_fd = None
        self.decoder = None
        self.sentinel_fd = None
        self.generation = 0
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
        """True while the worker's process is up and past HELLO."""
        return self.state in (IDLE, BUSY, RELOADING)


class _Flight:
    """One in-flight worker round-trip the router is waiting on.

    ``twin`` links the two legs of a hedged request (by batch id);
    ``cancelled`` marks the losing leg once the other resolved — its
    reply is discarded on arrival, so duplicates never double-resolve.
    ``home_shard`` is the shard the work *belongs* to (``None`` for
    pinned stats probes), which may differ from the serving worker's
    shard under peer adoption — ``degraded`` then carries the
    annotation for the terminal :class:`QueryResult`.
    """

    __slots__ = ("kind", "batch_id", "worker", "home_shard", "message",
                 "sent_at", "budget", "members", "job", "key",
                 "twin", "is_hedge", "cancelled", "degraded")

    def __init__(self, kind, batch_id, worker, home_shard, message, sent_at,
                 budget):
        self.kind = kind
        self.batch_id = batch_id
        self.worker = worker
        self.home_shard = home_shard
        self.message = message
        self.sent_at = sent_at
        self.budget = budget
        self.members = None
        self.job = None
        self.key = None
        self.twin = None
        self.is_hedge = False
        self.cancelled = False
        self.degraded = ()


class _PairRequest:
    """One ``submit`` request waiting to be coalesced into a shard batch."""

    __slots__ = ("s", "t", "deadline", "started", "future", "done")

    def __init__(self, s, t, deadline, started, future):
        self.s = s
        self.t = t
        self.deadline = deadline
        self.started = started
        self.future = future
        # Terminal guard: hedged twins and death-replays can hand the
        # same request to two finishers; only the first one counts.
        self.done = False


class _Job:
    """A scatter-gather job: sub-requests per shard, merged on completion."""

    requires_uniform = True
    admitted = True

    def __init__(self, future, deadline, started):
        self.future = future
        self.deadline = deadline
        self.started = started
        self.subs = {}
        self.replies = {}
        self.retries = 0
        self.done = False
        self.offloaded = False
        self.degraded = set()

    def keys(self):
        """Sub-request keys, each dispatched to one worker."""
        return list(self.subs)

    def register_reply(self, key, generation, payload):
        """Record one sub reply; classify the gather's next move.

        Returns ``"dup"`` (reply for a done/already-answered key — a
        hedged duplicate or a post-replay straggler, discarded),
        ``"pending"`` (more subs outstanding), ``"mixed"`` (all subs in
        but the generations straddle a reload swap — the caller must
        retry the whole scatter, never merge), or ``"complete"``.
        Answers from two index generations are never merged even when
        one of them arrived through a hedge.
        """
        if self.done or key in self.replies:
            return "dup"
        self.replies[key] = (generation, payload)
        if len(self.replies) < len(self.subs):
            return "pending"
        generations = {gen for gen, _ in self.replies.values()}
        if self.requires_uniform and len(generations) > 1:
            return "mixed"
        return "complete"

    def home_shards(self):
        """Shards this job's subs belong to (annotation for fallback)."""
        return sorted({self.shard_for(key) for key in self.subs}
                      - {None})

    def fallback(self, resilient):
        """Whole-job answer from the BFS fallback (override per type)."""
        raise ReproError("job has no degraded path")

    def resolve(self, status, answer, error, generation, elapsed,
                degraded=()):
        """Complete the caller-visible future with a terminal result."""
        _set_result(self.future, QueryResult(
            status, answer=answer, error=error, elapsed=elapsed,
            generation=generation, degraded_shards=degraded,
        ))


class _SingleSourceJob(_Job):
    """``single_source`` scattered as one contiguous range per shard."""

    def __init__(self, future, deadline, started, s, plan):
        super().__init__(future, deadline, started)
        self.s = s
        if plan.strategy == "range":
            for shard, (lo, hi) in enumerate(plan.ranges):
                if lo < hi:
                    self.subs[shard] = (lo, hi)
        else:
            # Hash shards own no contiguous id range: run the full sweep
            # on the source's home shard instead of scattering.
            self.subs[plan.shard_of(s)] = (0, plan.n)

    def shard_for(self, key):
        """The shard pool that must answer sub ``key``."""
        return key

    def message(self, key, batch_id, budget):
        """Wire message for sub ``key``."""
        lo, hi = self.subs[key]
        return (protocol.SINGLE_SOURCE, batch_id, self.s, lo, hi, budget)

    def merge(self, payloads):
        """Concatenate per-range slices back into full (dist, count)."""
        parts = [payloads[key] for key in sorted(payloads)]
        dist = np.concatenate([p[0] for p in parts])
        count = np.concatenate([p[1] for p in parts])
        return dist, count

    def fallback(self, resilient):
        """Whole-sweep BFS answer when no worker is live."""
        return resilient.single_source(self.s, deadline=self.deadline)


class _SetToSetJob(_Job):
    """``set_to_set`` scattered over the target side, min/sum merged."""

    def __init__(self, future, deadline, started, sources, buckets):
        super().__init__(future, deadline, started)
        self.sources = sources
        self.all_targets = [t for bucket in buckets for t in bucket]
        for shard, targets in enumerate(buckets):
            if targets:
                self.subs[shard] = targets

    def shard_for(self, key):
        """The shard pool that must answer sub ``key``."""
        return key

    def message(self, key, batch_id, budget):
        """Wire message for sub ``key``."""
        return (protocol.SET_TO_SET, batch_id, self.sources, self.subs[key],
                budget)

    def merge(self, payloads):
        """Global minimum distance; counts summed at that minimum."""
        best = min(payloads[key][0] for key in payloads)
        if best == INF:
            return INF, 0
        sigma = sum(payloads[key][1] for key in payloads
                    if payloads[key][0] == best)
        return best, sigma

    def fallback(self, resilient):
        """Whole-set BFS answer when no worker is live."""
        return resilient.set_to_set(self.sources, self.all_targets,
                                    deadline=self.deadline)


class _PairBatchJob(_Job):
    """A caller-supplied pair batch scattered by source shard.

    The bulk twin of the router's own coalescing: the caller hands over
    the whole batch up front, so admission, the future, and the inbox
    hop are paid once per batch instead of once per pair. Each shard
    gets one ``PAIRS`` sub covering its slice; ``merge`` reassembles the
    per-shard answers into caller order.
    """

    def __init__(self, future, deadline, started, sources, targets, plan):
        super().__init__(future, deadline, started)
        self.size = len(sources)
        self.sources = sources
        self.targets = targets
        self._positions = {}
        owners = plan.shard_of_many(sources)
        for shard in range(plan.shards):
            pos = np.nonzero(owners == shard)[0]
            if pos.size:
                self.subs[shard] = (sources[pos].tolist(),
                                    targets[pos].tolist())
                self._positions[shard] = pos.tolist()

    def shard_for(self, key):
        """The shard pool that must answer sub ``key``."""
        return key

    def message(self, key, batch_id, budget):
        """Wire message for sub ``key``."""
        sources, targets = self.subs[key]
        return (protocol.PAIRS, batch_id, sources, targets, budget)

    def merge(self, payloads):
        """Scatter per-shard answers back to the caller's pair order."""
        out = [None] * self.size
        for key, answers in payloads.items():
            for pos, answer in zip(self._positions[key], answers):
                out[pos] = answer
        return out

    def fallback(self, resilient):
        """Whole-batch BFS answers (caller order) when no worker is live."""
        pairs = list(zip(self.sources.tolist(), self.targets.tolist()))
        return resilient.count_many(pairs, deadline=self.deadline)


class _StatsJob(_Job):
    """Memory/identity probe fanned out to every live worker."""

    requires_uniform = False
    admitted = False

    def __init__(self, future, worker_indexes):
        super().__init__(future, None, 0.0)
        for index in worker_indexes:
            self.subs[index] = index

    def shard_for(self, key):
        """Stats subs are pinned to a worker, not a shard."""
        return None

    def message(self, key, batch_id, budget):
        """Wire message for sub ``key``."""
        return (protocol.STATS, batch_id)

    def merge(self, payloads):
        """Worker payload dicts, ordered by worker index."""
        return [payloads[key] for key in sorted(payloads)]

    def resolve(self, status, answer, error, generation, elapsed,
                degraded=()):
        """Stats callers get the raw payload list, or the typed error."""
        if status == SERVED_INDEX:
            _set_result(self.future, answer)
        else:
            try:
                self.future.set_exception(
                    error if error is not None else ReproError(status))
            except InvalidStateError:  # pragma: no cover - shutdown race
                pass


class _MetricHandles:
    """Hot-path metric instruments, resolved once at construction.

    Registry lookups build a label key and take a lock per call; at
    cluster throughput (tens of thousands of requests per second on one
    core) those few microseconds per request are real capacity. The
    request path therefore touches pre-resolved handles only. Rare
    paths (reload, worker death) still look instruments up lazily, so
    they keep working even if the registry is swapped mid-flight.
    """

    __slots__ = ("requests", "outcomes", "seconds", "inflight",
                 "batch_size", "batches", "batch_seconds")

    def __init__(self, registry, shards):
        self.requests = registry.counter("spc_cluster_requests_total")
        self.outcomes = {
            status: registry.counter("spc_cluster_request_outcomes_total",
                                     status=status)
            for status in (SERVED_INDEX, SERVED_DEGRADED, SHED, CIRCUIT_OPEN,
                           DEADLINE, INVALID, ERROR)
        }
        self.seconds = registry.histogram("spc_cluster_request_seconds")
        self.inflight = registry.gauge("spc_cluster_inflight_requests")
        self.batch_size = registry.histogram(
            "spc_cluster_batch_size",
            buckets=(1, 2, 4, 8, 16, 32, 64, 128, 256))
        self.batches = [
            registry.counter("spc_cluster_batches_total", shard=str(shard))
            for shard in range(shards)
        ]
        self.batch_seconds = [
            registry.histogram("spc_cluster_batch_seconds", shard=str(shard))
            for shard in range(shards)
        ]


class _DegradedExecutor(threading.Thread):
    """BFS-fallback worker thread for shards with no live process.

    The router hands it stranded work (whole jobs, or one shard's pair
    batch); it executes against the cluster's
    :class:`~repro.resilience.ResilientSPCIndex` and posts the outcome
    back through the router inbox, so terminal resolution stays
    single-threaded in the router. Answers are exact (online BFS on the
    logical graph) but carry ``SERVED_DEGRADED`` and the
    ``degraded_shards`` annotation.
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
                outcome = [self._one(lambda r=request: (
                    self._service._fallback.count_with_distance(
                        r.s, r.t, deadline=r.deadline)))
                    for request in item[2]]
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
        except DeadlineExceeded as exc:
            return (DEADLINE, None, exc)
        except VertexError as exc:
            return (INVALID, None, exc)
        except ReproError as exc:
            return (ERROR, None, exc)


class ClusterService:
    """Multiprocess scatter-gather serving tier over one shared arena.

    Parameters
    ----------
    index_path:
        SPCF v4 index file, as written by
        :func:`~repro.io.serialize.save_index`, ``repro-spc build`` or a
        :class:`~repro.dynamic.maintenance.MaintenanceController` publish.
    workers / shards / strategy:
        Worker-process count, shard count (``workers >= shards``; each
        shard gets ``workers // shards`` processes, remainder spread
        round-robin) and the :class:`~repro.serving.shards.ShardPlan`
        strategy (``"range"`` or ``"hash"``).
    max_batch:
        Largest pair batch the router sends in one round-trip. A shard's
        pending pairs are flushed as soon as one of its workers is idle;
        pairs that arrive while every worker is busy queue up and ride
        the next batch, so batch size follows load up to this cap.
    capacity / queue_limit / retry_after_cap:
        Admission control (see
        :class:`~repro.serving.admission.AdmissionQueue`); the router
        admits up to ``capacity + queue_limit`` outstanding requests and
        sheds the rest with a capped retry-after hint.
    default_deadline:
        Per-request budget in seconds when the caller gives none.
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
    start_timeout:
        Seconds to wait for every worker's HELLO before giving up (also
        the stall allowance for a respawning worker's HELLO).
    clock:
        Monotonic clock, injectable for deterministic tests.
    graph:
        Optional logical :class:`~repro.graph.graph.Graph` behind the
        arena. When given, a BFS fallback
        (:class:`~repro.resilience.ResilientSPCIndex`) answers exactly
        for shards that have *no* live worker — results come back
        ``SERVED_DEGRADED`` with a ``degraded_shards`` annotation
        instead of failing. Without it, stranded work waits for the
        respawn (or fails when none is coming).
    fallback_engine:
        BFS engine for the fallback oracle (``"csr"`` default).
    peer_degraded:
        When True (default), idle workers of healthy shards adopt the
        queued work of a down/respawning shard — exact answers from the
        same arena, annotated with the degraded home shard.
    respawn / respawn_backoff / respawn_backoff_max:
        Supervision: a dead worker is respawned after ``respawn_backoff``
        seconds, doubling per consecutive failure up to
        ``respawn_backoff_max``; a worker that served longer than
        ``respawn_backoff_max`` resets its backoff. ``respawn=False``
        restores the old fail-fast behaviour (death permanently removes
        the worker).
    heartbeat_interval / stall_timeout:
        Idle workers are pinged every ``heartbeat_interval`` seconds
        (0 disables); a missed pong, or a deadline-carrying batch
        overrunning its budget by ``stall_timeout``, declares the worker
        stalled: it is SIGKILLed and respawned. Batches with no deadline
        are exempt from stall kills (a long exact scan is not a stall).
    hedge_delay / hedge_multiplier / hedge_floor:
        Tail hedging. ``"auto"`` (default) duplicates a sub-request to
        an idle sibling once it has waited ``hedge_multiplier`` × the
        shard's observed p95 latency (at least ``hedge_floor`` seconds,
        needs 16 samples); a float pins the delay; ``None`` disables.
        The first generation-consistent answer wins, the loser is
        discarded on arrival — hedges never double-resolve and never
        let two index generations into one gather.
    """

    def __init__(self, index_path, *, workers=2, shards=1, strategy="range",
                 max_batch=64, capacity=64,
                 queue_limit=256, retry_after_cap=DEFAULT_RETRY_AFTER_CAP,
                 default_deadline=None, breaker=None, failure_threshold=5,
                 reset_timeout=1.0, reload_check_every=64, verify=True,
                 start_timeout=60.0, clock=time.monotonic,
                 graph=None, fallback_engine="csr", peer_degraded=True,
                 respawn=True, respawn_backoff=0.05, respawn_backoff_max=2.0,
                 heartbeat_interval=0.5, stall_timeout=2.0,
                 hedge_delay="auto", hedge_multiplier=4.0, hedge_floor=0.01,
                 _fault=None):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if shards < 1 or shards > workers:
            raise ValueError(
                f"shards must be in [1, workers], got {shards} "
                f"(workers={workers})")
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if default_deadline is not None and default_deadline <= 0:
            raise ValueError("default_deadline must be positive or None")
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
        self.plan = ShardPlan(meta.n, shards, strategy=strategy)
        self.max_batch = max_batch
        self.default_deadline = default_deadline
        self._clock = clock
        self._admission = AdmissionQueue(capacity, queue_limit,
                                         retry_after_cap=retry_after_cap,
                                         clock=clock)
        if breaker is None:
            breaker = CircuitBreaker(failure_threshold=failure_threshold,
                                     reset_timeout=reset_timeout, clock=clock)
        self.breaker = breaker
        self._watcher = IndexWatcher(self.index_path)
        self._reload_check_every = reload_check_every
        self._target_generation = 0
        self._closing = False
        self._closed = False
        self._stats_lock = threading.Lock()
        self.counters = {
            "requests": 0, "batches": 0, "gather_retries": 0,
            SERVED_INDEX: 0, SERVED_DEGRADED: 0, SHED: 0, CIRCUIT_OPEN: 0,
            DEADLINE: 0, INVALID: 0, ERROR: 0, "reloads": 0,
            "reload_failures": 0, "worker_failures": 0, "respawns": 0,
            "stalls": 0, "hedges": 0, "hedge_wins": 0,
            "degraded_requests": 0, "drains": 0, "replays": 0,
        }
        registry = get_registry()
        self._metrics = (_MetricHandles(registry, self.plan.shards)
                         if registry.enabled else None)
        self._asleep = False
        self._inbox = collections.deque()
        self._pending = [collections.deque() for _ in range(self.plan.shards)]
        self._subs = [collections.deque() for _ in range(self.plan.shards)]
        self._inflight = {}
        self._next_batch_id = 0
        self._start_error = None
        self._failed = False
        self._ready = threading.Event()
        self._verify = verify
        self._fault = _fault
        self._start_timeout = start_timeout
        self._respawn = respawn
        self._respawn_backoff = respawn_backoff
        self._respawn_backoff_max = respawn_backoff_max
        self._heartbeat_interval = heartbeat_interval
        self._stall_timeout = stall_timeout
        self._hedge_delay = hedge_delay
        self._hedge_multiplier = hedge_multiplier
        self._hedge_floor = hedge_floor
        self._peer_degraded = peer_degraded
        self._latency = [collections.deque(maxlen=64)
                         for _ in range(self.plan.shards)]
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
                                               bfs_engine=fallback_engine)
            self._executor = _DegradedExecutor(self)
            self._executor.start()
        self._selector = selectors.DefaultSelector()
        self._wake_r, self._wake_w = os.pipe()
        os.set_blocking(self._wake_w, False)
        self._selector.register(self._wake_r, selectors.EVENT_READ, None)
        self._workers = []
        for index in range(workers):
            worker = _Worker(index, index % self.plan.shards, respawn_backoff)
            self._workers.append(worker)
            self._spawn_process(worker, 0)
        registry = get_registry()
        if registry.enabled:
            for shard in range(self.plan.shards):
                registry.gauge("spc_cluster_workers", shard=str(shard)).set(
                    sum(1 for w in self._workers if w.shard == shard))
        self._router = threading.Thread(target=self._run,
                                        name="spc-cluster-router",
                                        daemon=True)
        self._router.start()
        if not self._ready.wait(start_timeout):
            self.close()
            raise SerializationError(
                f"cluster workers did not come up within {start_timeout}s")
        if self._start_error is not None:
            error = self._start_error
            self.close()
            raise SerializationError(f"cluster worker failed to start: "
                                     f"{error}")

    @staticmethod
    def _mp_context():
        """Fork context when available (cheap, inherits nothing mutable
        the worker uses); the platform default otherwise."""
        try:
            return multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX platforms
            return multiprocessing.get_context()

    def _spawn_process(self, worker, generation):
        """Fork a fresh process behind ``worker`` and wire it into the
        selector. Reusable by the supervisor: respawns after a death and
        replacements after a drain both come through here."""
        ctx = self._mp_context()
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        process = ctx.Process(
            target=worker_entry,
            args=(child_conn, self.index_path, generation, self._verify,
                  self._fault),
            name=f"spc-cluster-worker-{worker.index}", daemon=True,
        )
        process.start()
        child_conn.close()
        fd = parent_conn.fileno()
        os.set_blocking(fd, False)
        worker.process = process
        worker.conn = parent_conn
        worker.conn_fd = fd
        worker.decoder = _FrameDecoder(fd)
        worker.sentinel_fd = process.sentinel
        worker.generation = generation
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
        """
        started = self._clock()
        future = Future()
        self._bump("requests")
        metrics = self._metrics
        if metrics is not None:
            metrics.requests.inc()
        if self._closed or self._closing or self._failed:
            return self._reject(future, started, ERROR,
                                ReproError("cluster is closed"))
        try:
            s = int(s)
            t = int(t)
            if not (0 <= s < self.n):
                raise VertexError(s, self.n)
            if not (0 <= t < self.n):
                raise VertexError(t, self.n)
        except (TypeError, ValueError):
            return self._reject(future, started, INVALID,
                                ReproError(f"bad vertex pair ({s!r}, {t!r})"))
        except VertexError as exc:
            return self._reject(future, started, INVALID, exc)
        deadline = self._deadline(timeout)
        try:
            self.breaker.before_call()
        except CircuitOpenError as exc:
            return self._reject(future, started, CIRCUIT_OPEN, exc)
        try:
            ordinal = self._admission.offer()
        except ServiceOverloaded as exc:
            return self._reject(future, started, SHED, exc)
        self._observe_admission()
        request = _PairRequest(s, t, deadline, started, future)
        self._inbox.append(("pair", request))
        self._wake()
        if (self._reload_check_every
                and ordinal % self._reload_check_every == 0):
            self.check_reload()
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
        would dominate the (vectorized) kernel cost. The whole batch
        shares one terminal status: an invalid vertex, expired deadline,
        or shed rejects all of it, and scatter-gather across shards
        never merges replies from different index generations.
        """
        pairs = list(pairs)
        if not pairs:
            started = self._clock()
            self._bump("requests")
            future = Future()
            self._bump(SERVED_INDEX)
            future.set_result(QueryResult(
                SERVED_INDEX, answer=[], elapsed=self._clock() - started,
                generation=self.generation))
            return future
        try:
            sources = np.fromiter((p[0] for p in pairs), dtype=np.int64,
                                  count=len(pairs))
            targets = np.fromiter((p[1] for p in pairs), dtype=np.int64,
                                  count=len(pairs))
        except (TypeError, ValueError):
            future = Future()
            self._bump("requests")
            return self._reject(future, self._clock(), INVALID,
                                ReproError("pairs must be (int, int) tuples"))
        bad = None
        if int(sources.min()) < 0 or int(sources.max()) >= self.n:
            bad = sources
        elif int(targets.min()) < 0 or int(targets.max()) >= self.n:
            bad = targets
        if bad is not None:
            offender = int(bad[(bad < 0) | (bad >= self.n)][0])
            future = Future()
            self._bump("requests")
            return self._reject(future, self._clock(), INVALID,
                                VertexError(offender, self.n))
        return self._submit_job(
            lambda future, deadline, started: _PairBatchJob(
                future, deadline, started, sources, targets, self.plan),
            validate=(), timeout=timeout)

    def submit_many(self, pairs, timeout=None):
        """Blocking :meth:`submit_many_nowait`: always a terminal result."""
        return self.submit_many_nowait(pairs, timeout=timeout).result()

    def single_source(self, s, timeout=None):
        """Scatter-gather ``(dist, count)`` arrays from ``s``.

        Range plans scatter one contiguous slice per shard and
        concatenate; hash plans run the full sweep on the source's home
        shard. Returns a :class:`QueryResult` whose ``answer`` is the
        ``(dist, count)`` array pair.
        """
        return self._submit_job(
            lambda future, deadline, started: _SingleSourceJob(
                future, deadline, started, int(s), self.plan),
            validate=[s], timeout=timeout).result()

    def set_to_set(self, sources, targets, timeout=None):
        """Scatter-gather ``(sd(S, T), spc(S, T))`` over target shards."""
        sources = [int(v) for v in sources]
        targets = [int(v) for v in targets]
        if not sources or not targets:
            result = QueryResult(SERVED_INDEX, answer=(INF, 0),
                                 generation=self.generation)
            self._bump(SERVED_INDEX)
            future = Future()
            future.set_result(result)
            return future.result()
        buckets = self.plan.split_targets(targets)
        return self._submit_job(
            lambda future, deadline, started: _SetToSetJob(
                future, deadline, started, sources, buckets),
            validate=sources + targets, timeout=timeout).result()

    def submit_query(self, node, timeout=None):
        """Run a compiled query AST node against the cluster.

        Operators the cluster serves natively map straight onto the
        scatter-gather entry points — :class:`~repro.query.ast.Count` is
        :meth:`submit`, a :class:`~repro.query.ast.Batch` of pair
        operators is one :meth:`submit_many` round-trip, single-source
        and set-to-set queries keep their sharded gathers. Everything
        else (relevance, top-k betweenness, mixed batches) compiles
        through a :class:`~repro.query.engine.QueryEngine` whose backend
        issues cluster requests, so composite answers inherit the
        cluster's shedding/deadline/breaker behaviour per sub-request.
        Answers are normalised to the query layer's value conventions.
        """
        deadline = self._deadline(timeout)
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
        except ServiceOverloaded as exc:
            result = QueryResult(SHED, error=exc)
        except CircuitOpenError as exc:
            result = QueryResult(CIRCUIT_OPEN, error=exc)
        except DeadlineExceeded as exc:
            result = QueryResult(DEADLINE, error=exc)
        except VertexError as exc:
            result = QueryResult(INVALID, error=exc)
        except ReproError as exc:
            result = QueryResult(ERROR, error=exc)
        else:
            status = SERVED_DEGRADED if adapter.degraded else SERVED_INDEX
            result = QueryResult(status, answer=answer,
                                 degraded_shards=adapter.degraded_shards)
        result.elapsed = self._clock() - started
        result.generation = self.generation
        return result

    def _submit_job(self, factory, validate, timeout):
        """Common admission/validation path for scatter-gather jobs.

        Returns the future; blocking entry points call ``.result()`` on
        it, :meth:`submit_many_nowait` hands it straight to the caller.
        """
        started = self._clock()
        future = Future()
        self._bump("requests")
        metrics = self._metrics
        if metrics is not None:
            metrics.requests.inc()
        if self._closed or self._closing or self._failed:
            return self._reject(future, started, ERROR,
                                ReproError("cluster is closed"))
        for v in validate:
            v = int(v)
            if not (0 <= v < self.n):
                return self._reject(future, started, INVALID,
                                    VertexError(v, self.n))
        deadline = self._deadline(timeout)
        try:
            self.breaker.before_call()
        except CircuitOpenError as exc:
            return self._reject(future, started, CIRCUIT_OPEN, exc)
        try:
            self._admission.offer()
        except ServiceOverloaded as exc:
            return self._reject(future, started, SHED, exc)
        self._observe_admission()
        job = factory(future, deadline, started)
        self._inbox.append(("job", job))
        self._wake()
        return future

    def _deadline(self, timeout):
        """Normalise a caller timeout against the service default."""
        if timeout is None:
            timeout = self.default_deadline
        return Deadline.of(timeout, clock=self._clock)

    def _reject(self, future, started, status, error):
        """Resolve a request terminally before it reaches the router."""
        self._bump(status)
        metrics = self._metrics
        if metrics is not None:
            metrics.outcomes[status].inc()
        future.set_result(QueryResult(status, error=error,
                                      elapsed=self._clock() - started,
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
        """Force a rolling, shard-by-shard remap of every worker."""
        self._inbox.append(("reload", None))
        self._wake()

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
        with self._stats_lock:
            counters = dict(self.counters)
        return {
            "counters": counters,
            "generation": self.generation,
            "target_generation": self._target_generation,
            "shards": self.plan.shards,
            "strategy": self.plan.strategy,
            "ema_latency": self._admission.ema_latency,
            "admission": self._admission.snapshot(),
            "breaker": self.breaker.snapshot(),
            "workers": [
                {"index": w.index, "shard": w.shard, "state": w.state,
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
        sharing evidence, arena signature). Raises on a closed cluster."""
        if self._closed or self._closing or self._failed:
            raise ReproError("cluster is closed")
        live = [w.index for w in self._workers if w.live]
        if not live:
            raise ReproError("no live workers")
        future = Future()
        job = _StatsJob(future, live)
        self._inbox.append(("job", job))
        self._wake()
        return future.result(timeout=timeout)

    def _bump(self, key):
        with self._stats_lock:
            self.counters[key] = self.counters.get(key, 0) + 1

    def _observe_admission(self):
        metrics = self._metrics
        if metrics is not None:
            metrics.inflight.set(self._admission.in_flight)

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
                f"shards={self.plan.shards}, generation={self.generation})")

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
                self._maybe_hedge(self._clock())
                if self._closing and self._quiescent():
                    break
                timer = self._health_timer(self._clock())
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
            if kind == "pair":
                self._pending[self.plan.shard_of(payload.s)].append(payload)
            elif kind == "job":
                for key in payload.keys():
                    shard = payload.shard_for(key)
                    if shard is None:
                        self._workers[key].pinned.append((payload, key))
                    else:
                        self._subs[shard].append((payload, key))
            elif kind == "reload":
                self._target_generation += 1
            elif kind == "drain":
                self._on_drain_request(*payload)
            elif kind == "degraded_done":
                self._on_degraded_done(*payload)
            elif kind == "close":
                self._closing = True

    def _quiescent(self):
        if self._inflight or self._inbox or self._fallback_inflight:
            return False
        if any(self._pending) or any(self._subs):
            return False
        if any(w.state == RELOADING for w in self._workers):
            return False
        return all(not w.pinned for w in self._workers)

    def _shard_can_reload(self, shard):
        """Shard-by-shard ordering: lower shards must finish swapping."""
        for worker in self._workers:
            if (worker.live and worker.shard < shard
                    and worker.generation < self._target_generation):
                return False
        return True

    def _dispatch(self):
        now = self._clock()
        for worker in self._workers:
            if worker.state != IDLE:
                continue
            if worker.draining:
                self._complete_drain(worker)
                continue
            if (worker.generation < self._target_generation
                    and not worker.pinned
                    and self._shard_can_reload(worker.shard)):
                if self._send(worker, (protocol.RELOAD,
                                       self._target_generation)):
                    worker.state = RELOADING
                    worker.busy_since = now
                continue
            if worker.pinned:
                job, key = worker.pinned.popleft()
                self._dispatch_sub(worker, job, key)
                continue
            shard = worker.shard
            if self._subs[shard]:
                job, key = self._subs[shard].popleft()
                self._dispatch_sub(worker, job, key)
                continue
            if self._pending[shard]:
                self._dispatch_pairs(worker, shard)
        if self._peer_degraded:
            self._dispatch_peers()
        self._route_stranded()

    def _dispatch_peers(self):
        """Idle workers adopt the queued work of shards with no serving
        worker. Every worker maps the full arena (sharding here is
        routing, not partitioning), so a peer's answer is exact; it is
        annotated with the degraded home shard so callers can see the
        cluster was running thin."""
        for worker in self._workers:
            if worker.state != IDLE or worker.draining:
                continue
            if worker.generation < self._target_generation:
                # Mid-reload stragglers don't poach: their answers could
                # drag a stale generation into another shard's gather.
                continue
            for shard in self.plan.peer_order(worker.shard):
                if self._shard_serving(shard):
                    continue
                if self._subs[shard]:
                    job, key = self._subs[shard].popleft()
                    self._dispatch_sub(worker, job, key)
                    break
                if self._pending[shard]:
                    self._dispatch_pairs(worker, shard)
                    break

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

    def _dispatch_pairs(self, worker, shard):
        pending = self._pending[shard]
        members = []
        budget = None
        unlimited = False
        while pending and len(members) < self.max_batch:
            request = pending.popleft()
            if request.done:
                continue
            if request.deadline is not None:
                remaining = request.deadline.remaining()
                if remaining <= 0:
                    self._finish_pair(request, DEADLINE,
                                      error=_deadline_error(request.deadline))
                    continue
                budget = remaining if budget is None else max(budget,
                                                              remaining)
            else:
                unlimited = True
            members.append(request)
        if not members:
            return
        batch_id = self._next_id()
        message = (protocol.PAIRS, batch_id,
                   [r.s for r in members], [r.t for r in members],
                   None if unlimited else budget)
        if not self._send(worker, message):
            for request in reversed(members):
                pending.appendleft(request)
            return
        now = self._clock()
        flight = _Flight("pairs", batch_id, worker, shard, message, now,
                         None if unlimited else budget)
        flight.members = members
        if worker.shard != shard:
            flight.degraded = (shard,)
            self._note_degraded(shard, len(members))
        worker.state = BUSY
        worker.busy_since = now
        worker.busy_budget = flight.budget
        self._inflight[batch_id] = flight
        metrics = self._metrics
        if metrics is not None:
            metrics.batch_size.observe(len(members))

    def _dispatch_sub(self, worker, job, key):
        if job.done or job.offloaded:
            return
        budget = None
        if job.deadline is not None:
            budget = job.deadline.remaining()
            if budget <= 0:
                self._finish_job(job, DEADLINE,
                                 error=_deadline_error(job.deadline))
                return
        batch_id = self._next_id()
        shard = job.shard_for(key)
        message = job.message(key, batch_id, budget)
        if not self._send(worker, message):
            if shard is not None:
                self._subs[shard].append((job, key))
            else:
                self._finish_job(job, ERROR,
                                 error=ReproError("worker died"))
            return
        now = self._clock()
        flight = _Flight("sub", batch_id, worker, shard
                         if shard is not None else worker.shard,
                         message, now, budget)
        flight.job = job
        flight.key = key
        if shard is not None and worker.shard != shard:
            flight.degraded = (shard,)
            self._note_degraded(shard)
        worker.state = BUSY
        worker.busy_since = now
        worker.busy_budget = budget
        self._inflight[batch_id] = flight

    def _shard_serving(self, shard):
        """A shard is serving while some non-draining worker of its pool
        can still take (or is taking) work. A STARTING respawn does not
        count — its queue must not wait on an arena map."""
        return any(w.shard == shard and w.serving and not w.draining
                   for w in self._workers)

    def _route_stranded(self):
        """Decide the fate of queued work on non-serving shards.

        The ladder, in order: wait for an in-progress respawn/start;
        wait for a peer to poach (exact answers, just annotated); hand
        the whole backlog to the BFS fallback executor (exact answers,
        ``SERVED_DEGRADED``); fail. Only the last rung loses work, and
        it is only reached when nothing can ever answer again.
        """
        for shard in range(self.plan.shards):
            if not self._pending[shard] and not self._subs[shard]:
                continue
            if self._shard_serving(shard):
                continue
            own = [w for w in self._workers if w.shard == shard]
            if not self._closing:
                if any(w.live and (not w.draining or w.drain_respawn)
                       for w in own):
                    continue  # a STARTING/replacement incarnation is coming
                if any(w.respawn_at is not None for w in own):
                    continue  # supervisor has a respawn scheduled
                if self._peer_degraded and any(
                        w.serving and not w.draining for w in self._workers):
                    continue  # a healthy peer will poach this queue
            if self._fallback is not None:
                self._offload_shard(shard)
                continue
            error = ReproError(f"no live workers for shard {shard}")
            while self._pending[shard]:
                self._finish_pair(self._pending[shard].popleft(), ERROR,
                                  error=error)
            while self._subs[shard]:
                job, _ = self._subs[shard].popleft()
                self._finish_job(job, ERROR, error=error)

    def _offload_shard(self, shard):
        """Move a dead shard's backlog onto the BFS fallback thread."""
        members = []
        while self._pending[shard]:
            request = self._pending[shard].popleft()
            if not request.done:
                members.append(request)
        if members:
            self._fallback_inflight += 1
            self._note_degraded(shard, len(members))
            self._executor.submit(("pairs", shard, members))
        while self._subs[shard]:
            job, _ = self._subs[shard].popleft()
            self._offload_job(job)

    def _offload_job(self, job):
        """Send a whole scatter-gather job down the BFS path.

        All-or-nothing: the job's queued subs are pulled from every
        shard queue and any in-flight subs are ignored on arrival, so a
        BFS answer is never merged with arena replies in one gather.
        """
        if job.done or job.offloaded:
            return
        job.offloaded = True
        for shard in range(self.plan.shards):
            if self._subs[shard]:
                self._subs[shard] = collections.deque(
                    (j, k) for j, k in self._subs[shard] if j is not job)
        for worker in self._workers:
            if worker.pinned:
                worker.pinned = collections.deque(
                    (j, k) for j, k in worker.pinned if j is not job)
        self._fallback_inflight += 1
        for shard in job.home_shards():
            job.degraded.add(shard)
        self._executor.submit(("job", job))

    def _note_degraded(self, shard, count=1):
        with self._stats_lock:
            self.counters["degraded_requests"] += count
        registry = get_registry()
        if registry.enabled:
            registry.counter("spc_cluster_degraded_requests_total",
                             shard=str(shard)).inc(count)

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
                self._bump("hedge_wins")
                registry = get_registry()
                if registry.enabled:
                    registry.counter("spc_cluster_hedge_wins_total").inc()
        if message[0] == protocol.OK:
            self._latency[flight.home_shard].append(
                self._clock() - flight.sent_at)
        if flight.job is not None and flight.job.offloaded:
            # The whole job went down the BFS path; arena replies for it
            # are ignored so generations never mix in one gather.
            return
        if flight.kind == "pairs":
            self._on_pairs_reply(worker, flight, message)
        else:
            self._on_sub_reply(worker, flight, message)

    def _on_hello(self, worker, message):
        now = self._clock()
        worker.generation = message[1]
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
            registry = get_registry()
            if registry.enabled:
                shard = str(worker.shard)
                registry.gauge("spc_cluster_workers", shard=shard).set(
                    sum(1 for w in self._workers
                        if w.live and w.shard == worker.shard))
                if worker.died_at is not None:
                    registry.histogram("spc_cluster_respawn_seconds").observe(
                        now - worker.died_at)
            get_event_log().emit("cluster_worker_up", worker=worker.index,
                                 shard=worker.shard,
                                 generation=worker.generation,
                                 respawns=worker.respawns)
        worker.died_at = None
        self._resolve_drains(worker, True)

    def _on_pairs_reply(self, worker, flight, message):
        members = flight.members
        self._bump("batches")
        metrics = self._metrics
        if metrics is not None:
            metrics.batches[worker.shard].inc()
            metrics.batch_seconds[worker.shard].observe(
                self._clock() - flight.sent_at)
        if message[0] == protocol.ERR:
            kind, detail = message[2], message[3]
            status = _ERR_STATUS.get(kind, ERROR)
            if status == ERROR:
                self.breaker.record_failure()
            for request in members:
                error = (_deadline_error(request.deadline)
                         if kind == protocol.ERR_DEADLINE
                         else _err_exception(kind, detail))
                self._finish_pair(request, status, error=error)
            return
        self.breaker.record_success()
        generation = message[2]
        answers = message[3]
        for request, answer in zip(members, answers):
            if (request.deadline is not None
                    and request.deadline.remaining() <= 0):
                self._finish_pair(request, DEADLINE,
                                  error=_deadline_error(request.deadline))
            else:
                self._finish_pair(request, SERVED_INDEX, answer=answer,
                                  generation=generation,
                                  degraded=flight.degraded)

    def _on_sub_error(self, job, kind, detail):
        status = _ERR_STATUS.get(kind, ERROR)
        if status == ERROR:
            self.breaker.record_failure()
        error = (_deadline_error(job.deadline)
                 if kind == protocol.ERR_DEADLINE
                 else _err_exception(kind, detail))
        self._finish_job(job, status, error=error)

    def _on_sub_reply(self, worker, flight, message):
        job, key = flight.job, flight.key
        if isinstance(job, _PairBatchJob):
            # A bulk sub is one coalesced worker round-trip, same as a
            # router-built pair batch — account it under the same
            # counters so the batching instruments cover both doors.
            self._bump("batches")
            metrics = self._metrics
            if metrics is not None:
                metrics.batches[worker.shard].inc()
                metrics.batch_seconds[worker.shard].observe(
                    self._clock() - flight.sent_at)
                metrics.batch_size.observe(len(job.subs[key][0]))
        if message[0] == protocol.ERR:
            self._on_sub_error(job, message[2], message[3])
            return
        self.breaker.record_success()
        if flight.degraded:
            for shard in flight.degraded:
                job.degraded.add(shard)
        outcome = job.register_reply(key, message[2], message[3])
        if outcome in ("dup", "pending"):
            return
        if outcome == "mixed":
            # A rolling swap landed mid-gather: never merge two index
            # generations into one answer — retry the whole scatter.
            generations = {gen for gen, _ in job.replies.values()}
            self._bump("gather_retries")
            registry = get_registry()
            if registry.enabled:
                registry.counter("spc_cluster_gather_retries_total").inc()
            if job.retries >= GATHER_RETRY_LIMIT:
                self._finish_job(job, ERROR, error=ReproError(
                    f"gather saw mixed generations {sorted(generations)} "
                    f"after {job.retries} retries"))
                return
            job.retries += 1
            job.replies.clear()
            job.degraded.clear()
            for sub_key in job.keys():
                shard = job.shard_for(sub_key)
                if shard is None:
                    self._workers[sub_key].pinned.append((job, sub_key))
                else:
                    self._subs[shard].append((job, sub_key))
            return
        generations = {gen for gen, _ in job.replies.values()}
        payloads = {k: payload for k, (_, payload) in job.replies.items()}
        answer = job.merge(payloads)
        self._finish_job(job, SERVED_INDEX, answer=answer,
                         generation=min(generations))

    def _on_reloaded(self, worker, message):
        generation, ok, detail = message[1], message[2], message[3]
        worker.state = IDLE
        worker.busy_since = None
        registry = get_registry()
        if ok:
            worker.generation = generation
            self._bump("reloads")
            if registry.enabled:
                registry.counter("spc_cluster_reloads_total",
                                 outcome="success").inc()
                registry.gauge("spc_cluster_generation").set(self.generation)
            get_event_log().emit("cluster_worker_reloaded",
                                 worker=worker.index, shard=worker.shard,
                                 generation=generation)
        else:
            self._bump("reload_failures")
            if registry.enabled:
                registry.counter("spc_cluster_reloads_total",
                                 outcome="failure").inc()
            get_event_log().emit("cluster_reload_failed",
                                 worker=worker.index, shard=worker.shard,
                                 detail=str(detail))

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
        self._bump("worker_failures")
        self.breaker.record_failure()
        registry = get_registry()
        if registry.enabled:
            shard = str(worker.shard)
            registry.counter("spc_cluster_worker_failures_total",
                             shard=shard).inc()
            registry.gauge("spc_cluster_workers", shard=shard).set(
                sum(1 for w in self._workers
                    if w.live and w.shard == worker.shard))
        get_event_log().emit("cluster_worker_died", worker=worker.index,
                             shard=worker.shard)
        # Replay, don't fail: only this worker's in-flight keys are
        # touched — other shards never notice.
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
        self._bump("replays")
        if flight.kind == "pairs":
            for request in reversed(flight.members):
                if not request.done:
                    self._pending[flight.home_shard].appendleft(request)
            return
        job, key = flight.job, flight.key
        if job.done or job.offloaded or key in job.replies:
            return
        shard = job.shard_for(key)
        if shard is None:
            # A worker-pinned probe (STATS) cannot run anywhere else.
            self._finish_job(job, ERROR, error=ReproError("worker died"))
        else:
            self._subs[shard].append((job, key))

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
                if now - worker.spawned_at > self._start_timeout:
                    self._stall_kill(worker, "no HELLO within start_timeout")
                continue
            if worker.state == BUSY:
                # Unlimited-budget flights are exempt: a long exact scan
                # with no deadline is work, not a stall.
                if (worker.busy_budget is not None
                        and worker.busy_since is not None
                        and now - worker.busy_since
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

    def _health_timer(self, now):
        """Earliest supervision or hedge deadline, as a select() timeout."""
        deadline = None

        def consider(at):
            nonlocal deadline
            if at is not None and (deadline is None or at < deadline):
                deadline = at

        for worker in self._workers:
            if worker.state == DEAD:
                consider(worker.respawn_at)
            elif worker.state == STARTING:
                consider(worker.spawned_at + self._start_timeout)
            elif worker.state == BUSY:
                if (worker.busy_budget is not None
                        and worker.busy_since is not None):
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
        if self._hedge_delay is not None:
            for flight in self._inflight.values():
                if (flight.twin is not None or flight.is_hedge
                        or flight.cancelled):
                    continue
                delay = self._hedge_delay_for(flight.home_shard)
                if delay is not None:
                    consider(flight.sent_at + delay)
        if deadline is None:
            return None
        return max(deadline - now, 0.0)

    def _stall_kill(self, worker, reason):
        """A stalled worker is indistinguishable from a dead one to its
        callers — SIGKILL it (works through SIGSTOP too) and let the
        ordinary death path replay and respawn."""
        self._bump("stalls")
        registry = get_registry()
        if registry.enabled:
            registry.counter("spc_cluster_stalls_total",
                             shard=str(worker.shard)).inc()
        get_event_log().emit("cluster_worker_stalled", worker=worker.index,
                             shard=worker.shard, reason=reason,
                             state=worker.state)
        if worker.process is not None:
            try:
                worker.process.kill()
            except (OSError, ValueError):  # pragma: no cover - racing exit
                pass
        self._on_worker_death(worker)

    def _respawn_now(self, worker):
        worker.respawn_at = None
        worker.respawns += 1
        self._bump("respawns")
        registry = get_registry()
        if registry.enabled:
            registry.counter("spc_cluster_respawns_total",
                             shard=str(worker.shard)).inc()
        get_event_log().emit("cluster_worker_respawn", worker=worker.index,
                             shard=worker.shard, attempt=worker.respawns)
        self._spawn_process(worker, self._target_generation)

    # -- hedging --------------------------------------------------------------

    def _hedge_delay_for(self, shard):
        """Seconds a sub-request may wait before a hedge fires, or None."""
        delay = self._hedge_delay
        if delay is None:
            return None
        if delay != "auto":
            return delay
        samples = self._latency[shard]
        if len(samples) < 16:
            return None
        ordered = sorted(samples)
        p95 = ordered[int(0.95 * (len(ordered) - 1))]
        return max(self._hedge_floor, p95 * self._hedge_multiplier)

    def _maybe_hedge(self, now):
        if self._hedge_delay is None or not self._inflight:
            return
        for flight in list(self._inflight.values()):
            if (flight.twin is not None or flight.is_hedge
                    or flight.cancelled):
                continue
            if flight.message[0] not in (protocol.PAIRS,
                                         protocol.SINGLE_SOURCE,
                                         protocol.SET_TO_SET):
                continue  # pinned probes and control traffic never hedge
            if flight.job is not None and flight.job.offloaded:
                continue
            delay = self._hedge_delay_for(flight.home_shard)
            if delay is None or now - flight.sent_at < delay:
                continue
            sibling = self._hedge_sibling(flight)
            if sibling is None:
                continue
            self._dispatch_hedge(flight, sibling, now)

    def _hedge_sibling(self, flight):
        """An idle worker that could answer the same sub-request with
        the same generation; same-shard replicas first."""
        best = None
        for worker in self._workers:
            if (worker is flight.worker or worker.state != IDLE
                    or worker.draining
                    or worker.generation != flight.worker.generation):
                continue
            if worker.shard == flight.worker.shard:
                return worker
            if best is None and self._peer_degraded:
                best = worker
        return best

    def _dispatch_hedge(self, flight, sibling, now):
        batch_id = self._next_id()
        message = flight.message[:1] + (batch_id,) + flight.message[2:]
        if not self._send(sibling, message):
            return
        hedge = _Flight(flight.kind, batch_id, sibling, flight.home_shard,
                        message, now, flight.budget)
        hedge.members = flight.members
        hedge.job = flight.job
        hedge.key = flight.key
        hedge.degraded = flight.degraded
        hedge.is_hedge = True
        hedge.twin = flight
        flight.twin = hedge
        sibling.state = BUSY
        sibling.busy_since = now
        sibling.busy_budget = flight.budget
        self._inflight[batch_id] = hedge
        self._bump("hedges")
        registry = get_registry()
        if registry.enabled:
            registry.counter("spc_cluster_hedges_total").inc()
        get_event_log().emit("cluster_hedge", worker=flight.worker.index,
                             sibling=sibling.index,
                             shard=flight.home_shard)

    # -- drains ---------------------------------------------------------------

    def _on_drain_request(self, worker_index, respawn, future):
        worker = self._workers[worker_index]
        if not worker.live:
            future.set_result(False)
            return
        if not worker.draining:
            worker.draining = True
            worker.drain_respawn = respawn
            self._bump("drains")
            registry = get_registry()
            if registry.enabled:
                registry.counter("spc_cluster_drains_total",
                                 shard=str(worker.shard)).inc()
            get_event_log().emit("cluster_worker_drain",
                                 worker=worker.index, shard=worker.shard,
                                 respawn=respawn)
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
        get_event_log().emit("cluster_worker_drained", worker=worker.index,
                             shard=worker.shard)
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
            _, shard, members = item
            for request, (status, answer, error) in zip(members, outcome):
                self._finish_pair(request, status, answer=answer,
                                  error=error, degraded=(shard,))
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
        for shard in range(self.plan.shards):
            while self._pending[shard]:
                self._finish_pair(self._pending[shard].popleft(), ERROR,
                                  error=error)
            while self._subs[shard]:
                job, _ = self._subs[shard].popleft()
                self._finish_job(job, ERROR, error=error)
        for flight in list(self._inflight.values()):
            if flight.cancelled:
                continue
            if flight.kind == "pairs":
                for request in flight.members:
                    self._finish_pair(request, ERROR, error=error)
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
            if kind == "pair":
                self._finish_pair(item[1], ERROR, error=error)
            elif kind == "job":
                self._finish_job(item[1], ERROR, error=error)
            elif kind == "drain":
                _set_result(item[1][2], False)
            elif kind == "degraded_done":
                self._on_degraded_done(*item[1])

    # -- terminal bookkeeping -------------------------------------------------

    def _finish_pair(self, request, status, answer=None, error=None,
                     generation=0, degraded=()):
        if request.done:
            return
        request.done = True
        elapsed = self._clock() - request.started
        self._admission.release(elapsed)
        self._bump(status)
        metrics = self._metrics
        if metrics is not None:
            metrics.outcomes[status].inc()
            metrics.seconds.observe(elapsed)
            metrics.inflight.set(self._admission.in_flight)
        _set_result(request.future, QueryResult(
            status, answer=answer, error=error, elapsed=elapsed,
            generation=generation, degraded_shards=degraded))

    def _finish_job(self, job, status, answer=None, error=None, generation=0):
        if job.done:
            return
        job.done = True
        elapsed = self._clock() - job.started
        if job.admitted:
            self._admission.release(elapsed)
            self._bump(status)
            metrics = self._metrics
            if metrics is not None:
                metrics.outcomes[status].inc()
                metrics.seconds.observe(elapsed)
        job.resolve(status, answer, error, generation, elapsed,
                    degraded=tuple(sorted(job.degraded)))


def worker_entry(conn, path, generation, verify, fault=None):
    """Process target: import-light wrapper around ``worker_main``.

    Kept at module top level so it stays picklable under spawn-based
    start methods, and imported lazily so the parent's module graph is
    not re-imported by fork children. ``fault`` is the optional
    test-only fault hook threaded through to the worker loop.
    """
    from repro.serving.worker import worker_main

    worker_main(conn, path, generation, verify=verify, fault=fault)


class _ClusterOracle:
    """Pair oracle over cluster requests, for composite compiled queries.

    Each method issues a real (counted, admission-controlled) cluster
    request and unwraps its :class:`QueryResult`: a non-ok sub-request
    re-raises its typed error so :meth:`ClusterService._submit_composite`
    can map the whole composite onto that terminal status, and
    degraded-but-exact sub-answers flip the ``degraded`` flag the
    composite result reports.
    """

    def __init__(self, cluster, deadline):
        self._cluster = cluster
        self._budget = deadline
        self.degraded = False
        self.degraded_shards = ()

    def _absorb(self, result):
        if not result.ok:
            if result.error is not None:
                raise result.error
            raise ReproError(
                f"cluster sub-request failed with status {result.status!r}"
            )
        if result.status == SERVED_DEGRADED or result.degraded_shards:
            self.degraded = True
            if result.degraded_shards:
                merged = set(self.degraded_shards) | set(result.degraded_shards)
                self.degraded_shards = tuple(sorted(merged))
        return result.answer

    def count_with_distance(self, s, t, deadline=None):
        return self._absorb(self._cluster.submit(s, t, timeout=self._budget))

    def count_many(self, pairs, deadline=None):
        return self._absorb(
            self._cluster.submit_many(list(pairs), timeout=self._budget)
        )

    def single_source(self, s, deadline=None):
        return self._absorb(
            self._cluster.single_source(s, timeout=self._budget)
        )
