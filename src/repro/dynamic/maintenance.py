"""Rebuild-behind maintenance: a churning graph served with bounded staleness.

The §8 open problem splits into two halves. The overlay facade
(:class:`~repro.dynamic.incremental.DynamicSPCIndex`) answers *exactly*
while mutations are pending; this module keeps the pending set *small*,
so the facade's O(k²) overlay — and the BFS fallback that deletion-touched
pairs pay — never grows without bound (the sublinear-space analyses make
the same point: overlays must stay patches, not become the index).

:class:`MaintenanceController` sits between the facade and the serving
tier:

* **absorb** — :meth:`insert_edge` / :meth:`delete_edge` / :meth:`apply`
  land mutations in the facade (queries reflect them immediately) and in
  a versioned journal.
* **rebuild behind** — a supervisor thread watches the pending count and
  mutation age; when a rebuild is due it snapshots the logical graph and
  builds fresh labels in a *supervised worker process* (default ``csr``
  engine): task timeout with a hard kill, bounded retries with linear
  backoff, and a rank-watermark SPCK checkpoint so a crashed attempt
  *resumes* instead of restarting (a corrupt checkpoint is detected by
  its CRC and discarded, never trusted).
* **publish** — the worker saves the index atomically (temp file, fsync,
  rename) to ``index_path`` as one SPCF file, which serves both
  :class:`~repro.serving.service.SPCService` and
  :class:`~repro.serving.cluster.ClusterService`; the parent re-loads it
  through the checksummed loader, adopts its label columns into the
  facade, and replays the journal tail so not one mutation is lost
  across the swap. Serving layers pick the file up through their
  existing :class:`~repro.serving.reload.IndexWatcher` generation
  machinery — call :meth:`SPCService.set_graph` then ``check_reload()``
  from ``on_publish`` and the swap is atomic per generation.
* **observe** — a max-staleness SLO (seconds *and* pending mutations) is
  tracked continuously and exported through the metric catalog
  (``spc_maintenance_*``); ``counters`` / :meth:`stats` are the
  registry-free programmatic surface.

A failed rebuild never degrades correctness — the facade keeps answering
exactly on the logical graph — it only lets staleness grow, which is
precisely what the SLO breach counters make visible.
"""

import os
import threading
import time

from repro.core.index import SPCIndex
from repro.dynamic.incremental import DynamicSPCIndex
from repro.exceptions import CheckpointError
from repro.io.checkpoint import BuildCheckpoint
from repro.io.serialize import load_index, save_index
from repro.observability.events import get_event_log
from repro.observability.metrics import get_registry
from repro.utils.forking import start_child

__all__ = ["MaintenanceSLO", "MaintenanceController"]


class MaintenanceSLO:
    """Bounded-staleness targets for a rebuild-behind deployment.

    ``max_staleness_seconds`` bounds how long the oldest un-published
    mutation may wait for a swap; ``max_pending_mutations`` bounds the
    overlay patch size (and with it the per-query overlay cost). Breaches
    are counted once per excursion in
    ``spc_maintenance_slo_breaches_total{kind=...}`` — they signal that
    rebuilds cannot keep up with churn, not that answers went wrong.
    """

    __slots__ = ("max_staleness_seconds", "max_pending_mutations")

    def __init__(self, max_staleness_seconds=30.0, max_pending_mutations=64):
        if max_staleness_seconds <= 0:
            raise ValueError("max_staleness_seconds must be positive")
        if max_pending_mutations < 1:
            raise ValueError("max_pending_mutations must be positive")
        self.max_staleness_seconds = max_staleness_seconds
        self.max_pending_mutations = max_pending_mutations

    def __repr__(self):
        return (
            f"MaintenanceSLO(max_staleness_seconds={self.max_staleness_seconds}, "
            f"max_pending_mutations={self.max_pending_mutations})"
        )


class _HookedCheckpoint(BuildCheckpoint):
    """Checkpoint that reports each completed save to an injected fault."""

    def __init__(self, path, every, fault):
        super().__init__(path, every=every)
        self._fault = fault

    def save(self, watermark, freeze, fingerprint=None):
        super().save(watermark, freeze, fingerprint)
        self._fault.trigger(self.saves)


def _rebuild_worker(conn, graph, ordering, engine, index_path,
                    checkpoint_path, checkpoint_every, fault):
    """Worker-process entry point: build labels for ``graph`` and publish.

    Runs in a child process so a crash, wedge or OOM never takes the
    serving process down; the parent supervises through ``conn`` and the
    exit code. All writes are atomic, so a kill at any instant leaves
    either the previous index or the new one on disk — never a torn file.
    """
    try:
        discarded = 0
        checkpoint = None
        if checkpoint_path is not None:
            # Pre-flight: a corrupt checkpoint (torn write, bit rot, or a
            # chaos tier flipping bits on purpose) must never wedge
            # recovery — its CRC catches it here and we restart fresh.
            try:
                BuildCheckpoint(checkpoint_path).load(graph=graph)
            except CheckpointError:
                try:
                    os.remove(checkpoint_path)
                except OSError:
                    pass
                discarded = 1
            if fault is None:
                checkpoint = BuildCheckpoint(checkpoint_path,
                                             every=checkpoint_every)
            else:
                checkpoint = _HookedCheckpoint(checkpoint_path,
                                               every=checkpoint_every,
                                               fault=fault)
        index = SPCIndex.build(graph, ordering=ordering, engine=engine,
                               checkpoint=checkpoint, collect_stats=True)
        save_index(index, index_path, graph=graph)
        stats = index.build_stats
        conn.send({
            "ok": True,
            "entries": index.total_entries(),
            "resumed_pushes": 0 if stats is None else stats.resumed_pushes,
            "checkpoint_saves": 0 if stats is None else stats.checkpoint_saves,
            "checkpoint_discards": discarded,
        })
    except BaseException as exc:  # noqa: BLE001 - report, then die
        try:
            conn.send({"ok": False, "error": f"{type(exc).__name__}: {exc}"})
        except Exception:
            pass
        os._exit(1)
    os._exit(0)


class MaintenanceController:
    """Supervised rebuild-behind controller over a :class:`DynamicSPCIndex`.

    Parameters
    ----------
    graph:
        The initial :class:`~repro.graph.graph.Graph`. The initial index
        is built synchronously (in-process) and published to
        ``index_path`` before the constructor returns, so a service can
        load it immediately.
    index_path:
        Where finished indexes are published (SPCF, atomic replace) —
        point :class:`~repro.serving.service.SPCService` or
        :class:`~repro.serving.cluster.ClusterService` here.
    ordering / engine:
        Forwarded to every build (default ``csr``).
    rebuild_threshold:
        Pending-mutation count that makes a rebuild due (``None`` =
        age-driven only).
    rebuild_after_seconds:
        Age of the oldest pending mutation that makes a rebuild due even
        below the threshold; defaults to a quarter of the staleness SLO.
    slo:
        A :class:`MaintenanceSLO` (defaulted when ``None``).
    task_timeout / max_retries / retry_backoff:
        The worker supervision contract: a build attempt exceeding
        ``task_timeout`` seconds is killed; failed attempts are retried
        up to ``max_retries`` times with ``retry_backoff * attempt``
        seconds of linear backoff.
    checkpoint_every:
        Rank-watermark checkpoint cadence (pushes) inside the worker.
    on_publish:
        Optional callback ``fn(controller, version, graph)`` fired after
        each successful swap (outside the internal lock) — the place to
        call ``service.set_graph(graph); service.check_reload()``.
    start:
        When True (default) the supervisor thread starts immediately.
        ``False`` defers it to a later :meth:`start`: the supervisor runs
        every rebuild, so until then none happens and :meth:`rebuild_now`
        only waits.
    clock:
        Monotonic clock, injectable for deterministic tests.
    _fault / _before_retry:
        Chaos hooks: ``_fault`` is shipped to the worker and triggered
        after every checkpoint save
        (:class:`repro.testing.faults.KillDuringRebuild`);
        ``_before_retry(controller, attempt)`` runs before each retry —
        the chaos tests use it to corrupt the surviving checkpoint.
    """

    def __init__(self, graph, index_path, *, ordering="degree", engine="csr", rebuild_threshold=16,
                 rebuild_after_seconds=None, slo=None,
                 task_timeout=300.0, max_retries=2, retry_backoff=0.5,
                 checkpoint_every=512, poll_interval=0.05, on_publish=None,
                 start=True, clock=time.monotonic,
                 _fault=None, _before_retry=None):
        if task_timeout is not None and task_timeout <= 0:
            raise ValueError("task_timeout must be positive or None")
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        self._index_path = os.fspath(index_path)
        self._checkpoint_path = self._index_path + ".rebuild.ckpt"
        self._ordering = ordering
        self._engine = engine
        self._rebuild_threshold = rebuild_threshold
        self._slo = slo if slo is not None else MaintenanceSLO()
        if rebuild_after_seconds is None:
            rebuild_after_seconds = self._slo.max_staleness_seconds / 4.0
        self._rebuild_after_seconds = rebuild_after_seconds
        self._task_timeout = task_timeout
        self._max_retries = max_retries
        self._retry_backoff = retry_backoff
        self._checkpoint_every = checkpoint_every
        self._poll_interval = poll_interval
        self._on_publish = on_publish
        self._clock = clock
        self._fault = _fault
        self._before_retry = _before_retry

        self._lock = threading.RLock()
        self._published = threading.Condition(self._lock)
        self._wake = threading.Event()
        self._stop = False
        self._worker = None
        self._supervisor = None
        self._last_error = None
        self._waiters = 0  # rebuild_now callers: a rebuild is due for them

        self._version = 0
        self._published_version = 0
        self._journal = []  # (version, op, u, v, monotonic_at)
        self._dirty_since = None
        self._staleness_breached = False
        self._pending_breached = False
        self.counters = {
            "mutations": 0,
            "rebuilds": 0,
            "rebuild_failures": 0,
            "rebuild_retries": 0,
            "rebuild_timeouts": 0,
            "worker_crashes": 0,
            "publishes": 0,
            "resumed_pushes": 0,
            "checkpoint_discards": 0,
            "slo_staleness_breaches": 0,
            "slo_pending_breaches": 0,
        }

        self._dynamic = DynamicSPCIndex(
            graph, ordering=ordering, auto_rebuild=rebuild_threshold,
            engine=engine, defer_rebuild=True,
            on_rebuild_due=self._rebuild_due_hook,
        )
        self._published_graph = graph
        # Publish the initial index synchronously so the serving tier has
        # a generation-0 artifact before any churn starts.
        save_index(self._dynamic.base_index, self._index_path, graph=graph)
        self._publish_gauges_locked()
        if start:
            self.start()

    # -- lifecycle -----------------------------------------------------------

    def start(self):
        """Start the background supervisor (idempotent)."""
        with self._lock:
            if self._supervisor is not None or self._stop:
                return self
            self._supervisor = threading.Thread(
                target=self._supervise, name="spc-maintenance", daemon=True
            )
            self._supervisor.start()
        return self

    def close(self):
        """Stop the supervisor and kill any in-flight rebuild worker."""
        with self._lock:
            self._stop = True
            worker = self._worker
            self._published.notify_all()
        self._wake.set()
        if worker is not None and worker.is_alive():
            worker.kill()
        supervisor = self._supervisor
        if supervisor is not None:
            supervisor.join(timeout=max(5.0, self._task_timeout or 5.0))

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()
        return False

    def _rebuild_due_hook(self, _dynamic):
        self._wake.set()

    # -- mutations -----------------------------------------------------------

    def insert_edge(self, u, v):
        """Absorb one insertion; returns the journal version after it."""
        return self._mutate("insert", u, v)

    def delete_edge(self, u, v):
        """Absorb one deletion; returns the journal version after it."""
        return self._mutate("delete", u, v)

    def apply(self, inserts=(), deletes=()):
        """Absorb a batch of mutations; returns the version after the batch.

        Mutations apply in order (inserts first); a validation error
        (:class:`GraphError` / :class:`VertexError`) propagates and
        leaves the earlier mutations of the batch applied.
        """
        for u, v in inserts:
            self._mutate("insert", u, v)
        for u, v in deletes:
            self._mutate("delete", u, v)
        return self.version

    def _mutate(self, op, u, v):
        with self._lock:
            if op == "insert":
                self._dynamic.insert_edge(u, v)
            else:
                self._dynamic.delete_edge(u, v)
            self._version += 1
            self._journal.append((self._version, op, u, v, self._clock()))
            if self._dirty_since is None:
                self._dirty_since = self._clock()
            self.counters["mutations"] += 1
            self._check_slo_locked()
            self._publish_gauges_locked()
            return self._version

    # -- queries (exact on the logical graph, whatever the rebuild state) -----

    def count_with_distance(self, s, t):
        return self._dynamic.count_with_distance(s, t)

    def count(self, s, t):
        return self._dynamic.count(s, t)

    def distance(self, s, t):
        return self._dynamic.distance(s, t)

    # -- staleness / SLO ------------------------------------------------------

    def staleness(self):
        """``(seconds, pending)``: age of the oldest un-published mutation
        and the current overlay patch size."""
        with self._lock:
            return self._staleness_locked()

    def _staleness_locked(self):
        seconds = (0.0 if self._dirty_since is None
                   else max(0.0, self._clock() - self._dirty_since))
        return seconds, self._dynamic.pending_mutations

    def _check_slo_locked(self):
        seconds, pending = self._staleness_locked()
        registry = get_registry()
        if seconds > self._slo.max_staleness_seconds:
            if not self._staleness_breached:
                self._staleness_breached = True
                self.counters["slo_staleness_breaches"] += 1
                if registry.enabled:
                    registry.counter("spc_maintenance_slo_breaches_total",
                                     kind="staleness").inc()
                get_event_log().emit("maintenance.slo_breach",
                                     kind="staleness", seconds=seconds)
        else:
            self._staleness_breached = False
        if pending > self._slo.max_pending_mutations:
            if not self._pending_breached:
                self._pending_breached = True
                self.counters["slo_pending_breaches"] += 1
                if registry.enabled:
                    registry.counter("spc_maintenance_slo_breaches_total",
                                     kind="pending").inc()
                get_event_log().emit("maintenance.slo_breach",
                                     kind="pending", pending=pending)
        else:
            self._pending_breached = False

    def _publish_gauges_locked(self):
        registry = get_registry()
        if registry.enabled:
            seconds, pending = self._staleness_locked()
            registry.gauge("spc_maintenance_pending_mutations").set(pending)
            registry.gauge("spc_maintenance_staleness_seconds").set(seconds)

    # -- the rebuild-behind loop ----------------------------------------------

    def _supervise(self):
        while not self._stop:
            self._wake.wait(self._poll_interval)
            self._wake.clear()
            if self._stop:
                return
            try:
                with self._lock:
                    self._check_slo_locked()
                    self._publish_gauges_locked()
                    due = self._due_locked()
                if due:
                    self._cycle()
            except Exception as exc:  # pragma: no cover - supervisor guard
                with self._lock:
                    self._last_error = f"{type(exc).__name__}: {exc}"
                    self.counters["rebuild_failures"] += 1

    def _due_locked(self):
        pending = self._dynamic.pending_mutations
        if pending == 0:
            if self._journal:
                # Every journal mutation cancelled out (insert then delete
                # of the same edge): the published base already equals the
                # logical graph — cover the journal without a build.
                self._journal = []
                self._published_version = self._version
                self._dirty_since = None
                self._published.notify_all()
            return False
        if self._waiters or (self._rebuild_threshold is not None
                             and pending >= self._rebuild_threshold):
            return True
        age = (0.0 if self._dirty_since is None
               else self._clock() - self._dirty_since)
        return age >= self._rebuild_after_seconds

    def _cycle(self):
        with self._lock:
            covered = self._version
            graph = self._dynamic.current_graph()
        started = self._clock()
        outcome, info = None, None
        for attempt in range(self._max_retries + 1):
            if self._stop:
                return
            if attempt:
                with self._lock:
                    self.counters["rebuild_retries"] += 1
                registry = get_registry()
                if registry.enabled:
                    registry.counter(
                        "spc_maintenance_rebuild_retries_total").inc()
                if self._before_retry is not None:
                    self._before_retry(self, attempt)
                time.sleep(self._retry_backoff * attempt)
            outcome, info = self._run_worker(graph)
            self._record_outcome(outcome, covered)
            if outcome == "success":
                break
        if outcome != "success":
            with self._lock:
                self.counters["rebuild_failures"] += 1
                self._last_error = (
                    (info or {}).get("error") or f"rebuild {outcome}"
                )
            return
        self._adopt(covered, graph, info, self._clock() - started)

    def _record_outcome(self, outcome, covered):
        with self._lock:
            if outcome in ("crash", "error"):
                self.counters["worker_crashes"] += 1
            elif outcome == "timeout":
                self.counters["rebuild_timeouts"] += 1
        registry = get_registry()
        if registry.enabled:
            registry.counter("spc_maintenance_rebuilds_total",
                             outcome=outcome).inc()
        get_event_log().emit("maintenance.rebuild", outcome=outcome,
                             version=covered)

    def _run_worker(self, graph):
        """One supervised build attempt; ``(outcome, info)``.

        ``outcome`` is ``"success"``, ``"timeout"`` (attempt exceeded
        ``task_timeout`` and was killed), ``"crash"`` (worker died without
        reporting — the chaos kill, an OOM, a segfault) or ``"error"``
        (worker reported a typed failure).
        """
        proc, recv = start_child(
            _rebuild_worker,
            (graph, self._ordering, self._engine, self._index_path,
             self._checkpoint_path, self._checkpoint_every, self._fault))
        with self._lock:
            self._worker = proc
        try:
            proc.join(self._task_timeout)
            if proc.is_alive():
                proc.kill()
                proc.join()
                return "timeout", None
            info = None
            try:
                if recv.poll():
                    info = recv.recv()
            except (EOFError, OSError):
                info = None
            if info is None:
                return "crash", None
            if not info.get("ok"):
                return "error", info
            return "success", info
        finally:
            recv.close()
            with self._lock:
                self._worker = None

    def _adopt(self, covered, graph, info, seconds):
        # Parent-side verification: re-read the published file through the
        # checksummed loader before trusting it with live queries.
        index = load_index(self._index_path)
        with self._lock:
            tail = [entry for entry in self._journal if entry[0] > covered]
            replay = [(op, u, v) for (_ver, op, u, v, _at) in tail]
            self._dynamic.adopt_rebuild(graph, index, replay=replay)
            self._journal = tail
            self._published_graph = graph
            self._dirty_since = tail[0][4] if tail else None
            self.counters["rebuilds"] += 1
            self.counters["publishes"] += 1
            self.counters["resumed_pushes"] += info.get("resumed_pushes", 0)
            self.counters["checkpoint_discards"] += info.get(
                "checkpoint_discards", 0)
            self._last_error = None
            self._check_slo_locked()
            self._publish_gauges_locked()
        registry = get_registry()
        if registry.enabled:
            registry.counter("spc_maintenance_publishes_total").inc()
            registry.histogram("spc_maintenance_rebuild_seconds").observe(
                seconds)
        get_event_log().emit("maintenance.publish", version=covered,
                             seconds=seconds,
                             entries=info.get("entries"))
        if self._on_publish is not None:
            try:
                self._on_publish(self, covered, graph)
            except Exception as exc:  # pragma: no cover - callback guard
                with self._lock:
                    self._last_error = (
                        f"on_publish {type(exc).__name__}: {exc}"
                    )
        # The published version advances only after the serving hook has
        # run, so rebuild_now() returning True means the swap is complete
        # end to end — not just that the facade adopted the new base.
        with self._lock:
            self._published_version = covered
            self._published.notify_all()

    def rebuild_now(self, timeout=None):
        """Block until a publish covers every mutation absorbed so far.

        Returns True when the target version got published within
        ``timeout`` seconds (``None`` = wait indefinitely); False on
        timeout or controller shutdown. While a caller waits here a
        rebuild is due at once, whatever the threshold and the debounce
        age; the supervisor does the building, so a controller that was
        never started only waits.
        """
        deadline = None if timeout is None else self._clock() + timeout
        with self._lock:
            target = self._version
            self._waiters += 1
            try:
                while self._published_version < target and not self._stop:
                    self._wake.set()
                    remaining = self._poll_interval * 4
                    if deadline is not None:
                        remaining = min(remaining, deadline - self._clock())
                        if remaining <= 0:
                            return False
                    self._published.wait(remaining)
                return self._published_version >= target
            finally:
                self._waiters -= 1

    # -- introspection --------------------------------------------------------

    @property
    def dynamic(self):
        """The wrapped :class:`DynamicSPCIndex` (operator access)."""
        return self._dynamic

    @property
    def slo(self):
        return self._slo

    @property
    def version(self):
        """Monotonic count of absorbed mutations."""
        with self._lock:
            return self._version

    @property
    def published_version(self):
        """Highest journal version covered by the published index."""
        with self._lock:
            return self._published_version

    @property
    def published_graph(self):
        """The graph snapshot the published index was built for."""
        with self._lock:
            return self._published_graph

    @property
    def pending_mutations(self):
        return self._dynamic.pending_mutations

    @property
    def index_path(self):
        return self._index_path

    @property
    def checkpoint_path(self):
        """Where the rebuild worker checkpoints (the chaos tests corrupt it)."""
        return self._checkpoint_path

    @property
    def last_error(self):
        with self._lock:
            return self._last_error

    def stats(self):
        """Operator snapshot: versions, staleness, counters, last error."""
        with self._lock:
            seconds, pending = self._staleness_locked()
            return {
                "version": self._version,
                "published_version": self._published_version,
                "pending_mutations": pending,
                "journal_entries": len(self._journal),
                "staleness_seconds": seconds,
                "slo": {
                    "max_staleness_seconds": self._slo.max_staleness_seconds,
                    "max_pending_mutations": self._slo.max_pending_mutations,
                },
                "counters": dict(self.counters),
                "last_error": self._last_error,
                "index_path": self._index_path,
            }

    def __repr__(self):
        with self._lock:
            return (
                f"MaintenanceController(version={self._version}, "
                f"published={self._published_version}, "
                f"pending={self._dynamic.pending_mutations}, "
                f"engine={self._engine!r})"
            )
