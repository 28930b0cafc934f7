"""The request lifecycle shared by both serving tiers.

:class:`~repro.serving.service.SPCService` (thread pool) and
:class:`~repro.serving.cluster.ClusterService` (multiprocess router) wrap
the same bookkeeping around a label join, written once here: the
:class:`AdmissionQueue` that bounds concurrency and sheds with a typed
:class:`~repro.exceptions.ServiceOverloaded`; the :class:`RequestLifecycle`
that turns a timeout into a deadline, admits, tallies the outcome and
returns the :class:`QueryResult` (or, for a batch of cluster pairs that
ends together, releases and tallies the whole batch in one step); and
:func:`status_of`, the one table from a library error to a terminal
status.

The retry-after hint is ``ema_latency x backlog depth``, clamped to
``retry_after_cap`` seconds: the raw estimate is unbounded (a 20 ms
deadline burst against a slow fallback once produced ~60 s hints, telling
well-behaved clients to go away for a minute when capacity was back
within one deadline), and an uncapped hint turns a transient spike into
self-inflicted unavailability.

Two admission styles are supported, and each tier passes its own in:

* :meth:`AdmissionQueue.admit` — blocking; the caller's thread waits in
  the bounded queue while its deadline allows (the thread-pool service).
* :meth:`AdmissionQueue.offer` — non-blocking; a full house sheds
  immediately (the future-based cluster router, whose "queue" is the set
  of outstanding futures).
"""

import collections
import functools
import threading
import time

from repro.exceptions import (
    CircuitOpenError,
    DeadlineExceeded,
    ReproError,
    ServiceOverloaded,
    VertexError,
)
from repro.observability.metrics import get_registry
from repro.serving.deadline import Deadline

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

#: Budget, in seconds, of a request with no caller timeout and no
#: ``default_deadline``. Every request carries a deadline, so the
#: cluster's stall killer covers every batch a worker holds.
MAX_REQUEST_SECONDS = 60.0

#: Library error type -> terminal status, most specific first.
_STATUS_OF = (
    (ServiceOverloaded, SHED),
    (CircuitOpenError, CIRCUIT_OPEN),
    (DeadlineExceeded, DEADLINE),
    (VertexError, INVALID),
    (ReproError, ERROR),
)


def status_of(exc):
    """The terminal status a library error ends its request in.

    ``None`` for anything that is not a :class:`~repro.exceptions
    .ReproError`: such an exception is a bug and propagates.
    """
    for error_type, status in _STATUS_OF:
        if isinstance(exc, error_type):
            return status
    return None


class QueryResult:
    """One request's terminal outcome: status, answer or typed error."""

    __slots__ = ("status", "answer", "error", "elapsed", "generation")

    def __init__(self, status, answer=None, error=None, elapsed=0.0, generation=0):
        self.status = status
        self.answer = answer
        self.error = error
        self.elapsed = elapsed
        self.generation = generation

    @property
    def ok(self):
        """True when an exact answer was produced (index or degraded)."""
        return self.status in (SERVED_INDEX, SERVED_DEGRADED)

    def __repr__(self):
        return (
            f"QueryResult(status={self.status!r}, answer={self.answer!r}, "
            f"elapsed={self.elapsed * 1e3:.2f}ms, gen={self.generation})"
        )


#: Default ceiling (seconds) for the retry-after hint.
DEFAULT_RETRY_AFTER_CAP = 5.0


class AdmissionQueue:
    """Counting admission gate with load shedding and retry-after hints.

    Parameters
    ----------
    capacity:
        Maximum concurrently admitted requests.
    queue_limit:
        Maximum requests allowed to wait for a slot (blocking
        :meth:`admit`) or to be outstanding beyond ``capacity``
        (non-blocking :meth:`offer`); more are shed.
    retry_after_cap:
        Ceiling, in seconds, on the retry-after hint attached to
        :class:`~repro.exceptions.ServiceOverloaded`. The raw
        latency x backlog estimate is unbounded; the cap keeps a burst
        from quoting minute-long backoffs. ``None`` disables the clamp.
    clock:
        Monotonic clock, injectable for deterministic tests.
    """

    def __init__(self, capacity, queue_limit, *,
                 retry_after_cap=DEFAULT_RETRY_AFTER_CAP,
                 clock=time.monotonic):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if queue_limit < 0:
            raise ValueError("queue_limit must be >= 0")
        if retry_after_cap is not None and retry_after_cap <= 0:
            raise ValueError("retry_after_cap must be positive or None")
        self.capacity = capacity
        self.queue_limit = queue_limit
        self.retry_after_cap = retry_after_cap
        self._clock = clock
        # A plain lock under the condition: the non-blocking paths
        # (offer, release) take it directly, skipping the condition's
        # python-level enter and exit.
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._in_flight = 0
        self._waiters = collections.deque()
        self._admissions = 0
        self._ema_latency = 0.001  # optimistic 1 ms seed for retry hints

    # -- hints ----------------------------------------------------------------

    def retry_after(self):
        """Bounded guess (seconds) until a slot is plausibly free.

        ``ema_latency x backlog depth``, clamped to ``retry_after_cap`` —
        never less than 1 ms, never more than the cap.
        """
        backlog = self._in_flight + self.queued + 1 - self.capacity
        hint = max(0.001, self._ema_latency * max(1, backlog))
        if self.retry_after_cap is not None:
            hint = min(hint, self.retry_after_cap)
        return hint

    def _shed(self):
        return ServiceOverloaded(self._in_flight, self.queued,
                                 self.retry_after())

    # -- admission ------------------------------------------------------------

    def admit(self, deadline=None):
        """Take a slot, waiting in the bounded queue; shed when hopeless.

        A request waits only while its ``deadline`` allows; a full queue
        (or an exhausted budget while queued) raises
        :class:`~repro.exceptions.ServiceOverloaded` immediately —
        queueing past the deadline would only burn capacity on answers
        nobody is waiting for. Waiters are admitted first-come
        first-served: a newcomer never takes a freed slot ahead of a
        queued request (a thread that just released its slot would
        otherwise win it back while the waiter it woke still waits for
        the GIL, starving the queue past its deadlines). Returns the
        admission ordinal (a monotonic count callers can use for every-N
        side effects such as reload polling).
        """
        with self._cond:
            self._admissions += 1
            ordinal = self._admissions
            if self._in_flight < self.capacity and not self._waiters:
                self._in_flight += 1
                return ordinal
            if len(self._waiters) >= self.queue_limit:
                raise self._shed()
            token = object()
            self._waiters.append(token)
            try:
                while (self._waiters[0] is not token
                       or self._in_flight >= self.capacity):
                    remaining = (None if deadline is None
                                 else deadline.remaining())
                    if remaining is not None and remaining <= 0:
                        raise self._shed()
                    self._cond.wait(timeout=remaining)
            finally:
                self._waiters.remove(token)
                if self._waiters:
                    # The head moved: the next waiter may fit a free slot.
                    self._cond.notify_all()
            self._in_flight += 1
            return ordinal

    def offer(self, deadline=None):
        """Take a slot without waiting; shed beyond ``capacity + queue_limit``.

        The future-based router admits up to ``capacity + queue_limit``
        outstanding requests (its internal dispatch queue plays the role
        the waiting threads play for :meth:`admit`) and sheds the rest.
        ``deadline`` is unused: it gives :meth:`admit` and :meth:`offer`
        one call shape. Returns the admission ordinal.
        """
        with self._lock:
            self._admissions += 1
            if self._in_flight >= self.capacity + self.queue_limit:
                raise self._shed()
            self._in_flight += 1
            return self._admissions

    def release(self, *elapsed):
        """Give back one slot per ``elapsed`` time, folding each into the
        latency EMA in order (a batch that ends together takes the lock
        once)."""
        with self._lock:
            self._in_flight -= len(elapsed)
            if self._waiters:
                self._cond.notify_all()
            # EMA over completed requests drives the retry-after hint.
            ema = self._ema_latency
            for seconds in elapsed:
                ema += 0.2 * (seconds - ema)
            self._ema_latency = ema

    # -- observability --------------------------------------------------------

    @property
    def in_flight(self):
        """Requests currently holding a slot."""
        return self._in_flight

    @property
    def queued(self):
        """Requests currently waiting in the blocking queue."""
        return len(self._waiters)

    @property
    def ema_latency(self):
        """Exponential moving average of completed-request latency."""
        return self._ema_latency

    def snapshot(self):
        """Flat dict for ``stats()`` surfaces."""
        with self._cond:
            return {
                "in_flight": self._in_flight,
                "queued": self.queued,
                "capacity": self.capacity,
                "queue_limit": self.queue_limit,
            }

    def __repr__(self):
        return (f"AdmissionQueue(in_flight={self._in_flight}, "
                f"queued={self.queued}, capacity={self.capacity}, "
                f"queue_limit={self.queue_limit})")


class RequestLifecycle:
    """One request from admission to terminal outcome, for either tier.

    A tier calls :meth:`deadline` on arrival, :meth:`admit` for a slot,
    :meth:`release` to give it back, then exactly one of :meth:`finish`
    or :meth:`fail`, which tally the outcome and build the
    :class:`QueryResult`. The cluster's ``submit`` pairs keep their
    budget as floats (no :class:`Deadline` unless an error or the BFS
    fallback needs one) and end a whole coalesced batch with one
    :meth:`settle`. ``requests`` is bumped in the same step as the
    outcomes, so it equals the sum of the outcome counters by
    construction.

    ``prefix`` names the tier's metric families (``"spc"`` or
    ``"spc_cluster"``); ``take`` is its admission call,
    ``AdmissionQueue.admit`` or ``AdmissionQueue.offer``;
    ``reload_check_every`` makes :meth:`admit` report a reload poll due
    every N admissions (0 never); ``counters`` names the tier's own
    counters for :meth:`bump`; ``queue_gauge`` publishes
    ``{prefix}_queued_requests`` (only a blocking queue has waiters).
    The rest are the :class:`AdmissionQueue` bounds, the default
    deadline and the clock.
    """

    def __init__(self, prefix, take, *, capacity, queue_limit, retry_after_cap,
                 default_deadline, reload_check_every, counters=(),
                 queue_gauge=False, clock=time.monotonic):
        if default_deadline is not None and default_deadline <= 0:
            raise ValueError("default_deadline must be positive or None")
        self.admission = AdmissionQueue(capacity, queue_limit,
                                        retry_after_cap=retry_after_cap,
                                        clock=clock)
        self.default_deadline = default_deadline
        self._take = take
        self._reload_check_every = reload_check_every
        self._clock = clock
        self._lock = threading.Lock()
        self.counters = dict.fromkeys(
            ("requests", SERVED_INDEX, SERVED_DEGRADED, SHED, CIRCUIT_OPEN,
             DEADLINE, INVALID, ERROR, *counters), 0)
        # The metric families read the tally and the queue when scraped,
        # so a request pays for one histogram observation, not five
        # metric updates. Each tier keeps its own family names.
        registry = get_registry()
        self._seconds = (registry.histogram(f"{prefix}_request_seconds")
                         if registry.enabled else None)
        tally, admission = self.counters, self.admission
        registry.counter(f"{prefix}_requests_total").track(
            lambda: tally["requests"])
        for status in TERMINAL_STATUSES:
            registry.counter(f"{prefix}_request_outcomes_total",
                             status=status).track(
                functools.partial(tally.__getitem__, status))
        registry.gauge(f"{prefix}_inflight_requests").track(
            lambda: admission.in_flight)
        if queue_gauge:
            registry.gauge(f"{prefix}_queued_requests").track(
                lambda: admission.queued)

    def deadline(self, timeout, started):
        """The request's :class:`Deadline`, started at ``started``.

        ``timeout`` (or ``default_deadline`` when it is ``None``) in
        seconds; an existing :class:`Deadline` passes through. With
        neither, the budget is :data:`MAX_REQUEST_SECONDS`.
        """
        if timeout is None:
            timeout = self.default_deadline
        if isinstance(timeout, Deadline):
            return timeout
        budget = MAX_REQUEST_SECONDS if timeout is None else timeout
        return Deadline(budget, clock=self._clock, start=started)

    def admit(self, deadline):
        """Take a slot or raise :class:`ServiceOverloaded`.

        Returns True when this admission's ordinal makes a reload poll
        due; the tier runs its own poll.
        """
        ordinal = self._take(self.admission, deadline)
        every = self._reload_check_every
        return bool(every) and ordinal % every == 0

    def release(self, elapsed):
        """Give the slot back; ``elapsed`` feeds the EMA and the histogram."""
        self.admission.release(elapsed)
        if self._seconds is not None:
            self._seconds.observe(elapsed)

    def finish(self, status, elapsed, answer=None, error=None, generation=0):
        """Tally one terminal outcome; returns its :class:`QueryResult`."""
        with self._lock:
            self.counters["requests"] += 1
            self.counters[status] += 1
        return QueryResult(status, answer, error, elapsed, generation)

    def settle(self, elapsed, outcomes):
        """:meth:`release` and tally a batch of requests that ended together.

        ``elapsed`` lists each request's seconds, in order; ``outcomes``
        maps each terminal status to its count (the counts sum to
        ``len(elapsed)``). One admission lock and one tally lock for the
        whole batch; the caller builds the :class:`QueryResult` objects.
        """
        self.admission.release(*elapsed)
        if self._seconds is not None:
            for seconds in elapsed:
                self._seconds.observe(seconds)
        with self._lock:
            counters = self.counters
            counters["requests"] += len(elapsed)
            for status, count in outcomes.items():
                counters[status] += count

    def fail(self, error, elapsed, generation=0):
        """:meth:`finish` for a request ended by a library error."""
        return self.finish(status_of(error), elapsed, error=error,
                           generation=generation)

    def bump(self, key, count=1, family=None, **labels):
        """Add to one of the tier's own counters and, when named, to its
        metric ``family`` (looked up per call: these are rare events)."""
        with self._lock:
            self.counters[key] += count
        if family is not None:
            registry = get_registry()
            if registry.enabled:
                registry.counter(family, **labels).inc(count)

    def snapshot(self):
        """A consistent copy of every counter."""
        with self._lock:
            return dict(self.counters)
