"""Bounded admission control shared by the serving front ends.

:class:`~repro.serving.service.SPCService` (thread pool) and
:class:`~repro.serving.cluster.ClusterService` (multiprocess router) need
identical load-shedding semantics: at most ``capacity`` requests execute
concurrently, up to ``queue_limit`` more wait, and anything beyond that
is shed with a typed :class:`~repro.exceptions.ServiceOverloaded`
carrying a *bounded* retry-after hint. Promoting the logic here (instead
of rewriting it per front end) keeps the contract single-sourced — one
EMA, one backlog formula, one cap.

The retry-after hint is ``ema_latency x backlog depth``, clamped to
``retry_after_cap`` seconds: the raw estimate is unbounded (a 20 ms
deadline burst against a slow fallback once produced ~60 s hints, telling
well-behaved clients to go away for a minute when capacity was back
within one deadline), and an uncapped hint turns a transient spike into
self-inflicted unavailability.

Two admission styles are supported:

* :meth:`AdmissionQueue.admit` — blocking; the caller's thread waits in
  the bounded queue while its deadline allows (the thread-pool service).
* :meth:`AdmissionQueue.offer` — non-blocking; a full house sheds
  immediately (the future-based cluster router, whose "queue" is the set
  of outstanding futures).
"""

import collections
import threading
import time

from repro.exceptions import ServiceOverloaded

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
        self._cond = threading.Condition()
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

    def offer(self):
        """Take a slot without waiting; shed beyond ``capacity + queue_limit``.

        The future-based router admits up to ``capacity + queue_limit``
        outstanding requests (its internal dispatch queue plays the role
        the waiting threads play for :meth:`admit`) and sheds the rest.
        Returns the admission ordinal.
        """
        with self._cond:
            self._admissions += 1
            if self._in_flight >= self.capacity + self.queue_limit:
                raise self._shed()
            self._in_flight += 1
            return self._admissions

    def release(self, elapsed):
        """Give the slot back and fold ``elapsed`` into the latency EMA."""
        with self._cond:
            self._in_flight -= 1
            if self._waiters:
                self._cond.notify_all()
            # EMA over completed requests drives the retry-after hint.
            self._ema_latency += 0.2 * (elapsed - self._ema_latency)

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
