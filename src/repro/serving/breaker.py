"""Circuit breaker guarding the degraded (BFS fallback) query path.

When the index is unhealthy, every query falls back to an online BFS —
exact but orders of magnitude slower. Under a traffic burst that is a
meltdown: every request ties up a worker for the full BFS (or its whole
deadline). The classic circuit-breaker pattern bounds the damage:

* **closed** — fallback allowed; consecutive failures are counted.
* **open** — after ``failure_threshold`` consecutive failures the breaker
  trips: fallback attempts fail *fast* with a typed
  :class:`~repro.exceptions.CircuitOpenError` (callers see a retry-after
  hint) instead of burning a deadline each.
* **half-open** — after ``reset_timeout`` seconds, up to
  ``half_open_probes`` trial requests are let through; one success closes
  the breaker, one failure re-opens it (with a fresh timeout).

Successes anywhere reset the consecutive-failure count. All transitions
and per-state outcomes are counted for observability, and every method is
thread-safe (:meth:`CircuitBreaker.before_call` reads a closed state
without the lock). The clock is injectable so tests can drive transitions
deterministically.
"""

import threading
import time

from repro.exceptions import CircuitOpenError
from repro.observability.events import get_event_log
from repro.observability.metrics import get_registry

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"


def _record_transition(to):
    """Mirror one breaker state change into the registry and event log."""
    registry = get_registry()
    if registry.enabled:
        registry.counter("spc_breaker_transitions_total", to=to).inc()
    get_event_log().emit("breaker.transition", to=to)


class CircuitBreaker:
    """Consecutive-failure circuit breaker with half-open probing.

    Usage on the protected path::

        breaker.before_call()        # raises CircuitOpenError when open
        try:
            result = slow_fallback()
        except Exception:
            breaker.record_failure()
            raise
        breaker.record_success()
    """

    def __init__(self, failure_threshold=5, reset_timeout=1.0,
                 half_open_probes=1, clock=time.monotonic):
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if reset_timeout <= 0:
            raise ValueError("reset_timeout must be positive")
        if half_open_probes < 1:
            raise ValueError("half_open_probes must be >= 1")
        self.failure_threshold = failure_threshold
        self.reset_timeout = reset_timeout
        self.half_open_probes = half_open_probes
        self._clock = clock
        self._lock = threading.Lock()
        self._state = CLOSED
        self._consecutive_failures = 0
        self._opened_at = None
        self._probes_in_flight = 0
        self.counters = {
            "successes": 0,
            "failures": 0,
            "short_circuited": 0,
            "opened": 0,
            "half_opened": 0,
            "closed": 0,
            "probe_rejected": 0,
        }

    # -- state ----------------------------------------------------------------

    @property
    def state(self):
        """Current state, advancing ``open`` -> ``half_open`` on timeout."""
        with self._lock:
            return self._advance()

    def _advance(self):
        """Lock held: apply the open -> half-open timer transition."""
        if self._state == OPEN:
            elapsed = self._clock() - self._opened_at
            if elapsed >= self.reset_timeout:
                self._state = HALF_OPEN
                self._probes_in_flight = 0
                self.counters["half_opened"] += 1
                _record_transition(HALF_OPEN)
        return self._state

    def _retry_after(self):
        """Lock held: seconds until the next probe is admitted."""
        if self._opened_at is None:
            return 0.0
        return max(0.0, self.reset_timeout - (self._clock() - self._opened_at))

    # -- protected-call protocol ----------------------------------------------

    def before_call(self):
        """Gate a fallback attempt; raise :class:`CircuitOpenError` if barred.

        In half-open state only ``half_open_probes`` concurrent trials are
        admitted; the rest short-circuit exactly like the open state.
        A closed breaker admits without taking the lock: a call racing a
        trip is admitted as one arriving a moment earlier would have been.
        """
        if self._state == CLOSED:
            return
        with self._lock:
            state = self._advance()
            if state == CLOSED:
                return
            if state == HALF_OPEN and self._probes_in_flight < self.half_open_probes:
                self._probes_in_flight += 1
                return
            if state == HALF_OPEN:
                self.counters["probe_rejected"] += 1
            self.counters["short_circuited"] += 1
            registry = get_registry()
            if registry.enabled:
                registry.counter("spc_breaker_short_circuits_total").inc()
            raise CircuitOpenError(self._retry_after(), self._consecutive_failures)

    def record_success(self):
        """A protected call completed: close from half-open, reset failures."""
        with self._lock:
            self.counters["successes"] += 1
            self._consecutive_failures = 0
            if self._state == HALF_OPEN:
                self._state = CLOSED
                self._opened_at = None
                self._probes_in_flight = 0
                self.counters["closed"] += 1
                _record_transition(CLOSED)

    def record_failure(self):
        """A protected call failed/timed out: count it, maybe trip open."""
        with self._lock:
            self.counters["failures"] += 1
            self._consecutive_failures += 1
            if self._state == HALF_OPEN or (
                self._state == CLOSED
                and self._consecutive_failures >= self.failure_threshold
            ):
                self._state = OPEN
                self._opened_at = self._clock()
                self._probes_in_flight = 0
                self.counters["opened"] += 1
                _record_transition(OPEN)

    def reset(self):
        """Force-close (operator override); counters are preserved."""
        with self._lock:
            self._state = CLOSED
            self._consecutive_failures = 0
            self._opened_at = None
            self._probes_in_flight = 0

    def snapshot(self):
        """Observable state for ``health()``/``stats()`` endpoints."""
        with self._lock:
            return {
                "state": self._advance(),
                "consecutive_failures": self._consecutive_failures,
                "retry_after": self._retry_after(),
                "probes_in_flight": self._probes_in_flight,
                "counters": dict(self.counters),
            }

    def __repr__(self):
        return (
            f"CircuitBreaker(state={self.state!r}, "
            f"threshold={self.failure_threshold}, "
            f"reset_timeout={self.reset_timeout})"
        )
