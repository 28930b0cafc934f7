"""Per-request deadline budgets, checked cooperatively along the query path.

A :class:`Deadline` is a small monotonic-clock stopwatch handed down the
call chain. Long-running stages — the BFS fallback oracle between levels,
the batched flat engine between source groups — call :meth:`Deadline
.check` at natural chunk boundaries, so an expired budget surfaces as a
typed :class:`~repro.exceptions.DeadlineExceeded` within one chunk of
work instead of after an unbounded scan.

The class is deliberately duck-typed: consumers only call ``check()`` /
``expired`` / ``remaining()``, so the traversal and kernel modules never
import :mod:`repro.serving` (no import cycles), and tests can substitute
a fake clock for determinism.
"""

import time

from repro.exceptions import DeadlineExceeded

__all__ = ["Deadline", "DeadlineExceeded"]


class Deadline:
    """A monotonic time budget for one request.

    Parameters
    ----------
    budget:
        Seconds this request may spend, measured from construction (or
        from ``start`` when given). ``None`` means unlimited — every
        method becomes a cheap no-op, so callers can thread one object
        unconditionally.
    clock:
        Callable returning monotonic seconds; injectable for tests.
    """

    __slots__ = ("budget", "expires_at", "_clock", "_started")

    def __init__(self, budget, clock=time.monotonic, start=None):
        if budget is not None and budget <= 0:
            raise ValueError(f"deadline budget must be positive, got {budget!r}")
        self.budget = budget
        self._clock = clock
        self._started = clock() if start is None else start
        #: Clock reading at which the budget is spent (``inf`` when
        #: unlimited): one clock reading can then test many deadlines.
        self.expires_at = (float("inf") if budget is None
                           else self._started + budget)

    @classmethod
    def of(cls, timeout, clock=time.monotonic):
        """Normalise ``timeout`` into a deadline.

        ``None`` stays ``None`` (no budget at all — cheaper than an
        unlimited Deadline on hot paths); an existing :class:`Deadline`
        passes through; a number becomes a fresh budget starting now.
        """
        if timeout is None or isinstance(timeout, cls):
            return timeout
        return cls(timeout, clock=clock)

    def elapsed(self):
        """Seconds spent since the budget started."""
        return self._clock() - self._started

    def remaining(self):
        """Seconds left; ``inf`` when unlimited, clamped at 0.0."""
        if self.budget is None:
            return float("inf")
        return max(0.0, self.budget - self.elapsed())

    @property
    def expired(self):
        """True when the budget is spent (never for unlimited deadlines)."""
        return self.budget is not None and self.elapsed() >= self.budget

    def check(self):
        """Raise :class:`DeadlineExceeded` if the budget is spent."""
        if self.budget is None:
            return
        elapsed = self.elapsed()
        if elapsed >= self.budget:
            raise DeadlineExceeded(self.budget, elapsed)

    def __repr__(self):
        if self.budget is None:
            return "Deadline(unlimited)"
        return (
            f"Deadline(budget={self.budget * 1e3:.1f}ms, "
            f"remaining={self.remaining() * 1e3:.1f}ms)"
        )
