"""Resilient query-serving: deadlines, admission control, circuit
breaking, and hot index reload on top of the counting index.

The pieces compose bottom-up:

* :class:`~repro.serving.deadline.Deadline` — per-request time budget,
  checked cooperatively inside label scans and BFS levels.
* :class:`~repro.serving.breaker.CircuitBreaker` — fail-fast guard
  around the slow degraded (BFS fallback) path.
* :class:`~repro.serving.reload.IndexWatcher` /
  :class:`~repro.serving.reload.ReloadThread` — detect a rebuilt index
  file and swap it in atomically between requests.
* :class:`~repro.serving.admission.AdmissionQueue` — bounded
  concurrency with a deadline-aware wait queue and capped retry-after
  hints, shared by both front doors.
* :class:`~repro.serving.service.SPCService` — the in-process front
  door: bounded admission, load shedding, per-request deadlines,
  breaker-protected degradation and observable ``health()``/``stats()``
  snapshots.
* :class:`~repro.serving.cluster.ClusterService` — the multiprocess
  front door: one pool of N workers mmaps one shared label arena, and a
  selectors-based router coalesces pair queries into vectorized batches
  and hands each request, whole, to whichever worker is idle.

The typed errors (:class:`~repro.exceptions.DeadlineExceeded`,
:class:`~repro.exceptions.ServiceOverloaded`,
:class:`~repro.exceptions.CircuitOpenError`) live in
:mod:`repro.exceptions` under :class:`~repro.exceptions.ServingError`,
so lower layers can raise them without importing this package.
"""

from repro.exceptions import (
    CircuitOpenError,
    DeadlineExceeded,
    ServiceOverloaded,
    ServingError,
)
from repro.serving.admission import (
    CIRCUIT_OPEN,
    DEADLINE,
    DEFAULT_RETRY_AFTER_CAP,
    ERROR,
    INVALID,
    SERVED_DEGRADED,
    SERVED_INDEX,
    SHED,
    TERMINAL_STATUSES,
    AdmissionQueue,
    QueryResult,
)
from repro.serving.breaker import CircuitBreaker
from repro.serving.cluster import ClusterService
from repro.serving.deadline import Deadline
from repro.serving.reload import IndexWatcher, ReloadThread
from repro.serving.service import SPCService

__all__ = [
    "AdmissionQueue",
    "CircuitBreaker",
    "CircuitOpenError",
    "ClusterService",
    "Deadline",
    "DEFAULT_RETRY_AFTER_CAP",
    "DeadlineExceeded",
    "IndexWatcher",
    "QueryResult",
    "ReloadThread",
    "SPCService",
    "ServiceOverloaded",
    "ServingError",
    "SERVED_INDEX",
    "SERVED_DEGRADED",
    "SHED",
    "CIRCUIT_OPEN",
    "DEADLINE",
    "INVALID",
    "ERROR",
    "TERMINAL_STATUSES",
]
