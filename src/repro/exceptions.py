"""Typed exceptions raised across the library.

Every error the library raises deliberately derives from :class:`ReproError`
so callers can catch library failures without catching unrelated bugs.
"""


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class GraphError(ReproError):
    """Malformed graph input (bad vertex ids, self-loops where banned, ...)."""


class VertexError(GraphError):
    """A vertex id is out of range or otherwise invalid for the graph."""

    def __init__(self, vertex, n):
        super().__init__(f"vertex {vertex!r} is not in range [0, {n})")
        self.vertex = vertex
        self.n = n


class GraphParseError(GraphError):
    """A graph file could not be parsed (malformed token, truncated header).

    Always names the file and, when the failure is tied to one, the
    1-based line number — so operators can fix the input instead of
    staring at a bare ``ValueError`` from ``int()``.
    """

    def __init__(self, path, message, line=None):
        location = f"{path}:{line}" if line is not None else str(path)
        super().__init__(f"{location}: {message}")
        self.path = str(path)
        self.line = line


class OrderingError(ReproError):
    """A vertex ordering is not a permutation of the graph's vertices."""


class LabelingError(ReproError):
    """A labeling is inconsistent (violates ESPC or cover constraints)."""


class SerializationError(ReproError):
    """An index could not be encoded to / decoded from its binary form."""


class CountOverflowError(SerializationError):
    """A shortest-path count does not fit in the configured bit width.

    Raised when a packed SPCL entry (:func:`repro.io.serialize.pack_entry`)
    would need more count bits than its encoding has; counts are never
    saturated, so a file never holds a count it cannot answer exactly.
    """

    def __init__(self, count, bits):
        super().__init__(f"count {count} does not fit in {bits} bits")
        self.count = count
        self.bits = bits


class CheckpointError(SerializationError):
    """A construction checkpoint is missing, corrupt, or inconsistent with
    the build it is being resumed into (wrong graph, wrong order)."""


class StaleIndexError(SerializationError):
    """A persisted index does not match the graph it is being served for.

    Raised when the stored graph fingerprint (n, m, degree hash) disagrees
    with the live graph — the index is from an older or different graph.
    """

    def __init__(self, expected, found, context="index"):
        super().__init__(
            f"{context}: graph fingerprint mismatch "
            f"(index built for {found}, graph is {expected})"
        )
        self.expected = expected
        self.found = found


class QueryError(ReproError):
    """Base class for declarative query-layer failures (:mod:`repro.query`)."""


class QuerySyntaxError(QueryError):
    """The compact textual query form could not be parsed.

    Names the offending statement (1-based) and what was expected, so a
    CLI user can fix the expression instead of reading a traceback.
    """

    def __init__(self, message, statement=None):
        location = f"statement {statement}: " if statement is not None else ""
        super().__init__(f"{location}{message}")
        self.statement = statement


class PlanError(QueryError):
    """No available backend can execute an operator of the query.

    Raised at planning time (before any work runs) when the engine was
    constructed without the resources an operator needs — e.g. a
    :class:`~repro.query.ast.TopKBetweenness` with no graph, no oracle
    and no index to sample from.
    """


class ServingError(ReproError):
    """Base class for query-serving failures (:mod:`repro.serving`).

    These are *flow-control* errors — the service protecting itself under
    load or failure — never wrong answers: a query either completes
    exactly or raises one of these.
    """


class DeadlineExceeded(ServingError):
    """A query ran out of its per-request deadline budget.

    Raised cooperatively at scan/level checkpoints, so a slow degraded
    path costs at most one checkpoint interval past the budget.
    """

    def __init__(self, budget, elapsed):
        super().__init__(
            f"deadline of {budget * 1e3:.1f} ms exceeded "
            f"after {elapsed * 1e3:.1f} ms"
        )
        self.budget = budget
        self.elapsed = elapsed


class ServiceOverloaded(ServingError):
    """The admission queue is full; the request was shed, not queued.

    ``retry_after`` is the service's hint (seconds) for when capacity is
    likely to be available again.
    """

    def __init__(self, in_flight, queued, retry_after):
        super().__init__(
            f"service overloaded ({in_flight} in flight, {queued} queued); "
            f"retry after {retry_after * 1e3:.0f} ms"
        )
        self.in_flight = in_flight
        self.queued = queued
        self.retry_after = retry_after


class CircuitOpenError(ServingError):
    """The degraded-path circuit breaker is open: fail fast, do not BFS.

    ``retry_after`` is the time (seconds) until the breaker will admit a
    half-open probe.
    """

    def __init__(self, retry_after, failures):
        super().__init__(
            f"circuit open after {failures} consecutive degraded-path "
            f"failures; next probe in {retry_after * 1e3:.0f} ms"
        )
        self.retry_after = retry_after
        self.failures = failures
