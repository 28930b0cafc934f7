"""Router-side units of cluster work: whole jobs.

A :class:`_Job` is a request that one worker answers whole in one
round-trip: a caller's pair batch, a single-source sweep or a set-to-set
query. Only :class:`_StatsJob` fans out, one probe pinned to each live
worker, gathered on completion. ``submit`` pairs are no objects at all:
each is one ``(s, t, budget, expires, started, future)`` tuple in the
router's queue, and a coalesced batch travels as the columns of its
tuples (see :meth:`~repro.serving.cluster.ClusterService.submit_nowait`).
:class:`_ClusterOracle` adapts cluster requests to the query layer's pair
oracle, so composite compiled queries run over the cluster.
:class:`~repro.serving.cluster.ClusterService` owns their dispatch,
replay and terminal resolution.
"""

from concurrent.futures import InvalidStateError

from repro.exceptions import ReproError
from repro.serving import protocol
from repro.serving.admission import SERVED_DEGRADED, SERVED_INDEX

INF = float("inf")


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


class _Job:
    """A request one worker answers whole, in one round-trip."""

    admitted = True

    def __init__(self, future, deadline, started):
        self.future = future
        self.deadline = deadline
        self.started = started
        self.done = False

    def resolve(self, result):
        """Complete the caller-visible future with its terminal result."""
        _set_result(self.future, result)


class _SingleSourceJob(_Job):
    """``single_source``: one full sweep from ``s``."""

    def __init__(self, future, deadline, started, s):
        super().__init__(future, deadline, started)
        self.s = s

    def message(self, batch_id, budget):
        """The job's wire message."""
        return (protocol.SINGLE_SOURCE, batch_id, self.s, budget)

    def fallback(self, resilient):
        """Whole-sweep BFS answer when no worker is live."""
        return resilient.single_source(self.s, deadline=self.deadline)


class _SetToSetJob(_Job):
    """``set_to_set`` over the whole source and target sets."""

    def __init__(self, future, deadline, started, sources, targets):
        super().__init__(future, deadline, started)
        self.sources = sources
        self.targets = targets

    def message(self, batch_id, budget):
        """The job's wire message."""
        return (protocol.SET_TO_SET, batch_id, self.sources, self.targets,
                budget)

    def fallback(self, resilient):
        """Whole-set BFS answer when no worker is live."""
        return resilient.set_to_set(self.sources, self.targets,
                                    deadline=self.deadline)


class _PairBatchJob(_Job):
    """A caller-supplied pair batch, answered in caller order.

    The bulk twin of the router's own coalescing: the caller hands over
    the whole batch up front, so admission, the future, and the inbox
    hop are paid once per batch instead of once per pair.
    """

    def __init__(self, future, deadline, started, sources, targets):
        super().__init__(future, deadline, started)
        self.sources = sources
        self.targets = targets

    def message(self, batch_id, budget):
        """The job's wire message."""
        return (protocol.PAIRS, batch_id, self.sources, self.targets, budget)

    def fallback(self, resilient):
        """Whole-batch BFS answers (caller order) when no worker is live."""
        return resilient.count_many(list(zip(self.sources, self.targets)),
                                    deadline=self.deadline)


class _StatsJob(_Job):
    """Memory/identity probe fanned out to every live worker.

    Each probe is pinned to its worker; the job completes once every
    worker has answered, whatever generation each one serves.
    """

    admitted = False

    def __init__(self, future, deadline, started, worker_indexes):
        super().__init__(future, deadline, started)
        self.workers = list(worker_indexes)
        self.replies = {}

    def message(self, batch_id, budget):
        """The probe's wire message."""
        return (protocol.STATS, batch_id)

    def register_reply(self, key, payload):
        """Record worker ``key``'s probe; True once every worker answered.

        A reply for a worker that already answered, or one arriving after
        the job ended, is a straggler and is dropped.
        """
        if self.done or key in self.replies:
            return False
        self.replies[key] = payload
        return len(self.replies) == len(self.workers)

    def merge(self):
        """Worker payload dicts, ordered by worker index."""
        return [self.replies[key] for key in sorted(self.replies)]

    def resolve(self, result):
        """Stats callers get the raw payload list, or the typed error."""
        if result.status == SERVED_INDEX:
            _set_result(self.future, result.answer)
        else:
            try:
                self.future.set_exception(
                    result.error if result.error is not None
                    else ReproError(result.status))
            except InvalidStateError:  # pragma: no cover - shutdown race
                pass


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

    def _absorb(self, result):
        if not result.ok:
            if result.error is not None:
                raise result.error
            raise ReproError(
                f"cluster sub-request failed with status {result.status!r}"
            )
        if result.status == SERVED_DEGRADED:
            self.degraded = True
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
