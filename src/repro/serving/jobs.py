"""Router-side units of cluster work: pair requests and scatter-gather jobs.

A :class:`_PairRequest` is one ``submit`` pair waiting to be coalesced
into a shard batch. A :class:`_Job` is a scatter-gather request: one
sub-request per shard (or per pinned worker), merged on completion.
:class:`_ClusterOracle` adapts cluster requests to the query layer's pair
oracle, so composite compiled queries run over the cluster.
:class:`~repro.serving.cluster.ClusterService` owns their dispatch,
replay and terminal resolution.
"""

from concurrent.futures import InvalidStateError

import numpy as np

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

    def resolve(self, result):
        """Complete the caller-visible future with its terminal result."""
        _set_result(self.future, result)


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

    def __init__(self, future, deadline, started, worker_indexes):
        super().__init__(future, deadline, started)
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
