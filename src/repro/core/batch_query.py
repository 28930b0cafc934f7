"""Batched query evaluation over :class:`~repro.core.flat_labels.FlatLabels`.

Where :mod:`repro.core.query` walks two Python lists per query, everything
here is array-at-a-time. A pair batch is Algorithm 2's merge join done for
many pairs at once, in two stages per chunk of pairs. The top-ranked hubs
sit in almost every label, so their entries are a dense core
(:attr:`FlatLabels.core <repro.core.flat_labels.FlatLabels.core>`, one
row per vertex): adding the two core rows of a pair, a row minimum and
the count products at it meet them with no sort. Each label row's
remaining tail is then merged by sort: the tails of the chunk are
gathered, every entry is keyed ``pair_index·n + rank`` (the source keys
and the target keys each come out sorted), one stable sort merges the two
key runs so that common hubs sit side by side, segmented
``minimum``/``add`` reductions take each pair's tail distance and count,
and the two answers merge. No per-pair Python and no shared buffer, so
concurrent callers need no coordination. A one-pair batch takes the
scalar merge instead, which costs less than the join's fixed numpy calls.
Single-source queries sweep hub-major: a target meets the source only at
one of the source's hubs, so only those hubs' posting lists
(:attr:`FlatLabels.hub_major
<repro.core.flat_labels.FlatLabels.hub_major>`) are read and reduced per
target. Set-to-set queries scatter the source side's hubs into dense
rank-indexed arrays and sweep the target rows in bulk. A single pair
(:func:`count_pair`) skips the batch machinery: its two rows are merged
in Python. A chain of small numpy calls is faster alone but hands the
interpreter lock to other threads mid-query, which a threaded
server pays for in latency.

Semantics match :mod:`repro.core.query` exactly for the plain (unreduced)
index: disconnected pairs answer ``(inf, 0)``, ``s == t`` answers
``(0, 1)``, and counts are exact at any size. Every query runs in int64
only where :attr:`FlatLabels.overflow_free
<repro.core.flat_labels.FlatLabels.overflow_free>` or a bound over
:attr:`~repro.core.flat_labels.FlatLabels.row_max_count` proves it
cannot wrap; otherwise it sums python ints instead. The
λ-weighted ``multiplicity`` evaluation of the reductions stays on the
tuple-based path.
"""

import contextlib
import threading
from time import perf_counter

import numpy as np

from repro.core.flat_labels import JOIN_BOUND
from repro.exceptions import LabelingError, VertexError
from repro.observability.metrics import get_registry

INF = float("inf")
INT = np.int64
INT_MAX = int(np.iinfo(INT).max)


def _validate_ids(flat, vertices):
    """Raise :class:`VertexError` naming the first id outside ``[0, n)``.

    Batched queries index rank-space arrays directly; an out-of-range id
    would otherwise surface as an opaque numpy ``IndexError`` (or, worse,
    a negative id would silently wrap around and answer for the wrong
    vertex). The happy path is one allocation-free reduction: viewed as
    unsigned, a negative id is huge, so the maximum catches both ends. Only
    an actual violation pays for the offender search.
    """
    if vertices.size == 0:
        return
    if int(np.maximum.reduce(vertices.view(np.uint64))) < flat.n:
        return
    bad = (vertices < 0) | (vertices >= flat.n)
    offender = int(vertices[bad][0])
    raise VertexError(offender, flat.n)


class _QueryScratch:
    """Reusable rank-indexed scatter buffers for one :class:`FlatLabels`.

    Set-to-set queries scatter the source side's label rows into dense
    ``(dist, count)`` arrays of length ``n``; allocating those per call
    dominates small queries. One clean pair is cached on the flat store
    and borrowed under a non-blocking lock — concurrent callers simply
    allocate a private pair, so reuse is a fast path, never a
    serialization point.

    Invariant: outside a borrow, ``hub_dist`` is all ``inf`` and
    ``hub_count`` all zero. Borrowers restore the positions they
    scattered (under ``try/finally``, so deadline aborts cannot leak a
    dirty buffer into the next query's answer).
    """

    __slots__ = ("lock", "hub_dist", "hub_count")

    def __init__(self, n):
        self.lock = threading.Lock()
        self.hub_dist = np.full(n, INF)
        self.hub_count = np.zeros(n, dtype=INT)


@contextlib.contextmanager
def _borrow_scratch(flat):
    """Yield clean ``(hub_dist, hub_count)`` arrays of length ``flat.n``."""
    scratch = flat._scratch
    if scratch is None:
        # Benign race: two threads may each build one; both are valid and
        # the loser's copy is garbage-collected with its borrow.
        scratch = _QueryScratch(flat.n)
        flat._scratch = scratch
    if scratch.lock.acquire(blocking=False):
        try:
            yield scratch.hub_dist, scratch.hub_count
        finally:
            scratch.lock.release()
    else:
        yield np.full(flat.n, INF), np.zeros(flat.n, dtype=INT)


def _row_spans(indptr, vertices):
    """``(starts, lens)``: where each row of ``vertices`` sits in the columns."""
    starts = indptr[vertices]
    return starts, indptr[vertices + 1] - starts


def _gather_rows(starts, lens):
    """Concatenate label rows given by :func:`_row_spans`.

    Returns ``(entry_idx, ends)`` where ``entry_idx`` indexes the flat
    columns and row ``i`` ends at ``ends[i]`` inside ``entry_idx``.
    """
    ends = lens.cumsum()
    entry_idx = np.arange(ends[-1]) + (starts + lens - ends).repeat(lens)
    return entry_idx, ends


#: Label entries one join chunk gathers at most, counting each pair's core
#: row (:attr:`FlatLabels.core <repro.core.flat_labels.FlatLabels.core>`)
#: as ``K`` entries and its two tails entry by entry, which bounds the
#: join's temporaries whatever the batch size. A pair that alone exceeds
#: it still forms a chunk of its own.
CHUNK_ENTRIES = 1 << 17


def _core_chunk(core, sources, targets, out_dist, out_count):
    """Answer one chunk of pairs at its core hubs into the ``out_*`` slices.

    Adding the two core rows of a pair gives ``δ(s,h)+δ(h,t)`` for every
    core hub ``h`` at once; the row minimum is the pair's core distance
    and the count products at it sum to its core count. A hub missing from
    either label adds the sentinel, which no real sum reaches, and carries
    a zero count, so a pair that meets at no core hub sums to count 0 and
    keeps its ``(inf, 0)`` slot.
    """
    totals = core.dist[sources]
    totals += core.dist[targets]
    best = totals.min(axis=1)
    # Every row hits its own minimum at least once, so the hits' rows run
    # 0, 1, ..., pairs - 1 in order and each run is one pair.
    rows, hubs = (totals == best[:, None]).nonzero()
    terms = np.multiply(core.count[sources[rows], hubs],
                        core.count[targets[rows], hubs], dtype=INT)
    out_count[:] = np.add.reduceat(terms, rows.searchsorted(
        np.arange(len(best))))
    # Tested against zero, not for a positive sum: a pair the overflow
    # bound rerouted may wrap, and its slot must still hold a distance.
    np.copyto(out_dist, best, where=out_count != 0)


def _join_chunk(n, rank, dist, count, starts, lens, out_dist, out_count):
    """Merge one chunk's tail meetings into the ``out_*`` slices (Algorithm 2).

    ``starts``/``lens`` span the chunk's source rows, then its target rows.
    Every entry is keyed ``pair_index·n + rank``. Ranks increase within a
    row and stay below ``n``, so the source keys and the target keys are
    two sorted runs of unique keys, and a common hub of a pair is a key in
    both. One stable sort merges the runs (NumPy's stable sort of int64 is
    timsort, which finds the two runs and merges them in linear time) and
    leaves each common hub as an adjacent equal pair, source first. The
    per-pair minimum of ``δ(s,h)+δ(h,t)`` and the sum of ``σ(s,h)·σ(h,t)``
    at it are two segmented reductions over the matches; each then merges
    with the pair's answer so far (a smaller distance replaces it, an
    equal one adds its count).
    """
    pairs = len(out_dist)
    idx, ends = _gather_rows(starts, lens)
    split = int(ends[pairs - 1])
    base = np.arange(0, pairs * n, n, dtype=INT)
    keys = np.concatenate((base, base)).repeat(lens) + rank[idx]
    order = keys.argsort(kind="stable")
    merged = keys[order]
    at = (merged[1:] == merged[:-1]).nonzero()[0]
    src = idx[order[at]]
    # Target positions of the matches rise with their keys, so each pair's
    # matches form one contiguous run.
    hit = order[1:][at] - split
    runs = hit.searchsorted(ends[pairs - 1:] - split)
    run_len = runs[1:] - runs[:-1]
    met = run_len > 0
    tgt = idx[split:][hit]
    totals = np.add(dist[src], dist[tgt], dtype=INT)
    run_start = runs[:-1][met]
    best = np.minimum.reduceat(totals, run_start)
    terms = np.multiply(count[src], count[tgt], dtype=INT)
    terms *= totals == best.repeat(run_len[met])
    sums = np.add.reduceat(terms, run_start)
    so_far = out_dist[met]
    out_count[met] = np.where(best < so_far, sums,
                              out_count[met] + sums * (best == so_far))
    out_dist[met] = np.minimum(so_far, best)


def _exact_pair(flat, s, t):
    """Python-int merge join of ``L(s)`` and ``L(t)``: never wraps."""
    indptr, rank, dist, count = flat.indptr, flat.rank, flat.dist, flat.count
    lo_s, hi_s, lo_t, hi_t = indptr[s], indptr[s + 1], indptr[t], indptr[t + 1]
    rank_s, rank_t = rank[lo_s:hi_s].tolist(), rank[lo_t:hi_t].tolist()
    dist_s, dist_t = dist[lo_s:hi_s].tolist(), dist[lo_t:hi_t].tolist()
    count_s, count_t = count[lo_s:hi_s].tolist(), count[lo_t:hi_t].tolist()
    delta = INF
    sigma = 0
    i = j = 0
    len_s, len_t = len(rank_s), len(rank_t)
    while i < len_s and j < len_t:
        if rank_s[i] < rank_t[j]:
            i += 1
        elif rank_s[i] > rank_t[j]:
            j += 1
        else:
            total = dist_s[i] + dist_t[j]
            if total < delta:
                delta, sigma = total, count_s[i] * count_t[j]
            elif total == delta:
                sigma += count_s[i] * count_t[j]
            i += 1
            j += 1
    return (delta, sigma) if sigma else (INF, 0)


def count_pair(flat, s, t):
    """One ``(sd(s,t), spc(s,t))`` answer: Algorithm 2 on two label rows.

    The scalar twin of :func:`count_many`: the rows of ``s`` and ``t`` are
    sliced out of the columns with ``.tolist()`` and merge-joined in
    Python, which beats a one-pair vectorized join several times over.
    Counts are python ints, exact at any width. Same conventions as
    :func:`repro.core.query.count_query`; an id outside ``[0, n)`` raises
    :class:`VertexError`.
    """
    n = flat.n
    for v in (s, t):
        if not 0 <= v < n:
            raise VertexError(v, n)
    if s == t:
        return 0, 1
    return _exact_pair(flat, s, t)


def _one_pair(flat, s, t, deadline):
    """A one-pair batch: :func:`count_pair`'s scalar merge, metered as a
    batch. The merge costs less than the fixed numpy calls of a join."""
    if deadline is not None:
        deadline.check()
    registry = get_registry()
    if not registry.enabled:
        return count_pair(flat, s, t)
    started = perf_counter()
    answer = count_pair(flat, s, t)
    registry.counter("spc_queries_total", engine="flat", kind="pair").inc()
    registry.histogram("spc_batch_query_seconds").observe(
        perf_counter() - started)
    return answer


def _join(flat, sources, targets, deadline):
    """Shared body of :func:`count_many_arrays` and :func:`count_many`.

    Returns ``(dist, count, exact)``: the int64 answer columns plus
    ``{pair_index: (dist, count)}`` python-int answers for the pairs the
    overflow bound rerouted to :func:`_exact_pair` (their column slots are
    not meaningful). Each chunk of pairs is answered at its core hubs by
    :func:`_core_chunk`, then over the tails past each row's core prefix
    by :func:`_join_chunk`.
    """
    registry = get_registry()
    metered = registry.enabled
    if metered:
        batch_start = perf_counter()
    sources = np.asarray(sources, dtype=INT)
    targets = np.asarray(targets, dtype=INT)
    if sources.shape != targets.shape or sources.ndim != 1:
        raise ValueError("sources and targets must be 1-d arrays of equal length")
    vertices = np.concatenate((sources, targets))
    _validate_ids(flat, vertices)
    pairs = len(sources)
    out_dist = np.full(pairs, INF)
    out_count = np.zeros(pairs, dtype=INT)
    exact = {}
    if pairs == 0:
        return out_dist, out_count, exact

    # Plain ndarray views: indexing through np.memmap's Python-level
    # __getitem__ would cost more than the join itself on small batches.
    indptr, rank, dist, count = (np.asarray(column) for column in
                                 (flat.indptr, flat.rank, flat.dist, flat.count))
    core = flat.core
    width = core.dist.shape[1]
    diagonal = sources == targets
    starts, lens = _row_spans(indptr, vertices)
    if not flat.overflow_free:
        # The bound caps the pair's sum of products; float rounding is
        # harmless because JOIN_BOUND sits a factor of two below int64's.
        row_max = flat.row_max_count
        bound = (row_max[sources].astype(np.float64) * row_max[targets]
                 * np.minimum(lens[:pairs], lens[pairs:]))
        for i in np.flatnonzero((bound >= JOIN_BOUND) & ~diagonal).tolist():
            exact[i] = _exact_pair(flat, int(sources[i]), int(targets[i]))
    # From here on the spans cover only the tails past the core prefixes.
    skip = core.prefix[vertices]
    starts += skip
    lens -= skip
    len_s = lens[:pairs]
    len_t = lens[pairs:]
    ends = (len_s + len_t + width).cumsum()
    chunks = 0
    lo = 0
    while lo < pairs:
        if deadline is not None:
            deadline.check()
        first = int(ends[lo - 1]) if lo else 0
        hi = max(lo + 1, int(ends.searchsorted(first + CHUNK_ENTRIES,
                                               side="right")))
        if width:
            _core_chunk(core, sources[lo:hi], targets[lo:hi],
                        out_dist[lo:hi], out_count[lo:hi])
        if int(ends[hi - 1]) - first > width * (hi - lo):  # any tail entry
            if hi - lo == pairs:
                spans = starts, lens  # one chunk: no copy of the spans
            else:
                spans = (np.concatenate((starts[lo:hi],
                                         starts[pairs + lo:pairs + hi])),
                         np.concatenate((len_s[lo:hi], len_t[lo:hi])))
            _join_chunk(flat.n, rank, dist, count, *spans,
                        out_dist[lo:hi], out_count[lo:hi])
        chunks += 1
        lo = hi

    # Algorithm 2's special case: the empty path, not a hub meeting.
    out_dist[diagonal] = 0.0
    out_count[diagonal] = 1
    if metered:
        registry.counter("spc_queries_total", engine="flat",
                         kind="pair").inc(pairs)
        registry.counter("spc_query_scan_chunks_total").inc(chunks)
        if exact:
            registry.counter("spc_query_exact_reroutes_total").inc(len(exact))
        registry.histogram("spc_batch_query_seconds").observe(
            perf_counter() - batch_start
        )
    return out_dist, out_count, exact


def count_many_arrays(flat, sources, targets, deadline=None):
    """``(dist, count)`` numpy columns for a batch of pairs.

    ``dist`` is float64 (``inf`` marks disconnected pairs), ``count`` is
    int64. Pairs are answered in chunks of at most :data:`CHUNK_ENTRIES`
    gathered label entries, each met at the dense core hubs (see
    :func:`_core_chunk`), then over the row tails by one vectorized
    sort-merge join (see :func:`_join_chunk`); no per-pair Python and no
    shared buffer, so concurrent callers need no coordination. A one-pair
    batch is answered by :func:`count_pair`'s scalar merge.

    Counts are exact: a pair whose int64 arithmetic the store cannot rule
    out is answered by a python-int merge instead, and if its exact count
    does not fit int64 this raises :class:`~repro.exceptions.LabelingError`
    naming the pair (:func:`count_many` returns such counts as python ints).

    ``deadline`` (duck-typed ``check()``) is consulted before every chunk
    and before a one-pair merge, so a huge batch under a per-request
    budget raises :class:`~repro.exceptions.DeadlineExceeded` promptly
    rather than running to completion.
    """
    sources = np.asarray(sources, dtype=INT)
    targets = np.asarray(targets, dtype=INT)
    if sources.shape == targets.shape == (1,):
        dist, count = np.full(1, INF), np.zeros(1, dtype=INT)
        exact = {0: _one_pair(flat, int(sources[0]), int(targets[0]),
                              deadline)}
    else:
        dist, count, exact = _join(flat, sources, targets, deadline)
    for i, (d, c) in exact.items():
        if c > INT_MAX:
            s, t = int(sources[i]), int(targets[i])
            raise LabelingError(
                f"pair ({s}, {t}) has {c} shortest paths, which does not fit "
                "int64; use count_many for python-int counts"
            )
        dist[i] = d
        count[i] = c
    return dist, count


def count_many(flat, pairs, deadline=None):
    """Batched ``count_query``: list of ``(sd(s,t), spc(s,t))`` tuples.

    Python-native results — ``(inf, 0)`` for disconnected pairs, integer
    distances otherwise, exact python-int counts even past int64 — so
    elements compare equal to :func:`repro.core.query.count_query` output.
    ``deadline`` is threaded through to the join. A one-pair batch is
    answered by :func:`count_pair`'s scalar merge.
    """
    pairs = list(pairs)
    if len(pairs) < 2:
        return [_one_pair(flat, int(s), int(t), deadline) for s, t in pairs]
    sources = np.fromiter((s for s, _ in pairs), dtype=INT, count=len(pairs))
    targets = np.fromiter((t for _, t in pairs), dtype=INT, count=len(pairs))
    dist, count, exact = _join(flat, sources, targets, deadline)
    answers = [
        (int(d), int(c)) if c else (INF, 0)
        for d, c in zip(dist.tolist(), count.tolist())
    ]
    for i, answer in exact.items():
        answers[i] = answer
    return answers


def _may_wrap(flat, sigma_bound, rows, terms):
    """True unless int64 provably holds a sum of ``terms`` products.

    Each product pairs a count of at most ``sigma_bound`` with one from
    ``rows``. Callers test the store-wide :attr:`FlatLabels.overflow_free`
    proof first, so most stores never get here.
    """
    row_max = flat.row_max_count[rows]
    if not row_max.size:
        return False
    return float(sigma_bound) * float(row_max.max()) * terms >= JOIN_BOUND


def single_source(flat, s, deadline=None):
    """``(dist, count)`` arrays from ``s`` over every vertex.

    The one single-source sweep over labels, hub-major: a target meets
    ``s`` only at a hub of ``L(s)``, so only those hubs' posting lists in
    :attr:`FlatLabels.hub_major
    <repro.core.flat_labels.FlatLabels.hub_major>` are read. Every entry
    adds ``dist(s, h)`` of its hub, ``np.minimum.at`` takes each target's
    distance, and ``np.add.at`` sums the count products of the entries at
    it. ``count`` is int64, or an object array of python ints when the
    store's counts could wrap int64. ``deadline`` is checked once, before
    the sweep.
    """
    registry = get_registry()
    if registry.enabled:
        registry.counter("spc_queries_total", engine="flat",
                         kind="single_source").inc()
    _validate_ids(flat, np.asarray([s], dtype=INT))
    if deadline is not None:
        deadline.check()
    n = flat.n
    start, stop = int(flat.indptr[s]), int(flat.indptr[s + 1])
    wide = not flat.overflow_free and _may_wrap(
        flat, flat.row_max_count[s], slice(0, n), stop - start)
    mins = np.full(n, INF)
    counts = np.zeros(n, dtype=object if wide else INT)
    if start == stop:
        return mins, counts
    view = flat.hub_major
    starts, lens = _row_spans(view.indptr,
                              np.asarray(flat.rank[start:stop], dtype=INT))
    # The lists are contiguous runs: concatenating slices beats gathering
    # the same entries through an index array.
    spans = [slice(a, a + k) for a, k in zip(starts.tolist(), lens.tolist())]
    vertex = np.concatenate([view.vertex[span] for span in spans])
    totals = np.add(np.concatenate([view.dist[span] for span in spans]),
                    np.asarray(flat.dist[start:stop]).repeat(lens), dtype=INT)
    best = np.full(n, INT_MAX)
    np.minimum.at(best, vertex, totals)
    met = (totals == best[vertex]).nonzero()[0]
    # Each entry at its target's minimum: its hub's place in L(s), and its
    # own place in the view.
    ends = lens.cumsum()
    via = ends.searchsorted(met, side="right")
    terms = np.asarray(flat.count[start:stop])[via].astype(counts.dtype)
    terms *= view.count[met + (starts + lens - ends)[via]].astype(counts.dtype)
    np.add.at(counts, vertex[met], terms)
    reached = best < INT_MAX
    mins[reached] = best[reached]
    # The diagonal: the empty path, not a hub meeting.
    mins[s] = 0.0
    counts[s] = 1
    return mins, counts


def count_set_to_set(flat, sources, targets):
    """Set-to-set counting ``(sd(S, T), spc(S, T))`` on the flat store.

    Mirrors :func:`repro.core.query.count_set_query`: aggregate the source
    side per hub (minimum distance, counts summed at the minimum) with
    scatter ops, then sweep the target rows once. The count is exact: when
    the row bounds cannot rule out int64 overflow, the per-hub sums and
    their products are python ints.
    """
    registry = get_registry()
    if registry.enabled:
        registry.counter("spc_queries_total", engine="flat",
                         kind="set_to_set").inc()
    sources = np.asarray(list(sources), dtype=INT)
    targets = np.asarray(list(targets), dtype=INT)
    _validate_ids(flat, sources)
    _validate_ids(flat, targets)
    if sources.size == 0 or targets.size == 0:
        return INF, 0

    idx_s, _ = _gather_rows(*_row_spans(flat.indptr, sources))
    ranks_s = flat.rank[idx_s]
    idx_t, _ = _gather_rows(*_row_spans(flat.indptr, targets))
    # A hub's source-side count sums at most one count per source.
    wide = not flat.overflow_free and _may_wrap(
        flat, flat.row_max_count[sources].sum(dtype=np.float64), targets,
        len(idx_t))
    with _borrow_scratch(flat) as (hub_best, hub_count):
        try:
            np.minimum.at(hub_best, ranks_s, flat.dist[idx_s])
            at_best = flat.dist[idx_s] == hub_best[ranks_s]
            if wide:
                hub_sigma = {}
                for rank, c in zip(ranks_s[at_best].tolist(),
                                   flat.count[idx_s[at_best]].tolist()):
                    hub_sigma[rank] = hub_sigma.get(rank, 0) + c
            else:
                np.add.at(hub_count, ranks_s[at_best],
                          flat.count[idx_s[at_best]])

            ranks_t = flat.rank[idx_t]
            totals = hub_best[ranks_t] + flat.dist[idx_t]
            reachable = np.isfinite(totals)
            if not bool(reachable.any()):
                return INF, 0
            delta = totals[reachable].min()
            at_delta = totals == delta
            if wide:
                sigma = sum(hub_sigma[rank] * c for rank, c in zip(
                    ranks_t[at_delta].tolist(),
                    flat.count[idx_t[at_delta]].tolist()))
            else:
                sigma = int(np.sum(hub_count[ranks_t[at_delta]]
                                   * flat.count[idx_t[at_delta]]))
        finally:
            hub_best[ranks_s] = INF
            hub_count[ranks_s] = 0
    if sigma == 0:
        return INF, 0
    return int(delta), sigma
