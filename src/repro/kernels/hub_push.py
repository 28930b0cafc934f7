"""Vectorized HP-SPC construction (Algorithm 1) over CSR arrays.

:func:`build_flat_labels_csr` runs the hub-pushing loop of §3.2 with numpy
level-synchronous sweeps instead of the pure-Python deque BFS in
:mod:`repro.core.hp_spc`, and appends straight into growing columnar
buffers that finalize into a :class:`~repro.core.flat_labels.FlatLabels`
CSR — no intermediate Python :class:`~repro.core.labels.LabelSet`. The
labels are entry-for-entry identical to the Python engine under the same
(static) ordering; the test suite enforces this bit-identity.

Everything runs in *rank space*: vertices are relabeled by their position
in the vertex order, so the rank restriction of ``G_w`` (line 4) is a
single ``neighbors > rank`` mask on gathered CSR rows. The per-level sweep
is:

1. **Expand** the frontier with :func:`~repro.kernels.bfs.expand_ranges`
   gathers, mask off higher-ranked (already pushed) and settled targets.
2. **Accumulate** shortest-path counts into the new level with exact
   int64 scatter-adds (Brandes' Σ, same recurrence as the scalar BFS).
3. **Join** (line 8): the already-frozen canonical columns live in a
   padded per-vertex ``(rank, dist)`` store (:class:`_CanonicalRows`);
   ``rank_dist`` is scattered once per push from the root's canonical row,
   and one batched 2D gather + row-min computes
   ``best = min_h(sd(w, h) + sd(v, h))`` for the whole level at once.
4. **Classify** against the trough distance: ``best < d`` prunes (no
   forwarding), ``best == d`` emits non-canonical, ``best > d`` emits
   canonical and extends the join store.

Counts are int64 with the rigorous overflow guard of
:func:`repro.kernels.bfs.count_guard_threshold`; graphs whose counts
exceed it must use the arbitrary-precision Python engine.
"""

from time import perf_counter

import numpy as np

from repro.core.flat_labels import FlatLabels
from repro.core.ordering import resolve_static_order
from repro.exceptions import CheckpointError, LabelingError
from repro.kernels.bfs import count_guard_threshold, expand_ranges
from repro.observability.metrics import DEFAULT_SIZE_BUCKETS, get_registry
from repro.observability.tracing import get_tracer

INT = np.int64

#: "no path through H_w" sentinel for the pruning join; larger than any
#: real distance sum (distances are < 2^31) yet safely additive in int64.
INF_SENT = np.int64(1) << 40

#: exact float64 integer arithmetic holds below 2^53; per-target sums of
#: ``max_degree`` addends stay exact when every addend is below this.
_FLOAT_EXACT = np.int64(1) << 53


class _CanonicalRows:
    """Append-only per-vertex ``(rank, dist)`` rows in a padded 2D buffer.

    The pruning join needs two access patterns the growing labels must
    serve at once: a batched "gather all rows of this frontier" (one 2D
    fancy-index per level) and a cheap single-row read for the root's
    scatter. A padded ``(n, capacity)`` pair of arrays gives both with
    zero Python-per-entry cost; capacity doubles on demand, so total
    reallocation stays linear in the final size. Empty slots hold the
    sentinel rank ``n`` whose ``rank_dist`` entry is permanently infinite.
    """

    __slots__ = ("n", "sentinel", "capacity", "rank", "dist", "length")

    def __init__(self, n, capacity=8, rank_dtype=INT, dist_dtype=INT):
        # The batched builder passes uint32 dtypes (6x smaller padded
        # store at million-vertex scale); int64 arithmetic still applies
        # everywhere because the join adds into int64 rank_dist arrays.
        self.n = n
        self.sentinel = n
        self.capacity = capacity
        self.rank = np.full((n, capacity), n, dtype=rank_dtype)
        self.dist = np.zeros((n, capacity), dtype=dist_dtype)
        self.length = np.zeros(n, dtype=INT)

    def _grow(self, need):
        capacity = self.capacity
        while capacity < need:
            capacity *= 2
        rank = np.full((self.n, capacity), self.sentinel, dtype=self.rank.dtype)
        rank[:, : self.capacity] = self.rank
        dist = np.zeros((self.n, capacity), dtype=self.dist.dtype)
        dist[:, : self.capacity] = self.dist
        self.rank, self.dist, self.capacity = rank, dist, capacity

    def append(self, verts, rank, dists):
        """Append one ``(rank, dist)`` entry per vertex (verts are unique)."""
        lengths = self.length[verts]
        need = int(lengths.max()) + 1
        if need > self.capacity:
            self._grow(need)
        self.rank[verts, lengths] = rank
        self.dist[verts, lengths] = dists
        self.length[verts] = lengths + 1

    def fill(self, verts, ranks, dists):
        """Load entries into empty rows with one scatter (checkpoint resume).

        Each vertex's entries must arrive in rank order; vertices may
        interleave.
        """
        perm = _radix_argsort(verts, self.n)
        verts = verts[perm]
        lengths = np.bincount(verts, minlength=self.n)
        need = int(lengths.max()) if self.n else 0
        if need > self.capacity:
            self._grow(need)
        cols = np.arange(verts.size, dtype=INT) - (np.cumsum(lengths)
                                                   - lengths)[verts]
        self.rank[verts, cols] = ranks[perm]
        self.dist[verts, cols] = dists[perm]
        self.length[:] = lengths

    def row(self, v):
        """The ``(ranks, dists)`` views of vertex ``v``'s entries."""
        length = int(self.length[v])
        return self.rank[v, :length], self.dist[v, :length]

    def gather_best(self, verts, rank_dist):
        """Batched pruning join: ``(best, lengths)`` for each vertex.

        ``best[i] = min over entries (h, d) of verts[i] of rank_dist[h] + d``
        (``INF_SENT`` when no finite term exists). One 2D gather over the
        padded rows, sliced to the batch's longest row.
        """
        lengths = self.length[verts]
        width = int(lengths.max()) if verts.size else 0
        if width == 0:
            return np.full(verts.size, INF_SENT, dtype=INT), lengths
        sub_rank = self.rank[verts, :width]
        sub_dist = self.dist[verts, :width]
        best = (rank_dist[sub_rank] + sub_dist).min(axis=1)
        return best, lengths

    def gather_best_suffix(self, verts, start, rank_dist):
        """Pruning join restricted to each row's suffix ``[start[i]:]``.

        The batched builder's merge already knows the exact join value
        over every entry present when the batch began (phase 1 computed
        it against the complete store below the batch base); only entries
        appended *during* the batch — at most batch-width per row — can
        improve it. Joining over just that suffix keeps the merge's join
        cost proportional to in-batch growth instead of full row lengths.
        Returns ``(best, extra)`` where ``extra`` is the suffix lengths.
        """
        lengths = self.length[verts]
        extra = lengths - start
        width = int(extra.max()) if verts.size else 0
        if width == 0:
            return np.full(verts.size, INF_SENT, dtype=INT), extra
        cols = start[:, None] + np.arange(width, dtype=INT)
        valid = cols < lengths[:, None]
        cols = np.minimum(cols, self.capacity - 1)
        rows2d = verts[:, None]
        sub_rank = self.rank[rows2d, cols]
        sub_dist = self.dist[rows2d, cols]
        terms = rank_dist[sub_rank] + sub_dist
        terms[~valid] = INF_SENT
        return terms.min(axis=1), extra

    def gather_best_at(self, verts, offsets, arena):
        """Pruning join against per-vertex slices of a strided arena.

        Like :meth:`gather_best`, but each vertex joins against its own
        ``rank_dist`` slice ``arena[offsets[i] : offsets[i] + n + 2]`` —
        the batched builder keeps one such slice per in-flight root, so a
        whole multi-root frontier joins at once. The gather is *ragged*
        (flat indices over exactly ``sum(lengths)`` entries, segmented
        min via ``reduceat``) rather than padded 2D: a multi-root
        frontier mixes short and long rows, so padding to the longest
        row would multiply the join work severalfold.
        """
        lengths = self.length[verts]
        best = np.full(verts.size, INF_SENT, dtype=INT)
        nonzero = lengths > 0
        if not nonzero.any():
            return best, lengths
        vnz = verts[nonzero]
        lnz = lengths[nonzero]
        flat = expand_ranges(vnz * self.capacity, lnz)
        sub_rank = self.rank.ravel()[flat]
        sub_dist = self.dist.ravel()[flat]
        terms = arena[np.repeat(offsets[nonzero], lnz) + sub_rank] + sub_dist
        heads = np.zeros(lnz.size, dtype=INT)
        np.cumsum(lnz[:-1], out=heads[1:])
        best[nonzero] = np.minimum.reduceat(terms, heads)
        return best, lengths


def _rank_space_csr(graph, order_np, rank_of):
    """Relabel the cached CSR by rank so vertex ``i`` is the rank-``i`` hub."""
    indptr, indices = graph.csr()
    n = order_np.size
    degrees = indptr[1:] - indptr[:-1]
    rdeg = degrees[order_np]
    rindptr = np.zeros(n + 1, dtype=INT)
    np.cumsum(rdeg, out=rindptr[1:])
    gather = expand_ranges(indptr[order_np], rdeg)
    rindices = rank_of[indices[gather]] if gather.size else np.empty(0, dtype=INT)
    return rindptr, rindices


def _scatter_add_counts(count, targets, values, n, exact_threshold):
    """Exact int64 ``count[targets] += values`` with duplicate targets.

    Dense levels route through ``np.bincount`` (float64 accumulation is
    integer-exact while every addend — and hence every per-target sum of at
    most ``max_degree`` addends — stays below 2^53); sparse levels and
    large counts fall back to exact ``np.add.at``.
    """
    if targets.size > (n >> 3) and int(values.max()) <= exact_threshold:
        accumulated = np.bincount(targets, weights=values, minlength=n)
        count += accumulated.astype(INT)
    else:
        np.add.at(count, targets, values)


def _radix_argsort(keys, bound):
    """Stable argsort of int keys in ``[0, bound)``, ``bound <= 2^32``.

    Runs as 16-bit radix passes, which numpy's stable sort does in linear
    time: several times faster than its merge sort of int64 keys.
    """
    perm = np.argsort(keys.astype(np.uint16), kind="stable")
    if bound > 1 << 16:
        perm = perm[np.argsort((keys[perm] >> 16).astype(np.uint16),
                               kind="stable")]
    return perm


def _finalize_flat(n, order_np, chunks):
    """Stack the per-push emission chunks into a rank-sorted FlatLabels.

    ``chunks`` holds ``(rank, verts, dists, counts, canonical)`` with verts
    in rank space. Entries are grouped by push, so one stable argsort on
    the original vertex id produces CSR rows whose rank column is strictly
    increasing — exactly the layout ``FlatLabels.from_label_set`` builds.
    """
    order_out = order_np.copy()
    if not chunks:
        empty = np.empty(0, dtype=INT)
        return FlatLabels(
            n, np.zeros(n + 1, dtype=INT), empty, None, empty.copy(),
            empty.copy(), np.empty(0, dtype=np.bool_), order_out,
        )
    ranks, verts, dists, counts, flags = zip(*chunks)
    sizes = np.fromiter(map(len, verts), INT, count=len(chunks))
    ranks = np.repeat(np.array(ranks, dtype=INT), sizes)
    flags = np.repeat(np.array(flags, dtype=np.bool_), sizes)
    vert_orig = order_np[np.concatenate(verts)]
    perm = _radix_argsort(vert_orig, n)
    indptr = np.zeros(n + 1, dtype=INT)
    np.cumsum(np.bincount(vert_orig, minlength=n), out=indptr[1:])
    return FlatLabels(
        n, indptr, ranks[perm], None, np.concatenate(dists)[perm],
        np.concatenate(counts)[perm], flags[perm], order_out,
    )


def _prefix_to_chunks(prefix, rank_of, rows):
    """Split a checkpoint prefix back into ``(rank, flag)`` emission chunks
    and, when pruning, refill the canonical join store; the inverse of the
    :func:`_finalize_flat` gather a save runs.

    Within a vertex each rank appears once, so rank-ascending chunks
    reproduce the strictly increasing rank columns ``_finalize_flat``
    builds.
    """
    if prefix.wide:
        raise CheckpointError(
            "checkpointed count exceeds int64; resume this build with the "
            "python engine"
        )
    flat = prefix.flat
    verts = rank_of[np.repeat(np.arange(flat.n, dtype=INT),
                              np.diff(flat.indptr))]
    ranks = flat.rank.astype(INT)
    dists = flat.dist.astype(INT)
    counts = flat.count.astype(INT)
    flags = flat.canonical.astype(np.bool_)
    if rows is not None:
        # The join store never holds a root's self-entry (vert == rank).
        keep = flags & (verts != ranks)
        rows.fill(verts[keep], ranks[keep], dists[keep])
    if not ranks.size:
        return []
    # One chunk per (rank, flag), canonical first.
    key = ranks * 2 + ~flags
    perm = _radix_argsort(key, 2 * flat.n)
    key = key[perm]
    heads = np.flatnonzero(np.diff(key, prepend=-1))
    ends = np.append(heads[1:], key.size).tolist()
    verts, dists, counts = verts[perm], dists[perm], counts[perm]
    return [
        (rank_flag >> 1, verts[head:end], dists[head:end], counts[head:end],
         not rank_flag & 1)
        for rank_flag, head, end in zip(key[heads].tolist(), heads.tolist(),
                                        ends)
    ]


def build_flat_labels_csr(
    graph,
    ordering="degree",
    multiplicity=None,
    skip=None,
    prune=True,
    stats=None,
    checkpoint=None,
):
    """Run HP-SPC with numpy kernels; returns a finalized :class:`FlatLabels`.

    Accepts the same knobs as :func:`repro.core.hp_spc.build_labels`
    (``multiplicity`` for the §4.2 equivalence reduction, ``skip`` for the
    §4.3 independent-set reduction, ``prune=False`` for PL-SPC-style
    labels, ``stats`` for construction counters) and produces bit-identical
    labels — same entries, same canonical/non-canonical split, same
    ``BuildStats`` counters. The ordering must be static (adaptive
    strategies raise :class:`~repro.exceptions.OrderingError`); counts are
    int64 and guarded against overflow (:class:`LabelingError` advises the
    Python engine when tripped).

    ``checkpoint`` (a :class:`~repro.io.checkpoint.BuildCheckpoint`)
    enables periodic rank-watermark persistence and resume, exactly as in
    :func:`repro.core.hp_spc.build_labels` — checkpoints are
    engine-neutral, so either engine can resume the other's.
    """
    n = graph.n
    registry = get_registry()
    tracer = get_tracer()
    metered = registry.enabled
    traced = tracer.enabled
    if metered:
        build_start = perf_counter()
        push_hist = registry.histogram("spc_build_push_seconds", engine="csr")
        growth_hist = registry.histogram(
            "spc_build_entries_per_push", buckets=DEFAULT_SIZE_BUCKETS,
            engine="csr",
        )
    order = resolve_static_order(graph, ordering)
    order_np = np.asarray(order, dtype=INT) if n else np.empty(0, dtype=INT)

    rmult = None
    max_mult = 1
    if multiplicity is not None:
        mult = np.asarray(list(multiplicity), dtype=INT)
        if mult.shape != (n,):
            raise ValueError("multiplicity must have one entry per vertex")
        rmult = mult[order_np]
        max_mult = int(rmult.max()) if n else 1
    rskip = None
    if skip is not None:
        skip_arr = np.asarray(list(skip), dtype=np.bool_)
        if skip_arr.shape != (n,):
            raise ValueError("skip must have one entry per vertex")
        if skip_arr.any():
            rskip = skip_arr[order_np]

    rank_of = np.empty(n, dtype=INT)
    rank_of[order_np] = np.arange(n, dtype=INT)
    rindptr, rindices = _rank_space_csr(graph, order_np, rank_of)
    max_degree = int((rindptr[1:] - rindptr[:-1]).max()) if n else 0
    threshold = count_guard_threshold(max_degree, max_mult)
    if threshold < 1:
        raise LabelingError(
            "multiplicity too large for the int64 kernel guard; use the python engine"
        )
    exact_threshold = int(_FLOAT_EXACT) // (max_degree + 1)

    dist = np.full(n, -1, dtype=INT)
    count = np.zeros(n, dtype=INT)
    rows = _CanonicalRows(n) if prune else None
    rank_dist = np.full(n + 2, INF_SENT, dtype=INT) if prune else None
    chunks = []  # (rank, verts, dists, counts, canonical) in rank space
    one = np.ones(1, dtype=INT)

    start_rank = 0
    checkpoint_fp = None
    if checkpoint is not None:
        from repro.io.serialize import graph_fingerprint

        checkpoint_fp = graph_fingerprint(graph)
        prefix = checkpoint.load(graph=graph, order=order_np)
        if prefix is not None:
            start_rank = prefix.watermark
            chunks = _prefix_to_chunks(prefix, rank_of, rows)
            if stats is not None:
                stats.resumed_pushes += start_rank

    build_span = tracer.begin("build.csr", n=n) if traced else None
    try:
        for r in range(start_rank, n):
            if metered:
                push_start = perf_counter()
                push_entries = 0
            push_span = tracer.begin("hp_spc.push", rank=r) if traced else None
            if prune:
                root_ranks, root_dists = rows.row(r)
                if root_ranks.size:
                    rank_dist[root_ranks] = root_dists
            if stats is not None:
                stats.pushes += 1
                stats.visits += 1
            dist[r] = 0
            count[r] = 1
            root = np.array([r], dtype=INT)
            if rskip is None or not rskip[r]:
                # The root self-entry; like the scalar builder, it does not
                # count toward stats.label_entries.
                chunks.append((r, root, np.zeros(1, dtype=INT), one, True))
            visited = [root]
            frontier = root
            depth = 0
            while frontier.size:
                starts = rindptr[frontier]
                degrees = rindptr[frontier + 1] - starts
                neighbors = rindices[expand_ranges(starts, degrees)]
                fcount = count[frontier]
                if rmult is not None and depth > 0:
                    # forwarded = count(v) * mult(v) for v != w (Lemma 4.4);
                    # the guard threshold already folds max_mult in, so no
                    # wrap here.
                    fcount = fcount * rmult[frontier]
                forwarded = np.repeat(fcount, degrees)
                keep = neighbors > r  # the rank restriction: stay inside G_w
                neighbors = neighbors[keep]
                forwarded = forwarded[keep]
                open_mask = dist[neighbors] < 0
                neighbors = neighbors[open_mask]
                if neighbors.size == 0:
                    break
                _scatter_add_counts(count, neighbors, forwarded[open_mask], n,
                                    exact_threshold)
                new = np.unique(neighbors)
                depth += 1
                dist[new] = depth
                visited.append(new)
                if stats is not None:
                    stats.visits += new.size
                if int(count[new].max()) > threshold:
                    raise LabelingError(
                        "shortest-path count exceeds the int64 kernel guard; "
                        "use the python engine for this graph"
                    )
                if rskip is not None:
                    skip_mask = rskip[new]
                    skipped = new[skip_mask]
                    candidates = new[~skip_mask]
                else:
                    skipped = None
                    candidates = new
                if prune and candidates.size:
                    best, lengths = rows.gather_best(candidates, rank_dist)
                    if stats is not None:
                        stats.join_terms += int(lengths.sum())
                    pruned = best < depth
                    emit_can = candidates[best > depth]
                    emit_non = candidates[best == depth]
                    survivors = candidates[~pruned]
                    if stats is not None:
                        stats.prunes += int(pruned.sum())
                else:
                    emit_can = candidates
                    emit_non = candidates[:0]
                    survivors = candidates
                if emit_can.size:
                    chunks.append((r, emit_can,
                                   np.full(emit_can.size, depth, dtype=INT),
                                   count[emit_can], True))
                    if prune:
                        rows.append(emit_can, r, depth)
                if emit_non.size:
                    chunks.append((r, emit_non,
                                   np.full(emit_non.size, depth, dtype=INT),
                                   count[emit_non], False))
                if stats is not None:
                    stats.label_entries += emit_can.size + emit_non.size
                if metered:
                    push_entries += emit_can.size + emit_non.size
                frontier = survivors if skipped is None else np.concatenate(
                    (skipped, survivors)
                )
            for touched in visited:
                dist[touched] = -1
                count[touched] = 0
            if prune and root_ranks.size:
                rank_dist[root_ranks] = INF_SENT
            if metered:
                push_hist.observe(perf_counter() - push_start)
                growth_hist.observe(push_entries)
            if traced:
                tracer.end(push_span)
            if checkpoint is not None and checkpoint.should_save(r + 1, n):
                checkpoint.save(
                    r + 1, lambda: (_finalize_flat(n, order_np, chunks), {}),
                    fingerprint=checkpoint_fp,
                )
                if stats is not None:
                    stats.checkpoint_saves += 1
                if metered:
                    registry.counter("spc_checkpoint_saves_total").inc()

        if checkpoint is not None:
            checkpoint.discard()
        with tracer.span("build.finalize", engine="csr"):
            flat = _finalize_flat(n, order_np, chunks)
    finally:
        if traced:
            tracer.end(build_span)
    if metered:
        total_entries = int(flat.indptr[n]) if n else 0
        registry.counter("spc_build_pushes_total", engine="csr").inc(
            n - start_rank
        )
        registry.counter("spc_build_label_entries_total", engine="csr").inc(
            total_entries
        )
        if start_rank:
            registry.counter(
                "spc_build_resumed_pushes_total", engine="csr"
            ).inc(start_rank)
        registry.gauge("spc_label_total_entries", engine="csr").set(
            total_entries
        )
        registry.gauge("spc_label_avg_size", engine="csr").set(
            total_entries / n if n else 0.0
        )
        registry.histogram("spc_build_seconds", engine="csr").observe(
            perf_counter() - build_start
        )
    return flat
