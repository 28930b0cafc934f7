"""Vectorized HP-SPC construction (Algorithm 1) over CSR arrays.

:func:`build_flat_labels_csr` runs the hub-pushing loop of §3.2 with numpy
level-synchronous sweeps instead of the pure-Python deque BFS in
:mod:`repro.core.hp_spc`. It appends emission chunks to one list that a
single radix argsort finalizes into a compact
:class:`~repro.core.flat_labels.FlatLabels` CSR, with no intermediate
Python :class:`~repro.core.labels.LabelSet`. The labels are entry-for-entry
identical to the Python engine under the same (static) ordering; the test
suite enforces this bit-identity.

Everything runs in *rank space*: vertices are relabeled by their position
in the vertex order, so the rank restriction of ``G_w`` (line 4) is a
single ``neighbors > rank`` mask on gathered CSR rows.

Ranks are pushed in *batches* of consecutive ranks (as PSPC batches label
propagation), so the per-level numpy call overhead, which dominates once
frontiers are small, amortizes across the batch. Each batch
``[base, base + B)`` runs in two phases:

1. **Shared sweep.** Every root ``r`` of the batch explores its ball
   ``G_r`` at once. Vertex ``v`` of slot ``s`` lives at composite index
   ``s*n + v`` in shared ``dist`` / ``count`` arrays, so one
   gather/scatter sequence advances all B frontiers a level: expand the
   frontier, mask off higher-ranked and settled targets, and accumulate
   shortest-path counts (Brandes' Σ) with one sort plus ``reduceat``. The
   pruning join (line 8) runs against the canonical store, which is
   complete for ranks below ``base``. That is a subset of the hubs the
   sequential loop joins against, so the sweep prunes soundly but not
   fully: it keeps a superset of the true entries, and (by the HP-SPC
   pruning lemma) the ``(dist, count)`` of every entry the merge keeps is
   exact.
2. **In-order merge.** Ranks replay in increasing order against the now
   complete store. Only entries appended during the batch (at most B per
   row) can improve a candidate's sweep-time join, so the merge joins just
   those. Each candidate is classified against its trough distance:
   ``best < d`` prunes, ``best == d`` emits non-canonical, ``best > d``
   emits canonical and extends the join store.

With B = 1 the scheme is the sequential hub-push loop. A batch never
crosses a checkpoint watermark, so checkpoints are written at batch
boundaries, and a resume starts batching at any watermark, including one
the python engine wrote.

Counts are int64 with the rigorous overflow guard of
:func:`repro.kernels.bfs.count_guard_threshold`; graphs whose counts
exceed it must use the arbitrary-precision Python engine.
"""

from time import perf_counter

import numpy as np

from repro.core.flat_labels import FlatLabels, narrow_dtypes
from repro.core.ordering import resolve_static_order
from repro.exceptions import CheckpointError, LabelingError
from repro.kernels.bfs import count_guard_threshold, expand_ranges
from repro.observability.metrics import DEFAULT_SIZE_BUCKETS, get_registry
from repro.observability.tracing import get_tracer

INT = np.int64

#: ranks, BFS depths and rank-space vertex ids are all ``< n < 2^32``.
U32 = np.uint32

#: "no path through H_w" sentinel for the pruning join; larger than any
#: real distance sum (distances are < 2^31) yet safely additive in int64.
INF_SENT = np.int64(1) << 40

#: scratch budget for the shared sweep arrays (dist + count + join arena,
#: about 24 bytes per slot and vertex); the batch width keeps them under it.
SCRATCH_BYTES = 768 << 20

#: cap on the batch width. Wider batches lose more to stale pruning (the
#: sweep cannot prune against in-batch hubs) than they save in per-level
#: overhead: at 10^5 vertices width 16 beats width 1 by ~1.13x, while
#: width 64 is ~1.5x slower than width 1.
MAX_BATCH = 16


def default_batch_size(n, scratch_bytes=SCRATCH_BYTES):
    """Ranks per shared sweep: ``MAX_BATCH`` unless the scratch budget binds."""
    if n <= 0:
        return 1
    per_slot = 24 * (n + 2)
    return int(max(1, min(MAX_BATCH, n, scratch_bytes // per_slot)))


class _CanonicalRows:
    """Append-only per-vertex ``(rank, dist)`` rows in a padded 2D buffer.

    The pruning join needs two access patterns the growing labels must
    serve at once: a batched "gather all rows of this frontier" and a cheap
    single-row read for a root's scatter. A padded ``(n, capacity)`` pair
    of uint32 arrays gives both with zero Python-per-entry cost; capacity
    doubles on demand, so total reallocation stays linear in the final
    size. Empty slots hold the sentinel rank ``n``, whose join-array entry
    is permanently infinite.
    """

    __slots__ = ("n", "capacity", "rank", "dist", "length")

    def __init__(self, n, capacity=8):
        self.n = n
        self.capacity = capacity
        self.rank = np.full((n, capacity), n, dtype=U32)
        self.dist = np.zeros((n, capacity), dtype=U32)
        self.length = np.zeros(n, dtype=INT)

    def _grow(self, need):
        capacity = self.capacity
        while capacity < need:
            capacity *= 2
        rank = np.full((self.n, capacity), self.n, dtype=U32)
        rank[:, : self.capacity] = self.rank
        dist = np.zeros((self.n, capacity), dtype=U32)
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

    def gather_best_suffix(self, verts, start, rank_dist):
        """Pruning join restricted to each row's suffix ``[start[i]:]``.

        The merge already knows the exact join value over every entry
        present when the batch began (the sweep computed it against the
        complete store below the batch base); only entries appended
        *during* the batch can improve it. Returns ``(best, extra)`` where
        ``extra`` is the suffix lengths.
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
        terms = rank_dist[self.rank[rows2d, cols]] + self.dist[rows2d, cols]
        terms[~valid] = INF_SENT
        return terms.min(axis=1), extra

    def gather_best_at(self, verts, offsets, arena):
        """Pruning join against per-vertex slices of a strided arena.

        ``best[i] = min over entries (h, d) of verts[i] of
        arena[offsets[i] + h] + d`` (``INF_SENT`` when no finite term
        exists): the sweep keeps one join slice per in-flight root, so a
        whole multi-root frontier joins at once. The gather is *ragged*
        (flat indices over exactly ``sum(lengths)`` entries, segmented min
        via ``reduceat``) rather than padded 2D: a multi-root frontier
        mixes short and long rows, so padding to the longest row would
        multiply the join work severalfold.
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
    """Stack the emission chunks into a rank-sorted, compact FlatLabels.

    ``chunks`` holds ``(rank, verts, dists, counts, canonical)`` with verts
    in rank space. Entries are grouped by push in rank order, so one stable
    argsort on the original vertex id produces CSR rows whose rank column
    is strictly increasing, exactly the layout
    ``FlatLabels.from_label_set`` builds. The columns come out as narrow as
    :meth:`FlatLabels.compact` makes them.
    """
    indptr = np.zeros(n + 1, dtype=INT)
    if not chunks:
        empty = np.empty(0, dtype=U32)
        return FlatLabels(n, indptr, empty, None, empty.astype(np.uint16),
                          empty, np.empty(0, dtype=np.bool_), order_np)
    ranks, verts, dists, counts, flags = zip(*chunks)
    sizes = np.fromiter(map(len, verts), INT, count=len(chunks))
    vert_orig = order_np.astype(U32)[np.concatenate(verts)]
    perm = _radix_argsort(vert_orig, n)
    np.cumsum(np.bincount(vert_orig, minlength=n), out=indptr[1:])
    del vert_orig
    dist = np.concatenate(dists)
    count = np.concatenate(counts)
    dist_dtype, count_dtype = narrow_dtypes(dist, count)
    dist = dist.astype(dist_dtype)[perm]
    count = count.astype(count_dtype)[perm]
    return FlatLabels(
        n, indptr, np.repeat(np.array(ranks, dtype=U32), sizes)[perm], None,
        dist, count, np.repeat(np.array(flags, dtype=np.bool_), sizes)[perm],
        order_np,
    )


def _prefix_to_chunks(prefix, rank_of, rows):
    """Split a checkpoint prefix back into ``(rank, flag)`` emission chunks
    and refill the canonical join store; the inverse of the
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
    dists = flat.dist.astype(U32)
    counts = flat.count.astype(INT)
    flags = flat.canonical.astype(np.bool_)
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
    verts, dists, counts = verts[perm].astype(U32), dists[perm], counts[perm]
    return [
        (rank_flag >> 1, verts[head:end], dists[head:end], counts[head:end],
         not rank_flag & 1)
        for rank_flag, head, end in zip(key[heads].tolist(), heads.tolist(),
                                        ends)
    ]


class _Sweep:
    """The shared per-batch scratch: composite ``dist`` / ``count`` arrays
    and one join slice of the arena per slot, all reset after each batch.
    """

    __slots__ = ("n", "stride", "dist", "count", "arena")

    def __init__(self, n, width):
        self.n = n
        self.stride = n + 2  # one join slice per slot; its tail stays INF
        self.dist = np.full(width * n, -1, dtype=INT)
        self.count = np.zeros(width * n, dtype=INT)
        self.arena = np.full(width * self.stride, INF_SENT, dtype=INT)

    def run(self, base, width, rindptr, rindices, rows, threshold, stats):
        """Phase 1: sweep ranks ``[base, base + width)`` together.

        Returns, per slot, ``None`` or its candidates ``(verts, dists,
        counts, best, lengths)``: ``best`` is the exact join value over
        each candidate's row as it stood at ``base``, and ``lengths`` the
        row lengths then, so the merge only joins against what earlier
        in-batch ranks append past them.
        """
        n, stride = self.n, self.stride
        dist, count, arena = self.dist, self.count, self.arena
        arena_touched = []
        for slot in range(width):
            root_ranks, root_dists = rows.row(base + slot)
            if root_ranks.size:
                idx = slot * stride + root_ranks.astype(INT)
                arena[idx] = root_dists
                arena_touched.append(idx)
        slots = np.arange(width, dtype=INT)
        roots = slots * n + base + slots
        dist[roots] = 0
        count[roots] = 1
        if stats is not None:
            stats.visits += width
        visited = [roots]
        frontier = roots
        cand = [[] for _ in range(width)]
        depth = 0
        while frontier.size:
            fverts = frontier % n
            fslots = frontier // n
            starts = rindptr[fverts]
            degrees = rindptr[fverts + 1] - starts
            neighbors = rindices[expand_ranges(starts, degrees)]
            nslots = np.repeat(fslots, degrees)
            forwarded = np.repeat(count[frontier], degrees)
            # Each slot's rank restriction: stay inside G_{base+slot}.
            keep = neighbors > base + nslots
            comp = nslots[keep] * n + neighbors[keep]
            forwarded = forwarded[keep]
            open_mask = dist[comp] < 0
            comp = comp[open_mask]
            if comp.size == 0:
                break
            # Fused scatter-add + unique: one sort groups duplicate
            # targets, reduceat sums their forwarded counts exactly in
            # int64 (the guard threshold bounds per-target sums), and the
            # group heads are np.unique(comp) for free.
            perm = np.argsort(comp)
            sorted_comp = comp[perm]
            heads = np.concatenate((
                np.zeros(1, dtype=INT),
                np.flatnonzero(sorted_comp[1:] != sorted_comp[:-1]) + 1,
            ))
            new = sorted_comp[heads]
            count[new] = np.add.reduceat(forwarded[open_mask][perm], heads)
            depth += 1
            dist[new] = depth
            visited.append(new)
            if int(count[new].max()) > threshold:
                raise LabelingError(
                    "shortest-path count exceeds the int64 kernel guard; "
                    "use the python engine for this graph"
                )
            new_slots = new // n
            best, lengths = rows.gather_best_at(new % n, new_slots * stride,
                                                arena)
            kept_mask = best >= depth  # the store below base prunes soundly
            kept = new[kept_mask]
            if stats is not None:
                stats.visits += new.size
                stats.join_terms += int(lengths.sum())
                stats.prunes += new.size - kept.size
            if kept.size:
                kverts = kept % n
                kslots = new_slots[kept_mask]
                # `new` is sorted, so kept is grouped by slot.
                bounds = np.searchsorted(kslots, np.arange(width + 1)).tolist()
                kcounts = count[kept]
                kbest = best[kept_mask]
                for slot in range(width):
                    lo, hi = bounds[slot], bounds[slot + 1]
                    if lo < hi:
                        cand[slot].append((kverts[lo:hi], depth,
                                           kcounts[lo:hi], kbest[lo:hi]))
            frontier = kept
        for touched in visited:
            dist[touched] = -1
            count[touched] = 0
        for idx in arena_touched:
            arena[idx] = INF_SENT
        merged = []
        for pieces in cand:
            if not pieces:
                merged.append(None)
                continue
            verts = np.concatenate([piece[0] for piece in pieces])
            merged.append((
                verts,
                np.concatenate([np.full(piece[0].size, piece[1], dtype=U32)
                                for piece in pieces]),
                np.concatenate([piece[2] for piece in pieces]),
                np.concatenate([piece[3] for piece in pieces]),
                rows.length[verts],
            ))
        return merged


def build_flat_labels_csr(graph, ordering="degree", stats=None,
                          checkpoint=None):
    """Run rank-batched HP-SPC with numpy kernels; returns a compact
    :class:`FlatLabels`.

    Produces labels bit-identical to :func:`repro.core.hp_spc.build_labels`
    under the same ordering. The ordering must be static (adaptive
    strategies raise :class:`~repro.exceptions.OrderingError`); counts are
    int64 and guarded against overflow (:class:`LabelingError` advises the
    Python engine when tripped). The §4.2/§4.3 reduction knobs and the
    unpruned PL-SPC baseline stay on the python engine.

    ``stats`` (a :class:`~repro.core.hp_spc.BuildStats`) receives the
    construction counters. ``pushes``, ``label_entries``,
    ``checkpoint_saves`` and ``resumed_pushes`` equal the python engine's;
    ``visits``, ``prunes`` and ``join_terms`` count the batched sweep's
    own work (sweep prunes plus merge prunes), which differs.

    ``checkpoint`` (a :class:`~repro.io.checkpoint.BuildCheckpoint`)
    enables periodic rank-watermark persistence and resume, exactly as in
    :func:`repro.core.hp_spc.build_labels`: checkpoints are engine-neutral,
    so either engine can resume the other's.
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
        batch_hist = registry.histogram("spc_build_batch_seconds")
        batches = registry.counter("spc_build_batches_total")
    order = resolve_static_order(graph, ordering)
    order_np = np.asarray(order, dtype=INT) if n else np.empty(0, dtype=INT)

    rank_of = np.empty(n, dtype=INT)
    rank_of[order_np] = np.arange(n, dtype=INT)
    rindptr, rindices = _rank_space_csr(graph, order_np, rank_of)
    max_degree = int((rindptr[1:] - rindptr[:-1]).max()) if n else 0
    threshold = count_guard_threshold(max_degree)

    # Canonical join store: exact and complete below the current batch.
    rows = _CanonicalRows(n)
    chunks = []  # (rank, verts, dists, counts, canonical) in rank space
    merge_rank_dist = np.full(n + 2, INF_SENT, dtype=INT)
    zero = np.zeros(1, dtype=U32)
    one = np.ones(1, dtype=INT)

    start_rank = 0
    every = 0
    checkpoint_fp = None
    if checkpoint is not None:
        from repro.io.serialize import graph_fingerprint

        checkpoint_fp = graph_fingerprint(graph)
        every = max(checkpoint.every, 0)
        prefix = checkpoint.load(graph=graph, order=order_np)
        if prefix is not None:
            start_rank = prefix.watermark
            chunks = _prefix_to_chunks(prefix, rank_of, rows)
            if stats is not None:
                stats.resumed_pushes += start_rank

    width_cap = default_batch_size(n)
    sweep = _Sweep(n, width_cap)

    build_span = tracer.begin("build.csr", n=n) if traced else None
    try:
        base = start_rank
        while base < n:
            if metered:
                batch_start = perf_counter()
            end = min(base + width_cap, n)
            if every:
                # Never cross a watermark: saves happen at batch ends.
                end = min(end, (base // every + 1) * every)
            width = end - base
            merged = sweep.run(base, width, rindptr, rindices, rows,
                               threshold, stats)

            # --- phase 2: replay ranks in order against exact labels -----
            for slot in range(width):
                r = base + slot
                if metered:
                    push_start = perf_counter()
                push_span = (tracer.begin("hp_spc.push", rank=r)
                             if traced else None)
                if stats is not None:
                    stats.pushes += 1
                root_ranks, root_dists = rows.row(r)
                if root_ranks.size:
                    merge_rank_dist[root_ranks] = root_dists
                # The root self-entry; like the python engine, it does not
                # count toward stats.label_entries.
                chunks.append((r, np.array([r], dtype=U32), zero, one, True))
                emitted = 0
                if merged[slot] is not None:
                    verts, dists, counts, best1, len0 = merged[slot]
                    suffix_best, extra = rows.gather_best_suffix(
                        verts, len0, merge_rank_dist
                    )
                    best = np.minimum(best1, suffix_best)
                    canonical_mask = best > dists
                    noncanonical_mask = best == dists
                    emit_can = verts[canonical_mask]
                    emit_non = verts[noncanonical_mask]
                    emitted = emit_can.size + emit_non.size
                    if stats is not None:
                        stats.join_terms += int(extra.sum())
                        stats.prunes += verts.size - emitted
                        stats.label_entries += emitted
                    if emit_can.size:
                        can_dists = dists[canonical_mask]
                        chunks.append((r, emit_can.astype(U32), can_dists,
                                       counts[canonical_mask], True))
                        rows.append(emit_can, r, can_dists)
                    if emit_non.size:
                        chunks.append((r, emit_non.astype(U32),
                                       dists[noncanonical_mask],
                                       counts[noncanonical_mask], False))
                if root_ranks.size:
                    merge_rank_dist[root_ranks] = INF_SENT
                if metered:
                    push_hist.observe(perf_counter() - push_start)
                    growth_hist.observe(emitted)
                if traced:
                    tracer.end(push_span)
            base = end
            if metered:
                batch_hist.observe(perf_counter() - batch_start)
                batches.inc()
            if checkpoint is not None and checkpoint.should_save(end, n):
                checkpoint.save(
                    end, lambda: (_finalize_flat(n, order_np, chunks), {}),
                    fingerprint=checkpoint_fp,
                )
                if stats is not None:
                    stats.checkpoint_saves += 1
                if metered:
                    registry.counter("spc_checkpoint_saves_total").inc()

        if checkpoint is not None:
            checkpoint.discard()
        del rows, sweep  # the join store is dead weight during finalize
        with tracer.span("build.finalize", engine="csr"):
            flat = _finalize_flat(n, order_np, chunks)
    finally:
        if traced:
            tracer.end(build_span)
    if metered:
        if flat.count_dtype_escaped():
            registry.counter("spc_count_overflow_escapes_total").inc()
        total_entries = flat.total_entries()
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
