"""Rank-batched hub-push: shared-array vertex parallelism in one process.

:func:`build_flat_labels_batched` is the large-graph construction engine
(``engine="csr-batch"``). It processes *batches of consecutive ranks*
inside one address space, PSPC-style: all roots of a batch run a single
level-synchronous sweep over shared composite-indexed frontier arrays,
so the per-level numpy call overhead — what dominates the sequential csr
engine once frontiers are small — amortizes across the whole batch.

Each batch runs in two phases:

1. **Batched sweep** (phase 1): every root ``r`` in ``[base, base+B)``
   explores its rank-restricted ball ``G_r`` simultaneously. Vertex ``v``
   of slot ``s`` lives at composite index ``s*n + v`` in shared ``dist``
   / ``count`` arrays, so one gather/scatter sequence advances all B
   frontiers a level. Pruning joins run against the *global* canonical
   store, which is exact and complete for ranks below ``base`` — a
   subset of the join information the sequential builder has, hence
   sound under-pruning: phase 1 keeps a superset of the true label
   entries, and (by the HP-SPC pruning lemma) the ``(dist, count)``
   values of every entry the merge later keeps are exact.
2. **In-order merge** (phase 2): ranks replay in increasing order
   against the now-complete canonical store, classifying each candidate
   canonical (``best > d``) / non-canonical (``best == d``) / pruned
   (``best < d``) with the line-8 join. Labels are therefore
   bit-identical to the sequential csr engine; with ``batch_size=1`` the
   whole scheme degenerates to it.

Emission streams through a :class:`~repro.core.label_store.LabelStore`
(freeze-free, optionally disk-spilled, optionally memory-mapped output
columns), and the canonical join store uses uint32 rows — together this
is what lets a million-vertex Barabási–Albert build fit one box.

Construction counters follow the two-phase split: sweep discoveries
count as ``visits``; ``pushes`` / ``prunes`` / ``label_entries``
(including root self-entries) are counted by the merge, and
``join_terms`` counts phase-1 join terms plus the merge's in-batch
suffix terms.
"""

from time import perf_counter

import numpy as np

from repro.core.label_store import LabelStore
from repro.core.ordering import resolve_static_order
from repro.exceptions import LabelingError
from repro.kernels.bfs import count_guard_threshold, expand_ranges
from repro.kernels.hub_push import (
    INF_SENT,
    _CanonicalRows,
    _rank_space_csr,
)
from repro.observability.metrics import DEFAULT_SIZE_BUCKETS, get_registry
from repro.observability.tracing import get_tracer

INT = np.int64

#: scratch budget for the shared sweep arrays (dist + count + arena ≈ 24
#: bytes per slot·vertex); the auto batch size keeps them under this.
DEFAULT_SCRATCH_BYTES = 768 << 20

#: hard cap on the auto batch size — beyond this the per-level numpy
#: overhead is already fully amortized and wider batches lose more to
#: stale pruning (phase-1 cannot prune against in-batch hubs) than they
#: save in sweep overhead: at 10^5 vertices batch 16 beats sequential by
#: ~1.13x while batch 64 is ~1.5x slower than sequential.
MAX_AUTO_BATCH = 16


def default_batch_size(n, scratch_bytes=DEFAULT_SCRATCH_BYTES):
    """Largest batch whose shared sweep arrays fit ``scratch_bytes``."""
    if n <= 0:
        return 1
    per_slot = 24 * (n + 2)
    return int(max(1, min(MAX_AUTO_BATCH, n, scratch_bytes // per_slot)))


def build_flat_labels_batched(
    graph,
    ordering="degree",
    batch_size=None,
    stats=None,
    spill_dir=None,
    mmap_dir=None,
    compact=True,
):
    """Run rank-batched HP-SPC; returns a finalized ``FlatLabels``.

    Labels are bit-identical to :func:`build_flat_labels_csr` under the
    same static ordering (the test suite enforces this). ``batch_size``
    defaults to :func:`default_batch_size`; ``spill_dir`` streams
    emission chunks to disk during the build and ``mmap_dir`` puts the
    final CSR columns in memory-mapped files, so neither the in-flight
    nor the finished label payload has to fit in RAM. ``compact=False``
    keeps the historical int64 columns.

    The engine is deliberately lean: it supports the pruned, unit-
    multiplicity, no-skip configuration only (the one that matters at
    scale) and raises :class:`ValueError` for the §4.2/§4.3 reduction
    knobs — those stay on the sequential engines.
    """
    n = graph.n
    registry = get_registry()
    tracer = get_tracer()
    metered = registry.enabled
    if metered:
        build_start = perf_counter()
        batch_hist = registry.histogram("spc_build_batch_seconds")
        roots_hist = registry.histogram("spc_build_batch_roots",
                                        buckets=DEFAULT_SIZE_BUCKETS)
    order = resolve_static_order(graph, ordering)
    order_np = np.asarray(order, dtype=INT) if n else np.empty(0, dtype=INT)

    if batch_size is None:
        batch_size = default_batch_size(n)
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    width_cap = int(min(batch_size, max(n, 1)))

    rank_of = np.empty(n, dtype=INT)
    rank_of[order_np] = np.arange(n, dtype=INT)
    rindptr, rindices = _rank_space_csr(graph, order_np, rank_of)
    max_degree = int((rindptr[1:] - rindptr[:-1]).max()) if n else 0
    threshold = count_guard_threshold(max_degree)

    # Global canonical join store, uint32 rows (ranks and BFS depths are
    # both < n < 2^32); exact and complete below the current batch.
    rows = _CanonicalRows(n, rank_dtype=np.uint32, dist_dtype=np.uint32)

    stride = n + 2  # one rank_dist slice per slot; tail slot stays INF
    dist = np.full(width_cap * n, -1, dtype=INT) if n else np.empty(0, INT)
    count = np.zeros(width_cap * n, dtype=INT)
    arena = np.full(width_cap * stride, INF_SENT, dtype=INT)
    merge_rank_dist = np.full(n + 2, INF_SENT, dtype=INT)
    store = LabelStore(n, spill_dir=spill_dir)
    zero = np.zeros(1, dtype=INT)
    one = np.ones(1, dtype=INT)

    build_span = tracer.begin("build.csr_batch", n=n,
                              batch_size=width_cap) if tracer.enabled else None
    try:
        for base in range(0, n, width_cap):
            if metered:
                batch_start = perf_counter()
            width = min(width_cap, n - base)

            # --- phase 1: one shared sweep for all roots of the batch ----
            arena_touched = []
            for slot in range(width):
                root_ranks, root_dists = rows.row(base + slot)
                if root_ranks.size:
                    idx = slot * stride + root_ranks.astype(INT, copy=False)
                    arena[idx] = root_dists
                    arena_touched.append(idx)
            slots = np.arange(width, dtype=INT)
            batch_ranks = base + slots
            roots = slots * n + batch_ranks
            dist[roots] = 0
            count[roots] = 1
            if stats is not None:
                stats.visits += width
            visited = [roots]
            frontier = roots
            cand = [[] for _ in range(width)]  # (verts, depth, counts) per slot
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
                # int64 (the guard threshold bounds per-target sums), and
                # the group heads are np.unique(comp) for free. A bincount
                # over the B*n composite range would thrash; np.add.at is
                # an order of magnitude slower.
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
                if stats is not None:
                    stats.visits += new.size
                if int(count[new].max()) > threshold:
                    raise LabelingError(
                        "shortest-path count exceeds the int64 kernel guard; "
                        "use the python engine for this graph"
                    )
                new_slots = new // n
                best, lengths = rows.gather_best_at(new % n,
                                                    new_slots * stride, arena)
                kept_mask = best >= depth  # global-store prune is sound
                kept = new[kept_mask]
                if stats is not None:
                    stats.join_terms += int(lengths.sum())
                if kept.size:
                    kverts = kept % n
                    kslots = new_slots[kept_mask]
                    # `new` is sorted, so kept is grouped by slot.
                    bounds = np.searchsorted(kslots, np.arange(width + 1))
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

            # Concatenate each slot's candidates and snapshot row lengths
            # *before* the merge appends anything: phase 1's `best` is
            # exact over those prefixes, so the merge only joins against
            # what later in-batch ranks append past them.
            merged = []
            for slot in range(width):
                pieces = cand[slot]
                if not pieces:
                    merged.append(None)
                    continue
                verts = np.concatenate([piece[0] for piece in pieces])
                dists = np.concatenate([
                    np.full(piece[0].size, piece[1], dtype=INT)
                    for piece in pieces
                ])
                counts = np.concatenate([piece[2] for piece in pieces])
                best1 = np.concatenate([piece[3] for piece in pieces])
                merged.append((verts, dists, counts, best1,
                               rows.length[verts].copy()))

            # --- phase 2: replay ranks in order against exact labels -----
            for slot in range(width):
                r = base + slot
                if stats is not None:
                    stats.pushes += 1
                root_ranks, root_dists = rows.row(r)
                if root_ranks.size:
                    merge_rank_dist[root_ranks] = root_dists
                store.append(r, np.array([r], dtype=INT), zero, one, True)
                if stats is not None:
                    stats.label_entries += 1
                if merged[slot] is not None:
                    verts, dists, counts, best1, len0 = merged[slot]
                    suffix_best, extra = rows.gather_best_suffix(
                        verts, len0, merge_rank_dist
                    )
                    best = np.minimum(best1, suffix_best)
                    if stats is not None:
                        stats.join_terms += int(extra.sum())
                        stats.prunes += int((best < dists).sum())
                    canonical_mask = best > dists
                    noncanonical_mask = best == dists
                    emit_can = verts[canonical_mask]
                    emit_non = verts[noncanonical_mask]
                    if stats is not None:
                        stats.label_entries += emit_can.size + emit_non.size
                    if emit_can.size:
                        can_dists = dists[canonical_mask]
                        store.append(r, emit_can, can_dists,
                                     counts[canonical_mask], True)
                        rows.append(emit_can, r, can_dists)
                    if emit_non.size:
                        store.append(r, emit_non, dists[noncanonical_mask],
                                     counts[noncanonical_mask], False)
                if root_ranks.size:
                    merge_rank_dist[root_ranks] = INF_SENT
            if metered:
                batch_hist.observe(perf_counter() - batch_start)
                roots_hist.observe(width)
                registry.counter("spc_build_batches_total").inc()

        flat = store.finalize(order_np, mmap_dir=mmap_dir, compact=compact)
    finally:
        store.close()
        if build_span is not None:
            tracer.end(build_span)
    if metered:
        total_entries = flat.total_entries()
        registry.counter("spc_build_pushes_total", engine="csr-batch").inc(n)
        registry.counter("spc_build_label_entries_total",
                         engine="csr-batch").inc(total_entries)
        registry.gauge("spc_label_total_entries",
                       engine="csr-batch").set(total_entries)
        registry.gauge("spc_label_avg_size", engine="csr-batch").set(
            total_entries / n if n else 0.0
        )
        registry.histogram("spc_build_seconds", engine="csr-batch").observe(
            perf_counter() - build_start
        )
    return flat
