"""HP-SPC: the hub-pushing construction of §3.2 (Algorithm 1).

For each vertex ``w`` in descending rank order, a BFS restricted to
lower-ranked vertices (the graph ``G_w``) finds every vertex ``v`` with a
trough shortest path to ``w``. The *pruning join* (line 8) queries the
already-built canonical labels for the best distance through higher-ranked
vertices ``H_w``:

* ``d < D[v]``  — every trough path to ``v`` is non-shortest: prune.
* ``d = D[v]``  — trough shortest paths exist but some shortest path
  escapes through ``H_w``: non-canonical entry.
* ``d > D[v]``  — all shortest paths are trough paths: canonical entry.

The same engine also serves:

* the equivalence reduction (§4.2) via ``multiplicity`` — counts propagate
  λ-weights by multiplying in ``mult(v)`` whenever ``v`` becomes an
  internal vertex (Lemma 4.4);
* the independent-set reduction (§4.3) via ``skip`` — skipped vertices get
  no label and no pruning join (safe: any count pollution they forward can
  only reach vertices the join prunes anyway);
* the PL-SPC baseline ([12], §5.1) via ``prune=False`` — every visited
  vertex gets an entry, no joins are performed, and entries whose distance
  is stale (longer than the true distance) are filtered by the query's
  minimum-distance rule.
"""

from collections import deque
from itertools import chain
from time import perf_counter

import numpy as np

from repro.core.flat_labels import FlatLabels
from repro.core.labels import LabelSet
from repro.core.ordering import PushTree, resolve_ordering
from repro.observability.metrics import DEFAULT_SIZE_BUCKETS, get_registry
from repro.observability.tracing import get_tracer

INF = float("inf")

_INT64_MAX = int(np.iinfo(np.int64).max)


class BuildStats:
    """Construction counters used by the experiment harness.

    Beyond the paper's work counters, checkpointed builds record their
    lifecycle here: ``checkpoint_saves`` / ``resumed_pushes`` for the
    rank-watermark checkpoint layer.
    """

    __slots__ = (
        "pushes", "visits", "prunes", "join_terms", "label_entries",
        "checkpoint_saves", "resumed_pushes",
    )

    #: Counters every engine counts alike. ``visits``, ``prunes`` and
    #: ``join_terms`` measure each engine's own sweep work, so the
    #: rank-batched csr engine reports different values for them.
    SHARED = ("pushes", "label_entries", "checkpoint_saves", "resumed_pushes")

    def __init__(self):
        self.pushes = 0
        self.visits = 0
        self.prunes = 0
        self.join_terms = 0
        self.label_entries = 0
        self.checkpoint_saves = 0
        self.resumed_pushes = 0

    def as_dict(self):
        return {name: getattr(self, name) for name in self.__slots__}

    def __repr__(self):
        inner = ", ".join(f"{k}={v}" for k, v in self.as_dict().items())
        return f"BuildStats({inner})"


def _freeze_prefix(order, canonical, noncanonical):
    """The prefix label lists as checkpoint columns: ``(flat, wide)``.

    ``wide`` maps the entry index of each count past int64 to that count;
    its slot in ``flat.count`` holds 0.
    """
    n = len(order)
    verts, flags, entries = [], [], []
    for flag, rows in ((True, canonical), (False, noncanonical)):
        sizes = np.fromiter(map(len, rows), np.int64, count=n)
        verts.append(np.repeat(np.arange(n), sizes))
        flags.append(np.full(int(sizes.sum()), flag))
        entries.extend(chain.from_iterable(rows))
    verts = np.concatenate(verts)
    ranks, _hubs, dists, counts = zip(*entries) if entries else ((),) * 4
    wide = {i: count for i, count in enumerate(counts) if count > _INT64_MAX}
    if wide:
        counts = [0 if count > _INT64_MAX else count for count in counts]
    ranks = np.array(ranks, dtype=np.int64)
    perm = np.lexsort((ranks, verts))
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(verts, minlength=n), out=indptr[1:])
    flat = FlatLabels(
        n, indptr, ranks[perm], None,
        np.array(dists, dtype=np.int64)[perm],
        np.array(counts, dtype=np.int64)[perm],
        np.concatenate(flags)[perm], np.asarray(order, dtype=np.int64),
    )
    if wide:
        position = np.argsort(perm)  # entry i lands at position[i]
        wide = {int(position[i]): count for i, count in wide.items()}
    return flat, wide


def _thaw_prefix(prefix, canonical, noncanonical):
    """Append a checkpoint prefix's entries to the per-vertex label lists."""
    flat = prefix.flat
    counts = flat.count.tolist()
    for index, count in prefix.wide.items():
        counts[index] = count
    verts = np.repeat(np.arange(flat.n), np.diff(flat.indptr)).tolist()
    entries = zip(flat.rank.tolist(), flat.hub.tolist(), flat.dist.tolist(),
                  counts)
    for v, is_canonical, entry in zip(verts, flat.canonical.tolist(),
                                      entries):
        (canonical if is_canonical else noncanonical)[v].append(entry)


def build_labels(
    graph,
    ordering="degree",
    multiplicity=None,
    skip=None,
    prune=True,
    stats=None,
    checkpoint=None,
):
    """Run HP-SPC and return a finalized :class:`LabelSet`.

    The paper-faithful reference engine: a deque BFS per push,
    arbitrary-precision counts, any ordering, and the §4.2/§4.3 reduction
    and PL-SPC knobs below. The vectorized engine of
    :mod:`repro.kernels.hub_push` (``SPCIndex.build(engine="csr")``) emits
    flat columns instead, for static orderings and the plain algorithm, and
    matches this engine entry for entry.

    Parameters
    ----------
    graph:
        A :class:`repro.graph.graph.Graph`.
    ordering:
        Anything :func:`repro.core.ordering.resolve_ordering` accepts.
    multiplicity:
        Optional per-vertex equivalence-class sizes ``mult(v)`` (§4.2).
        ``None`` means the plain, unweighted algorithm.
    skip:
        Optional per-vertex booleans; skipped vertices receive no label and
        no pruning join but still forward counts (§4.3 under a static
        order). ``None`` labels every vertex.
    prune:
        ``False`` disables the line-8 join, yielding PL-SPC-style labels.
    stats:
        Optional :class:`BuildStats` to fill with construction counters.
    checkpoint:
        Optional :class:`~repro.io.checkpoint.BuildCheckpoint`. Every
        ``checkpoint.every`` completed pushes the partial labeling is
        atomically persisted; if the checkpoint file already holds a prefix
        of this build (same graph fingerprint, same order), construction
        resumes past it and the result is entry-for-entry identical to an
        uninterrupted build. Requires a static ordering.
    """
    n = graph.n
    adj = graph.adjacency
    strategy = resolve_ordering(ordering)
    start_rank = 0
    checkpoint_order = None
    checkpoint_fp = None
    if checkpoint is not None:
        from repro.core.ordering import resolve_static_order
        from repro.io.serialize import graph_fingerprint

        checkpoint_order = list(resolve_static_order(graph, ordering))
        checkpoint_fp = graph_fingerprint(graph)
        strategy = resolve_ordering(checkpoint_order)
        prefix = checkpoint.load(graph=graph, order=checkpoint_order)
        if prefix is not None:
            start_rank = prefix.watermark
    labels = LabelSet(n)
    canonical = labels._canonical  # hot-path alias; LabelSet owns the lists
    noncanonical = labels._noncanonical
    if start_rank:
        _thaw_prefix(prefix, canonical, noncanonical)
        if stats is not None:
            stats.resumed_pushes += start_rank

    mult = list(multiplicity) if multiplicity is not None else None
    if mult is not None and len(mult) != n:
        raise ValueError("multiplicity must have one entry per vertex")
    skip_flags = list(skip) if skip is not None else [False] * n
    if len(skip_flags) != n:
        raise ValueError("skip must have one entry per vertex")

    dist = [INF] * n
    count = [0] * n
    hub_dist = [INF] * n  # scatter array for the pruning join
    pushed = [False] * n
    order = []
    want_tree = strategy.wants_tree

    registry = get_registry()
    tracer = get_tracer()
    metered = registry.enabled
    traced = tracer.enabled
    if metered:
        build_start = perf_counter()
        push_hist = registry.histogram("spc_build_push_seconds",
                                       engine="python")
        growth_hist = registry.histogram(
            "spc_build_entries_per_push", buckets=DEFAULT_SIZE_BUCKETS,
            engine="python",
        )
    build_span = tracer.begin("build.python", n=n) if traced else None

    try:
        w = strategy.first_vertex(graph) if n else None
        while w is not None:
            if pushed[w]:
                raise ValueError(f"ordering strategy returned vertex {w} twice")
            rank = len(order)
            order.append(w)
            pushed[w] = True
            if rank < start_rank:
                # Resumed build: this push's effects are already in the labels.
                w = strategy.next_vertex(graph, pushed, None)
                continue
            if metered:
                push_start = perf_counter()
                push_entries = 0
            push_span = (tracer.begin("hp_spc.push", rank=rank)
                         if traced else None)
            if stats is not None:
                stats.pushes += 1

            # Scatter L^c(w) for O(|L^c(v)|) joins at each popped v.
            touched_hubs = []
            if prune:
                for _, hub, hub_distance, _ in canonical[w]:
                    hub_dist[hub] = hub_distance
                    touched_hubs.append(hub)

            dist[w] = 0
            count[w] = 1
            if not skip_flags[w]:
                canonical[w].append((rank, w, 0, 1))
            queue = deque([w])
            visited = [w]
            parent = {w: w} if want_tree else None

            while queue:
                v = queue.popleft()
                dv = dist[v]
                if stats is not None:
                    stats.visits += 1
                if v != w and not skip_flags[v]:
                    if prune:
                        row = canonical[v]
                        # C-level min over a generator beats a manual loop
                        # by ~2x; this join is the construction hot spot.
                        best = min(
                            (hub_dist[hub] + hub_distance
                             for _, hub, hub_distance, _ in row),
                            default=INF,
                        )
                        if stats is not None:
                            stats.join_terms += len(row)
                        if best < dv:
                            if stats is not None:
                                stats.prunes += 1
                            continue
                        if best == dv:
                            noncanonical[v].append((rank, w, dv, count[v]))
                        else:
                            canonical[v].append((rank, w, dv, count[v]))
                    else:
                        canonical[v].append((rank, w, dv, count[v]))
                    if stats is not None:
                        stats.label_entries += 1
                    if metered:
                        push_entries += 1
                forwarded = (count[v] if (mult is None or v == w)
                             else count[v] * mult[v])
                next_dist = dv + 1
                for v2 in adj[v]:
                    d2 = dist[v2]
                    if d2 is INF:
                        if not pushed[v2]:
                            dist[v2] = next_dist
                            count[v2] = forwarded
                            queue.append(v2)
                            visited.append(v2)
                            if want_tree:
                                parent[v2] = v
                    elif d2 == next_dist:
                        count[v2] += forwarded

            # Reset the scratch arrays touched by this push.
            for v in visited:
                dist[v] = INF
                count[v] = 0
            for hub in touched_hubs:
                hub_dist[hub] = INF

            if metered:
                push_hist.observe(perf_counter() - push_start)
                growth_hist.observe(push_entries)
            if traced:
                tracer.end(push_span)

            if checkpoint is not None and checkpoint.should_save(rank + 1, n):
                checkpoint.save(
                    rank + 1,
                    lambda: _freeze_prefix(checkpoint_order, canonical,
                                           noncanonical),
                    fingerprint=checkpoint_fp,
                )
                if stats is not None:
                    stats.checkpoint_saves += 1
                if metered:
                    registry.counter("spc_checkpoint_saves_total").inc()

            tree = PushTree(w, visited, parent) if want_tree else None
            w = strategy.next_vertex(graph, pushed, tree)

        if len(order) != n:
            missing = [v for v in range(n) if not pushed[v]]
            raise ValueError(
                f"ordering did not cover all vertices; missing {missing[:5]}..."
            )

        labels.set_order(order)
        labels.finalize()
        if checkpoint is not None:
            checkpoint.discard()
    finally:
        if traced:
            tracer.end(build_span)
    if metered:
        total_entries = sum(
            len(canonical[v]) + len(noncanonical[v]) for v in range(n)
        )
        registry.counter("spc_build_pushes_total", engine="python").inc(
            n - start_rank
        )
        registry.counter("spc_build_label_entries_total",
                         engine="python").inc(total_entries)
        if start_rank:
            registry.counter(
                "spc_build_resumed_pushes_total", engine="python"
            ).inc(start_rank)
        registry.gauge("spc_label_total_entries", engine="python").set(
            total_entries
        )
        registry.gauge("spc_label_avg_size", engine="python").set(
            total_entries / n if n else 0.0
        )
        registry.histogram("spc_build_seconds", engine="python").observe(
            perf_counter() - build_start
        )
    return labels
