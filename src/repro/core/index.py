"""High-level index facade over HP-SPC labels.

:class:`SPCIndex` is the plain (unreduced) index of §3; the reduced
variants HP-SPC+ and HP-SPC* live in :mod:`repro.reductions.pipeline` and
share the same query surface, so callers can swap them freely.
"""

from repro.core.hp_spc import BuildStats, build_labels
from repro.core.query import (
    count_canonical_only,
    count_query,
    distance_query,
)

INF = float("inf")


class SPCIndex:
    """A queryable shortest-path-counting index (plain HP-SPC).

    Build once with :meth:`build`, then answer ``count``/``distance``
    queries in label-scan time without touching the graph.

    >>> from repro.generators.classic import cycle_graph
    >>> index = SPCIndex.build(cycle_graph(4))
    >>> index.count(0, 2)   # two ways around the 4-cycle
    2
    >>> index.distance(0, 2)
    2
    """

    def __init__(self, labels, build_stats=None, build_seconds=None):
        self._labels = labels
        self._build_stats = build_stats
        self._build_seconds = build_seconds
        self._flat = None
        self._stale_reason = None

    @classmethod
    def build(cls, graph, ordering="degree", collect_stats=False,
              engine="python", checkpoint=None, batch_size=None,
              spill_dir=None, mmap_dir=None):
        """Run HP-SPC on ``graph`` under ``ordering`` and wrap the labels.

        ``engine="csr"`` builds with the vectorized kernels of
        :mod:`repro.kernels.hub_push` (static orderings, int64 counts) and
        keeps the frozen :class:`~repro.core.flat_labels.FlatLabels` as the
        primary store — the tuple-based :class:`LabelSet` is thawed lazily
        on first use of a python-engine query. ``engine="csr-batch"`` is
        the rank-batched large-graph engine (:mod:`repro.kernels.batch_push`):
        single process, freeze-free, memory-frugal columns, with
        ``batch_size`` (ranks per shared sweep, auto-sized by default),
        ``spill_dir`` (stream emission chunks to disk during the build) and
        ``mmap_dir`` (memory-map the final label columns) knobs. Every
        engine produces bit-identical labels under the same static ordering.

        ``checkpoint`` (a :class:`~repro.io.checkpoint.BuildCheckpoint`)
        periodically persists rank-watermark progress and resumes an
        interrupted build from it; ``python``/``csr`` engines only.
        """
        import time

        stats = BuildStats() if collect_stats else None
        started = time.perf_counter()
        flat = None
        if engine != "csr-batch" and (batch_size is not None
                                      or spill_dir is not None
                                      or mmap_dir is not None):
            raise ValueError(
                "batch_size/spill_dir/mmap_dir require engine='csr-batch'"
            )
        if engine == "csr-batch":
            from repro.kernels.batch_push import build_flat_labels_batched

            if checkpoint is not None:
                from repro.core.hp_spc import _reject_batch_knobs

                _reject_batch_knobs(checkpoint=checkpoint)
            flat = build_flat_labels_batched(
                graph, ordering=ordering, stats=stats, batch_size=batch_size,
                spill_dir=spill_dir, mmap_dir=mmap_dir,
            )
            labels = None
        elif engine == "csr":
            from repro.kernels.hub_push import build_flat_labels_csr

            flat = build_flat_labels_csr(graph, ordering=ordering, stats=stats,
                                         checkpoint=checkpoint)
            labels = None
        else:
            labels = build_labels(graph, ordering=ordering, stats=stats,
                                  engine=engine, checkpoint=checkpoint)
        elapsed = time.perf_counter() - started
        index = cls(labels, build_stats=stats, build_seconds=elapsed)
        index._flat = flat
        return index

    @classmethod
    def from_flat(cls, flat, build_stats=None, build_seconds=None):
        """Wrap an existing :class:`~repro.core.flat_labels.FlatLabels`.

        Entry point for flat labelings loaded from SPCF files
        (:func:`repro.io.flat_store.load_flat_labels`, possibly
        memory-mapped): the flat columns stay primary and the tuple-based
        labels thaw lazily, exactly like a csr-engine build.
        """
        index = cls(None, build_stats=build_stats, build_seconds=build_seconds)
        index._flat = flat
        return index

    # -- queries -------------------------------------------------------------

    def count(self, s, t):
        """``spc(s, t)``: the number of shortest paths (0 if disconnected)."""
        return count_query(self.labels, s, t)[1]

    def distance(self, s, t):
        """``sd(s, t)``; ``inf`` when disconnected."""
        return distance_query(self.labels, s, t)

    def count_with_distance(self, s, t):
        """``(sd(s,t), spc(s,t))`` in one label scan."""
        return count_query(self.labels, s, t)

    def count_approximate(self, s, t):
        """The Exp-5 canonical-only estimate (may undercount, never over)."""
        return count_canonical_only(self.labels, s, t)[1]

    # -- batched (flat-engine) queries ---------------------------------------

    def to_flat(self):
        """Freeze the labels into a :class:`~repro.core.flat_labels.FlatLabels`.

        The flat view is built once and cached; it shares no state with the
        tuple-based labels, so both engines stay usable side by side.
        """
        if self._flat is None:
            from repro.core.flat_labels import FlatLabels

            self._flat = FlatLabels.from_label_set(self.labels)
        return self._flat

    def count_many(self, pairs, deadline=None):
        """Batched ``(sd, spc)`` tuples over the vectorized flat engine.

        Matches :meth:`count_with_distance` element-for-element but costs a
        fixed number of numpy passes for the whole batch. ``deadline``
        (e.g. a :class:`repro.serving.Deadline`) makes the scan
        cooperative for bounded-latency callers.
        """
        from repro.core.batch_query import count_many

        return count_many(self.to_flat(), pairs, deadline=deadline)

    def single_source(self, s):
        """``(dist, count)`` numpy arrays from ``s`` over every vertex."""
        from repro.core.batch_query import single_source

        return single_source(self.to_flat(), s)

    def set_to_set(self, sources, targets):
        """``(sd(S, T), spc(S, T))`` over the vectorized flat engine.

        The set-to-set distance is the minimum over all ``(s, t)`` pairs;
        the count sums shortest paths over exactly the pairs achieving
        that minimum — same conventions as
        :func:`repro.core.batch_query.count_set_to_set`.
        """
        from repro.core.batch_query import count_set_to_set

        return count_set_to_set(self.to_flat(), sources, targets)

    # -- staleness ------------------------------------------------------------

    @property
    def stale(self):
        """True once the index no longer matches its graph (see :meth:`mark_stale`)."""
        return self._stale_reason is not None

    @property
    def stale_reason(self):
        """Why the index was marked stale, or ``None`` while fresh."""
        return self._stale_reason

    def mark_stale(self, reason="graph changed since this index was built"):
        """Flag the labels as no longer matching the live graph.

        Set by :class:`repro.dynamic.incremental.DynamicSPCIndex` on edge
        insertions; serving layers (:class:`repro.resilience
        .ResilientSPCIndex`, :class:`repro.serving.SPCService`) check the
        flag and degrade or rebuild instead of silently serving wrong
        counts. Queries *through* the marking owner stay exact — the flag
        protects everyone else holding a reference to the raw index.
        """
        self._stale_reason = reason

    # -- introspection ---------------------------------------------------------

    @property
    def labels(self):
        """The underlying :class:`~repro.core.labels.LabelSet`.

        CSR-engine builds store only the frozen flat form; the tuple-based
        labels are thawed (exactly) here on first access.
        """
        if self._labels is None:
            self._labels = self._flat.to_label_set()
        return self._labels

    @property
    def n(self):
        """Vertex count — answered without thawing a flat-primary index."""
        store = self._labels if self._labels is not None else self._flat
        return store.n

    @property
    def order(self):
        """The vertex order the index was built under (rank -> vertex)."""
        if self._labels is None:
            return tuple(self._flat.order.tolist())
        return self._labels.order

    @property
    def build_stats(self):
        """:class:`BuildStats` when built with ``collect_stats=True``."""
        return self._build_stats

    @property
    def build_seconds(self):
        """Wall-clock construction time recorded by :meth:`build`."""
        return self._build_seconds

    def total_entries(self):
        if self._labels is None:
            return self._flat.total_entries()
        return self._labels.total_entries()

    def size_bytes(self, entry_bits=64):
        """Paper-equivalent index size under the packed entry encoding."""
        if self._labels is None:
            return self._flat.packed_size_bytes(entry_bits)
        return self._labels.packed_size_bytes(entry_bits)

    def __repr__(self):
        store = self._labels if self._labels is not None else self._flat
        return f"SPCIndex(n={store.n}, entries={store.total_entries()})"
