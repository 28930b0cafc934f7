"""High-level index facade over HP-SPC labels.

:class:`SPCIndex` is the plain (unreduced) index of §3; the reduced
variants HP-SPC+ and HP-SPC* live in :mod:`repro.reductions.pipeline` and
share the same query surface, so callers can swap them freely.
"""

from repro.core.batch_query import count_pair
from repro.core.flat_labels import FlatLabels
from repro.core.hp_spc import BuildStats, build_labels

#: Construction engines accepted by :meth:`SPCIndex.build`.
ENGINES = ("python", "csr")


class SPCIndex:
    """A queryable shortest-path-counting index (plain HP-SPC).

    Build once with :meth:`build` (or wrap loaded columns with
    :meth:`from_flat`), then answer ``count``/``distance`` queries in
    label-scan time without touching the graph. The labels live in one
    store, a :class:`~repro.core.flat_labels.FlatLabels`: scalar queries
    merge two of its rows, batched queries run the vectorized kernels of
    :mod:`repro.core.batch_query` over it, and :func:`repro.io.serialize
    .save_index` writes it as an SPCF file.

    >>> from repro.generators.classic import cycle_graph
    >>> index = SPCIndex.build(cycle_graph(4))
    >>> index.count(0, 2)   # two ways around the 4-cycle
    2
    >>> index.distance(0, 2)
    2
    """

    def __init__(self, flat, build_stats=None, build_seconds=None):
        self._flat = flat
        self._build_stats = build_stats
        self._build_seconds = build_seconds
        self._stale_reason = None

    @classmethod
    def build(cls, graph, ordering="degree", collect_stats=False,
              engine="python", checkpoint=None):
        """Run HP-SPC on ``graph`` under ``ordering`` and wrap the labels.

        ``engine="python"`` is the paper-faithful reference construction of
        :func:`repro.core.hp_spc.build_labels` (any ordering, exact counts
        at any width); its labels are frozen into flat columns once, after
        ``build_seconds`` stops, and the freeze is timed by the
        ``spc_flat_freeze_seconds`` histogram. ``engine="csr"`` builds
        compact columns directly with the rank-batched vectorized kernels
        of :mod:`repro.kernels.hub_push` (static orderings, int64 counts).
        Both engines produce bit-identical labels under the same static
        ordering.

        ``checkpoint`` (a :class:`~repro.io.checkpoint.BuildCheckpoint`)
        periodically persists rank-watermark progress and resumes an
        interrupted build from it; either engine resumes the other's file.
        """
        import time

        if engine not in ENGINES:
            raise ValueError(f"unknown construction engine {engine!r}; "
                             f"expected one of {ENGINES}")
        stats = BuildStats() if collect_stats else None
        started = time.perf_counter()
        if engine == "csr":
            from repro.kernels.hub_push import build_flat_labels_csr

            flat = build_flat_labels_csr(graph, ordering=ordering, stats=stats,
                                         checkpoint=checkpoint)
        else:
            labels = build_labels(graph, ordering=ordering, stats=stats,
                                  checkpoint=checkpoint)
        elapsed = time.perf_counter() - started
        if engine == "python":
            flat = FlatLabels.from_label_set(labels)
        return cls(flat, build_stats=stats, build_seconds=elapsed)

    @classmethod
    def from_flat(cls, flat, build_stats=None, build_seconds=None):
        """Wrap an existing :class:`~repro.core.flat_labels.FlatLabels`.

        Entry point for flat labelings loaded from SPCF files
        (:func:`repro.io.flat_store.load_flat_labels`, possibly
        memory-mapped); the columns are served as they are.
        """
        return cls(flat, build_stats=build_stats, build_seconds=build_seconds)

    # -- queries -------------------------------------------------------------

    def count(self, s, t):
        """``spc(s, t)``: the number of shortest paths (0 if disconnected)."""
        return self.count_with_distance(s, t)[1]

    def distance(self, s, t):
        """``sd(s, t)``; ``inf`` when disconnected."""
        return self.count_with_distance(s, t)[0]

    def count_with_distance(self, s, t):
        """``(sd(s,t), spc(s,t))`` in one merge of ``L(s)`` and ``L(t)``."""
        return count_pair(self._flat, s, t)

    # -- batched (flat-engine) queries ---------------------------------------

    def to_flat(self):
        """The :class:`~repro.core.flat_labels.FlatLabels` label store."""
        return self._flat

    def count_many(self, pairs, deadline=None):
        """Batched ``(sd, spc)`` tuples over the vectorized flat engine.

        Matches :meth:`count_with_distance` element-for-element but costs a
        fixed number of numpy passes for the whole batch. ``deadline``
        (e.g. a :class:`repro.serving.Deadline`) makes the scan
        cooperative for bounded-latency callers.
        """
        from repro.core.batch_query import count_many

        return count_many(self._flat, pairs, deadline=deadline)

    def single_source(self, s):
        """``(dist, count)`` numpy arrays from ``s`` over every vertex."""
        from repro.core.batch_query import single_source

        return single_source(self._flat, s)

    def set_to_set(self, sources, targets):
        """``(sd(S, T), spc(S, T))`` over the vectorized flat engine.

        The set-to-set distance is the minimum over all ``(s, t)`` pairs;
        the count sums shortest paths over exactly the pairs achieving
        that minimum — same conventions as
        :func:`repro.core.batch_query.count_set_to_set`.
        """
        from repro.core.batch_query import count_set_to_set

        return count_set_to_set(self._flat, sources, targets)

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
        """A fresh tuple-based :class:`~repro.core.labels.LabelSet` thawed
        from the columns, for offline consumers (label statistics,
        structure validation, the canonical-only estimate of Exp-5).

        Not cached: every access thaws again, so bind the result once.
        No query of this class reads it.
        """
        return self._flat.to_label_set()

    @property
    def n(self):
        """Vertex count."""
        return self._flat.n

    @property
    def order(self):
        """The vertex order the index was built under (rank -> vertex)."""
        return tuple(self._flat.order.tolist())

    @property
    def build_stats(self):
        """:class:`BuildStats` when built with ``collect_stats=True``."""
        return self._build_stats

    @property
    def build_seconds(self):
        """Wall-clock construction time recorded by :meth:`build`."""
        return self._build_seconds

    def total_entries(self):
        return self._flat.total_entries()

    def size_bytes(self, entry_bits=64):
        """Paper-equivalent index size under the packed entry encoding."""
        return self._flat.packed_size_bytes(entry_bits)

    def __repr__(self):
        return f"SPCIndex(n={self.n}, entries={self.total_entries()})"
