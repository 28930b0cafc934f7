"""Flat (struct-of-arrays) label store for the vectorized query engine.

:class:`FlatLabels` freezes a finalized :class:`~repro.core.labels.LabelSet`
into contiguous numpy columns in CSR layout: ``indptr[v]:indptr[v+1]``
delimits the merged label ``L(v) = L^c(v) ∪ L^nc(v)``, and within each row
the ``rank`` column is strictly increasing (a hub appears at most once per
vertex), so batched queries in :mod:`repro.core.batch_query` can merge
many rows with one stable sort instead of per-entry Python merge joins.

The canonical / non-canonical split survives the freeze as a boolean
column, so the round trip ``LabelSet -> FlatLabels -> LabelSet`` is exact
and the frozen form is exactly what an SPCF index file stores
(:mod:`repro.io.flat_store`).
"""

from collections import namedtuple
from time import perf_counter

import numpy as np

from repro.exceptions import LabelingError

INT = np.int64

#: About half of int64's maximum. A pair join whose bound
#: ``max σ(s,·) · max σ(t,·) · min(|L(s)|, |L(t)|)`` stays below it cannot
#: wrap its int64 products or their sum (see
#: :attr:`FlatLabels.overflow_free`).
JOIN_BOUND = 1 << 62


def narrow_dtypes(dist, count):
    """The narrowest dtypes that hold the ``dist`` and ``count`` columns
    losslessly: uint16 distances when the diameter allows, else uint32;
    uint32 counts, escaping to int64 when any count is ``>= 2^32``."""
    max_dist = int(dist.max()) if dist.size else 0
    max_count = int(count.max()) if count.size else 0
    dist_dtype = np.uint16 if max_dist <= np.iinfo(np.uint16).max else np.uint32
    count_dtype = (np.uint32 if max_count <= int(np.iinfo(np.uint32).max)
                   else INT)
    return dist_dtype, count_dtype


class HubMajor(namedtuple("HubMajor", ("indptr", "vertex", "dist", "count"))):
    """The label entries grouped by hub (see :attr:`FlatLabels.hub_major`).

    ``indptr[r]:indptr[r+1]`` delimits the posting list of the rank-``r``
    hub. Its entries carry the ``vertex`` whose label holds them, in
    ascending order, and that entry's ``dist`` and ``count``.
    """

    __slots__ = ()


class DenseCore(namedtuple("DenseCore", ("dist", "count", "prefix"))):
    """The top-ranked hubs as dense arrays (see :attr:`FlatLabels.core`).

    ``dist`` and ``count`` are ``(n, K)``: column ``r`` holds each vertex's
    entry for the rank-``r`` hub, or a sentinel distance (see
    :func:`core_dist_dtype`) and count 0 where its label lacks that hub.
    ``prefix[v]`` counts the entries of ``L(v)`` whose rank is below
    ``K``; rows are rank-sorted, so they are the first ``prefix[v]``
    entries of the row.
    """

    __slots__ = ()


def core_dist_dtype(max_dist):
    """The narrowest unsigned dtype for core distances up to ``max_dist``.

    A missing core entry holds the sentinel, half the dtype's range. It
    must exceed the sum of any two real distances, and twice it must still
    fit, so adding two core rows never wraps and a sum with a missing side
    never ties or beats a real one.
    """
    for dtype in (np.uint8, np.uint16, np.uint32):
        if 2 * max_dist < np.iinfo(dtype).max // 2:
            return dtype
    return np.uint64


class FlatLabels:
    """Read-only CSR view of a finalized labeling.

    Columns (all length ``total_entries``):

    * ``rank``  — hub rank (strictly increasing within each row)
    * ``hub``   — hub vertex id; always equal to ``order[rank]``, so
      memory-frugal instances pass ``hub=None`` and the column is derived
      lazily on first access instead of being stored
    * ``dist``  — ``sd(v, hub)``
    * ``count`` — ``σ_{v,hub}`` (int64, or uint32 after :meth:`compact`;
      callers needing wider counts must stay on the tuple-based
      :class:`~repro.core.labels.LabelSet` path)
    * ``canonical`` — True for ``L^c`` entries, False for ``L^nc``

    Columns may be plain int64 arrays (the historical layout), the narrow
    dtypes produced by :meth:`compact`, or ``np.memmap`` views over an
    SPCF file (:mod:`repro.io.flat_store`); the query engines are
    dtype-agnostic.

    Two read-only views are derived from the columns on first use and
    cached, never stored in SPCF: :attr:`hub_major` (the entries grouped
    by hub, for single-source sweeps) and :attr:`core` (the top-ranked
    hubs as dense arrays, for pair joins).
    """

    __slots__ = ("n", "indptr", "rank", "dist", "count", "canonical", "order",
                 "_hub", "_row_max_count", "_overflow_free", "_hub_major",
                 "_core", "_scratch")

    def __init__(self, n, indptr, rank, hub, dist, count, canonical, order):
        self.n = n
        self.indptr = indptr
        self.rank = rank
        self._hub = hub
        self.dist = dist
        self.count = count
        self.canonical = canonical
        self.order = order
        self._row_max_count = None
        self._overflow_free = None
        self._hub_major = None
        self._core = None
        # Reusable rank-indexed scatter buffers, owned and managed by
        # repro.core.batch_query (borrowed per call, restored clean).
        self._scratch = None

    @property
    def hub(self):
        """Hub vertex ids, derived as ``order[rank]`` when not stored."""
        if self._hub is None:
            if self.rank.size:
                self._hub = np.asarray(self.order, dtype=INT)[
                    self.rank.astype(INT, copy=False)
                ]
            else:
                self._hub = np.empty(0, dtype=INT)
        return self._hub

    @property
    def row_max_count(self):
        """Largest ``σ`` of each row (int64, 0 for an empty row).

        Derived from the ``count`` column on first access and cached, like
        ``hub``; the batched pair join bounds its int64 arithmetic with it.
        """
        if self._row_max_count is None:
            row_max = np.zeros(self.n, dtype=INT)
            nonempty = np.diff(self.indptr) > 0
            if nonempty.any():
                # Empty rows are skipped, so each start's segment is
                # exactly its row.
                row_max[nonempty] = np.maximum.reduceat(
                    self.count, self.indptr[:-1][nonempty]
                )
            self._row_max_count = row_max
        return self._row_max_count

    @property
    def hub_major(self):
        """The entries regrouped by hub: a :class:`HubMajor` view.

        One stable argsort of ``rank`` puts every hub's posting list in one
        contiguous run, its entries still in vertex order; ``vertex`` is
        uint32 and ``dist``/``count`` keep the store's own dtypes. Derived
        on first access and cached, like ``hub`` (two threads may race to
        derive it; either copy is valid), and never written to SPCF.
        Single-source sweeps read only the posting lists of the source's
        hubs through it.
        """
        if self._hub_major is None:
            rank = np.asarray(self.rank)
            order = rank.argsort(kind="stable")
            indptr = np.zeros(self.n + 1, dtype=INT)
            np.cumsum(np.bincount(rank, minlength=self.n), out=indptr[1:])
            vertex = np.arange(self.n, dtype=np.uint32).repeat(
                np.diff(self.indptr))[order]
            self._hub_major = HubMajor(indptr, vertex,
                                       np.asarray(self.dist)[order],
                                       np.asarray(self.count)[order])
        return self._hub_major

    @property
    def core(self):
        """The hubs of rank ``< K`` as a :class:`DenseCore` view.

        ``K`` is the largest prefix of ranks whose dense ``(n, K)`` arrays
        cost no more bytes than the store's own ``rank``, ``dist`` and
        ``count`` columns. ``dist`` takes :func:`core_dist_dtype` of the
        store's largest distance, ``count`` the store's own count dtype,
        and ``prefix`` is int64. The top hubs sit in almost every label (on
        BA(10000,3), K = 348 covers 69% of all entries), so a pair join
        meets them by adding two dense rows instead of sorting. Derived
        on first access and cached, like :attr:`hub_major` (two threads
        may race to derive it; either copy is valid), and never written
        to SPCF.
        """
        if self._core is None:
            n = self.n
            rank, dist, count = (np.asarray(column) for column in
                                 (self.rank, self.dist, self.count))
            dist_dtype = core_dist_dtype(int(dist.max()) if dist.size else 0)
            cell = np.dtype(dist_dtype).itemsize + count.itemsize
            store = rank.nbytes + dist.nbytes + count.nbytes
            width = min(n, store // (n * cell)) if n else 0
            in_core = rank < width
            rows = np.arange(n, dtype=INT).repeat(np.diff(self.indptr))[in_core]
            cells = rows * width + rank[in_core]
            dense_dist = np.full(n * width, np.iinfo(dist_dtype).max // 2,
                                 dtype=dist_dtype)
            dense_dist[cells] = dist[in_core]
            dense_count = np.zeros(n * width, dtype=count.dtype)
            dense_count[cells] = count[in_core]
            self._core = DenseCore(dense_dist.reshape(n, width),
                                   dense_count.reshape(n, width),
                                   np.bincount(rows, minlength=n).astype(INT))
        return self._core

    @property
    def overflow_free(self):
        """True when no pair join over this store can leave int64.

        Whole-store proof: ``max σ² · max |L(v)| < JOIN_BOUND`` bounds every
        pair's sum of products, so the batched join skips its per-pair
        checks. Cached after the first call.
        """
        if self._overflow_free is None:
            max_count = int(self.row_max_count.max()) if self.n else 0
            max_len = int(np.diff(self.indptr).max()) if self.n else 0
            self._overflow_free = max_count * max_count * max_len < JOIN_BOUND
        return self._overflow_free

    # -- construction --------------------------------------------------------

    @classmethod
    def from_label_set(cls, labels):
        """Freeze a finalized :class:`LabelSet` (order set, lists merged)."""
        from repro.observability.metrics import get_registry

        if labels.order is None:
            raise LabelingError("labels must have an order; call set_order() first")
        registry = get_registry()
        freeze_start = perf_counter() if registry.enabled else None
        n = labels.n
        indptr = np.zeros(n + 1, dtype=INT)
        rows = []
        for v in range(n):
            row = [(r, h, d, c, True) for r, h, d, c in labels.canonical(v)]
            row += [(r, h, d, c, False) for r, h, d, c in labels.noncanonical(v)]
            row.sort(key=lambda entry: entry[0])
            rows.append(row)
            indptr[v + 1] = indptr[v] + len(row)
        total = int(indptr[-1])
        rank = np.empty(total, dtype=INT)
        hub = np.empty(total, dtype=INT)
        dist = np.empty(total, dtype=INT)
        count = np.empty(total, dtype=INT)
        canonical = np.empty(total, dtype=np.bool_)
        pos = 0
        for row in rows:
            for r, h, d, c, is_canonical in row:
                if c < 0 or c > np.iinfo(INT).max:
                    raise LabelingError(f"count {c} does not fit the flat int64 column")
                rank[pos] = r
                hub[pos] = h
                dist[pos] = d
                count[pos] = c
                canonical[pos] = is_canonical
                pos += 1
        order = np.asarray(labels.order, dtype=INT)
        flat = cls(n, indptr, rank, hub, dist, count, canonical, order)
        if freeze_start is not None:
            registry.histogram("spc_flat_freeze_seconds").observe(
                perf_counter() - freeze_start
            )
        return flat

    def to_label_set(self):
        """Thaw back into a finalized :class:`LabelSet` (exact inverse).

        Bulk-converts the columns with ``.tolist()`` once and walks them
        per row, so thawing a construction-sized labeling costs a fraction
        of the build instead of dominating it (numpy scalar indexing per
        entry is ~10x slower).
        """
        from repro.core.labels import LabelSet

        labels = LabelSet(self.n)
        labels.set_order(self.order.tolist())
        indptr = self.indptr.tolist()
        entries = list(zip(self.rank.tolist(), self.hub.tolist(),
                           self.dist.tolist(), self.count.tolist()))
        flags = self.canonical.tolist()
        canonical_rows = labels._canonical  # construction-time fill; LabelSet owns
        noncanonical_rows = labels._noncanonical
        for v in range(self.n):
            canonical_row = canonical_rows[v]
            noncanonical_row = noncanonical_rows[v]
            for i in range(indptr[v], indptr[v + 1]):
                if flags[i]:
                    canonical_row.append(entries[i])
                else:
                    noncanonical_row.append(entries[i])
        labels.finalize()
        return labels

    # -- row access ----------------------------------------------------------

    def row(self, v):
        """``(rank, hub, dist, count)`` column views of ``L(v)``."""
        lo, hi = self.indptr[v], self.indptr[v + 1]
        return self.rank[lo:hi], self.hub[lo:hi], self.dist[lo:hi], self.count[lo:hi]

    def label_size(self, v):
        """|L(v)|: number of entries of ``v``."""
        return int(self.indptr[v + 1] - self.indptr[v])

    def total_entries(self):
        """Σ_v |L(v)|: the labeling size in the paper's sense."""
        return int(self.indptr[-1])

    def nbytes(self):
        """In-memory footprint of the numpy columns.

        The lazily-derived ``hub`` column and the :attr:`hub_major` and
        :attr:`core` views count only once materialized — frugal instances
        never pay for them unless a caller asks for hubs, a single-source
        sweep or a pair batch.
        """
        columns = [self.indptr, self.rank, self.dist, self.count,
                   self.canonical, self.order]
        if self._hub is not None:
            columns.append(self._hub)
        for view in (self._hub_major, self._core):
            if view is not None:
                columns.extend(view)
        return sum(column.nbytes for column in columns)

    def count_dtype_escaped(self):
        """True when the count column needed the int64 overflow escape.

        :meth:`compact` stores counts as uint32; a labeling whose largest
        σ value does not fit 32 bits escapes to int64 instead (and bumps
        ``spc_count_overflow_escapes_total`` when metrics are enabled).
        """
        return self.count.dtype == INT

    def compact(self):
        """Return a memory-frugal copy sharing no mutable state.

        * ``rank`` narrows to uint32 (ranks are ``< n < 2^32``),
        * ``dist`` narrows to uint16 when the diameter allows, else uint32,
        * ``count`` narrows to uint32 with an explicit escape back to
          int64 when any σ value is ``>= 2^32``,
        * the ``hub`` column is dropped entirely (re-derived as
          ``order[rank]`` on demand).

        ``indptr`` and ``order`` stay int64: they are O(n), index into
        numpy arrays constantly, and narrowing them saves little.
        """
        from repro.observability.metrics import get_registry

        dist_dtype, count_dtype = narrow_dtypes(self.dist, self.count)
        if count_dtype == INT:
            registry = get_registry()
            if registry.enabled:
                registry.counter("spc_count_overflow_escapes_total").inc()
        return FlatLabels(
            self.n,
            np.asarray(self.indptr, dtype=INT),
            self.rank.astype(np.uint32),
            None,
            self.dist.astype(dist_dtype),
            self.count.astype(count_dtype),
            np.asarray(self.canonical, dtype=np.bool_),
            np.asarray(self.order, dtype=INT),
        )

    # -- size accounting -----------------------------------------------------

    def packed_size_bytes(self, entry_bits=64):
        """Index size in bytes under the packed encoding (parity with LabelSet)."""
        if entry_bits % 8:
            raise ValueError("entry_bits must be a multiple of 8")
        return self.total_entries() * (entry_bits // 8)

    def validate_sorted(self):
        """Check every row's rank column is strictly increasing."""
        for v in range(self.n):
            lo, hi = int(self.indptr[v]), int(self.indptr[v + 1])
            row = self.rank[lo:hi]
            if row.size > 1 and not bool(np.all(row[1:] > row[:-1])):
                raise LabelingError(f"flat label of vertex {v} is not rank-sorted")
        return True

    def equals(self, other):
        """Exact column-wise equality (used by the round-trip tests).

        Value equality, not dtype equality — a compacted or mmap-backed
        labeling equals its int64 twin. ``hub`` is not compared: it is
        always ``order[rank]``, so rank+order equality already pins it
        without materializing the derived column.
        """
        return (
            self.n == other.n
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.rank, other.rank)
            and np.array_equal(self.dist, other.dist)
            and np.array_equal(self.count, other.count)
            and np.array_equal(self.canonical, other.canonical)
            and np.array_equal(self.order, other.order)
        )

    def __repr__(self):
        return f"FlatLabels(n={self.n}, entries={self.total_entries()})"


def flatten_labels(labels):
    """Convenience alias: freeze ``labels`` into a :class:`FlatLabels`."""
    return FlatLabels.from_label_set(labels)
