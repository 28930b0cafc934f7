"""Uniform execution backends the planner chooses between.

Each backend adapts one of the repository's engines to a single small
surface — ``pair`` / ``pairs`` / ``single_source`` / ``set_to_set`` plus
a ``pair_cost()`` estimate — and normalises every answer to the AST
conventions (``int`` distances with ``inf`` for disconnected, ``int``
counts, tuples instead of arrays). ``pair_cost()`` depends on the
backend alone, never on the query node, so the planner prices a whole
batch's pair children with one call. The planner never needs to know
what lives behind a backend; conformance tests exploit the same
property to assert operator-by-operator agreement across all of them.

* :class:`FlatBackend` — the vectorized flat/batched engine over a
  built :class:`~repro.core.index.SPCIndex` (label-scan cost).
* :class:`BFSBackend` — the online counting BFS oracle (``O(n + m)``
  per query, no index needed, always exact).
* :class:`OracleBackend` — any duck-typed ``count_with_distance``
  object (an index facade, a dynamic overlay, a cluster adapter); used
  by the ``applications/`` drivers so they stay engine-agnostic.
* :class:`ResilientBackend` — a :class:`~repro.resilience
  .ResilientSPCIndex`; its ``name`` mirrors the live serving path
  (``flat`` while the index generation is loaded, ``bfs`` once
  degraded), which is how serving plans reflect reality.
"""

import numpy as np

INF = float("inf")

__all__ = [
    "Backend", "FlatBackend", "BFSBackend", "OracleBackend",
    "ResilientBackend", "normalize_pair", "normalize_single_source",
]


def normalize_pair(dist, count):
    """Coerce any engine's ``(dist, count)`` into the AST convention."""
    count = int(count)
    if count == 0:
        return (INF, 0)
    return (int(dist), count)


def normalize_single_source(dist, count):
    """Coerce array/list single-source columns into value tuples.

    Integer ndarray columns convert as whole columns: distances go to an
    object column of python ints with ``inf`` wherever the count is 0, and
    each column leaves numpy through one ``.tolist()``. Lists and object
    (python-int) counts take the per-element path.
    """
    if isinstance(count, np.ndarray) and count.dtype.kind in "iu":
        dist = np.asarray(dist)
        unreached = count == 0
        out_dist = np.where(unreached, 0, dist).astype(np.int64).astype(object)
        out_dist[unreached] = INF
        return (tuple(out_dist.tolist()), tuple(count.tolist()))
    if isinstance(dist, np.ndarray):
        dist = dist.tolist()
    if isinstance(count, np.ndarray):
        count = count.tolist()
    out_dist = []
    out_count = []
    for d, c in zip(dist, count):
        c = int(c)
        if c == 0:
            out_dist.append(INF)
            out_count.append(0)
        else:
            out_dist.append(int(d))
            out_count.append(c)
    return (tuple(out_dist), tuple(out_count))


class Backend:
    """Shared fallbacks: everything reduces to :meth:`pair` if needed."""

    name = "?"

    @property
    def n(self):
        """Vertex count, or ``None`` when the backend cannot know it."""
        return None

    def available(self):
        """False drops the backend from planning (e.g. stale labels)."""
        return True

    def pair(self, s, t, deadline=None):
        """Normalised ``(dist, count)`` for one pair."""
        raise NotImplementedError

    def pairs(self, pairs, deadline=None):
        """Normalised ``(dist, count)`` list aligned with ``pairs``."""
        return [self.pair(s, t, deadline=deadline) for s, t in pairs]

    def single_source(self, s, deadline=None):
        """Normalised ``(dist, count)`` tuples over every target."""
        n = self.n
        if n is None:
            raise NotImplementedError(
                f"{self.name} backend cannot enumerate targets (unknown n)"
            )
        answers = self.pairs([(s, t) for t in range(n)], deadline=deadline)
        return (tuple(d for d, _ in answers), tuple(c for _, c in answers))

    def set_to_set(self, sources, targets, deadline=None):
        """Min distance over S x T with counts summed at the minimum."""
        if not sources or not targets:
            return (INF, 0)
        best, sigma = INF, 0
        for s in sources:
            for d, c in self.pairs([(s, t) for t in targets],
                                   deadline=deadline):
                if c == 0:
                    continue
                if d < best:
                    best, sigma = d, c
                elif d == best:
                    sigma += c
        return (best, sigma) if sigma else (INF, 0)

    def pair_cost(self):
        """Estimated work units for one pair query (planner input)."""
        raise NotImplementedError

    def __repr__(self):
        return f"{type(self).__name__}(name={self.name!r}, n={self.n})"


class FlatBackend(Backend):
    """The vectorized flat/batched engine over a built index."""

    name = "flat"

    def __init__(self, index):
        self.index = index

    @property
    def n(self):
        return self.index.n

    def available(self):
        return not self.index.stale

    def pair(self, s, t, deadline=None):
        return self.pairs([(s, t)], deadline=deadline)[0]

    def pairs(self, pairs, deadline=None):
        # count_many already speaks the AST convention — python ints,
        # (inf, 0) disconnected, (0, 1) diagonal — so no per-item
        # renormalization on the hot batch path.
        return self.index.count_many(pairs, deadline=deadline)

    def single_source(self, s, deadline=None):
        from repro.core.batch_query import single_source

        if deadline is not None:
            deadline.check()
        return normalize_single_source(*single_source(self.index.to_flat(), s))

    def set_to_set(self, sources, targets, deadline=None):
        if not sources or not targets:
            return (INF, 0)
        if deadline is not None:
            deadline.check()
        return normalize_pair(*self.index.set_to_set(sources, targets))

    def pair_cost(self):
        # One query scans L(s) and L(t): ~2 average label rows of work.
        return 2.0 * self.index.total_entries() / max(1, self.index.n)


class BFSBackend(Backend):
    """Online counting BFS — exact with no index, ``O(n + m)`` a query."""

    name = "bfs"

    def __init__(self, graph, engine="python"):
        from repro.baselines.bfs_counting import BFSCountingOracle

        self.graph = graph
        self._oracle = BFSCountingOracle(graph, engine=engine)

    @property
    def n(self):
        return self.graph.n

    def pair(self, s, t, deadline=None):
        return normalize_pair(
            *self._oracle.count_with_distance(s, t, deadline=deadline)
        )

    def single_source(self, s, deadline=None):
        return normalize_single_source(
            *self._oracle.single_source(s, deadline=deadline)
        )

    def pair_cost(self):
        return float(self.graph.n + self.graph.m)


class OracleBackend(Backend):
    """Any ``count_with_distance`` object, e.g. an index facade.

    ``count_many`` and ``single_source`` methods are used when the
    wrapped object has them (so a batching-capable oracle — a cluster
    adapter, an :class:`~repro.core.index.SPCIndex` sweeping hub-major —
    keeps its amortisation); everything else falls back to per-pair
    queries.
    """

    name = "oracle"

    def __init__(self, oracle, n=None):
        self.oracle = oracle
        self._n = n

    @property
    def n(self):
        # Only an explicit n or the oracle's own n counts: inferring the
        # id space from label stores is wrong for reduced/renumbered
        # oracles that answer queries outside their internal store.
        if self._n is not None:
            return self._n
        n = getattr(self.oracle, "n", None)
        return n if isinstance(n, int) else None

    def pair(self, s, t, deadline=None):
        return normalize_pair(
            *_call(self.oracle.count_with_distance, s, t, deadline=deadline))

    def pairs(self, pairs, deadline=None):
        count_many = getattr(self.oracle, "count_many", None)
        if count_many is not None:
            return [normalize_pair(d, c)
                    for d, c in _call(count_many, pairs, deadline=deadline)]
        return super().pairs(pairs, deadline=deadline)

    def single_source(self, s, deadline=None):
        sweep = getattr(self.oracle, "single_source", None)
        if sweep is not None:
            return normalize_single_source(*_call(sweep, s, deadline=deadline))
        return super().single_source(s, deadline=deadline)

    def pair_cost(self):
        # Opaque: assume label-scan-ish work. The oracle backend is
        # usually the only one available, so the constant rarely matters.
        return 16.0


def _call(method, *args, deadline=None):
    """``method(*args)``, handing ``deadline`` on when there is one and the
    method takes it (else the deadline is checked once, up front)."""
    if deadline is None:
        return method(*args)
    try:
        return method(*args, deadline=deadline)
    except TypeError:
        deadline.check()
        return method(*args)


class ResilientBackend(Backend):
    """A serving-tier :class:`~repro.resilience.ResilientSPCIndex`.

    The backend's ``name`` tracks the facade's live serving path, so
    plans (and the backend-chosen metric) say ``flat`` while an index
    generation is loaded and ``bfs`` once the facade degrades — the
    planner itself never second-guesses the facade's own fallback
    machinery.
    """

    def __init__(self, resilient):
        self.resilient = resilient

    @property
    def name(self):
        return "flat" if self.resilient.status == "index" else "bfs"

    @property
    def n(self):
        return self.resilient.n

    def pair(self, s, t, deadline=None):
        return normalize_pair(
            *self.resilient.count_with_distance(s, t, deadline=deadline)
        )

    def pairs(self, pairs, deadline=None):
        return [normalize_pair(d, c)
                for d, c in self.resilient.count_many(pairs, deadline=deadline)]

    def single_source(self, s, deadline=None):
        return normalize_single_source(
            *self.resilient.single_source(s, deadline=deadline)
        )

    def set_to_set(self, sources, targets, deadline=None):
        if not sources or not targets:
            return (INF, 0)
        return normalize_pair(
            *self.resilient.set_to_set(sources, targets, deadline=deadline)
        )

    def pair_cost(self):
        return 16.0 if self.resilient.status == "index" else float(
            self.resilient.n
        )
