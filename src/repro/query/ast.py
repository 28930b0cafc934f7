"""The declarative query AST: one immutable node per operator.

Every workload this repository serves — pair counting, distances,
single-source sweeps, set-to-set aggregation, relevance ranking,
betweenness estimation, path existence — is expressed as a small tree of
value objects. Nodes carry *what* is asked, never *how* it is answered:
the :mod:`~repro.query.planner` picks an execution backend per node
(one per batch for its pair operators) and the
:mod:`~repro.query.engine` runs the plan, so the same tree evaluates
identically over the flat/batched engine, the BFS oracle, or a
duck-typed ``count_with_distance`` oracle.

Nodes are hashable and comparable by value; ``node.key()`` is the
canonical tuple used both for equality and as the result-cache key
(combined with the engine's index generation). Results are normalised to
plain Python values — ``(dist, count)`` tuples with ``int`` distances
(``inf`` for disconnected), ``int`` counts, tuples instead of arrays —
so answers compare equal across backends and cache safely.
"""

from repro.exceptions import VertexError

INF = float("inf")

__all__ = [
    "Query", "Count", "Distance", "PathExists", "SingleSource",
    "SetToSet", "Relevance", "TopKBetweenness", "Batch", "PAIR_OPS",
]


def _check_vertex(v, n):
    """Raise :class:`VertexError` unless ``v`` is an int inside ``[0, n)``."""
    if isinstance(v, bool) or not isinstance(v, int) or not 0 <= v < n:
        raise VertexError(v, n)


def _vertex_tuple(vertices):
    """Freeze an id iterable into a tuple (the only mutation-proof form)."""
    return tuple(vertices)


class Query:
    """Base class for all AST nodes.

    Subclasses set ``op`` (the operator name used in plans, metrics and
    the textual form) and implement :meth:`key` and :meth:`validate`.
    """

    op = "?"
    __slots__ = ()

    def key(self):
        """Canonical hashable identity: ``(op, field, field, ...)``."""
        raise NotImplementedError

    def validate(self, n):
        """Raise :class:`VertexError` for any id outside ``[0, n)``."""
        raise NotImplementedError

    def children(self):
        """Child nodes (non-empty only for :class:`Batch`)."""
        return ()

    def __eq__(self, other):
        return type(other) is type(self) and other.key() == self.key()

    def __ne__(self, other):
        return not self.__eq__(other)

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        fields = ", ".join(repr(field) for field in self.key()[1:])
        return f"{type(self).__name__}({fields})"


class _PairQuery(Query):
    """Shared shape of the three pair operators: fields ``s`` and ``t``.

    Each subclass projects the backend's ``(dist, count)`` answer through
    :meth:`from_pair`, which is also how the engine splices one batched
    ``count_many`` call back into per-node results.
    """

    __slots__ = ("s", "t")

    def __init__(self, s, t):
        self.s = s
        self.t = t

    def key(self):
        return (self.op, self.s, self.t)

    def validate(self, n):
        _check_vertex(self.s, n)
        _check_vertex(self.t, n)

    def from_pair(self, dist, count):
        """Project a normalised ``(dist, count)`` pair into this node's answer."""
        raise NotImplementedError


class Count(_PairQuery):
    """``(sd(s,t), spc(s,t))`` — distance and shortest-path count.

    Answers ``(0, 1)`` on the diagonal and ``(inf, 0)`` when
    disconnected, matching every engine in the repository.
    """

    op = "count"
    __slots__ = ()

    def from_pair(self, dist, count):
        return (dist, count)


class Distance(_PairQuery):
    """``sd(s, t)``; ``inf`` when disconnected."""

    op = "distance"
    __slots__ = ()

    def from_pair(self, dist, count):
        return dist


class PathExists(_PairQuery):
    """True when any path connects ``s`` and ``t`` (``spc > 0``)."""

    op = "exists"
    __slots__ = ()

    def from_pair(self, dist, count):
        return count > 0


class SingleSource(Query):
    """``(dist, count)`` over every target from one source.

    The answer is a pair of length-``n`` tuples — ``dist[t]`` an ``int``
    (``inf`` unreachable), ``count[t]`` an ``int`` — normalised from
    whichever array/list convention the chosen backend uses.
    """

    op = "single_source"
    __slots__ = ("s",)

    def __init__(self, s):
        self.s = s

    def key(self):
        return (self.op, self.s)

    def validate(self, n):
        _check_vertex(self.s, n)


class SetToSet(Query):
    """``(sd(S, T), spc(S, T))``: min distance over all pairs, counts
    summed over exactly the pairs achieving it. Empty sides answer
    ``(inf, 0)``."""

    op = "set_to_set"
    __slots__ = ("sources", "targets")

    def __init__(self, sources, targets):
        self.sources = _vertex_tuple(sources)
        self.targets = _vertex_tuple(targets)

    def key(self):
        return (self.op, self.sources, self.targets)

    def validate(self, n):
        for v in self.sources:
            _check_vertex(v, n)
        for v in self.targets:
            _check_vertex(v, n)


class Relevance(Query):
    """Rank ``candidates`` from ``source`` by (distance asc, count desc).

    The paper's Figure 1 workload: among equally-distant candidates the
    one reached by more shortest paths ranks first. The answer is a tuple
    of ``(vertex, dist, count)`` rows, best first; unreachable candidates
    sort last; ties break on the smaller id.
    """

    op = "relevance"
    __slots__ = ("source", "candidates")

    def __init__(self, source, candidates):
        self.source = source
        self.candidates = _vertex_tuple(candidates)

    def key(self):
        return (self.op, self.source, self.candidates)

    def validate(self, n):
        _check_vertex(self.source, n)
        for v in self.candidates:
            _check_vertex(v, n)


class TopKBetweenness(Query):
    """Top-``k`` betweenness scores (unordered-pair convention).

    With ``samples=None`` the planner prefers the exact Brandes sweep
    when a graph is attached; otherwise (or with ``samples`` pinned) it
    estimates by uniform pair sampling over the cheapest pair backend —
    the sampling loop consumes only ``(dist, count)`` pair answers, so a
    pinned ``(samples, seed)`` yields bit-identical estimates on every
    exact backend. The answer is a tuple of ``(vertex, score)`` rows,
    highest score first (ties on the smaller id), restricted to
    ``vertices`` when given and truncated to ``k`` when not ``None``.
    """

    op = "topk_betweenness"
    __slots__ = ("k", "samples", "seed", "vertices")

    def __init__(self, k=None, samples=None, seed=0, vertices=None):
        if k is not None and k < 0:
            raise ValueError(f"k must be non-negative or None, got {k!r}")
        if samples is not None and samples <= 0:
            raise ValueError(f"samples must be positive or None, got {samples!r}")
        self.k = k
        self.samples = samples
        self.seed = seed
        self.vertices = None if vertices is None else _vertex_tuple(vertices)

    def key(self):
        return (self.op, self.k, self.samples, self.seed, self.vertices)

    def validate(self, n):
        if self.vertices is not None:
            for v in self.vertices:
                _check_vertex(v, n)


class Batch(Query):
    """Evaluate child queries together; the answer tuple aligns with them.

    The planner gives every pair-operator child one backend in one pass
    and the engine answers them with one batched ``pairs`` call, so a
    ``Batch`` of thousands of :class:`Count` nodes costs one backend
    decision and a handful of vectorized passes, not per-node dispatch.
    """

    op = "batch"
    __slots__ = ("queries",)

    def __init__(self, queries):
        self.queries = tuple(queries)
        for child in self.queries:
            if not isinstance(child, Query):
                raise TypeError(
                    f"Batch children must be Query nodes, got {child!r}"
                )
            if isinstance(child, Batch):
                raise TypeError("Batch nodes do not nest")

    def key(self):
        return (self.op,) + tuple(child.key() for child in self.queries)

    def validate(self, n):
        for child in self.queries:
            child.validate(n)

    def children(self):
        return self.queries


#: The operator classes a batch's plan answers as one pair group.
PAIR_OPS = (Count, Distance, PathExists)
