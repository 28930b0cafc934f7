"""Vertex orderings for HP-SPC (§3.4).

The order ``⪯`` drives indexing time, index size and query time. Two
state-of-the-art heuristics from the paper are provided — degree-based and
significant-path-based — plus a static wrapper for externally computed
orders (the §5 theory orders and test fixtures).

A strategy is *online*: HP-SPC asks for the first vertex, then after each
hub push hands back the partial shortest-path tree of that push and asks
for the next vertex. Degree ordering ignores the tree; the significant-path
scheme is exactly the adaptive heuristic of §3.4.
"""

from repro.exceptions import OrderingError


class PushTree:
    """The partial shortest-path tree produced by one hub push.

    ``root`` is the pushed hub, ``visit_order`` lists visited vertices in
    BFS dequeue order (root first), and ``parent`` maps each visited vertex
    to its first discoverer (the root maps to itself).
    """

    __slots__ = ("root", "visit_order", "parent")

    def __init__(self, root, visit_order, parent):
        self.root = root
        self.visit_order = visit_order
        self.parent = parent

    def descendant_counts(self):
        """Subtree sizes (``des(v)``, counting ``v`` itself).

        Children appear after their parent in BFS visit order, so one
        reverse sweep accumulates subtree sizes bottom-up.
        """
        des = {v: 1 for v in self.visit_order}
        for v in reversed(self.visit_order):
            if v != self.root:
                des[self.parent[v]] += des[v]
        return des

    def children(self):
        """Mapping vertex -> list of tree children, in visit order."""
        kids = {v: [] for v in self.visit_order}
        for v in self.visit_order:
            if v != self.root:
                kids[self.parent[v]].append(v)
        return kids


class OrderingStrategy:
    """Interface HP-SPC drives. Subclasses pick vertices one at a time."""

    #: whether HP-SPC should collect a :class:`PushTree` after each push
    wants_tree = False

    def first_vertex(self, graph):
        raise NotImplementedError

    def next_vertex(self, graph, pushed, tree):
        """Return the next unpushed vertex, or ``None`` when done.

        ``pushed`` is a boolean array; ``tree`` is the :class:`PushTree` of
        the last push (``None`` unless :attr:`wants_tree`).
        """
        raise NotImplementedError


class StaticOrdering(OrderingStrategy):
    """Wrap a precomputed order (a sequence rank -> vertex)."""

    wants_tree = False

    def __init__(self, order):
        self._order = list(order)
        self._cursor = 0

    def first_vertex(self, graph):
        if sorted(self._order) != list(range(graph.n)):
            raise OrderingError("static order must be a permutation of the vertex set")
        self._cursor = 1
        return self._order[0] if self._order else None

    def next_vertex(self, graph, pushed, tree):
        if self._cursor >= len(self._order):
            return None
        v = self._order[self._cursor]
        self._cursor += 1
        return v


class DegreeOrdering(OrderingStrategy):
    """Non-ascending degree, ties by vertex id (§3.4, [6, 32]).

    This is the order behind the state-of-the-art canonical distance
    labeling (pruned landmark labeling).
    """

    wants_tree = False

    def __init__(self):
        self._order = None
        self._cursor = 0

    @staticmethod
    def static_order(graph):
        """The full degree order as a list (rank -> vertex)."""
        return sorted(graph.vertices(), key=lambda v: (-graph.degree(v), v))

    def first_vertex(self, graph):
        self._order = self.static_order(graph)
        self._cursor = 1
        return self._order[0] if self._order else None

    def next_vertex(self, graph, pushed, tree):
        if self._cursor >= len(self._order):
            return None
        v = self._order[self._cursor]
        self._cursor += 1
        return v


class SignificantPathOrdering(OrderingStrategy):
    """The adaptive significant-path scheme of §3.4 ([5, 39]).

    After pushing ``w_i``, walk the push tree from the root picking the
    child with the most descendants until a leaf — the *significant path*
    ``p_sig``. Among its vertices other than the root, pick the one
    maximising ``deg(v) * (des(par(v)) - des(v))`` as ``w_{i+1}``.
    ``w_1`` is the highest-degree vertex. When the push tree offers no
    candidate (trivial tree, exhausted component), fall back to the
    highest-degree unpushed vertex.
    """

    wants_tree = True

    def __init__(self):
        self._degree_queue = None

    def first_vertex(self, graph):
        # Highest degree first; the lazy queue below serves fallbacks.
        self._degree_queue = DegreeOrdering.static_order(graph)
        self._fallback_cursor = 1
        return self._degree_queue[0] if self._degree_queue else None

    def next_vertex(self, graph, pushed, tree):
        candidate = self._from_significant_path(graph, pushed, tree)
        if candidate is not None:
            return candidate
        while self._fallback_cursor < len(self._degree_queue):
            v = self._degree_queue[self._fallback_cursor]
            self._fallback_cursor += 1
            if not pushed[v]:
                return v
        return None

    def _from_significant_path(self, graph, pushed, tree):
        if tree is None or len(tree.visit_order) <= 1:
            return None
        des = tree.descendant_counts()
        kids = tree.children()
        # Walk the significant path root -> leaf by max descendant count.
        path = []
        v = tree.root
        while kids[v]:
            v = max(kids[v], key=lambda child: (des[child], -child))
            path.append(v)
        best = None
        best_score = -1
        for v in path:
            if pushed[v]:
                continue
            score = graph.degree(v) * (des[tree.parent[v]] - des[v])
            if score > best_score:
                best, best_score = v, score
        return best


class BetweennessOrdering(OrderingStrategy):
    """Rank by approximate betweenness from sampled BFS sources.

    A standard third heuristic in the hub-labeling literature ([39]'s
    experimental study): vertices covering many shortest paths get high
    rank. Dependencies are accumulated Brandes-style from ``samples``
    random sources (all sources when the graph is small), then vertices
    sort by descending score with degree and id as tie-breakers.
    """

    wants_tree = False

    def __init__(self, samples=64, seed=0):
        self._samples = samples
        self._seed = seed
        self._order = None
        self._cursor = 0

    def static_order(self, graph):
        from collections import deque

        from repro.utils.rng import ensure_rng

        n = graph.n
        rng = ensure_rng(self._seed)
        if n <= self._samples:
            sources = list(graph.vertices())
        else:
            sources = [rng.randrange(n) for _ in range(self._samples)]
        score = [0.0] * n
        for s in sources:
            dist = [-1] * n
            sigma = [0] * n
            preds = [[] for _ in range(n)]
            dist[s] = 0
            sigma[s] = 1
            order = []
            queue = deque([s])
            while queue:
                v = queue.popleft()
                order.append(v)
                for w in graph.neighbors(v):
                    if dist[w] < 0:
                        dist[w] = dist[v] + 1
                        queue.append(w)
                    if dist[w] == dist[v] + 1:
                        sigma[w] += sigma[v]
                        preds[w].append(v)
            delta = [0.0] * n
            for w in reversed(order):
                coefficient = (1.0 + delta[w]) / sigma[w]
                for v in preds[w]:
                    delta[v] += sigma[v] * coefficient
                if w != s:
                    score[w] += delta[w]
        return sorted(
            graph.vertices(), key=lambda v: (-score[v], -graph.degree(v), v)
        )

    def first_vertex(self, graph):
        self._order = self.static_order(graph)
        self._cursor = 1
        return self._order[0] if self._order else None

    def next_vertex(self, graph, pushed, tree):
        if self._cursor >= len(self._order):
            return None
        v = self._order[self._cursor]
        self._cursor += 1
        return v


_BY_NAME = {
    "degree": DegreeOrdering,
    "significant-path": SignificantPathOrdering,
    "sigpath": SignificantPathOrdering,
    "betweenness": BetweennessOrdering,
}


def resolve_ordering(spec):
    """Normalise an ordering spec into an :class:`OrderingStrategy`.

    ``spec`` may be a strategy instance, a name (``"degree"``,
    ``"significant-path"``), or an explicit sequence of vertices.
    """
    if isinstance(spec, OrderingStrategy):
        return spec
    if isinstance(spec, str):
        try:
            return _BY_NAME[spec]()
        except KeyError:
            raise OrderingError(
                f"unknown ordering {spec!r}; expected one of {sorted(_BY_NAME)}"
            ) from None
    if isinstance(spec, (list, tuple)):
        return StaticOrdering(spec)
    raise OrderingError(f"cannot interpret ordering spec of type {type(spec).__name__}")


def resolve_static_order(graph, ordering="degree"):
    """Materialize a full static order (rank -> vertex) for ``ordering``.

    Drives the strategy without push trees, so any tree-free strategy
    (degree, betweenness, explicit lists) works; adaptive strategies raise
    :class:`OrderingError`. This is the entry point of the vectorized CSR
    construction kernels and the checkpointed builds, which need the whole
    order up front.
    """
    strategy = resolve_ordering(ordering)
    if strategy.wants_tree:
        raise OrderingError(
            "this builder needs a static ordering; "
            "adaptive (tree-driven) strategies must use the sequential python builder"
        )
    n = graph.n
    pushed = [False] * n
    order = []
    w = strategy.first_vertex(graph) if n else None
    while w is not None:
        if pushed[w]:
            raise OrderingError(f"ordering strategy returned vertex {w} twice")
        order.append(w)
        pushed[w] = True
        w = strategy.next_vertex(graph, pushed, None)
    if len(order) != n:
        missing = [v for v in range(n) if not pushed[v]]
        raise OrderingError(f"ordering did not cover all vertices; missing {missing[:5]}")
    return order
