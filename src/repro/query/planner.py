"""Cost-based planning: pick the cheapest backend for every AST node.

The cost model is deliberately coarse — label scans and BFS sweeps
differ by orders of magnitude, so rough work-unit estimates pick the
right backend without calibration:

=============  ============================================================
backend        estimated cost per pair query
=============  ============================================================
``flat``       ``2 x avg |L(v)|`` (two label rows scanned)
``bfs``        ``n + m`` (one counting BFS)
``oracle``     a flat-ish constant (usually the only backend available)
=============  ============================================================

No estimate depends on the node, so selection rules fall out of the
backend line-up alone (and are asserted by the planner tests): the flat
engine wins whenever an index generation is loaded and fresh; a stale or
absent index falls back to BFS. :class:`~repro.query.ast.TopKBetweenness`
is a strategy choice instead: exact Brandes when ``samples is None`` and
a graph is attached, otherwise sampled estimation over the cheapest pair
backend.

A :class:`~repro.query.ast.Batch` is planned in one pass over its
children: every pair-operator child (``Count``, ``Distance``,
``PathExists``) shares one backend decision and lands in one
:class:`PairGroup` that the engine answers with a single ``pairs`` call;
the other children are planned one by one. Plans are explainable
(:meth:`Plan.explain`) and cheap enough to rebuild per run; the engine
re-plans whenever the index generation or backend availability changes.

Every produced plan bumps ``spc_query_plans_total{operator=...}`` and
``spc_query_backends_chosen_total{backend=...}`` when metrics are on;
the latter counts one per query node, so a pair group adds its size.
"""

from repro.exceptions import PlanError
from repro.observability.metrics import get_registry
from repro.query.ast import (
    Batch,
    Count,
    PAIR_OPS,
    Relevance,
    SetToSet,
    SingleSource,
    TopKBetweenness,
)

__all__ = ["PairGroup", "PlanNode", "Plan", "QueryPlanner", "DEFAULT_SAMPLES"]

#: Pair samples for a TopKBetweenness that pinned none but must sample.
DEFAULT_SAMPLES = 400


class PairGroup:
    """A batch's pair-operator children, answered by one ``pairs`` call.

    ``indexes`` are the children's positions in the batch (a ``range``
    when the batch is all ``Count``), ``pairs`` their ``(s, t)`` in the
    same order; ``splicers`` is ``None`` when every member is a plain
    :class:`Count` (whose answer needs no projection), else each member's
    ``from_pair`` (``None`` for a ``Count``).
    """

    __slots__ = ("backend", "backend_name", "queries", "indexes", "pairs",
                 "splicers", "cost")

    def __init__(self, backend, queries, indexes, pairs, splicers):
        self.backend = backend
        self.backend_name = backend.name
        self.queries = queries
        self.indexes = indexes
        self.pairs = pairs
        self.splicers = splicers
        self.cost = len(pairs) * backend.pair_cost()

    def describe(self):
        """One human line: ``count x1000 -> flat (cost ~N)``."""
        ops = "+".join(dict.fromkeys(self.queries[i].op for i in self.indexes))
        return (f"{ops} x{len(self.indexes)} -> {self.backend_name} "
                f"(cost ~{self.cost:.0f})")


class PlanNode:
    """One node's execution decision: backend, strategy, estimated cost.

    A batch node carries its :class:`PairGroup` (or ``None``) in
    ``group`` and its other children's plans in ``children``, at the
    batch positions ``positions``.
    """

    __slots__ = ("node", "backend", "backend_name", "strategy", "cost",
                 "children", "positions", "group")

    def __init__(self, node, backend, backend_name, cost, strategy=None,
                 children=(), positions=(), group=None):
        self.node = node
        self.backend = backend
        self.backend_name = backend_name
        self.strategy = strategy
        self.cost = cost
        self.children = tuple(children)
        self.positions = tuple(positions)
        self.group = group

    def describe(self):
        """One human line: ``operator -> backend (cost ~N)``."""
        strategy = f" [{self.strategy}]" if self.strategy else ""
        return (f"{self.node.op} -> {self.backend_name}{strategy} "
                f"(cost ~{self.cost:.0f})")


class Plan:
    """A planned query tree, ready for the engine to execute."""

    __slots__ = ("root",)

    def __init__(self, root):
        self.root = root

    def explain(self):
        """The plan as an indented text tree (CLI ``--explain`` output)."""
        lines = []

        def walk(plan_node, depth):
            lines.append("  " * depth + plan_node.describe())
            if plan_node.group is not None:
                lines.append("  " * (depth + 1) + plan_node.group.describe())
            for child in plan_node.children:
                walk(child, depth + 1)

        walk(self.root, 0)
        return "\n".join(lines)

    def walk(self):
        """Every :class:`PlanNode` of the tree, preorder."""
        stack = [self.root]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))


class QueryPlanner:
    """Chooses backends for AST nodes from a fixed candidate list.

    ``backends`` is the engine's ordered backend list; ``graph`` (when
    attached) unlocks the exact-Brandes strategy; ``only`` restricts
    candidates by name (the conformance suite forces one backend at a
    time through it).
    """

    def __init__(self, backends, graph=None, default_samples=DEFAULT_SAMPLES,
                 only=None):
        self._backends = tuple(backends)
        self._graph = graph
        self.default_samples = default_samples
        self._only = None if only is None else frozenset(only)

    def _cheapest_pair(self, node):
        """The available, allowed backend with the lowest pair cost."""
        candidates = [
            backend for backend in self._backends
            if backend.available()
            and (self._only is None or backend.name in self._only)
        ]
        if not candidates:
            raise PlanError(
                f"no backend available for operator {node.op!r} "
                "(engine built without an index, graph or oracle?)"
            )
        return min(candidates, key=lambda b: b.pair_cost())

    def plan(self, node, n=None):
        """Produce a :class:`Plan` for ``node`` and record plan metrics.

        With ``n`` given, the node's vertex ids are checked against
        ``[0, n)`` as it is planned, raising the
        :class:`~repro.exceptions.VertexError` that ``node.validate(n)``
        would; a batch checks its children in the same pass that groups
        them.
        """
        root = self._plan_node(node, n)
        plan = Plan(root)
        registry = get_registry()
        if registry.enabled:
            registry.counter("spc_query_plans_total", operator=node.op).inc()
            for plan_node in plan.walk():
                registry.counter("spc_query_backends_chosen_total",
                                 backend=plan_node.backend_name).inc()
                group = plan_node.group
                if group is not None:
                    registry.counter("spc_query_backends_chosen_total",
                                     backend=group.backend_name).inc(
                                         len(group.indexes))
        return plan

    def _plan_node(self, node, n=None):
        if isinstance(node, Batch):
            return self._plan_batch(node, n)
        if n is not None:
            node.validate(n)
        if isinstance(node, PAIR_OPS):
            backend = self._cheapest_pair(node)
            return PlanNode(node, backend, backend.name, backend.pair_cost())
        if isinstance(node, SingleSource):
            backend = self._cheapest_pair(node)
            return PlanNode(node, backend, backend.name,
                            self._sweep_cost(backend))
        if isinstance(node, SetToSet):
            backend = self._cheapest_pair(node)
            cost = len(node.sources) * self._sweep_cost(backend)
            return PlanNode(node, backend, backend.name, cost)
        if isinstance(node, Relevance):
            backend = self._cheapest_pair(node)
            cost = max(1, len(node.candidates)) * backend.pair_cost()
            return PlanNode(node, backend, backend.name, cost)
        if isinstance(node, TopKBetweenness):
            return self._plan_topk(node)
        raise PlanError(f"unknown query node {type(node).__name__}")

    def _plan_batch(self, node, n):
        """One pass: pair children join the group, the rest plan alone.

        With ``n`` given the pass also checks ids. A :class:`Count` whose
        ``s`` and ``t`` are plain ints in ``[0, n)`` needs no call; any
        other child takes its own ``validate``, in batch order, so a bad id
        raises what ``Batch.validate`` raises. The other children are
        planned only after every child passed.
        """
        queries = node.queries
        pairs = []
        add = pairs.append
        # The common batch is all Count: its leading run builds only pairs.
        for child in queries:
            if type(child) is not Count:
                break
            s, t = child.s, child.t
            if n is not None and not (type(s) is type(t) is int
                                      and 0 <= s < n and 0 <= t < n):
                child.validate(n)
            add((s, t))
        head = len(pairs)
        positions, rest = [], []
        if head == len(queries):
            indexes, splicers = range(head), None
        else:
            indexes, splicers = list(range(head)), [None] * head
            for i in range(head, len(queries)):
                child = queries[i]
                if n is not None:
                    child.validate(n)
                if isinstance(child, PAIR_OPS):
                    indexes.append(i)
                    add((child.s, child.t))
                    splicers.append(None if type(child) is Count
                                    else child.from_pair)
                else:
                    positions.append(i)
                    rest.append(child)
            indexes = tuple(indexes)
            splicers = tuple(splicers) if any(splicers) else None
        children = [self._plan_node(child) for child in rest]
        group = None
        if pairs:
            group = PairGroup(self._cheapest_pair(queries[indexes[0]]),
                              queries, indexes, pairs, splicers)
        cost = sum(child.cost for child in children)
        cost += group.cost if group is not None else 0.0
        return PlanNode(node, None, "batch", cost, children=children,
                        positions=positions, group=group)

    def _sweep_cost(self, backend):
        """Cost of one full single-source sweep on ``backend``."""
        n = backend.n or 1
        if backend.name == "flat":
            return float(n)  # one pass over all label entries, amortised
        return backend.pair_cost()  # bfs/oracle: one sweep ~ one pair query

    def _plan_topk(self, node):
        graph = self._graph
        if node.samples is None and graph is not None and self._only is None:
            # Exact Brandes: one dependency accumulation per source.
            cost = float(graph.n) * (graph.n + graph.m)
            return PlanNode(node, None, "brandes", cost, strategy="exact")
        backend = self._cheapest_pair(node)
        samples = node.samples or self.default_samples
        targets = (len(node.vertices) if node.vertices is not None
                   else (backend.n or 1))
        cost = 3.0 * samples * targets * backend.pair_cost()
        return PlanNode(node, backend, f"sampled+{backend.name}", cost,
                        strategy="sampled")
