"""Exact queries under edge insertions *and deletions*, labels untouched (§8).

The paper lists dynamic maintenance as an open problem: updating the
labeling itself is hard even for distances, and counting adds the σ
bookkeeping. What *is* tractable — and implemented here — is keeping the
static labeling and answering queries exactly on the *updated* graph, as
long as the patch (the set of mutated edges) stays small.

**Insertions.** The key identity: decompose any shortest path of the
updated graph by the **last inserted edge it uses**. The decomposition is
unique, so with ``old(x, y)`` denoting the static index's
(distance, count) — which by construction counts exactly the paths using
*no* inserted edge —

    h(z) = combine( old(s, z),
                    { h(a) ⊕ 1 ⊕ old(b, z)  for inserted edges (a, b) } )

where ``h`` is the updated-graph answer from ``s``, ``⊕`` adds distances
and multiplies counts, and ``combine`` keeps the minimum distance and
sums counts at it. Every term strictly increases the distance, so a
Dijkstra-style settle over the ≤ 2k+2 overlay vertices (patch endpoints
plus the query pair) evaluates the fixpoint exactly with O(k²) label
queries per query, asked as one batched join. Walks of shortest length
cannot repeat a vertex, so no phantom (non-simple) combination survives
at the minimum distance.

**Deletions.** A deleted base edge cannot be subtracted from the labels,
but it *can* be detected: a term ``old(x, y)`` is **touched** by the
deleted edge ``(a, b)`` iff some shortest base path from ``x`` to ``y``
crosses it, i.e.

    old_d(x, a) + 1 + old_d(b, y) == old_d(x, y)      (either orientation)

When no term consulted by the overlay fixpoint is touched, every segment
it counts survives the deletions unchanged (a subgraph cannot shorten
distances, and all counted paths still exist), so the fixpoint stays
exact on the graph *with* deletions. When any consulted term is touched,
the facade falls back to an online BFS on :meth:`current_graph` — slower
but exact, never a wrong count. :meth:`rebuild` (or the rebuild-behind
:class:`repro.dynamic.maintenance.MaintenanceController`) folds the
patch away and restores label-speed answers.
"""

import threading
from itertools import combinations

from repro.core.index import ENGINES, SPCIndex
from repro.exceptions import GraphError, VertexError
from repro.graph.graph import Graph
from repro.graph.traversal import spc_bfs
from repro.observability.metrics import get_registry

INF = float("inf")


class _OverlayTouched(Exception):
    """Internal: an overlay term crosses a deleted edge; BFS must answer."""


class DynamicSPCIndex:
    """A counting index that absorbs edge mutations between rebuilds.

    Queries stay exact after every :meth:`insert_edge` /
    :meth:`delete_edge`; their cost grows quadratically with the patch
    size (and deletion-touched pairs pay a BFS), so ``auto_rebuild``
    (default 16 pending mutations) folds the patch into a fresh static
    index when it gets large. Set ``auto_rebuild=None`` to manage
    rebuilds manually.

    Parameters
    ----------
    graph:
        The initial :class:`~repro.graph.graph.Graph`.
    ordering:
        Hub ordering forwarded to :meth:`SPCIndex.build`. Adaptive
        orderings (``"significant-path"``) require ``engine="python"``.
    auto_rebuild:
        Pending-mutation count that triggers a rebuild, or ``None``.
    engine:
        Construction engine for the initial build and every rebuild
        (default ``"csr"`` — bit-identical to ``"python"``, ~an order of
        magnitude faster on static orderings).
    defer_rebuild:
        When True, crossing the ``auto_rebuild`` threshold never builds
        inside the mutating call (which would block the caller for the
        whole construction); it only latches :attr:`rebuild_due` and
        notifies ``on_rebuild_due``. Something else — an operator, or a
        :class:`~repro.dynamic.maintenance.MaintenanceController` — then
        runs :meth:`rebuild` off the request path.
    on_rebuild_due:
        Optional callback ``fn(index)`` fired (outside the internal
        lock) on the pending-count's first crossing of the threshold.
        Supplying a callback implies ``defer_rebuild``.

    All mutations and queries are thread-safe: mutations serialise on an
    internal lock, queries snapshot the index + patch once and never see
    a torn rebuild.
    """

    def __init__(self, graph, ordering="degree", auto_rebuild=16,
                 engine="csr", defer_rebuild=False, on_rebuild_due=None):
        if auto_rebuild is not None and auto_rebuild < 1:
            raise ValueError("auto_rebuild must be positive or None")
        if engine not in ENGINES:
            raise ValueError(f"unknown engine {engine!r}; expected one of {ENGINES}")
        self._ordering = ordering
        self._auto_rebuild = auto_rebuild
        self._engine = engine
        self._defer_rebuild = defer_rebuild or on_rebuild_due is not None
        self._on_rebuild_due = on_rebuild_due
        self._lock = threading.RLock()
        self._graph = graph
        self._index = SPCIndex.build(graph, ordering=ordering, engine=engine)
        self._patch = []  # inserted edges, as (u, v) with u < v
        self._patch_set = set()
        self._deleted = []  # deleted base edges, as (u, v) with u < v
        self._deleted_set = set()
        self._current_cache = None  # memoised current_graph() materialisation
        self._rebuild_due = False
        self._overlay_fallbacks = 0

    # -- updates -----------------------------------------------------------------

    def insert_edge(self, u, v):
        """Insert edge ``(u, v)``; queries reflect it immediately.

        Inserting an edge that was previously :meth:`delete_edge`-d simply
        un-deletes it. Duplicate edges raise :class:`GraphError`,
        out-of-range endpoints :class:`VertexError`.
        """
        with self._lock:
            self._insert_locked(u, v)
            callback = self._maybe_trigger_locked()
        if callback is not None:
            callback(self)

    def delete_edge(self, u, v):
        """Delete edge ``(u, v)``; queries reflect it immediately.

        Deleting an edge that was inserted after the build simply retracts
        the insertion. Deleting a base edge records it in the deletion
        patch: queries whose overlay terms cross it are answered by an
        exact BFS on :meth:`current_graph` until the next rebuild.
        Absent edges raise :class:`GraphError`.
        """
        with self._lock:
            self._delete_locked(u, v)
            callback = self._maybe_trigger_locked()
        if callback is not None:
            callback(self)

    def _check_vertices(self, u, v):
        n = self._graph.n
        if not (0 <= u < n):
            raise VertexError(u, n)
        if not (0 <= v < n):
            raise VertexError(v, n)
        if u == v:
            raise GraphError(f"self-loop at vertex {u}")

    def _insert_locked(self, u, v):
        self._check_vertices(u, v)
        key = (u, v) if u < v else (v, u)
        if key in self._deleted_set:
            self._deleted.remove(key)
            self._deleted_set.discard(key)
        elif key in self._patch_set or self._graph.has_edge(u, v):
            raise GraphError(f"edge {key} already present")
        else:
            self._patch.append(key)
            self._patch_set.add(key)
        self._note_mutation_locked("insert", key)

    def _delete_locked(self, u, v):
        self._check_vertices(u, v)
        key = (u, v) if u < v else (v, u)
        if key in self._patch_set:
            self._patch.remove(key)
            self._patch_set.discard(key)
        elif self._graph.has_edge(u, v) and key not in self._deleted_set:
            self._deleted.append(key)
            self._deleted_set.add(key)
        else:
            raise GraphError(f"edge {key} not present")
        self._note_mutation_locked("delete", key)

    def _note_mutation_locked(self, op, key):
        self._current_cache = None
        pending = len(self._patch) + len(self._deleted)
        if pending:
            # Queries *through this facade* stay exact, but the raw static
            # labels no longer match the logical graph: flag them so any
            # serving layer holding a reference (ResilientSPCIndex,
            # SPCService) degrades or rebuilds instead of silently
            # answering for the pre-mutation graph.
            verb = "inserted" if op == "insert" else "deleted"
            self._index.mark_stale(
                f"edge {key} {verb} after build ({pending} pending)"
            )
        registry = get_registry()
        if registry.enabled:
            registry.counter("spc_dynamic_mutations_total", op=op).inc()

    def _maybe_trigger_locked(self):
        """Threshold policy after a mutation; returns a callback to fire.

        Inline mode rebuilds synchronously (the pre-controller behaviour);
        deferred mode latches :attr:`rebuild_due` and hands back
        ``on_rebuild_due`` on the first crossing only, to be invoked by
        the caller *after* releasing the lock.
        """
        pending = len(self._patch) + len(self._deleted)
        if self._auto_rebuild is None or pending < self._auto_rebuild:
            return None
        if self._defer_rebuild:
            first_crossing = not self._rebuild_due
            self._rebuild_due = True
            return self._on_rebuild_due if first_crossing else None
        self.rebuild()
        return None

    def rebuild(self, engine=None):
        """Fold the patch into the graph and rebuild the static index.

        ``engine`` overrides the instance default for this one build
        (every engine yields bit-identical labels on static orderings).
        """
        with self._lock:
            if self._patch or self._deleted:
                self._graph = self._materialize_locked()
                self._patch = []
                self._patch_set = set()
                self._deleted = []
                self._deleted_set = set()
            self._current_cache = None
            self._rebuild_due = False
            self._index = SPCIndex.build(
                self._graph, ordering=self._ordering,
                engine=self._engine if engine is None else engine,
            )
        return self

    def adopt_rebuild(self, graph, index, replay=()):
        """Install an externally built ``(graph, index)`` as the new base.

        The rebuild-behind controller builds labels for a snapshot of the
        logical graph in a worker process while mutations keep landing
        here; on publish it adopts the pair and replays the journal tail
        (``("insert"|"delete", u, v)`` tuples, oldest first) so not one
        mutation is lost across the swap. Replay never fires rebuild
        callbacks; if the tail alone crosses the threshold,
        :attr:`rebuild_due` is simply latched again.
        """
        if index.n != graph.n:
            raise GraphError(
                f"index built for {index.n} vertices, graph has {graph.n}"
            )
        with self._lock:
            self._graph = graph
            self._index = index
            self._patch = []
            self._patch_set = set()
            self._deleted = []
            self._deleted_set = set()
            self._current_cache = None
            self._rebuild_due = False
            for op, u, v in replay:
                if op == "insert":
                    self._insert_locked(u, v)
                elif op == "delete":
                    self._delete_locked(u, v)
                else:
                    raise ValueError(f"unknown replay op {op!r}")
            pending = len(self._patch) + len(self._deleted)
            if self._auto_rebuild is not None and pending >= self._auto_rebuild:
                self._rebuild_due = True
        return self

    # -- queries --------------------------------------------------------------------

    def count_with_distance(self, s, t):
        """``(sd(s,t), spc(s,t))`` on the graph *including* the patch."""
        with self._lock:
            n = self._graph.n
            index = self._index
            patch = tuple(self._patch)
            deleted = tuple(self._deleted)
        if not (0 <= s < n):
            raise VertexError(s, n)
        if not (0 <= t < n):
            raise VertexError(t, n)
        if s == t:
            return 0, 1
        if not patch and not deleted:
            return index.count_with_distance(s, t)
        try:
            return self._overlay_query(s, t, index, patch, deleted)
        except _OverlayTouched:
            # Some overlay term crosses a deleted edge: the labels cannot
            # answer this pair soundly, so pay for one exact online BFS
            # on the logical graph instead.
            with self._lock:
                self._overlay_fallbacks += 1
                current = self._materialize_locked()
            registry = get_registry()
            if registry.enabled:
                registry.counter("spc_dynamic_overlay_fallbacks_total").inc()
            return spc_bfs(current, s, t)

    def count(self, s, t):
        return self.count_with_distance(s, t)[1]

    def distance(self, s, t):
        return self.count_with_distance(s, t)[0]

    # -- internals --------------------------------------------------------------------

    def _overlay_query(self, s, t, index, patch, deleted):
        old = index.count_with_distance
        cache = {}
        if patch:
            # The fixpoint asks old() about pairs of the query pair and the
            # patch and deletion endpoints: answer them all in one batch
            # instead of O(k²) scalar merges.
            keys = list(combinations(sorted({s, t}.union(*patch, *deleted)), 2))
            cache.update(zip(keys, index.count_many(keys)))

        def old_cached(x, y):
            if x == y:
                return (0, 1)
            key = (x, y) if x <= y else (y, x)
            found = cache.get(key)
            if found is None:
                found = old(key[0], key[1])
                cache[key] = found
            return found

        if deleted:
            checked = {}

            def term(x, y):
                # old(x, y), guarded: raise when some shortest base path
                # from x to y crosses a deleted edge (either orientation),
                # because then neither its distance nor its count can be
                # trusted on the graph minus the deletions.
                if x == y:
                    return (0, 1)
                key = (x, y) if x <= y else (y, x)
                ok = checked.get(key)
                if ok is None:
                    dist = old_cached(x, y)[0]
                    ok = True
                    if dist != INF:
                        for a, b in deleted:
                            if (old_cached(x, a)[0] + 1 + old_cached(b, y)[0]
                                    == dist
                                    or old_cached(x, b)[0] + 1
                                    + old_cached(a, y)[0] == dist):
                                ok = False
                                break
                    checked[key] = ok
                if not ok:
                    raise _OverlayTouched(key)
                return old_cached(x, y)
        else:
            term = old_cached

        nodes = {t}
        for a, b in patch:
            nodes.add(a)
            nodes.add(b)
        # Directed view of the undirected patch: both orientations.
        arcs = [(a, b) for a, b in patch] + [(b, a) for a, b in patch]

        tentative = {z: term(s, z) for z in nodes}
        if s in tentative:
            tentative[s] = (0, 1)
        settled = {}
        while tentative:
            x = min(tentative, key=lambda z: tentative[z][0])
            dist_x, count_x = tentative.pop(x)
            settled[x] = (dist_x, count_x)
            if dist_x == INF:
                continue  # unreachable even with the patch
            for a, b in arcs:
                if a != x:
                    continue
                through = dist_x + 1
                for z in tentative:
                    seg_dist, seg_count = term(b, z)
                    cand = through + seg_dist
                    cur_dist, cur_count = tentative[z]
                    if cand < cur_dist:
                        tentative[z] = (cand, count_x * seg_count)
                    elif cand == cur_dist and cand is not INF:
                        tentative[z] = (cand, cur_count + count_x * seg_count)
        dist, count = settled[t]
        if count == 0:
            return INF, 0
        return dist, count

    def _materialize_locked(self):
        if not self._patch and not self._deleted:
            return self._graph
        if self._current_cache is None:
            edges = [e for e in self._graph.edges()
                     if e not in self._deleted_set]
            edges.extend(self._patch)
            self._current_cache = Graph.from_edges(self._graph.n, edges)
        return self._current_cache

    # -- introspection ------------------------------------------------------------------

    @property
    def pending_edges(self):
        """The inserted edges not yet folded into the static labels."""
        with self._lock:
            return tuple(self._patch)

    @property
    def pending_deletions(self):
        """The deleted base edges not yet folded into the static labels."""
        with self._lock:
            return tuple(self._deleted)

    @property
    def pending_mutations(self):
        """Total patch size: pending insertions plus pending deletions."""
        with self._lock:
            return len(self._patch) + len(self._deleted)

    @property
    def rebuild_due(self):
        """True once the deferred threshold has been crossed (see above)."""
        with self._lock:
            return self._rebuild_due

    @property
    def engine(self):
        """The construction engine used for builds and rebuilds."""
        return self._engine

    @property
    def overlay_fallbacks(self):
        """Queries answered by BFS because a term crossed a deleted edge."""
        with self._lock:
            return self._overlay_fallbacks

    @property
    def base_index(self):
        """The static index (marked ``stale`` while mutations are pending).

        Serving layers that adopt this index check the flag at query time
        and degrade/rebuild rather than serve pre-mutation counts.
        """
        with self._lock:
            return self._index

    def current_graph(self):
        """The logical graph (base plus patch minus deletions), materialised."""
        with self._lock:
            return self._materialize_locked()

    def __repr__(self):
        with self._lock:
            return (
                f"DynamicSPCIndex(n={self._graph.n}, m={self._graph.m}, "
                f"pending=+{len(self._patch)}/-{len(self._deleted)}, "
                f"engine={self._engine!r})"
            )
