"""Online BFS counting — the paper's query-time baseline (Table 3).

No index: every query runs a counting BFS from the source. Also provides
the all-pairs ground truth the test suite validates every labeling
against. Both the oracle and the all-pairs sweep can run on the scalar
deque BFS (``engine="python"``, arbitrary-precision counts) or on the
vectorized CSR kernels of :mod:`repro.kernels.bfs` (``engine="csr"``,
int64 counts, one full level-synchronous sweep per source).
"""

from repro.graph.traversal import bfs_count_from, spc_bfs

INF = float("inf")


def _spc_csr(graph, s, t, deadline=None):
    """``(distance, count)`` via one vectorized full sweep from ``s``."""
    from repro.kernels.bfs import bfs_count_csr

    if s == t:
        return 0, 1
    dist, count = bfs_count_csr(graph, s, deadline=deadline)
    if count[t]:
        return int(dist[t]), int(count[t])
    return INF, 0


class BFSCountingOracle:
    """Adapter giving online BFS the same query surface as the indexes.

    ``count`` / ``distance`` / ``count_with_distance`` each run one BFS;
    there is no construction cost (the paper's "BFS Time" column measures
    exactly this per-query work). The scalar engine stops early at the
    target's level; the csr engine always sweeps the whole component but
    expands each level in a handful of numpy passes.
    """

    def __init__(self, graph, engine="python"):
        if engine not in ("python", "csr"):
            raise ValueError(f"unknown BFS engine {engine!r}; "
                             "expected 'python' or 'csr'")
        self._graph = graph
        self._engine = engine

    @classmethod
    def build(cls, graph, engine="python", **_ignored):
        return cls(graph, engine=engine)

    @property
    def n(self):
        """Vertex count of the graph (the query id space)."""
        return self._graph.n

    def count(self, s, t, deadline=None):
        return self.count_with_distance(s, t, deadline=deadline)[1]

    def distance(self, s, t, deadline=None):
        return self.count_with_distance(s, t, deadline=deadline)[0]

    def count_with_distance(self, s, t, deadline=None):
        """One online BFS; ``deadline`` (duck-typed ``check()``) makes the
        sweep cooperative — it raises
        :class:`~repro.exceptions.DeadlineExceeded` at the next level/chunk
        checkpoint once the budget is spent, never a partial answer."""
        if self._engine == "csr":
            return _spc_csr(self._graph, s, t, deadline=deadline)
        return spc_bfs(self._graph, s, t, deadline=deadline)

    def single_source(self, s, deadline=None):
        """``(dist, count)`` numpy arrays from ``s`` over every vertex.

        Matches :meth:`repro.core.index.SPCIndex.single_source`'s
        conventions — float64 distances with ``inf`` for unreachable
        vertices, int64 counts, ``(0, 1)`` on the diagonal — so the
        resilient fallback path is a drop-in for the flat engine. Counts
        too wide for int64 (python engine only) fall back to an object
        array rather than losing exactness.
        """
        import numpy as np

        if self._engine == "csr":
            from repro.kernels.bfs import bfs_count_csr

            dist, count = bfs_count_csr(self._graph, s, deadline=deadline)
            out_dist = dist.astype(np.float64)
            out_dist[dist < 0] = INF
            return out_dist, count.copy()
        dist, count = bfs_count_from(self._graph, s, deadline=deadline)
        try:
            counts = np.array(count, dtype=np.int64)
        except OverflowError:
            counts = np.array(count, dtype=object)
        return np.array(dist, dtype=np.float64), counts

    def __repr__(self):
        return f"BFSCountingOracle(n={self._graph.n}, engine={self._engine!r})"


def spc_all_pairs(graph, engine="python"):
    """All-pairs ``(dist, count)`` matrices by n counting BFS runs.

    Returns ``(dist, count)`` as lists of per-source lists. The canonical
    ground truth for property tests; O(n·m) time, O(n²) space.
    ``engine="csr"`` runs each source through
    :func:`repro.kernels.bfs.bfs_count_csr` and converts back to the
    scalar convention (``inf`` distance, count 0 for unreachable pairs).
    """
    dist_rows = []
    count_rows = []
    if engine == "csr":
        from repro.kernels.bfs import bfs_count_csr

        for source in graph.vertices():
            dist, count = bfs_count_csr(graph, source)
            dist_rows.append([d if d >= 0 else INF for d in dist.tolist()])
            count_rows.append(count.tolist())
        return dist_rows, count_rows
    if engine != "python":
        raise ValueError(f"unknown BFS engine {engine!r}; "
                         "expected 'python' or 'csr'")
    for source in graph.vertices():
        dist, count = bfs_count_from(graph, source)
        dist_rows.append(dist)
        count_rows.append(count)
    return dist_rows, count_rows
