"""Level-synchronous numpy BFS kernels over the :meth:`Graph.csr` view.

The scalar traversals in :mod:`repro.graph.traversal` walk Python deques;
these kernels expand a whole frontier per step with ``np.repeat`` range
expansion and ``indices[...]`` gathers, and accumulate shortest-path counts
with ``np.add.at`` (exact int64 arithmetic — ``np.bincount`` would round
through float64). They are the building blocks of the vectorized HP-SPC
construction in :mod:`repro.kernels.hub_push` and of the CSR-backed online
baseline in :mod:`repro.baselines.bfs_counting`.

Conventions: distances are int64 with ``-1`` for unreachable vertices
(the scalar oracles use ``float('inf')``); counts are int64 with a
rigorous overflow guard (see :func:`count_guard_threshold`).
"""

import numpy as np

from repro.exceptions import LabelingError

INT64_MAX = np.iinfo(np.int64).max


def count_guard_threshold(max_degree):
    """Largest per-vertex count the int64 kernels accept without risk.

    The counting recurrence sums at most ``max_degree`` forwarded counts
    into one vertex. If every count checked so far is ``<= threshold``
    then no int64 addition can have wrapped before the guard inspects the
    new level, so overflow detection is exact (by induction over BFS
    levels).
    Kernels raise :class:`~repro.exceptions.LabelingError` when a count
    exceeds the threshold; callers needing wider counts must use the
    pure-Python engines, which carry arbitrary-precision ints.
    """
    return INT64_MAX // max(1, int(max_degree))


def expand_ranges(starts, counts):
    """Flat indices covering ``[starts[i], starts[i] + counts[i])`` per row.

    The standard vectorized range-expansion: equivalent to concatenating
    ``np.arange(s, s + c)`` for each row, without a Python loop.
    """
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    ends = np.cumsum(counts)
    offsets = np.repeat(starts - (ends - counts), counts)
    return offsets + np.arange(total, dtype=np.int64)


def bfs_distances_csr(graph, source):
    """Distances (edge counts) from ``source``; ``-1`` for unreachable.

    Vectorized counterpart of :func:`repro.graph.traversal.bfs_distances`.
    """
    indptr, indices = graph.csr()
    n = graph.n
    dist = np.full(n, -1, dtype=np.int64)
    dist[source] = 0
    frontier = np.array([source], dtype=np.int64)
    level = 0
    while frontier.size:
        starts = indptr[frontier]
        degrees = indptr[frontier + 1] - starts
        neighbors = indices[expand_ranges(starts, degrees)]
        fresh = neighbors[dist[neighbors] < 0]
        if fresh.size == 0:
            break
        frontier = np.unique(fresh)
        level += 1
        dist[frontier] = level
    return dist


def bfs_count_csr(graph, source, deadline=None):
    """``(dist, count)`` int64 arrays from ``source`` (Brandes' Σ recurrence).

    Vectorized counterpart of :func:`repro.graph.traversal.bfs_count_from`;
    distances use ``-1`` for unreachable vertices (count 0 there).
    ``deadline`` (duck-typed ``check()``) is consulted once per BFS level —
    the natural cooperative checkpoint of a level-synchronous sweep.
    """
    indptr, indices = graph.csr()
    n = graph.n
    dist = np.full(n, -1, dtype=np.int64)
    count = np.zeros(n, dtype=np.int64)
    dist[source] = 0
    count[source] = 1
    max_degree = int((indptr[1:] - indptr[:-1]).max()) if n else 0
    threshold = count_guard_threshold(max_degree)
    frontier = np.array([source], dtype=np.int64)
    level = 0
    while frontier.size:
        if deadline is not None:
            deadline.check()
        starts = indptr[frontier]
        degrees = indptr[frontier + 1] - starts
        neighbors = indices[expand_ranges(starts, degrees)]
        forwarded = np.repeat(count[frontier], degrees)
        # Targets already settled at an earlier level never re-accumulate;
        # same-level targets all still read -1 here (level-synchronous).
        open_mask = dist[neighbors] < 0
        neighbors = neighbors[open_mask]
        if neighbors.size == 0:
            break
        np.add.at(count, neighbors, forwarded[open_mask])
        frontier = np.unique(neighbors)
        level += 1
        dist[frontier] = level
        if int(count[frontier].max()) > threshold:
            raise LabelingError(
                "shortest-path count exceeds the int64 kernel guard; "
                "use the pure-Python BFS for this graph"
            )
    return dist, count
