"""Closeness-style centralities from single-source sweeps.

A single-source sweep answers every target of one source at once, which
makes distance-aggregating centralities cheap once the counting index
exists — another §1-style consumer that never touches the graph at
evaluation time.

Sweeps are expressed as :class:`~repro.query.ast.SingleSource` queries
compiled through :class:`~repro.query.engine.QueryEngine` over any index
or oracle with an ``n`` (an :class:`~repro.core.index.SPCIndex` sweeps
its labels hub-major; a
:class:`~repro.baselines.bfs_counting.BFSCountingOracle` runs one
counting BFS, exact past int64); only the aggregation math lives here.
"""

from repro.query.ast import SingleSource
from repro.query.engine import QueryEngine

INF = float("inf")


def _sweep_engine(oracle):
    """A query engine over the oracle's single-source sweeps."""
    return QueryEngine(oracle=oracle, cache=None)


def _closeness_from_sweep(dist, n, wf_improved):
    reachable = [d for d in dist if d != INF]
    r = len(reachable)  # includes the source itself at distance 0
    total = sum(reachable)
    if r <= 1 or total == 0:
        return 0.0
    closeness = (r - 1) / total
    if wf_improved and n > 1:
        closeness *= (r - 1) / (n - 1)
    return closeness


def _harmonic_from_sweep(dist, v):
    return sum(1.0 / d for u, d in enumerate(dist) if u != v and d != INF and d > 0)


def closeness_centrality(oracle, v, wf_improved=True):
    """Closeness of ``v``: ``(r-1) / Σ dist`` over reachable vertices.

    With ``wf_improved`` (Wasserman-Faust, networkx's default) the value
    scales by ``(r-1)/(n-1)`` so vertices in small components don't win
    by default. Returns 0.0 for isolated vertices.
    """
    dist, _ = _sweep_engine(oracle).run(SingleSource(v))
    return _closeness_from_sweep(dist, len(dist), wf_improved)


def harmonic_centrality(oracle, v):
    """Harmonic centrality: ``Σ_{u != v} 1 / dist(v, u)`` (∞ -> 0)."""
    dist, _ = _sweep_engine(oracle).run(SingleSource(v))
    return _harmonic_from_sweep(dist, v)


def all_closeness(oracle, wf_improved=True):
    """Closeness for every vertex of the oracle's ``[0, n)``."""
    engine = _sweep_engine(oracle)
    out = []
    for v in range(oracle.n):
        dist, _ = engine.run(SingleSource(v))
        out.append(_closeness_from_sweep(dist, len(dist), wf_improved))
    return out


def all_harmonic(oracle):
    """Harmonic centrality for every vertex of the oracle's ``[0, n)``."""
    engine = _sweep_engine(oracle)
    out = []
    for v in range(oracle.n):
        dist, _ = engine.run(SingleSource(v))
        out.append(_harmonic_from_sweep(dist, v))
    return out
