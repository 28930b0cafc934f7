"""Shared fixtures: the paper's worked-example graphs and small helpers.

Vertex naming: the paper's ``v1..v13`` map to ids ``0..12`` (``v_k`` is
id ``k-1``) in every fixture and every test that references the paper.
"""

import os
import time

import pytest

from repro.graph.graph import Graph
from repro.graph.traversal import spc_bfs

INF = float("inf")


def _edges_1_indexed(pairs):
    return [(u - 1, v - 1) for u, v in pairs]


#: Figure 2a — the running-example graph G (13 vertices).
#: Core (= Figure 4b after shell cut): v1..v8; shell: v9..v13 with
#: a({v10,v11,v12}) = a({v13}) = v7 and a({v9}) = v4 (Example 4.1).
PAPER_G_EDGES = _edges_1_indexed(
    [
        (1, 2), (1, 5), (7, 2), (7, 5),          # v1 / v7 are equivalent twins
        (2, 3), (2, 6), (3, 5),
        (3, 4), (3, 8), (4, 6), (8, 6), (4, 8),  # v4 / v8 are adjacent twins
        (7, 10), (7, 13), (10, 11), (11, 12),    # shell trees at v7
        (4, 9),                                   # shell tree at v4
    ]
)

#: Figure 2b — G', the equivalence-reduced core (6 vertices v1..v6).
PAPER_GPRIME_EDGES = _edges_1_indexed(
    [(1, 2), (1, 5), (2, 3), (2, 6), (3, 5), (3, 4), (4, 6)]
)

#: §3's total order for G': v2 ⪯ v3 ⪯ v5 ⪯ v6 ⪯ v1 ⪯ v4 (0-indexed ids).
PAPER_GPRIME_ORDER = [1, 2, 4, 5, 0, 3]

#: Table 2's labeling for G' under that order: vertex -> {hub: (dist, count)}.
PAPER_TABLE2_LABELS = {
    0: {1: (1, 1), 2: (2, 1), 4: (1, 1), 0: (0, 1)},
    1: {1: (0, 1)},
    2: {1: (1, 1), 2: (0, 1)},
    3: {1: (2, 2), 2: (1, 1), 5: (1, 1), 3: (0, 1)},
    4: {1: (2, 2), 2: (1, 1), 4: (0, 1)},
    5: {1: (1, 1), 2: (2, 1), 5: (0, 1)},
}


@pytest.fixture
def paper_g():
    """Figure 2a's graph G (ids 0..12 for v1..v13)."""
    return Graph.from_edges(13, PAPER_G_EDGES)


@pytest.fixture
def paper_gprime():
    """Figure 2b's graph G' (ids 0..5 for v1..v6)."""
    return Graph.from_edges(6, PAPER_GPRIME_EDGES)


@pytest.fixture
def paper_gprime_order():
    """§3's total order over G' (rank -> vertex id)."""
    return list(PAPER_GPRIME_ORDER)


def brute_force_all_pairs(graph):
    """Ground-truth ``{(s, t): (dist, count)}`` over all ordered pairs."""
    return {
        (s, t): spc_bfs(graph, s, t)
        for s in range(graph.n)
        for t in range(graph.n)
    }


def assert_oracle_exact(oracle, graph, pairs=None):
    """Assert an oracle's count_with_distance matches BFS on all pairs."""
    items = pairs or [
        (s, t) for s in range(graph.n) for t in range(graph.n)
    ]
    for s, t in items:
        want = spc_bfs(graph, s, t)
        got = oracle.count_with_distance(s, t)
        assert got == want, f"({s},{t}): oracle {got} != bfs {want}"


def wait_for(predicate, timeout=10.0, interval=0.005):
    """Poll ``predicate`` until it holds or ``timeout`` seconds pass."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


def _stopped(pid):
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] in ("T", "t")
    except OSError:  # no procfs: the fault's marker file is all we have
        return True


def holding_cluster(arena, marker_dir, **options):
    """A one-worker cluster whose worker SIGSTOPs before its first reply.

    Heartbeats and hedges stay off, so only ``StalledWorker.resume``
    ends a hold started with :func:`hold_worker`.
    """
    from repro.serving import ClusterService
    from repro.testing.faults import StalledWorker

    fault = StalledWorker(marker_dir, after_replies=1, times=1)
    return ClusterService(arena, workers=1, heartbeat_interval=0,
                          hedge_delay=None, _fault=fault, **options)


def hold_worker(service, marker_dir, pairs=((0, 1),)):
    """Park the worker of a :func:`holding_cluster` on one pair batch.

    The batch carries no deadline. Returns its future and the worker pid
    once the worker is stopped; work submitted now queues behind the
    busy worker until ``StalledWorker.resume(pid)`` releases the reply.
    """
    held = service.submit_many_nowait(list(pairs), timeout=None)
    marker = os.path.join(str(marker_dir), "stall-0")
    assert wait_for(lambda: os.path.exists(marker))
    pid = service._workers[0].process.pid
    assert wait_for(lambda: _stopped(pid))
    return held, pid


def diamond_chains_through_hub(k=32, leaves=58):
    """Two chains of ``k`` diamonds whose far ends meet at one hub vertex.

    Returns ``(graph, s, t)`` with ``s`` and ``t`` the free chain ends:
    ``sd(s, t) = 4k + 2`` and ``spc(s, t) = 2^(2k)``. The ``leaves`` extra
    leaves make the hub the top-ranked vertex, so with the defaults (253
    vertices) the only meeting hub of ``s`` and ``t`` multiplies two
    counts of ``2^32`` into ``2^64``, past int64.
    """
    edges = []
    for offset in (0, 3 * k + 1):
        for i in range(k):
            left = offset + 3 * i
            edges += [(left, left + 1), (left, left + 2),
                      (left + 1, left + 3), (left + 2, left + 3)]
    hub = 6 * k + 2
    edges += [(hub, 3 * k), (hub, 6 * k + 1)]
    edges += [(hub, hub + 1 + j) for j in range(leaves)]
    return Graph.from_edges(hub + 1 + leaves, edges), 0, 3 * k + 1
