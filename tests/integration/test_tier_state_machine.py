"""One differential oracle for every tier, across edge churn and time.

A hypothesis ``RuleBasedStateMachine`` drives one churning graph through
every tier that answers counting queries:

* :class:`~repro.dynamic.maintenance.MaintenanceController` absorbs edge
  insertions and deletions and answers on the logical graph;
* :class:`~repro.serving.SPCService` and
  :class:`~repro.serving.ClusterService` serve the published index file and
  move onto each publish (``set_graph`` + ``check_reload``, then the
  cluster's rolling reload);
* :class:`~repro.query.engine.QueryEngine` runs over the index loaded from
  the published file.

The rules mutate, reject bad mutations, retract, publish, SIGKILL a cluster
worker and query. The invariant: every answer equals BFS shortest-path
counting on the graph it was served from — the logical graph for the
controller, the published graph of the reported ``generation`` for the
service and the cluster — or the request ends in a typed, not-``ok``
status. A cluster reload in progress may answer from the previous or the
new generation, each answer whole from one of them.
"""

import os
import shutil
import signal
import tempfile

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.dynamic import MaintenanceController
from repro.exceptions import GraphError, ReproError, VertexError
from repro.generators.random_graphs import barabasi_albert_graph
from repro.graph.traversal import bfs_count_from, spc_bfs
from repro.io.serialize import load_index
from repro.query import Count, SingleSource
from repro.query.backends import normalize_pair, normalize_single_source
from repro.query.engine import QueryEngine
from repro.serving import (
    CIRCUIT_OPEN,
    DEADLINE,
    ERROR,
    INVALID,
    SHED,
    ClusterService,
    SPCService,
)

N = 18
INF = float("inf")
TYPED_FAILURES = {SHED, CIRCUIT_OPEN, DEADLINE, INVALID, ERROR}

vertex = st.integers(0, N - 1)
pick = st.integers(0, 2**16)


def _edge(u, v):
    return (u, v) if u < v else (v, u)


def set_to_set_bfs(graph, sources, targets):
    """``(sd(S, T), spc(S, T))`` from pairwise BFS: a shortest S-T path
    holds no second source or target, so it is a shortest path of exactly
    one pair at the minimum distance."""
    answers = [spc_bfs(graph, s, t) for s in sources for t in targets]
    best = min(d for d, _ in answers)
    if best == INF:
        return (INF, 0)
    return (best, sum(c for d, c in answers if d == best))


class TierMachine(RuleBasedStateMachine):
    """Controller, service, cluster and query engine over one graph."""

    def __init__(self):
        super().__init__()
        self.workdir = None
        self.controller = None
        self.cluster = None

    @initialize(seed=st.integers(0, 2**16))
    def start(self, seed):
        graph = barabasi_albert_graph(N, 2, seed=seed)
        self.workdir = tempfile.mkdtemp(prefix="tier-machine-")
        path = os.path.join(self.workdir, "index.spcf")
        self.edges = {_edge(u, v) for u, v in graph.edges()}
        # Only the publish rule rebuilds: no threshold and no age trigger,
        # so each publish is one generation of every serving tier.
        self.controller = MaintenanceController(
            graph, path, rebuild_threshold=None,
            rebuild_after_seconds=3600.0)
        self.service = SPCService(graph, index_path=path,
                                  reload_check_every=0)
        self.cluster = ClusterService(path, workers=2, reload_check_every=0,
                                      respawn_backoff=0.01,
                                      respawn_backoff_max=0.05)
        self.service_graphs = {self.service.generation: graph}
        self.cluster_graphs = {0: graph}
        self.published = graph
        self.engine = QueryEngine(index=load_index(path), cache=None)

    def teardown(self):
        for tier in (self.cluster, self.controller):
            if tier is not None:
                tier.close()
        if self.workdir is not None:
            shutil.rmtree(self.workdir, ignore_errors=True)

    # -- the logical graph ---------------------------------------------------

    def non_edges(self):
        return [(u, v) for u in range(N) for v in range(u + 1, N)
                if (u, v) not in self.edges]

    @invariant()
    def controller_tracks_the_logical_graph(self):
        if self.controller is None:
            return
        current = self.controller.dynamic.current_graph()
        assert {_edge(u, v) for u, v in current.edges()} == self.edges
        assert self.controller.last_error is None

    @precondition(lambda self: len(self.edges) < N * (N - 1) // 2)
    @rule(choice=pick)
    def insert_edge(self, choice):
        candidates = self.non_edges()
        u, v = candidates[choice % len(candidates)]
        self.controller.insert_edge(u, v)
        self.edges.add((u, v))

    @precondition(lambda self: self.edges)
    @rule(choice=pick)
    def delete_edge(self, choice):
        u, v = sorted(self.edges)[choice % len(self.edges)]
        self.controller.delete_edge(u, v)
        self.edges.discard((u, v))

    @rule(kind=st.sampled_from(["present", "absent", "self-loop",
                                "bad-insert", "bad-delete"]),
          choice=pick)
    def reject_mutation(self, kind, choice):
        controller = self.controller
        before = (controller.version, controller.pending_mutations)
        if kind == "present" and self.edges:
            u, v = sorted(self.edges)[choice % len(self.edges)]
            with pytest.raises(GraphError, match="already present"):
                controller.insert_edge(u, v)
        elif kind == "absent" and self.non_edges():
            candidates = self.non_edges()
            u, v = candidates[choice % len(candidates)]
            with pytest.raises(GraphError, match="not present"):
                controller.delete_edge(u, v)
        elif kind == "self-loop":
            with pytest.raises(GraphError, match="self-loop"):
                controller.insert_edge(choice % N, choice % N)
        elif kind == "bad-insert":
            with pytest.raises(VertexError):
                controller.insert_edge(choice % N, N + choice % 3)
        elif kind == "bad-delete":
            with pytest.raises(VertexError):
                controller.delete_edge(N + choice % 3, choice % N)
        assert (controller.version, controller.pending_mutations) == before

    @rule(choice=pick)
    def retract(self, choice):
        """A mutation and its inverse leave every answer where it was."""
        controller = self.controller
        pending = controller.pending_mutations
        pairs = [(s, t) for s in range(N) for t in range(s, N)]
        before = [controller.count_with_distance(s, t) for s, t in pairs]
        every = sorted(self.edges) + self.non_edges()
        u, v = every[choice % len(every)]
        if (u, v) in self.edges:
            controller.delete_edge(u, v)
            controller.insert_edge(u, v)
        else:
            controller.insert_edge(u, v)
            controller.delete_edge(u, v)
        assert controller.pending_mutations == pending
        assert [controller.count_with_distance(s, t)
                for s, t in pairs] == before

    # -- publish and worker death -------------------------------------------

    @rule(s=vertex, t=vertex)
    def publish(self, s, t):
        controller = self.controller
        assert controller.rebuild_now(timeout=60.0)
        graph = controller.published_graph
        assert {_edge(u, v) for u, v in graph.edges()} == self.edges
        if graph is self.published:
            return  # every mutation cancelled out: nothing was built
        self.published = graph
        self.service.set_graph(graph)
        assert self.service.check_reload()
        self.service_graphs[self.service.generation] = graph
        self.engine = QueryEngine(index=load_index(controller.index_path),
                                  cache=None)
        # Requests on both sides of the rolling reload: each is answered
        # whole by the old generation or by the new one.
        around = [self.cluster.submit_nowait(s, t)]
        assert self.cluster.check_reload()
        self.cluster_graphs[len(self.cluster_graphs)] = graph
        around.append(self.cluster.submit_nowait(s, t))
        for future in around:
            result = future.result(timeout=60)
            self.check_cluster(result, s, t)
            if result.ok:
                assert result.generation >= len(self.cluster_graphs) - 2

    @rule(victim=st.integers(0, 1), s=vertex, t=vertex)
    def kill_worker(self, victim, s, t):
        """SIGKILL a worker under load; its work is replayed elsewhere."""
        worker = self.cluster.stats()["workers"][victim]
        if not worker["alive"]:
            return
        futures = [self.cluster.submit_nowait(s, t)
                   for _ in range(4)]
        os.kill(worker["pid"], signal.SIGKILL)
        for future in futures:
            self.check_cluster(future.result(timeout=60), s, t)

    # -- queries ----------------------------------------------------------------

    @staticmethod
    def served_from(result, graphs):
        """The graph ``result`` was answered from; ``None`` when it is a
        typed failure, which is allowed (a silent wrong answer is not)."""
        if not result.ok:
            assert result.status in TYPED_FAILURES, result
            assert isinstance(result.error, ReproError), result
            return None
        assert result.generation in graphs, result
        return graphs[result.generation]

    def check_cluster(self, result, s, t):
        graph = self.served_from(result, self.cluster_graphs)
        if graph is not None:
            assert normalize_pair(*result.answer) == spc_bfs(graph, s, t), (
                result, s, t)

    @rule(s=vertex, t=vertex)
    def count(self, s, t):
        logical = self.controller.dynamic.current_graph()
        assert normalize_pair(*self.controller.count_with_distance(s, t)) \
            == spc_bfs(logical, s, t)
        result = self.service.submit(s, t)
        graph = self.served_from(result, self.service_graphs)
        if graph is not None:
            assert normalize_pair(*result.answer) == spc_bfs(graph, s, t), (
                result, s, t)
        self.check_cluster(self.cluster.submit(s, t), s, t)
        assert self.engine.run(Count(s, t)) == spc_bfs(self.published, s, t)

    @rule(s=vertex)
    def single_source(self, s):
        expected = tuple(map(tuple, bfs_count_from(self.published, s)))
        assert self.engine.run(SingleSource(s)) == expected
        result = self.cluster.single_source(s)
        graph = self.served_from(result, self.cluster_graphs)
        if graph is not None:
            assert normalize_single_source(*result.answer) == tuple(
                map(tuple, bfs_count_from(graph, s))), (result, s)

    # ``targets`` names a rule's bundles, so the sets go by other names.
    @rule(source_set=st.sets(vertex, min_size=1, max_size=3),
          target_set=st.sets(vertex, min_size=1, max_size=3))
    def set_to_set(self, source_set, target_set):
        sources, targets = sorted(source_set), sorted(target_set)
        result = self.cluster.set_to_set(sources, targets)
        graph = self.served_from(result, self.cluster_graphs)
        if graph is not None:
            assert normalize_pair(*result.answer) == set_to_set_bfs(
                graph, sources, targets), (result, sources, targets)


TierMachine.TestCase.settings = settings(
    max_examples=25,
    stateful_step_count=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow,
                           HealthCheck.filter_too_much],
)
TestTierStateMachine = TierMachine.TestCase
