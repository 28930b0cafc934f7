"""Batched flat-engine queries agree with the tuple-based reference engine."""

import random

import numpy as np
import pytest

from repro.core.batch_query import (
    count_many,
    count_many_arrays,
    count_set_to_set,
    single_source,
)
from repro.core.flat_labels import FlatLabels
from repro.core.hp_spc import build_labels
from repro.core.index import SPCIndex
from repro.core.query import count_query, count_set_query
from repro.generators.classic import (
    barbell_graph,
    cycle_graph,
    grid_graph,
    random_tree,
    star_graph,
)
from repro.generators.random_graphs import (
    barabasi_albert_graph,
    gnp_random_graph,
    watts_strogatz_graph,
)
from repro.generators.social import caveman_graph
from repro.graph.graph import Graph

#: One graph per generator family, including a disconnected G(n, p) draw
#: and an edgeless graph (every non-diagonal pair disconnected).
FAMILIES = [
    ("cycle", lambda: cycle_graph(9)),
    ("grid", lambda: grid_graph(4, 6)),
    ("star", lambda: star_graph(8)),
    ("tree", lambda: random_tree(24, seed=11)),
    ("barbell", lambda: barbell_graph(4, 2)),
    ("gnp-disconnected", lambda: gnp_random_graph(36, 0.05, seed=3)),
    ("barabasi-albert", lambda: barabasi_albert_graph(48, 2, seed=5)),
    ("watts-strogatz", lambda: watts_strogatz_graph(30, 4, 0.2, seed=9)),
    ("caveman", lambda: caveman_graph(4, 5)),
    ("edgeless", lambda: Graph.from_edges(7, [])),
]


def _all_pairs(n):
    return [(s, t) for s in range(n) for t in range(n)]


@pytest.mark.parametrize("name,make", FAMILIES, ids=[name for name, _ in FAMILIES])
class TestAgainstReferenceEngine:
    def test_count_many_matches_count_query(self, name, make):
        graph = make()
        labels = build_labels(graph)
        flat = FlatLabels.from_label_set(labels)
        pairs = _all_pairs(graph.n)
        answers = count_many(flat, pairs)
        for (s, t), got in zip(pairs, answers):
            assert got == count_query(labels, s, t), (name, s, t)

    def test_single_source_matches_count_query(self, name, make):
        graph = make()
        labels = build_labels(graph)
        flat = FlatLabels.from_label_set(labels)
        for s in range(0, graph.n, max(1, graph.n // 6)):
            dist, count = single_source(flat, s)
            for t in range(graph.n):
                want_dist, want_count = count_query(labels, s, t)
                assert count[t] == want_count, (name, s, t)
                assert dist[t] == want_dist, (name, s, t)

    def test_set_to_set_matches_reference(self, name, make):
        graph = make()
        labels = build_labels(graph)
        flat = FlatLabels.from_label_set(labels)
        import random

        rng = random.Random(17)
        for _ in range(8):
            size = min(3, graph.n)
            sources = rng.sample(range(graph.n), size)
            targets = rng.sample(range(graph.n), size)
            assert count_set_to_set(flat, sources, targets) == count_set_query(
                labels, sources, targets
            ), (name, sources, targets)


class TestSemantics:
    def test_diagonal_is_empty_path(self):
        flat = FlatLabels.from_label_set(build_labels(cycle_graph(6)))
        assert count_many(flat, [(4, 4)]) == [(0, 1)]

    def test_disconnected_pair_is_inf_zero(self):
        graph = Graph.from_edges(4, [(0, 1), (2, 3)])
        flat = FlatLabels.from_label_set(build_labels(graph))
        assert count_many(flat, [(0, 2)]) == [(float("inf"), 0)]

    def test_arrays_disconnected_pairs_read_inf(self):
        """An unmet pair's distance slot stays ``inf``, not a sentinel."""
        graph = Graph.from_edges(5, [(0, 1), (2, 3)])
        flat = FlatLabels.from_label_set(build_labels(graph))
        assert 0 < flat.core.dist.shape[1]
        dist, count = count_many_arrays(flat, [0, 1, 0, 4], [2, 0, 4, 4])
        assert dist.tolist() == [float("inf"), 1.0, float("inf"), 0.0]
        assert count.tolist() == [0, 1, 0, 1]

    def test_empty_batch(self):
        flat = FlatLabels.from_label_set(build_labels(cycle_graph(4)))
        assert count_many(flat, []) == []
        dist, count = count_many_arrays(flat, [], [])
        assert dist.size == 0 and count.size == 0

    def test_arrays_output_types(self):
        flat = FlatLabels.from_label_set(build_labels(cycle_graph(6)))
        dist, count = count_many_arrays(flat, [0, 1], [3, 1])
        assert dist.dtype == np.float64
        assert count.dtype == np.int64

    def test_shape_mismatch_raises(self):
        flat = FlatLabels.from_label_set(build_labels(cycle_graph(4)))
        with pytest.raises(ValueError):
            count_many_arrays(flat, [0, 1], [2])

    def test_repeated_sources_share_scatter(self):
        """Same-source bursts (the grouping fast path) stay exact."""
        graph = grid_graph(4, 4)
        labels = build_labels(graph)
        flat = FlatLabels.from_label_set(labels)
        pairs = [(2, t) for t in range(graph.n)] + [(5, t) for t in range(graph.n)]
        answers = count_many(flat, pairs)
        for (s, t), got in zip(pairs, answers):
            assert got == count_query(labels, s, t)

    def test_set_queries_empty_sides(self):
        flat = FlatLabels.from_label_set(build_labels(cycle_graph(5)))
        assert count_set_to_set(flat, [], [1]) == (float("inf"), 0)
        assert count_set_to_set(flat, [1], []) == (float("inf"), 0)

    def test_set_query_overlapping_sets(self):
        graph = cycle_graph(8)
        labels = build_labels(graph)
        flat = FlatLabels.from_label_set(labels)
        assert count_set_to_set(flat, [1, 2], [2, 5]) == count_set_query(
            labels, [1, 2], [2, 5]
        )


class TestIndexFacade:
    def test_index_count_many(self):
        graph = grid_graph(3, 5)
        index = SPCIndex.build(graph)
        pairs = [(0, 14), (3, 3), (7, 2)]
        expected = [index.count_with_distance(s, t) for s, t in pairs]
        assert index.count_many(pairs) == expected

    def test_index_single_source(self):
        graph = cycle_graph(10)
        index = SPCIndex.build(graph)
        dist, count = index.single_source(3)
        for t in range(graph.n):
            assert (dist[t], count[t]) == index.count_with_distance(3, t)

    def test_to_flat_cached(self):
        index = SPCIndex.build(cycle_graph(5))
        assert index.to_flat() is index.to_flat()


class TestVertexValidation:
    """Out-of-range ids raise a typed VertexError naming the offender,
    instead of numpy IndexError or a silent negative-index wraparound."""

    @pytest.fixture()
    def flat(self):
        return SPCIndex.build(grid_graph(4, 5)).to_flat()

    def test_count_many_rejects_out_of_range(self, flat):
        from repro.exceptions import VertexError

        with pytest.raises(VertexError, match=r"vertex 20 is not in range \[0, 20\)"):
            count_many(flat, [(0, 1), (20, 2)])

    def test_count_many_rejects_negative(self, flat):
        from repro.exceptions import VertexError

        with pytest.raises(VertexError, match="vertex -1"):
            count_many_arrays(flat, np.array([0, -1]), np.array([1, 2]))

    def test_first_offender_is_named(self, flat):
        from repro.exceptions import VertexError

        with pytest.raises(VertexError) as exc:
            count_many(flat, [(0, 1), (77, 2), (99, 3)])
        assert exc.value.vertex == 77

    def test_single_source_rejects_out_of_range(self, flat):
        from repro.exceptions import VertexError

        with pytest.raises(VertexError):
            single_source(flat, flat.n)

    def test_set_to_set_rejects_out_of_range(self, flat):
        from repro.exceptions import VertexError

        for sources, targets in ([[0, 25], [1]], [[0], [25, 1]]):
            with pytest.raises(VertexError):
                count_set_to_set(flat, sources, targets)

    def test_valid_boundary_ids_accepted(self, flat):
        last = flat.n - 1
        assert count_many(flat, [(0, last), (last, last)])[1] == (0, 1)


class TestSingleSourceRange:
    """The hub-major view the single-source sweep reads."""

    @pytest.fixture(scope="class")
    def flat(self):
        graph = barabasi_albert_graph(60, 2, seed=21)
        return SPCIndex.build(graph).to_flat()

    def test_hub_major_view(self, flat, tmp_path):
        from repro.io.flat_store import load_flat_labels, save_flat_labels

        view = flat.hub_major
        assert flat.hub_major is view  # derived once
        for r in range(flat.n):
            postings = [v for v in range(flat.n) if r in flat.row(v)[0].tolist()]
            lo, hi = view.indptr[r], view.indptr[r + 1]
            assert view.vertex[lo:hi].tolist() == postings
            for v, d, c in zip(postings, view.dist[lo:hi], view.count[lo:hi]):
                at = flat.row(v)[0].tolist().index(r)
                assert (d, c) == (flat.row(v)[2][at], flat.row(v)[3][at])
        path = tmp_path / "g.spcf"
        save_flat_labels(flat, path)
        reloaded = load_flat_labels(path, mmap=True)
        assert reloaded._hub_major is None  # not stored in the file
        assert reloaded.hub_major is not view
        for got, want in zip(reloaded.hub_major, view):
            assert np.array_equal(got, want)


def _pairs_agree_with_count_pair(flat, pairs):
    from repro.core.batch_query import count_pair

    want = [count_pair(flat, s, t) for s, t in pairs]
    assert count_many(flat, pairs) == want
    dist, count = count_many_arrays(flat, [s for s, _ in pairs],
                                    [t for _, t in pairs])
    assert [(d, c) if c else (float("inf"), 0)
            for d, c in zip(dist.tolist(), count.tolist())] == want


class TestDenseCore:
    """The pair join meets the top hubs in dense arrays, the rest by sort."""

    @pytest.fixture(scope="class")
    def flat(self):
        return SPCIndex.build(barabasi_albert_graph(60, 2, seed=21)).to_flat()

    @staticmethod
    def _check_core(flat):
        """Entry by entry: the core is the rank prefix, sized by bytes."""
        core = flat.core
        width = core.dist.shape[1]
        assert 0 < width < flat.n
        assert core.count.dtype == flat.count.dtype
        columns = flat.rank.nbytes + flat.dist.nbytes + flat.count.nbytes
        cell = core.dist.itemsize + core.count.itemsize
        assert flat.n * width * cell <= columns < flat.n * (width + 1) * cell
        sentinel = np.iinfo(core.dist.dtype).max // 2
        for v in range(flat.n):
            rank, _, dist, count = (a.tolist() for a in flat.row(v))
            head = [r for r in rank if r < width]
            assert core.prefix[v] == len(head) and rank[:len(head)] == head
            want_dist = [sentinel] * width
            want_count = [0] * width
            for r, d, c in zip(rank, dist, count):
                if r < width:
                    want_dist[r], want_count[r] = d, c
            assert core.dist[v].tolist() == want_dist
            assert core.count[v].tolist() == want_count

    def test_core_view(self, flat, tmp_path):
        from repro.io.flat_store import load_flat_labels, save_flat_labels

        before = flat.nbytes()
        core = flat.core
        assert flat.core is core  # derived once
        assert flat.nbytes() == before + sum(a.nbytes for a in core)
        self._check_core(flat)
        path = tmp_path / "g.spcf"
        save_flat_labels(flat, path)
        reloaded = load_flat_labels(path, mmap=True)
        assert reloaded._core is None  # not stored in the file
        assert reloaded.core is not core
        self._check_core(reloaded)  # sized by the file's narrow columns

    def test_batches_agree_with_count_pair(self, flat):
        rng = random.Random(3)
        pairs = [(rng.randrange(flat.n), rng.randrange(flat.n))
                 for _ in range(300)]
        _pairs_agree_with_count_pair(flat, pairs)

    def test_empty_core(self):
        """Labels too sparse to pay for one dense column: all tail."""
        # Vertices 0 and 1 meet at the rank-5 hub; no other label entry.
        flat = FlatLabels(6, np.array([0, 1, 2, 2, 2, 2, 2]),
                          np.array([5, 5]), None, np.array([1, 2]),
                          np.array([2, 3]), np.array([True, False]),
                          np.arange(6))
        assert flat.core.dist.shape == (6, 0)
        assert count_many(flat, [(0, 1), (1, 0), (0, 2), (3, 3)]) == [
            (3, 6), (3, 6), (float("inf"), 0), (0, 1)]

    def test_core_holds_every_rank(self):
        graph = grid_graph(4, 6)
        labels = build_labels(graph)
        flat = FlatLabels.from_label_set(labels)
        assert flat.core.dist.shape == (graph.n, graph.n)
        assert flat.core.prefix.tolist() == np.diff(flat.indptr).tolist()
        pairs = _all_pairs(graph.n)
        assert count_many(flat, pairs) == [count_query(labels, s, t)
                                           for s, t in pairs]

    def test_wide_distances(self):
        """A long grid: distances past uint8's sentinel, core and tail."""
        graph = grid_graph(70, 2)
        labels = build_labels(graph)
        flat = FlatLabels.from_label_set(labels).compact()
        core = flat.core
        assert int(flat.dist.max()) > 63
        assert core.dist.dtype == np.uint16
        assert 0 < core.dist.shape[1] < flat.n
        assert (core.prefix < np.diff(flat.indptr)).any()  # tails exist
        rng = random.Random(5)
        pairs = [(rng.randrange(graph.n), rng.randrange(graph.n))
                 for _ in range(400)] + [(0, graph.n - 1)]
        assert count_many(flat, pairs) == [count_query(labels, s, t)
                                           for s, t in pairs]

    @pytest.mark.parametrize("max_dist,dtype", [
        (0, np.uint8), (63, np.uint8), (64, np.uint16), (16383, np.uint16),
        (16384, np.uint32), (2**30 - 1, np.uint32), (2**30, np.uint64),
        (2**32 - 1, np.uint64)])
    def test_core_dist_dtype(self, max_dist, dtype):
        from repro.core.flat_labels import core_dist_dtype

        got = core_dist_dtype(max_dist)
        assert got == dtype
        sentinel = int(np.iinfo(got).max) // 2
        assert 2 * max_dist < sentinel and 2 * sentinel <= np.iinfo(got).max

    def test_int64_count_escape(self):
        from tests.conftest import diamond_chains_through_hub

        graph, s, t = diamond_chains_through_hub()
        flat = SPCIndex.build(graph, engine="csr").to_flat().compact()
        assert flat.count_dtype_escaped() and flat.rank.dtype == np.uint32
        assert flat.core.count.dtype == np.int64
        assert flat.core.count.max() == 2 ** 32
        rng = random.Random(9)
        pairs = [(rng.randrange(graph.n), rng.randrange(graph.n))
                 for _ in range(200)]
        _pairs_agree_with_count_pair(flat, pairs)

    def test_concurrent_first_use(self):
        """Threads racing to derive the core all answer exactly."""
        import sys
        import threading

        graph = barabasi_albert_graph(120, 2, seed=13)
        labels = build_labels(graph)
        rng = random.Random(2)
        pairs = [(rng.randrange(graph.n), rng.randrange(graph.n))
                 for _ in range(200)]
        want = [count_query(labels, s, t) for s, t in pairs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for _ in range(3):
                flat = FlatLabels.from_label_set(labels)
                results = []
                threads = [threading.Thread(
                    target=lambda: results.append(count_many(flat, pairs)))
                    for _ in range(6)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30)
                    assert not thread.is_alive()
                assert results == [want] * 6
        finally:
            sys.setswitchinterval(interval)


class TestOnePair:
    """A one-pair batch takes the scalar merge, with the batch contract."""

    @pytest.fixture(scope="class")
    def flat(self):
        return SPCIndex.build(barabasi_albert_graph(60, 2, seed=21)).to_flat()

    def test_answers_match_count_pair(self, flat):
        from repro.core.batch_query import count_pair

        for s, t in ((0, 5), (7, 7), (59, 3)):
            want = count_pair(flat, s, t)
            assert count_many(flat, [(s, t)]) == [want]
            dist, count = count_many_arrays(flat, [s], [t])
            assert (dist.tolist(), count.tolist()) == ([want[0]], [want[1]])
            assert dist.dtype == np.float64 and count.dtype == np.int64

    def test_disconnected(self):
        flat = FlatLabels.from_label_set(
            build_labels(Graph.from_edges(4, [(0, 1), (2, 3)])))
        dist, count = count_many_arrays(flat, [0], [2])
        assert (dist.tolist(), count.tolist()) == ([float("inf")], [0])

    def test_rejects_bad_ids(self, flat):
        from repro.exceptions import VertexError

        for pair in ((flat.n, 0), (0, -1)):
            with pytest.raises(VertexError):
                count_many(flat, [pair])
            with pytest.raises(VertexError):
                count_many_arrays(flat, [pair[0]], [pair[1]])

    def test_expired_deadline_checked_first(self, flat):
        from repro.exceptions import DeadlineExceeded
        from repro.serving.deadline import Deadline

        ticks = iter(range(10**6))
        expired = Deadline(0.5, clock=lambda: next(ticks))
        with pytest.raises(DeadlineExceeded):
            count_many(flat, [(0, 1)], deadline=expired)
        with pytest.raises(DeadlineExceeded):
            count_many_arrays(flat, [0], [1], deadline=expired)

    def test_metered_as_a_batch(self, flat):
        from repro.observability.metrics import MetricsRegistry, scoped_registry

        registry = MetricsRegistry()
        with scoped_registry(registry):
            count_many(flat, [(0, 1)])
        assert registry.sum_values("spc_queries_total") == 1
        assert registry.sum_values("spc_query_exact_reroutes_total") == 0


class TestScratchReuse:
    """Per-flat scratch buffers (borrowed by single-source and set-to-set
    queries): reused across calls, always left clean."""

    @pytest.fixture(scope="class")
    def flat(self):
        graph = barabasi_albert_graph(50, 2, seed=8)
        return SPCIndex.build(graph).to_flat()

    def test_scratch_cached_and_clean_between_calls(self, flat):
        def run():
            sweeps = [single_source(flat, s) for s in range(12)]
            return sweeps, count_set_to_set(flat, [0, 3], [7, 11])

        first_sweeps, first_set = run()
        scratch = flat._scratch
        assert scratch is not None
        second_sweeps, second_set = run()
        assert flat._scratch is scratch  # reused, not reallocated
        assert first_set == second_set
        for (d1, c1), (d2, c2) in zip(first_sweeps, second_sweeps):
            assert np.array_equal(d1, d2) and np.array_equal(c1, c2)
        assert np.all(np.isinf(scratch.hub_dist))
        assert np.all(scratch.hub_count == 0)

    def test_concurrent_borrowers_do_not_corrupt(self, flat):
        import threading

        pairs = _all_pairs(14)
        want = count_many(flat, pairs)
        errors = []

        def worker():
            try:
                for _ in range(5):
                    if count_many(flat, pairs) != want:
                        raise AssertionError("scratch corruption")
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors

    def test_validation_failure_leaves_scratch_clean(self, flat):
        from repro.exceptions import VertexError

        count_set_to_set(flat, [0], [1])  # materialise the scratch
        with pytest.raises(VertexError):
            single_source(flat, flat.n)
        with pytest.raises(VertexError):
            count_set_to_set(flat, [0], [flat.n])
        assert np.all(np.isinf(flat._scratch.hub_dist))
        assert np.all(flat._scratch.hub_count == 0)


def _join_graph():
    """BA core plus a separate cycle and an isolated vertex, so random
    batches mix connected and disconnected pairs."""
    core = barabasi_albert_graph(60, 2, seed=4)
    edges = list(core.edges())
    edges += [(60 + i, 60 + (i + 1) % 6) for i in range(6)]
    return Graph.from_edges(67, edges)


def _mixed_pairs(n, size, seed):
    """Repeated sources, diagonals and disconnected pairs, shuffled together."""
    rng = random.Random(seed)
    pairs = []
    while len(pairs) < size:
        s = rng.randrange(n)
        roll = rng.random()
        if roll < 0.15:
            pairs.append((s, s))
        elif roll < 0.3:
            pairs.append((s, n - 1))  # the isolated vertex
        elif roll < 0.6:
            pairs += [(s, rng.randrange(n)) for _ in range(3)]
        else:
            pairs.append((s, rng.randrange(n)))
    return pairs[:size]


def _first_chunk(flat, pairs, cap):
    """How many leading pairs the join packs into its first chunk."""
    used = 0
    for k, (s, t) in enumerate(pairs):
        used += flat.label_size(s) + flat.label_size(t)
        if used > cap:
            return max(k, 1)
    return len(pairs)


def _chunks_of(flat, pairs):
    """Deadline checks (one per chunk) a full run of ``pairs`` makes."""
    from repro.serving.deadline import Deadline

    ticks = iter(range(10**6))
    counting = Deadline(float(10**6), clock=lambda: next(ticks))
    count_many(flat, pairs, deadline=counting)
    return next(ticks) - 1


class TestJoinChunks:
    """The join answers chunk by chunk; no boundary may change an answer."""

    CAP = 300

    @pytest.fixture(scope="class")
    def built(self):
        labels = build_labels(_join_graph())
        return labels, FlatLabels.from_label_set(labels)

    @pytest.fixture()
    def small_chunks(self, monkeypatch):
        from repro.core import batch_query

        monkeypatch.setattr(batch_query, "CHUNK_ENTRIES", self.CAP)

    def _check(self, labels, flat, pairs):
        want = [count_query(labels, s, t) for s, t in pairs]
        assert count_many(flat, pairs) == want
        dist, count = count_many_arrays(flat, [s for s, _ in pairs],
                                        [t for _, t in pairs])
        assert [(d, c) if c else (float("inf"), 0)
                for d, c in zip(dist.tolist(), count.tolist())] == want

    @pytest.mark.parametrize("size", [0, 1, 2])
    def test_tiny_batches(self, built, small_chunks, size):
        labels, flat = built
        self._check(labels, flat, _mixed_pairs(flat.n, size, seed=size))

    @pytest.mark.parametrize("delta", [-1, 0, 1])
    def test_around_the_first_chunk_boundary(self, built, small_chunks, delta):
        labels, flat = built
        pool = _mixed_pairs(flat.n, 200, seed=7)
        chunk = _first_chunk(flat, pool, self.CAP)
        assert 2 <= chunk < len(pool) - 1
        self._check(labels, flat, pool[:chunk + delta])

    @pytest.mark.parametrize("seed", range(3))
    def test_many_chunks_mixed_batch(self, built, small_chunks, seed):
        labels, flat = built
        self._check(labels, flat, _mixed_pairs(flat.n, 150, seed=seed))

    def test_rows_larger_than_a_chunk(self, built, monkeypatch):
        from repro.core import batch_query

        monkeypatch.setattr(batch_query, "CHUNK_ENTRIES", 1)
        labels, flat = built
        self._check(labels, flat, _mixed_pairs(flat.n, 40, seed=11))

    def test_one_scan_chunk_metric_per_chunk(self, built, small_chunks):
        from repro.observability.metrics import MetricsRegistry, scoped_registry

        labels, flat = built
        pairs = _mixed_pairs(flat.n, 120, seed=5)
        chunks = _chunks_of(flat, pairs)
        registry = MetricsRegistry()
        with scoped_registry(registry):
            count_many(flat, pairs)
        assert registry.sum_values("spc_query_scan_chunks_total") == chunks > 1


class TestDeadline:
    """A deadline that expires mid-batch stops the join between chunks."""

    def test_expires_before_the_batch_finishes(self, monkeypatch):
        from repro.core import batch_query
        from repro.exceptions import DeadlineExceeded
        from repro.serving.deadline import Deadline

        monkeypatch.setattr(batch_query, "CHUNK_ENTRIES", 200)
        flat = FlatLabels.from_label_set(build_labels(_join_graph()))
        pairs = _mixed_pairs(flat.n, 150, seed=2)
        chunks = _chunks_of(flat, pairs)
        assert chunks > 4
        # The clock ticks once per check: construction reads 0, checks
        # 1 and 2 pass, check 3 finds the 2.5 s budget spent.
        ticks = iter(range(10**6))
        deadline = Deadline(2.5, clock=lambda: next(ticks))
        with pytest.raises(DeadlineExceeded):
            count_many(flat, pairs, deadline=deadline)
        assert next(ticks) - 1 == 3 < chunks


    def test_expires_during_the_core_stage(self, monkeypatch):
        from repro.core import batch_query
        from repro.exceptions import DeadlineExceeded
        from repro.serving.deadline import Deadline

        flat = FlatLabels.from_label_set(build_labels(grid_graph(4, 6)))
        assert flat.core.dist.shape[1] == flat.n  # no entry left for a tail
        stages = []
        core_chunk = batch_query._core_chunk
        monkeypatch.setattr(batch_query, "_core_chunk", lambda *args: (
            stages.append("core"), core_chunk(*args)))
        monkeypatch.setattr(batch_query, "_join_chunk",
                            lambda *args: stages.append("tail"))
        monkeypatch.setattr(batch_query, "CHUNK_ENTRIES", 5 * flat.n)
        pairs = _all_pairs(flat.n)[:100]
        assert _chunks_of(flat, pairs) == 20  # five core rows a chunk
        stages.clear()
        ticks = iter(range(10**6))
        deadline = Deadline(2.5, clock=lambda: next(ticks))
        with pytest.raises(DeadlineExceeded):
            count_many(flat, pairs, deadline=deadline)
        assert stages == ["core", "core"]


class TestOverflowExact:
    """Counts past int64 come back exact or raise; they never wrap.

    Two 32-diamond chains meeting at a hub: ``spc(s, t) = 2^64`` through
    one hub whose two label counts are ``2^32`` each.
    """

    @pytest.fixture(scope="class")
    def chains(self):
        from tests.conftest import diamond_chains_through_hub

        graph, s, t = diamond_chains_through_hub()
        assert graph.n == 253
        return graph, s, t, SPCIndex.build(graph, engine="csr")

    def test_count_many_is_exact(self, chains):
        from repro.graph.traversal import spc_bfs

        graph, s, t, index = chains
        assert spc_bfs(graph, s, t) == (130, 2 ** 64)
        assert index.count_many([(s, t)]) == [(130, 2 ** 64)]
        python = SPCIndex.build(graph, engine="python")
        assert python.count_with_distance(s, t) == (130, 2 ** 64)

    def test_query_engine_flat_backend(self, chains):
        from repro.query.ast import Batch, Count
        from repro.query.engine import QueryEngine

        _, s, t, index = chains
        engine = QueryEngine(index=index, cache=None, backends=("flat",))
        answers = engine.run(Batch((Count(s, t), Count(t, s), Count(s, s))))
        assert list(answers) == [(130, 2 ** 64), (130, 2 ** 64), (0, 1)]

    def test_single_source_is_exact(self, chains):
        _, s, t, index = chains
        flat = index.to_flat()
        dist, count = single_source(flat, s)
        assert (dist[t], count[t]) == (130.0, 2 ** 64)
        assert type(count[t]) is int

    def test_query_engine_flat_single_source(self, chains):
        from repro.query.ast import SingleSource
        from repro.query.engine import QueryEngine

        _, s, t, index = chains
        engine = QueryEngine(index=index, cache=None, backends=("flat",))
        dist, count = engine.run(SingleSource(s))
        assert (dist[t], count[t]) == (130, 2 ** 64)

    def test_batch_through_the_core_is_exact(self, chains):
        _, s, t, index = chains
        flat = index.to_flat()
        # s and t meet only at the top-ranked hub, a core column.
        assert flat.core.dist.shape[1] > 0
        assert flat.row(s)[0][0] == flat.row(t)[0][0] == 0
        assert count_many(flat, [(s, t), (t, s), (s, s), (s + 3, t + 3)]) == [
            (130, 2 ** 64), (130, 2 ** 64), (0, 1), (126, 2 ** 62)]

    def test_arrays_raise_rather_than_wrap(self, chains):
        from repro.exceptions import LabelingError

        _, s, t, index = chains
        with pytest.raises(LabelingError, match=rf"pair \({s}, {t}\)"):
            count_many_arrays(index.to_flat(), [1, s], [2, t])

    def test_rerouted_pairs_match_reference_and_are_counted(self, chains):
        from repro.observability.metrics import MetricsRegistry, scoped_registry

        graph, _, _, index = chains
        flat = index.to_flat()
        assert not flat.overflow_free
        labels = flat.to_label_set()
        pairs = [(s, t) for s in range(0, graph.n, 7) for t in range(0, graph.n, 5)]
        registry = MetricsRegistry()
        with scoped_registry(registry):
            answers = count_many(flat, pairs)
        assert answers == [count_query(labels, s, t) for s, t in pairs]
        assert registry.sum_values("spc_query_exact_reroutes_total") > 0

    def test_rerouted_count_that_fits_int64_is_kept(self, chains):
        _, s, t, index = chains
        # One diamond in from each free end: 2^31 · 2^31 = 2^62 paths.
        dist, count = count_many_arrays(index.to_flat(), [s + 3], [t + 3])
        assert (dist.tolist(), count.tolist()) == ([126.0], [2 ** 62])

    def test_proven_store_skips_the_checks(self):
        from repro.observability.metrics import MetricsRegistry, scoped_registry

        flat = SPCIndex.build(barabasi_albert_graph(200, 3, seed=2)).to_flat()
        assert flat.overflow_free
        registry = MetricsRegistry()
        with scoped_registry(registry):
            count_many(flat, _all_pairs(30))
        assert registry.sum_values("spc_query_exact_reroutes_total") == 0

    def test_row_max_count(self, chains):
        _, _, _, index = chains
        flat = index.to_flat()
        want = [max(flat.row(v)[3].tolist(), default=0) for v in range(flat.n)]
        assert flat.row_max_count.tolist() == want
        assert flat.row_max_count is flat.row_max_count  # derived once
