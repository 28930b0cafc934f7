"""Tests for the SPCIndex facade."""

import pytest

from tests.conftest import assert_oracle_exact, diamond_chains_through_hub

from repro.core.flat_labels import FlatLabels
from repro.core.hp_spc import BuildStats, build_labels
from repro.core.index import SPCIndex
from repro.core.query import count_canonical_only, count_query
from repro.generators.classic import cycle_graph
from repro.generators.random_graphs import gnp_random_graph

INF = float("inf")


class TestSPCIndex:
    @pytest.fixture(scope="class")
    def index(self):
        return SPCIndex.build(gnp_random_graph(25, 0.15, seed=11), collect_stats=True)

    @pytest.fixture(scope="class")
    def graph(self):
        return gnp_random_graph(25, 0.15, seed=11)

    def test_exact(self, index, graph):
        assert_oracle_exact(index, graph)

    def test_build_metadata(self, index):
        assert index.build_seconds > 0
        assert index.build_stats.pushes == 25
        assert index.order is not None

    def test_sizes(self, index):
        assert index.total_entries() == index.labels.total_entries()
        assert index.size_bytes() == index.total_entries() * 8
        assert index.size_bytes(192) == index.total_entries() * 24

    def test_count_and_distance_agree(self, index):
        for s in range(10):
            for t in range(10):
                d, c = index.count_with_distance(s, t)
                assert index.count(s, t) == c
                assert index.distance(s, t) == d

    def test_approximate_counts_bounded(self, index):
        labels = index.labels
        for s in range(10):
            for t in range(10):
                approx = count_canonical_only(labels, s, t)[1]
                assert approx <= index.count(s, t)

    def test_repr(self, index):
        assert "SPCIndex" in repr(index)

    def test_doctest_cycle(self):
        index = SPCIndex.build(cycle_graph(4))
        assert index.count(0, 2) == 2
        assert index.distance(0, 2) == 2


class TestCSREngine:
    @pytest.fixture(scope="class")
    def graph(self):
        return gnp_random_graph(30, 0.12, seed=13)

    def test_exact(self, graph):
        assert_oracle_exact(SPCIndex.build(graph, engine="csr"), graph)

    def test_identical_to_python_engine(self, graph):
        python_index = SPCIndex.build(graph)
        csr_index = SPCIndex.build(graph, engine="csr")
        assert csr_index.order == python_index.order
        assert csr_index.to_flat().equals(python_index.to_flat())

    def test_scalar_queries_read_columns_only(self, graph, monkeypatch):
        # The diamond pair's only meeting hub multiplies 2^32 by 2^32.
        graphs = [graph, cycle_graph(7), diamond_chains_through_hub()[0]]
        references = [build_labels(g) for g in graphs]

        def refuse(flat):
            raise AssertionError("a query thawed the label columns")

        monkeypatch.setattr(FlatLabels, "to_label_set", refuse)
        for g, labels in zip(graphs, references):
            indexes = [SPCIndex.build(g, engine=e) for e in ("python", "csr")]
            for s in range(g.n):
                for t in range(g.n):
                    expected = count_query(labels, s, t)
                    for index in indexes:
                        assert index.count_with_distance(s, t) == expected
                        assert index.count(s, t) == expected[1]
                        assert index.distance(s, t) == expected[0]

    def test_build_stats_collected(self, graph):
        index = SPCIndex.build(graph, engine="csr", collect_stats=True)
        reference = SPCIndex.build(graph, collect_stats=True)
        for counter in BuildStats.SHARED:
            assert (getattr(index.build_stats, counter)
                    == getattr(reference.build_stats, counter)), counter

    def test_unknown_engine_rejected(self, graph):
        with pytest.raises(ValueError):
            SPCIndex.build(graph, engine="simd")


class TestBuildIndexFacade:
    def test_no_reductions_returns_plain(self):
        from repro import build_index

        index = build_index(cycle_graph(6))
        assert isinstance(index, SPCIndex)

    def test_reductions_return_reduced(self):
        from repro import build_index
        from repro.reductions.pipeline import ReducedSPCIndex

        index = build_index(cycle_graph(6), reductions=("shell",))
        assert isinstance(index, ReducedSPCIndex)

    def test_variant_aliases(self):
        from repro import VARIANTS, build_index
        from repro.reductions.pipeline import ReducedSPCIndex

        assert set(VARIANTS) == {"HP-SPC", "HP-SPC+", "HP-SPC*"}
        plain = build_index(cycle_graph(6), variant="HP-SPC")
        assert isinstance(plain, SPCIndex)
        star = build_index(cycle_graph(6), variant="HP-SPC*")
        assert isinstance(star, ReducedSPCIndex)
        assert any(star.engine.independent_set) or True  # built through the IS path

    def test_unknown_variant_rejected(self):
        from repro import build_index

        with pytest.raises(ValueError, match="unknown variant"):
            build_index(cycle_graph(6), variant="HP-SPC++")

    def test_variant_answers_match(self):
        from repro import build_index

        g = gnp_random_graph(18, 0.2, seed=3)
        indexes = [build_index(g, variant=v) for v in ("HP-SPC", "HP-SPC+", "HP-SPC*")]
        for s in range(g.n):
            for t in range(g.n):
                results = {index.count_with_distance(s, t) for index in indexes}
                assert len(results) == 1
