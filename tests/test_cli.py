"""Tests for the command-line interface."""

import pytest

from repro.cli import (
    EXIT_ERROR,
    EXIT_PARSE,
    EXIT_SERIALIZATION,
    EXIT_USAGE,
    EXIT_VERTEX,
    main,
)
from repro.generators.random_graphs import gnp_random_graph
from repro.graph.components import largest_component
from repro.graph.io import write_edge_list


@pytest.fixture
def graph_file(tmp_path):
    graph, _ = largest_component(gnp_random_graph(40, 0.12, seed=21))
    path = tmp_path / "graph.txt"
    write_edge_list(graph, path)
    return str(path), graph


class TestInfo:
    def test_info(self, graph_file, capsys):
        path, graph = graph_file
        assert main(["info", path]) == 0
        out = capsys.readouterr().out
        assert f"vertices             : {graph.n}" in out
        assert f"m                    : {graph.m}" in out
        assert "approx_diameter" in out
        assert "avg_clustering" in out

    def test_missing_file(self, capsys):
        assert main(["info", "/nonexistent/graph.txt"]) == 1
        assert "error" in capsys.readouterr().err


class TestBuildQueryRoundtrip:
    def test_build_then_query(self, graph_file, tmp_path, capsys):
        path, graph = graph_file
        index_path = str(tmp_path / "g.idx")
        assert main(["build", path, index_path]) == 0
        capsys.readouterr()
        assert main(["query", index_path, "0", "5"]) == 0
        out = capsys.readouterr().out
        from repro.graph.traversal import spc_bfs

        dist, count = spc_bfs(graph, 0, 5)
        assert str(count) in out

    def test_counts_past_31_bits_are_exact(self, tmp_path, capsys):
        # 40 diamonds from vertex 0 to vertex 120: 2^40 shortest paths of
        # length 80, well past the paper's 31-bit packed count field.
        from tests.conftest import diamond_chains_through_hub

        graph, _, _ = diamond_chains_through_hub(k=40, leaves=10)
        graph_path = tmp_path / "chains.txt"
        write_edge_list(graph, graph_path)
        index_path = str(tmp_path / "chains.idx")
        assert main(["build", str(graph_path), index_path]) == 0
        with open(index_path, "rb") as handle:
            assert handle.read(4) == b"SPCF"
        capsys.readouterr()
        assert main(["query", index_path, "0", "120"]) == 0
        row = capsys.readouterr().out.splitlines()[-1].split()
        assert row == ["0", "120", "80", "1099511627776"]  # 2^40

    def test_build_significant_path(self, graph_file, tmp_path):
        path, _ = graph_file
        index_path = str(tmp_path / "g.idx")
        assert main(["build", path, index_path, "--ordering", "significant-path",
                     "--engine", "python"]) == 0

    def test_default_engine_is_csr(self, graph_file, tmp_path, capsys):
        path, _ = graph_file
        assert main(["build", path, str(tmp_path / "g.idx")]) == 0
        assert "engine: csr" in capsys.readouterr().out

    def test_adaptive_ordering_with_default_engine_is_usage_error(
            self, graph_file, tmp_path, capsys):
        path, _ = graph_file
        index_path = tmp_path / "g.idx"
        assert main(["build", path, str(index_path),
                     "--ordering", "significant-path"]) == EXIT_USAGE
        assert "--engine python" in capsys.readouterr().err
        assert not index_path.exists()

    def test_build_csr_engine_identical_index(self, graph_file, tmp_path, capsys):
        path, _ = graph_file
        python_path = str(tmp_path / "python.idx")
        csr_path = str(tmp_path / "csr.idx")
        assert main(["build", path, python_path, "--engine", "python"]) == 0
        assert main(["build", path, csr_path, "--engine", "csr"]) == 0
        assert "engine: csr" in capsys.readouterr().out
        with open(python_path, "rb") as a, open(csr_path, "rb") as b:
            assert a.read() == b.read()

    def test_build_csr_rejects_adaptive_ordering(self, graph_file, tmp_path, capsys):
        path, _ = graph_file
        index_path = str(tmp_path / "g.idx")
        assert main(["build", path, index_path, "--engine", "csr",
                     "--ordering", "significant-path"]) == 1
        assert "error" in capsys.readouterr().err

    def test_query_random(self, graph_file, tmp_path, capsys):
        path, _ = graph_file
        index_path = str(tmp_path / "g.idx")
        main(["build", path, index_path])
        capsys.readouterr()
        assert main(["query", index_path, "--random", "5"]) == 0
        out = capsys.readouterr().out
        assert len(out.strip().splitlines()) == 6  # header + 5 rows

    def test_query_without_args_fails(self, graph_file, tmp_path, capsys):
        path, _ = graph_file
        index_path = str(tmp_path / "g.idx")
        main(["build", path, index_path])
        assert main(["query", index_path]) == 2

    def test_query_has_no_engine_switch(self, capsys):
        with pytest.raises(SystemExit):
            main(["query", "--help"])
        assert "--engine" not in capsys.readouterr().out


class TestStatsVerifyBench:
    @pytest.fixture
    def built(self, graph_file, tmp_path, capsys):
        path, graph = graph_file
        index_path = str(tmp_path / "g.idx")
        main(["build", path, index_path])
        capsys.readouterr()
        return path, index_path

    def test_stats(self, built, capsys):
        _, index_path = built
        assert main(["stats", index_path]) == 0
        out = capsys.readouterr().out
        assert "total_entries" in out
        assert "nc_over_c" in out

    def test_verify_ok(self, built, capsys):
        graph_path, index_path = built
        assert main(["verify", index_path, graph_path, "--samples", "100"]) == 0
        assert "ok" in capsys.readouterr().out

    def test_bench_repeat_reports_percentiles(self, built, capsys):
        _, index_path = built
        assert main(["bench", index_path, "--queries", "30", "--repeat", "3"]) == 0
        out = capsys.readouterr().out
        assert "p95" in out
        assert "90 queries" in out

    def test_verify_wrong_graph(self, built, tmp_path, capsys):
        _, index_path = built
        other, _ = largest_component(gnp_random_graph(30, 0.2, seed=5))
        other_path = tmp_path / "other.txt"
        write_edge_list(other, other_path)
        assert main(["verify", index_path, str(other_path)]) == 1

    def test_bench(self, built, capsys):
        _, index_path = built
        assert main(["bench", index_path, "--queries", "50"]) == 0
        assert "us/query" in capsys.readouterr().out

    def test_corrupt_index_reports_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.idx"
        bad.write_bytes(b"garbage!")
        assert main(["stats", str(bad)]) == EXIT_SERIALIZATION
        assert "error" in capsys.readouterr().err


class TestWeightedBuild:
    def test_build_weighted_and_query(self, tmp_path, capsys):
        from repro.graph.io import write_weighted_edge_list
        from repro.io.serialize import load_labels
        from repro.weighted.graph import WeightedGraph, spc_weighted

        g = WeightedGraph.from_edges(
            5, [(0, 1, 2), (1, 2, 3), (2, 3, 1), (3, 4, 2), (0, 4, 9)]
        )
        graph_path = tmp_path / "w.txt"
        write_weighted_edge_list(g, graph_path)
        index_path = str(tmp_path / "w.idx")
        assert main(["build", str(graph_path), index_path, "--weighted"]) == 0
        capsys.readouterr()
        labels = load_labels(index_path)
        from repro.core.query import count_query

        for s in range(5):
            for t in range(5):
                assert count_query(labels, s, t) == spc_weighted(g, s, t)

    def test_weighted_roundtrip_io(self, tmp_path):
        from repro.graph.io import read_weighted_edge_list, write_weighted_edge_list
        from repro.weighted.graph import WeightedGraph

        g = WeightedGraph.from_edges(4, [(0, 1, 2.5), (1, 2, 3), (2, 3, 1)])
        path = tmp_path / "w.txt"
        write_weighted_edge_list(g, path)
        back, id_map = read_weighted_edge_list(path)
        assert back.weight(0, 1) == 2.5
        assert back.weight(1, 2) == 3
        assert back.m == 3


class TestBuildRobustness:
    def test_resume_flag_checkpoints_and_cleans_up(self, graph_file, tmp_path, capsys):
        path, graph = graph_file
        index_path = str(tmp_path / "g.idx")
        assert main(["build", path, index_path, "--resume",
                     "--checkpoint-every", "10"]) == 0
        import os

        assert os.path.exists(index_path)
        assert not os.path.exists(index_path + ".ckpt")  # discarded on success

    def test_resume_actually_resumes(self, graph_file, tmp_path, capsys):
        path, graph = graph_file
        index_path = str(tmp_path / "g.idx")
        # Leave a genuine mid-build checkpoint behind, as a crash would.
        from repro.core.hp_spc import build_labels
        from repro.testing.faults import CrashingCheckpoint, SimulatedKill

        with pytest.raises(SimulatedKill):
            build_labels(graph, checkpoint=CrashingCheckpoint(
                index_path + ".ckpt", every=10))
        assert main(["build", path, index_path, "--resume"]) == 0
        out = capsys.readouterr().out
        assert "resuming from checkpoint" in out
        from repro.io.serialize import load_labels

        reference = build_labels(graph)
        loaded = load_labels(index_path)
        assert loaded.order == reference.order
        for v in range(graph.n):
            assert loaded.canonical(v) == reference.canonical(v)

    def test_failed_build_removes_partial_output(self, tmp_path, capsys):
        bad_graph = tmp_path / "bad.txt"
        bad_graph.write_text("0 not_a_vertex\n")
        index_path = tmp_path / "g.idx"
        assert main(["build", str(bad_graph), str(index_path)]) == EXIT_PARSE
        assert not index_path.exists()
        assert "error" in capsys.readouterr().err

    def test_failed_build_keeps_preexisting_index(self, graph_file, tmp_path, capsys):
        path, _ = graph_file
        index_path = tmp_path / "g.idx"
        assert main(["build", path, str(index_path)]) == 0
        before = index_path.read_bytes()
        bad_graph = tmp_path / "bad.txt"
        bad_graph.write_text("0 not_a_vertex\n")
        assert main(["build", str(bad_graph), str(index_path)]) == EXIT_PARSE
        assert index_path.read_bytes() == before  # old index untouched

    def test_build_embeds_fingerprint(self, graph_file, tmp_path):
        path, graph = graph_file
        index_path = str(tmp_path / "g.idx")
        assert main(["build", path, index_path]) == 0
        from repro.io.serialize import graph_fingerprint, read_label_meta

        assert read_label_meta(index_path).fingerprint == graph_fingerprint(graph)


class TestExitCodes:
    """Each failure class gets its own exit code, so scripts can branch."""

    @pytest.fixture
    def built(self, graph_file, tmp_path, capsys):
        path, graph = graph_file
        index_path = str(tmp_path / "g.idx")
        main(["build", path, index_path])
        capsys.readouterr()
        return path, index_path, graph

    def test_parse_error_is_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("1 2\n3 four\n")
        assert main(["info", str(bad)]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert "graph parse error" in err
        assert ":2:" in err  # the offending line number

    def test_binary_graph_is_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(bytes(range(256)))
        assert main(["info", str(bad)]) == EXIT_PARSE
        assert "graph parse error" in capsys.readouterr().err

    def test_serialization_error_is_4(self, built, tmp_path, capsys):
        _, index_path, _ = built
        from repro.testing.faults import flip_bit

        flip_bit(index_path, 100, bit=3)
        assert main(["stats", index_path]) == EXIT_SERIALIZATION
        assert "index error" in capsys.readouterr().err

    def test_invalid_vertex_is_5(self, built, capsys):
        _, index_path, graph = built
        rc = main(["query", index_path, "0", str(graph.n + 7)])
        assert rc == EXIT_VERTEX
        assert "invalid vertex" in capsys.readouterr().err

    def test_usage_error_is_2(self, built, capsys):
        _, index_path, _ = built
        assert main(["query", index_path]) == EXIT_USAGE

    def test_generic_error_is_1(self, capsys):
        assert main(["stats", "/nonexistent/g.idx"]) == EXIT_ERROR


class TestServeSmoke:
    @pytest.fixture
    def built(self, graph_file, tmp_path, capsys):
        path, graph = graph_file
        index_path = str(tmp_path / "g.idx")
        main(["build", path, index_path])
        capsys.readouterr()
        return path, index_path, graph

    def test_random_burst_serves_from_labels(self, built, capsys):
        graph_path, index_path, _ = built
        rc = main(["serve-smoke", index_path, graph_path, "--random", "40"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "requests      : 40" in out
        assert "serving status: index" in out
        assert "breaker state : closed" in out
        assert "p95 latency" in out

    def test_threaded_burst(self, built, capsys):
        graph_path, index_path, _ = built
        rc = main(["serve-smoke", index_path, graph_path, "--random", "64",
                   "--threads", "4"])
        assert rc == 0
        assert "requests      : 64" in capsys.readouterr().out

    def test_script_with_corrupt_restore_cycle(self, built, tmp_path, capsys):
        graph_path, index_path, _ = built
        script = tmp_path / "requests.txt"
        script.write_text(
            "# healthy, then corrupt, then restored\n"
            "0 5\n"
            "!corrupt garbage\n"
            "1 6\n"
            "!restore\n"
            "!reload\n"
            "2 7\n"
        )
        rc = main(["serve-smoke", index_path, graph_path,
                   "--script", str(script)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "requests      : 3" in out
        assert "degraded      : 1" in out
        assert "serving status: index" in out
        assert "reloads       : " in out

    def test_script_rejects_unknown_directive(self, built, tmp_path, capsys):
        graph_path, index_path, _ = built
        script = tmp_path / "requests.txt"
        script.write_text("!explode\n")
        rc = main(["serve-smoke", index_path, graph_path,
                   "--script", str(script)])
        assert rc == EXIT_USAGE
        assert "unknown directive" in capsys.readouterr().err

    def test_script_rejects_restore_before_corrupt(self, built, tmp_path,
                                                   capsys):
        graph_path, index_path, _ = built
        script = tmp_path / "requests.txt"
        script.write_text("!restore\n")
        rc = main(["serve-smoke", index_path, graph_path,
                   "--script", str(script)])
        assert rc == EXIT_USAGE
        assert "!restore before !corrupt" in capsys.readouterr().err

    def test_invalid_vertex_is_a_counted_status(self, built, tmp_path, capsys):
        graph_path, index_path, graph = built
        script = tmp_path / "requests.txt"
        script.write_text(f"0 5\n0 {graph.n + 9}\n")
        rc = main(["serve-smoke", index_path, graph_path,
                   "--script", str(script)])
        assert rc == 0  # invalid requests are statuses, not crashes
        out = capsys.readouterr().out
        assert "invalid       : 1" in out


class TestMetricsCommand:
    def test_synthetic_workload_emits_prom_and_json(self, capsys):
        assert main(["metrics", "--vertices", "120", "--queries", "40"]) == 0
        out = capsys.readouterr().out
        # Prometheus half: typed families with catalog help, covering
        # build, query and serving.
        assert "# TYPE spc_build_pushes_total counter" in out
        assert "# HELP spc_build_seconds" in out
        assert "spc_queries_total" in out
        assert "spc_requests_total" in out
        assert "spc_io_bytes_total" in out
        # JSON half of --format both.
        assert '"spc_build_seconds"' in out

    def test_prom_only_on_a_graph_file(self, graph_file, capsys):
        path, graph = graph_file
        assert main(["metrics", "--graph", path, "--queries", "20",
                     "--format", "prom"]) == 0
        out = capsys.readouterr().out
        assert f'spc_build_pushes_total{{engine="csr"}} {graph.n}' in out
        assert '"labels"' not in out  # no JSON when prom-only

    def test_json_only(self, capsys):
        import json as json_module

        assert main(["metrics", "--vertices", "80", "--queries", "10",
                     "--format", "json"]) == 0
        out = capsys.readouterr().out
        payload = json_module.loads(out)
        assert "spc_build_pushes_total" in payload
        assert "spc_request_outcomes_total" in payload


class TestTraceFlag:
    def test_build_trace_writes_nested_span_report(self, graph_file,
                                                   tmp_path, capsys):
        import json as json_module

        path, graph = graph_file
        index_path = str(tmp_path / "g.idx")
        trace_path = tmp_path / "trace.json"
        assert main(["build", path, index_path, "--engine", "csr",
                     "--trace", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "trace:" in out and str(trace_path) in out
        assert f"hp_spc.push x{graph.n}" in out
        payload = json_module.loads(trace_path.read_text())
        (root,) = [s for s in payload["spans"] if s["name"] == "build.csr"]
        pushes = [c for c in root["children"] if c["name"] == "hp_spc.push"]
        assert len(pushes) == graph.n
        assert all(c["seconds"] >= 0 for c in pushes)

    def test_serve_smoke_trace_records_requests(self, graph_file, tmp_path,
                                                capsys):
        import json as json_module

        path, _ = graph_file
        index_path = str(tmp_path / "g.idx")
        assert main(["build", path, index_path]) == 0
        trace_path = tmp_path / "serve-trace.json"
        assert main(["serve-smoke", index_path, path, "--random", "25",
                     "--trace", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "serve.request x25" in out
        payload = json_module.loads(trace_path.read_text())
        requests = [s for s in payload["spans"]
                    if s["name"] == "serve.request"]
        assert len(requests) == 25

    def test_trace_left_off_by_default(self, graph_file, tmp_path, capsys):
        from repro.observability.tracing import get_tracer

        path, _ = graph_file
        index_path = str(tmp_path / "g.idx")
        assert main(["build", path, index_path]) == 0
        assert get_tracer().enabled is False  # no tracer leaks past the run
        assert "trace:" not in capsys.readouterr().out


class TestServeCluster:
    @pytest.fixture
    def arena(self, graph_file, tmp_path):
        from repro.core.index import SPCIndex
        from repro.graph.io import read_edge_list
        from repro.io.flat_store import save_flat_labels

        graph_path, _ = graph_file
        graph, _ = read_edge_list(graph_path)
        flat = SPCIndex.build(graph).to_flat()
        path = tmp_path / "labels.spcf"
        save_flat_labels(flat, path)
        return str(path)

    def test_burst_reports_stats(self, arena, capsys):
        rc = main(["serve-cluster", arena, "--workers", "2",
                   "--random", "60", "--single-source", "2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "requests      : 62" in out
        assert "error         : 0" in out
        assert "arena_private_dirty=0" in out

    def test_rejects_packed_index(self, tmp_path, capsys):
        # --weighted builds write packed SPCL labels, which no cluster
        # worker can map.
        from repro.graph.io import write_weighted_edge_list
        from repro.weighted.graph import WeightedGraph

        graph = WeightedGraph.from_edges(4, [(0, 1, 2), (1, 2, 3), (2, 3, 1)])
        graph_path = tmp_path / "w.txt"
        write_weighted_edge_list(graph, graph_path)
        index_path = str(tmp_path / "index.bin")
        assert main(["build", str(graph_path), index_path, "--weighted"]) == 0
        capsys.readouterr()
        rc = main(["serve-cluster", index_path, "--workers", "1",
                   "--random", "5"])
        assert rc == EXIT_SERIALIZATION
