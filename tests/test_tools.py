"""Tests for repository tooling (doc generator, CI smoke gates)."""

import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


class TestGenApiDocs:
    def test_generates_reference(self, tmp_path):
        output = tmp_path / "API.md"
        result = subprocess.run(
            [sys.executable, str(ROOT / "tools" / "gen_api_docs.py"),
             "--output", str(output)],
            capture_output=True,
            text=True,
            cwd=ROOT,
        )
        assert result.returncode == 0, result.stderr
        text = output.read_text()
        assert "# API reference" in text
        # Every subpackage shows up.
        for module in (
            "repro.core.hp_spc",
            "repro.reductions.pipeline",
            "repro.directed.index",
            "repro.weighted.index",
            "repro.dynamic.incremental",
            "repro.theory.treewidth",
        ):
            assert f"### `{module}`" in text, module
        # Key public symbols documented with signatures.
        assert "build_labels(graph" in text
        assert "class `ReducedSPCIndex" in text
        assert "count_with_distance" in text

    def test_stdout_mode(self):
        result = subprocess.run(
            [sys.executable, str(ROOT / "tools" / "gen_api_docs.py"), "--stdout"],
            capture_output=True,
            text=True,
            cwd=ROOT,
        )
        assert result.returncode == 0
        assert "# API reference" in result.stdout


class TestConstructionSmoke:
    def test_writes_report_and_gates_on_identity(self, tmp_path):
        output = tmp_path / "BENCH_construction.json"
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        result = subprocess.run(
            [sys.executable, str(ROOT / "tools" / "ci_construction_smoke.py"),
             "--vertices", "400", "--min-speedup", "0",
             "--output", str(output)],
            capture_output=True,
            text=True,
            cwd=ROOT,
            env=env,
        )
        assert result.returncode == 0, result.stderr
        report = json.loads(output.read_text())
        assert report["identical"] is True
        assert report["counters_match"] is True
        for counter in report["compared_counters"]:
            assert (report["python_build_stats"][counter]
                    == report["csr_build_stats"][counter]), counter
        assert report["python_build_stats"]["pushes"] == 400
        assert report["csr_seconds"] > 0 and report["python_seconds"] > 0

    def test_fails_below_speedup_floor(self, tmp_path):
        output = tmp_path / "BENCH_construction.json"
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        result = subprocess.run(
            [sys.executable, str(ROOT / "tools" / "ci_construction_smoke.py"),
             "--vertices", "200", "--min-speedup", "1e9",
             "--output", str(output)],
            capture_output=True,
            text=True,
            cwd=ROOT,
            env=env,
        )
        assert result.returncode == 1
        assert "FAIL" in result.stderr


class TestObservabilitySmoke:
    def test_coverage_and_bit_identity_gates(self, tmp_path):
        output = tmp_path / "BENCH_observability.json"
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        result = subprocess.run(
            [sys.executable, str(ROOT / "tools" / "ci_observability_smoke.py"),
             "--vertices", "150", "--queries", "60", "--skip-overhead",
             "--output", str(output)],
            capture_output=True,
            text=True,
            cwd=ROOT,
            env=env,
        )
        assert result.returncode == 0, result.stderr
        report = json.loads(output.read_text())
        assert report["coverage"]["uncatalogued"] == []
        assert report["bit_identity"]["identical"] is True
        assert report["overhead"]["skipped"] is True
        # The embedded snapshot carries the exercised families.
        metrics = report["metrics"]
        assert "spc_build_pushes_total" in metrics
        assert "spc_requests_total" in metrics

    def test_docs_check_passes_on_committed_docs(self):
        result = subprocess.run(
            [sys.executable, str(ROOT / "tools" / "gen_api_docs.py"),
             "--check"],
            capture_output=True,
            text=True,
            cwd=ROOT,
        )
        assert result.returncode == 0, result.stdout + result.stderr

    def test_docs_check_fails_when_stale(self, tmp_path):
        output = tmp_path / "API.md"
        output.write_text("# stale\n")
        (tmp_path / "METRICS.md").write_text("# stale\n")
        result = subprocess.run(
            [sys.executable, str(ROOT / "tools" / "gen_api_docs.py"),
             "--check", "--output", str(output)],
            capture_output=True,
            text=True,
            cwd=ROOT,
        )
        assert result.returncode == 1
        assert "STALE" in result.stderr


class TestPerfbenchPatches:
    """The traced benchmark run (``perfbench/run.py --trace 1``) wraps the
    module attributes ``perfbench.layers.PATCHES`` names; a renamed or
    moved target would make it die with an ``AttributeError``."""

    def test_every_patch_target_resolves(self, monkeypatch):
        monkeypatch.syspath_prepend(str(ROOT))
        layers = importlib.import_module("perfbench.layers")
        for target, _, _ in layers.PATCHES:
            module_name, _, path = target.partition(":")
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for parent in parents:
                owner = inspect.getattr_static(owner, parent)
            assert inspect.getattr_static(owner, attr, None) is not None, target
