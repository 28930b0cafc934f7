"""Execute the documented quick-start snippets so the docs cannot drift.

Two layers of protection:

* every fenced ``python`` block in the prose docs must *compile* —
  renamed symbols and syntax typos fail immediately;
* the README Quickstart and the curated USAGE cookbook blocks are
  *executed* verbatim (with asserted, purely-cosmetic substitutions that
  shrink graph sizes so the suite stays fast). If a doc edit changes a
  snippet, the signature lookup or the substitution assert fires and the
  test names the stale block.
"""

import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def python_blocks(relpath):
    """All fenced ```python blocks of a doc, as code strings."""
    path = os.path.join(ROOT, relpath)
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    blocks = []
    inside = False
    lines = []
    for line in text.splitlines():
        stripped = line.strip()
        if not inside and stripped == "```python":
            inside = True
            lines = []
        elif inside and stripped == "```":
            inside = False
            blocks.append("\n".join(lines))
        elif inside:
            lines.append(line)
    return blocks


def block_with(blocks, signature, relpath):
    """The unique block containing ``signature`` (drift guard)."""
    matches = [b for b in blocks if signature in b]
    assert matches, f"no block in {relpath} contains {signature!r}"
    assert len(matches) == 1, f"{signature!r} ambiguous in {relpath}"
    return matches[0]


def shrink(code, replacements):
    """Apply cosmetic substitutions, asserting each original is present."""
    for old, new in replacements:
        assert old in code, f"doc snippet drifted: {old!r} not found"
        code = code.replace(old, new)
    return code


DOCS = ("README.md", "docs/USAGE.md", "docs/OBSERVABILITY.md",
        "docs/OPERATIONS.md", "docs/QUERYLANG.md")


@pytest.mark.parametrize("relpath", DOCS)
def test_every_python_block_compiles(relpath):
    blocks = python_blocks(relpath)
    assert blocks, f"{relpath} lost all its python blocks"
    for i, code in enumerate(blocks):
        compile(code, f"{relpath}[block {i}]", "exec")


@pytest.fixture(scope="module")
def small_graph():
    from repro.generators.random_graphs import gnp_random_graph
    from repro.graph.components import largest_component

    graph, _ = largest_component(gnp_random_graph(40, 0.12, seed=21))
    assert graph.n >= 20  # USAGE snippets address vertices up to 19
    return graph


class TestReadmeQuickstart:
    def test_quickstart_executes(self):
        blocks = python_blocks("README.md")
        code = block_with(blocks, "build_index(", "README.md")
        code = shrink(code, [
            ("barabasi_albert_graph(2000, 4, seed=7)",
             "barabasi_albert_graph(300, 3, seed=7)"),
            ("(3, 1200)", "(3, 120)"),
        ])
        namespace = {}
        exec(code, namespace)
        index = namespace["index"]
        dist, count = index.count_with_distance(3, 120)
        assert index.count(3, 120) == count >= 1
        assert index.distance(3, 120) == dist


class TestUsageCookbook:
    def run(self, signature, namespace, replacements=()):
        blocks = python_blocks("docs/USAGE.md")
        code = block_with(blocks, signature, "docs/USAGE.md")
        exec(shrink(code, replacements), namespace)
        return namespace

    def base_namespace(self, small_graph):
        from repro import SPCIndex

        return {"graph": small_graph, "s": 0, "t": 5,
                "SPCIndex": SPCIndex}

    def test_variant_and_query_blocks(self, small_graph):
        namespace = self.base_namespace(small_graph)
        self.run('scheme="filtered"', namespace)
        self.run("index.count_with_distance(s, t)", namespace)
        dist, count = namespace["index"].count_with_distance(0, 5)
        assert count >= 1

    def test_set_query_block(self, small_graph):
        from repro import build_index

        namespace = {"index": build_index(small_graph, ordering="degree"),
                     "s": 0}
        self.run("count_set_query", namespace)
        assert len(namespace["dist"]) == len(namespace["count"]) == small_graph.n

    def test_batched_query_block(self, small_graph):
        import numpy as np

        from repro import SPCIndex

        namespace = {
            "index": SPCIndex.build(small_graph, ordering="degree"),
            "s": 0, "s1": 0, "t1": 5, "s2": 1, "t2": 6,
            "sources": np.array([0, 1]), "targets": np.array([5, 6]),
        }
        self.run("count_many_arrays", namespace)
        assert namespace["flat"].n == small_graph.n
        assert namespace["best"] >= 0

    def test_engine_block(self, small_graph):
        from repro import SPCIndex
        from repro.core.flat_labels import FlatLabels
        from repro.core.hp_spc import build_labels
        from repro.kernels.hub_push import build_flat_labels_csr

        namespace = {"graph": small_graph, "SPCIndex": SPCIndex,
                     "build_labels": build_labels,
                     "build_flat_labels_csr": build_flat_labels_csr}
        self.run("build_flat_labels_csr(graph)", namespace)
        reference = FlatLabels.from_label_set(namespace["labels"])
        assert namespace["flat"].equals(reference)
        assert namespace["index"].to_flat().equals(reference)

    def test_persist_block(self, small_graph, tmp_path, monkeypatch):
        from repro import SPCIndex

        monkeypatch.chdir(tmp_path)
        namespace = {"index": SPCIndex.build(small_graph, ordering="degree"),
                     "graph": small_graph}
        self.run('save_index(index, "graph.idx")', namespace)
        assert (tmp_path / "graph.idx").exists()
        assert namespace["index"].count(0, 5) >= 1

    def test_checkpoint_block(self, small_graph, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        namespace = self.base_namespace(small_graph)
        self.run('BuildCheckpoint("graph.idx.ckpt", every=5000)', namespace)
        assert namespace["index"].count(0, 5) >= 1

    def test_resilient_block(self, small_graph, tmp_path, monkeypatch):
        from repro import SPCIndex
        from repro.io import save_index

        monkeypatch.chdir(tmp_path)
        save_index(SPCIndex.build(small_graph, ordering="degree"),
                   "graph.idx", graph=small_graph)
        namespace = {"graph": small_graph}
        self.run("ResilientSPCIndex(graph", namespace,
                 replacements=[("(12, 9075)", "(0, 5)")])
        assert namespace["serving"].status == "index"

    def test_observability_blocks(self, small_graph):
        from repro import SPCIndex
        from repro.observability import disable_metrics

        pairs = [(0, v) for v in range(1, 6)]
        namespace = {"graph": small_graph, "SPCIndex": SPCIndex,
                     "pairs": pairs}
        try:
            self.run("render_prometheus()", namespace)
        finally:
            disable_metrics()
        self.run("tracer.format_tree()", namespace)
        assert namespace["tracer"].span_count() > small_graph.n

    def test_dynamic_and_approx_blocks(self, small_graph):
        from repro import build_index

        self.run("DynamicSPCIndex(graph",
                 {"graph": small_graph, "u": 0, "v": 9})
        namespace = {"index": build_index(small_graph, ordering="degree"),
                     "s": 0, "t": 5}
        self.run("BudgetedApproximator", namespace)
        assert namespace["approx"].count(0, 5) >= 0

    def test_compiled_query_block(self, small_graph):
        namespace = {"graph": small_graph}
        self.run('parse_query("count 0 5; relevance 0 1,2,3")', namespace)
        assert namespace["answers"][0] == \
            namespace["index"].count_with_distance(0, 5)


class TestQuerylang:
    """Every QUERYLANG.md block is self-contained: exec it verbatim.

    The asserts live inside the blocks themselves — the doc states the
    answers it promises — so a drifted answer fails here by name.
    """

    BLOCK_SIGNATURES = (
        "PathExists(0, 5)",
        "SetToSet((0, 1), (3, 4))",
        "TopKBetweenness(k=1)",
        'parse_query("count 0 4; distance 1 3; exists 2 6")',
        "mark_stale(",
    )

    @pytest.mark.parametrize("signature", BLOCK_SIGNATURES)
    def test_block_executes(self, signature):
        blocks = python_blocks("docs/QUERYLANG.md")
        code = block_with(blocks, signature, "docs/QUERYLANG.md")
        exec(code, {})

    def test_every_executable_block_is_wired(self):
        # Each python block must carry exactly one registered signature.
        blocks = python_blocks("docs/QUERYLANG.md")
        for i, code in enumerate(blocks):
            hits = [s for s in self.BLOCK_SIGNATURES if s in code]
            assert len(hits) == 1, \
                f"docs/QUERYLANG.md[block {i}] not wired into the suite"
