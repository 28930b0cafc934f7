"""Drivers for every table and figure of the paper's evaluation (§6).

Each ``exp_*`` function builds whatever it measures and returns plain
dict rows, so the pytest benchmarks, the ``run_all`` report writer and ad
hoc scripts share one implementation. Absolute numbers are not expected
to match the paper (synthetic analogs, pure Python); the *shape* — which
variant wins, reduction ratios, ratio percentiles — is the reproduction
target and is what EXPERIMENTS.md compares.
"""

import time

from repro.baselines.bfs_counting import BFSCountingOracle
from repro.baselines.pl_spc import PLSPCIndex
from repro.bench.harness import time_queries
from repro.bench.workloads import group_workload, query_workload
from repro.core.hp_spc import build_labels
from repro.core.index import SPCIndex
from repro.core.query import count_canonical_only
from repro.datasets.registry import dataset_notations, load_dataset, load_delaunay, paper_stats
from repro.reductions.pipeline import ReducedSPCIndex, reduction_report
from repro.theory.planar_order import planar_separator_order
from repro.utils.rng import ensure_rng
from repro.utils.stats import percentile

INF = float("inf")

HP_SPC = ()
HP_SPC_PLUS = ("shell", "equivalence")
HP_SPC_STAR = ("shell", "equivalence", "independent-set")


def _build(graph, ordering, reductions, scheme="filtered"):
    """Build the requested paper variant, timing construction."""
    if reductions:
        return ReducedSPCIndex.build(
            graph, ordering=ordering, reductions=reductions, scheme=scheme
        )
    return SPCIndex.build(graph, ordering=ordering)


def exp_table3(scale=1.0, queries=200, seed=0):
    """Table 3: dataset statistics plus average online-BFS query time."""
    rows = []
    for notation in dataset_notations():
        graph = load_dataset(notation, scale=scale)
        oracle = BFSCountingOracle(graph)
        pairs = query_workload(graph.n, queries, seed=seed)
        avg_seconds, _ = time_queries(oracle, pairs)
        paper_n, paper_m, paper_bfs = paper_stats(notation)
        rows.append(
            {
                "dataset": notation,
                "n": graph.n,
                "m": graph.m,
                "bfs_ms": avg_seconds * 1e3,
                "paper_n": paper_n,
                "paper_m": paper_m,
                "paper_bfs_ms": paper_bfs,
            }
        )
    return rows


def exp1_ordering(scale=1.0, queries=500, seed=0, notations=None):
    """Exp-1 / Figure 5: HP-SPC+ under degree vs significant-path orders."""
    rows = []
    for notation in notations or dataset_notations():
        graph = load_dataset(notation, scale=scale)
        pairs = query_workload(graph.n, queries, seed=seed)
        row = {"dataset": notation, "n": graph.n, "m": graph.m}
        for key, ordering in (("D", "degree"), ("S", "significant-path")):
            index = _build(graph, ordering, HP_SPC_PLUS)
            avg_seconds, _ = time_queries(index, pairs)
            row[f"index_s_{key}"] = index.build_seconds
            row[f"size_bytes_{key}"] = index.size_bytes()
            row[f"query_us_{key}"] = avg_seconds * 1e6
        rows.append(row)
    return rows


def exp2_performance(scale=1.0, queries=500, seed=0, notations=None):
    """Exp-2 / Figure 6: HP-SPC_S vs HP-SPC+_S vs HP-SPC*_S (+ HP-SPC*_D)."""
    variants = (
        ("HP-SPC_S", "significant-path", HP_SPC, "filtered"),
        ("HP-SPC+_S", "significant-path", HP_SPC_PLUS, "filtered"),
        ("HP-SPC*_S", "significant-path", HP_SPC_STAR, "filtered"),
        ("HP-SPC*_D", "degree", HP_SPC_STAR, "filtered"),
    )
    rows = []
    for notation in notations or dataset_notations():
        graph = load_dataset(notation, scale=scale)
        pairs = query_workload(graph.n, queries, seed=seed)
        for label, ordering, reductions, scheme in variants:
            index = _build(graph, ordering, reductions, scheme)
            avg_seconds, _ = time_queries(index, pairs)
            rows.append(
                {
                    "dataset": notation,
                    "variant": label,
                    "index_s": index.build_seconds,
                    "size_bytes": index.size_bytes(),
                    "entries": index.total_entries(),
                    "query_us": avg_seconds * 1e6,
                }
            )
    return rows


def exp3_query_schemes(scale=1.0, queries=500, seed=0, notations=None):
    """Exp-3 / Figure 7: filtered vs direct query schemes of HP-SPC*_S."""
    rows = []
    for notation in notations or dataset_notations():
        graph = load_dataset(notation, scale=scale)
        pairs = query_workload(graph.n, queries, seed=seed)
        index = _build(graph, "significant-path", HP_SPC_STAR, "filtered")
        filtered_seconds, _ = time_queries(index, pairs)
        direct_seconds, _ = time_queries(index.with_scheme("direct"), pairs)
        rows.append(
            {
                "dataset": notation,
                "filtered_us": filtered_seconds * 1e6,
                "direct_us": direct_seconds * 1e6,
                "reduction_pct": 100.0 * (1.0 - filtered_seconds / direct_seconds),
            }
        )
    return rows


def exp4_reductions(scale=1.0, notations=None):
    """Exp-4 / Figure 8: vertices removed by shell / equiv / shell+equiv."""
    rows = []
    for notation in notations or dataset_notations():
        graph = load_dataset(notation, scale=scale)
        report = reduction_report(graph)
        report["dataset"] = notation
        rows.append(report)
    return rows


#: Table 4's 90th percentile and maximum, as printed in the paper.
PAPER_TABLE4_TAIL = {
    "FB": (3.10, 49.67), "GW": (3.00, 742.00), "WI": (3.39, 457.00),
    "GO": (1.36, 7645.84), "DB": (2.67, 45.33), "BE": (1.69, 346.00),
    "YT": (6.78, 4735.00), "PE": (7.79, 468.36), "FL": (5.11, 885.50),
    "IN": (18.33, 48451.00),
}


def exp5_labels(scale=1.0, queries=2000, seed=0, notations=None):
    """Exp-5: Figure 9 (|L^c| vs |L^nc|), Table 4 (approximation ratio
    percentiles), Figure 10 (label size distribution).

    The ratio/table-4 part runs the *plain* HP-SPC labels (the paper
    computes spc_approx from L^c alone) so exact and approximate counts
    come from the same labeling.
    """
    figure9 = []
    table4 = []
    figure10 = []
    histograms = {}
    for notation in notations or dataset_notations():
        graph = load_dataset(notation, scale=scale)
        reduced = _build(graph, "significant-path", HP_SPC_PLUS)
        figure9.append(
            {
                "dataset": notation,
                "canonical": reduced.labels.canonical_size(),
                "noncanonical": reduced.labels.noncanonical_size(),
                "ratio": (
                    reduced.labels.noncanonical_size()
                    / max(1, reduced.labels.canonical_size())
                ),
            }
        )
        plain = SPCIndex.build(graph, ordering="significant-path")
        labels = plain.labels
        ratios = []
        for s, t in query_workload(graph.n, queries, seed=seed):
            dist, exact = plain.count_with_distance(s, t)
            if exact == 0:
                continue
            approx = count_canonical_only(labels, s, t)[1]
            ratios.append(exact / approx if approx else INF)
        row = {"dataset": notation}
        for q in (40, 50, 60, 70, 80, 90):
            row[f"p{q}"] = percentile(ratios, q)
        row["max"] = max(ratios)
        paper_p90, paper_max = PAPER_TABLE4_TAIL.get(notation, ("", ""))
        row["paper_p90"] = paper_p90
        row["paper_max"] = paper_max
        table4.append(row)
        sizes = labels.size_histogram()
        histograms[notation] = sizes
        figure10.append(
            {
                "dataset": notation,
                "min": min(sizes),
                "p25": percentile(sizes, 25),
                "p50": percentile(sizes, 50),
                "p75": percentile(sizes, 75),
                "max": max(sizes),
            }
        )
    return {
        "figure9": figure9,
        "table4": table4,
        "figure10": figure10,
        "histograms": histograms,
    }


#: Table 5 as printed in the paper (hours, GB, microseconds).
PAPER_TABLE5 = {
    "PL-SPC": (0.59, 131.50, 94.10),
    "HP-SPC_P": (7.06, 51.64, 54.23),
    "HP-SPC_D": (0.72, 14.44, 25.63),
    "HP-SPC_S": (1.02, 23.04, 39.22),
}


def _best_build(build, repeat=3):
    """``(index, seconds)``: the last of ``repeat`` builds and the fastest
    ``build_seconds`` among them, so one slow build on a loaded host does
    not decide a comparison of builds that take milliseconds."""
    seconds = []
    for _ in range(repeat):
        index = build()
        seconds.append(index.build_seconds)
    return index, min(seconds)


def exp6_planar(n=350, queries=500, seed=0):
    """Exp-6 / Table 5: PL-SPC vs HP-SPC_P vs HP-SPC_D vs HP-SPC_S on Delaunay.

    Sizes use the paper's wide Exp-6 packing (32+32+128 bits per entry);
    ``index_s`` is each variant's best of 3 builds; the paper's own Table 5
    values ride along for side-by-side reporting.
    """
    graph, points = load_delaunay(n=n, seed=20)
    pairs = query_workload(graph.n, queries, seed=seed)
    order, tree = planar_separator_order(graph, points=points, return_tree=True)
    rows = []

    pl, index_s = _best_build(lambda: PLSPCIndex.build(graph, order=order))
    avg, _ = time_queries(pl, pairs)
    rows.append(
        {
            "variant": "PL-SPC",
            "index_s": index_s,
            "size_bytes": pl.size_bytes(192),
            "entries": pl.total_entries(),
            "query_us": avg * 1e6,
        }
    )
    for label, ordering in (
        ("HP-SPC_P", list(order)),
        ("HP-SPC_D", "degree"),
        ("HP-SPC_S", "significant-path"),
    ):
        index, index_s = _best_build(
            lambda ordering=ordering: SPCIndex.build(graph, ordering=ordering)
        )
        avg, _ = time_queries(index, pairs)
        rows.append(
            {
                "variant": label,
                "index_s": index_s,
                "size_bytes": index.size_bytes(192),
                "entries": index.total_entries(),
                "query_us": avg * 1e6,
            }
        )
    for row in rows:
        hours, gigabytes, micros = PAPER_TABLE5[row["variant"]]
        row["paper_hr"] = hours
        row["paper_gb"] = gigabytes
        row["paper_us"] = micros
    return rows


def exp_theory_bounds(seed=0):
    """§5 checks: measured label sizes vs the (α, β) bounds per theorem."""
    import math

    from repro.generators.classic import random_tree
    from repro.generators.planar import triangular_lattice
    from repro.graph.traversal import approximate_diameter
    from repro.theory.bounds import boundedness, highway_bound, planar_bound, treewidth_bound
    from repro.theory.highway import highway_order
    from repro.theory.treewidth import centroid_order, min_degree_decomposition

    rows = []
    # Theorem 5.1 — planar.
    graph, points = triangular_lattice(14, 14)
    order = planar_separator_order(graph, points=points)
    labels = build_labels(graph, ordering=order)
    total, biggest = boundedness(labels)
    alpha, beta = planar_bound(graph.n)
    rows.append(
        {
            "theorem": "5.1 planar",
            "n": graph.n,
            "total": total,
            "max": biggest,
            "alpha": round(alpha),
            "beta": round(beta, 1),
        }
    )
    # Theorem 5.2 — treewidth (a tree: ω = 1).
    graph = random_tree(256, seed=seed)
    decomposition = min_degree_decomposition(graph)
    order, width = centroid_order(graph, decomposition)
    labels = build_labels(graph, ordering=order)
    total, biggest = boundedness(labels)
    alpha, beta = treewidth_bound(graph.n, width)
    rows.append(
        {
            "theorem": "5.2 treewidth",
            "n": graph.n,
            "total": total,
            "max": biggest,
            "alpha": round(alpha),
            "beta": round(beta, 1),
        }
    )
    # Theorem 5.3 — highway dimension (grid-like road analog).
    graph, _ = triangular_lattice(12, 12)
    order = highway_order(graph, seed=seed)
    labels = build_labels(graph, ordering=order)
    total, biggest = boundedness(labels)
    diameter = approximate_diameter(graph)
    beta_meas = biggest / max(1.0, math.log2(max(2, diameter)))
    rows.append(
        {
            "theorem": "5.3 highway",
            "n": graph.n,
            "total": total,
            "max": biggest,
            "alpha": "h*n*logD",
            "beta": f"h≈{beta_meas:.1f}",
        }
    )
    return rows


def exp_directed(n=150, queries=300, seed=0):
    """§7: directed index vs online Dijkstra on a random weighted digraph."""
    import random as random_module

    from repro.directed.index import DirectedSPCIndex
    from repro.graph.digraph import WeightedDigraph
    from repro.graph.traversal import spc_dijkstra

    rng = random_module.Random(seed)
    edges = [
        (u, v, rng.choice((1, 2, 3)))
        for u in range(n)
        for v in range(n)
        if u != v and rng.random() < 6.0 / n
    ]
    digraph = WeightedDigraph.from_edges(n, edges)
    pairs = query_workload(n, queries, seed=seed)
    rows = []
    for label, reductions in (
        ("HP-SPC-Dij", ()),
        ("HP-SPC-Dij*", ("shell", "equivalence", "independent-set")),
    ):
        index = DirectedSPCIndex.build(digraph, reductions=reductions)
        avg, _ = time_queries(index, pairs)
        rows.append(
            {
                "variant": label,
                "index_s": index.build_seconds,
                "entries": index.total_entries(),
                "query_us": avg * 1e6,
            }
        )
    started = time.perf_counter()
    for s, t in pairs:
        spc_dijkstra(digraph, s, t)
    dijkstra_avg = (time.perf_counter() - started) / len(pairs)
    rows.append(
        {"variant": "Dijkstra (online)", "index_s": 0.0, "entries": 0,
         "query_us": dijkstra_avg * 1e6}
    )
    return rows


def exp_ablations(scale=0.5, queries=300, seed=0):
    """Design-choice ablations (DESIGN.md): pruning, ordering, reduction
    composition order, and the §6 future-work L^nc budget curve."""
    import random as random_module

    from repro.core.approx import accuracy_curve
    from repro.reductions.equivalence import EquivalenceReduction
    from repro.reductions.shell import ShellReduction

    rows = {"pruning": [], "ordering": [], "reduction_order": [], "budget": []}

    social = load_dataset("FB", scale=scale)
    for label, prune in (("with pruning joins", True), ("without (PL-SPC style)", False)):
        started = time.perf_counter()
        labels = build_labels(social, ordering="degree", prune=prune)
        rows["pruning"].append(
            {
                "config": label,
                "build_s": time.perf_counter() - started,
                "entries": labels.total_entries(),
            }
        )

    random_order = list(social.vertices())
    random_module.Random(13).shuffle(random_order)
    for label, spec in (
        ("random", random_order),
        ("degree", "degree"),
        ("betweenness", "betweenness"),
        ("significant-path", "significant-path"),
    ):
        started = time.perf_counter()
        labels = build_labels(social, ordering=spec)
        rows["ordering"].append(
            {
                "config": label,
                "build_s": time.perf_counter() - started,
                "entries": labels.total_entries(),
            }
        )

    web = load_dataset("IN", scale=scale)
    shell_first = ShellReduction.compute(web)
    removed_a = shell_first.removed_count + EquivalenceReduction.compute(
        shell_first.graph_reduced
    ).removed_count
    equiv_first = EquivalenceReduction.compute(web)
    removed_b = equiv_first.removed_count + ShellReduction.compute(
        equiv_first.graph_reduced
    ).removed_count
    rows["reduction_order"] = [
        {"config": "shell then equivalence", "removed": removed_a,
         "fraction": removed_a / web.n},
        {"config": "equivalence then shell", "removed": removed_b,
         "fraction": removed_b / web.n},
    ]

    labels = build_labels(social, ordering="significant-path")
    pairs = query_workload(social.n, queries, seed=seed)
    for row in accuracy_curve(labels, pairs, budgets=[0, 1, 2, 4, 8, None]):
        rows["budget"].append(
            {
                "config": "full L^nc" if row["budget"] is None else f"budget {row['budget']}",
                "entries": row["entries"],
                "exact_pct": 100.0 * row["exact_fraction"],
                "mean_ratio": row["mean_ratio"],
            }
        )
    return rows


def exp_applications(scale=0.5, groups=10, group_size=4, pair_count=300, seed=0):
    """§1 application: GBC pair-matrix construction via oracle vs BFS."""
    from repro.applications.group_betweenness import (
        GroupBetweennessEvaluator,
        group_betweenness_exact,
    )

    graph = load_dataset("FB", scale=scale)
    rng = ensure_rng(seed)
    pairs = [
        (rng.randrange(graph.n), rng.randrange(graph.n)) for _ in range(pair_count)
    ]
    group_list = group_workload(graph.n, groups=groups, group_size=group_size, seed=seed)
    rows = []

    index = ReducedSPCIndex.build(graph, ordering="significant-path", reductions=HP_SPC_PLUS)
    evaluator = GroupBetweennessEvaluator(index, pairs)
    started = time.perf_counter()
    oracle_scores = [evaluator.evaluate(group) for group in group_list]
    oracle_seconds = time.perf_counter() - started
    rows.append(
        {
            "method": "hub-labeling oracle",
            "setup_s": index.build_seconds,
            "eval_s": oracle_seconds,
            "score_sum": sum(oracle_scores),
        }
    )

    started = time.perf_counter()
    exact_scores = [group_betweenness_exact(graph, group, pairs) for group in group_list]
    exact_seconds = time.perf_counter() - started
    rows.append(
        {
            "method": "BFS (exact baseline)",
            "setup_s": 0.0,
            "eval_s": exact_seconds,
            "score_sum": sum(exact_scores),
        }
    )
    return rows
