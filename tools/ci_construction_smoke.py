#!/usr/bin/env python
"""CI construction gates: engine parity smoke plus large-graph scaling tiers.

Three tiers, selected with ``--tier``:

``smoke`` (default, runs on every PR)
    Builds one generated Barabási–Albert graph with the ``python`` and
    ``csr`` engines, ``--rounds`` times each, alternating engines
    (:func:`repro.bench.harness.compare_builders` per round). Requires
    entry-for-entry identical labelings, equal shared construction
    counters (``BuildStats.SHARED``; the sweep-work counters ``visits`` /
    ``prunes`` / ``join_terms`` are reported, not compared, because the
    rank-batched csr sweep does different work), and a median of the
    per-round python/csr ratios of at least ``--min-speedup``: a round's
    two builds run back to back, so a slow phase of the host shifts one
    ratio, not the reading. Each engine's median and every run land in
    ``BENCH_construction.json``.

``scaling`` (runs on every PR, bigger box budget)
    First replays a bit-identity oracle (csr vs the python engine at
    ``--oracle-vertices``), then builds a ``--vertices`` (default 100k)
    graph with the csr engine under ``--max-seconds`` / ``--max-rss-mb``
    budgets, spot-checks ``--bfs-samples`` single-source sweeps against
    the vectorized BFS oracle, and reports label bytes/vertex plus peak
    RSS.

``nightly`` (scheduled job)
    The scaling tier with million-vertex defaults and looser budgets —
    the standing record that one box builds and serves n = 10^6.

Run from the repository root:

    PYTHONPATH=src python tools/ci_construction_smoke.py --vertices 4000
    PYTHONPATH=src python tools/ci_construction_smoke.py --tier scaling
    PYTHONPATH=src python tools/ci_construction_smoke.py --tier nightly
"""

import argparse
import json
import platform
import sys
import time

#: per-tier defaults: (vertices, max_seconds, max_rss_mb)
TIER_DEFAULTS = {
    "smoke": (10_000, None, None),
    "scaling": (100_000, 1800.0, 8192.0),
    "nightly": (1_000_000, 14_400.0, 65_536.0),
}


def _peak_rss_mb():
    """Max resident set size of this process so far, in MiB (Linux/macOS)."""
    import resource

    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # ru_maxrss is bytes on macOS, KiB on Linux
        peak //= 1024
    return peak / 1024.0


def run_smoke(args):
    import statistics

    from repro.bench.harness import compare_builders
    from repro.core.hp_spc import BuildStats
    from repro.generators.random_graphs import barabasi_albert_graph

    graph = barabasi_albert_graph(args.vertices, args.attach, seed=args.seed)
    print(f"graph: barabasi_albert(n={graph.n}, m={graph.m})")

    rounds = []
    for number in range(1, args.rounds + 1):
        comparison = compare_builders(graph, engines=("python", "csr"),
                                      ordering=args.ordering)
        rounds.append(comparison)
        print(f"round {number}: python "
              f"{comparison['engines']['python']['seconds']:.2f}s, csr "
              f"{comparison['engines']['csr']['seconds']:.2f}s, ratio "
              f"{comparison['speedup']:.2f}x")
    python_runs = [r["engines"]["python"]["seconds"] for r in rounds]
    csr_runs = [r["engines"]["csr"]["seconds"] for r in rounds]
    speedup = statistics.median(r["speedup"] for r in rounds)
    identical = all(r["identical"] for r in rounds)
    # Counters are deterministic, so the last round stands for every one.
    python_result = rounds[-1]["engines"]["python"]
    csr_result = rounds[-1]["engines"]["csr"]
    print(f"python engine: median {statistics.median(python_runs):.2f}s, "
          f"{python_result['entries']} entries")
    print(f"csr engine   : median {statistics.median(csr_runs):.2f}s, "
          f"{csr_result['entries']} entries")
    print(f"speedup      : {speedup:.2f}x median of {len(rounds)} paired "
          f"ratios (floor {args.min_speedup:.2f}x)")
    print(f"identical    : {identical}")
    python_stats = python_result["build_stats"]
    csr_stats = csr_result["build_stats"]
    counters_match = all(python_stats[name] == csr_stats[name]
                         for name in BuildStats.SHARED)
    print(f"counters     : {', '.join(BuildStats.SHARED)} match: "
          f"{counters_match}")

    report = {
        "tier": "smoke",
        "graph": {"family": "barabasi_albert", "n": graph.n, "m": graph.m,
                  "attach": args.attach, "seed": args.seed},
        "ordering": args.ordering,
        "rounds": len(rounds),
        "python_seconds": round(statistics.median(python_runs), 3),
        "csr_seconds": round(statistics.median(csr_runs), 3),
        "python_runs": [round(seconds, 3) for seconds in python_runs],
        "csr_runs": [round(seconds, 3) for seconds in csr_runs],
        "round_speedups": [round(r["speedup"], 3) for r in rounds],
        "speedup": round(speedup, 3),
        "identical": identical,
        "label_entries": csr_result["entries"],
        "compared_counters": list(BuildStats.SHARED),
        "counters_match": counters_match,
        "python_build_stats": python_stats,
        "csr_build_stats": csr_stats,
        "min_speedup": args.min_speedup,
        "python_version": platform.python_version(),
    }
    _write_report(report, args.output)

    failed = False
    if not identical:
        print("FAIL: csr labeling is not entry-for-entry identical to python",
              file=sys.stderr)
        failed = True
    if not counters_match:
        print("FAIL: shared construction counters differ between engines",
              file=sys.stderr)
        failed = True
    if speedup < args.min_speedup:
        print(f"FAIL: csr engine speedup {speedup:.2f}x "
              f"< floor {args.min_speedup:.2f}x", file=sys.stderr)
        failed = True
    return 1 if failed else 0


def run_scaling(args):
    import numpy as np

    from repro.core.batch_query import single_source
    from repro.core.flat_labels import FlatLabels
    from repro.core.hp_spc import build_labels
    from repro.generators.random_graphs import barabasi_albert_graph
    from repro.kernels.bfs import bfs_count_csr
    from repro.kernels.hub_push import (
        build_flat_labels_csr,
        default_batch_size,
    )

    failed = False

    # Gate 1: small-graph oracle — the csr engine must agree with the
    # python reference engine bit-for-bit before its large build counts.
    oracle_graph = barabasi_albert_graph(args.oracle_vertices, args.attach,
                                         seed=args.seed)
    oracle_ref = FlatLabels.from_label_set(
        build_labels(oracle_graph, ordering=args.ordering)
    )
    oracle_csr = build_flat_labels_csr(oracle_graph, ordering=args.ordering)
    oracle_ok = oracle_csr.equals(oracle_ref)
    del oracle_ref, oracle_csr
    print(f"oracle (n={oracle_graph.n}): bit-identical = {oracle_ok}")
    if not oracle_ok:
        print("FAIL: csr differs from python on the oracle graph",
              file=sys.stderr)
        failed = True

    # Gate 2: the large build itself, under time/memory budgets.
    graph = barabasi_albert_graph(args.vertices, args.attach, seed=args.seed)
    print(f"graph: barabasi_albert(n={graph.n}, m={graph.m})")
    batch = default_batch_size(graph.n)
    print(f"batch width: {batch}")
    started = time.perf_counter()
    flat = build_flat_labels_csr(graph, ordering=args.ordering)
    build_seconds = time.perf_counter() - started
    peak_rss = _peak_rss_mb()
    entries = flat.total_entries()
    bytes_per_vertex = flat.nbytes() / graph.n
    avg_label = entries / graph.n
    print(f"build        : {build_seconds:.1f}s "
          f"(budget {args.max_seconds or 'none'})")
    print(f"entries      : {entries} (avg |L(v)| = {avg_label:.1f})")
    print(f"bytes/vertex : {bytes_per_vertex:.1f}")
    print(f"peak rss     : {peak_rss:.0f} MiB "
          f"(budget {args.max_rss_mb or 'none'})")

    # Gate 3: sampled single-source sweeps against the BFS oracle —
    # catches any at-scale wrongness the small oracle can't see.
    rng = np.random.default_rng(args.seed)
    sources = rng.integers(0, graph.n, size=args.bfs_samples)
    check_started = time.perf_counter()
    bad = 0
    for source in sources:
        ref_dist, ref_count = bfs_count_csr(graph, int(source))
        got_dist, got_count = single_source(flat, int(source))
        unreachable = ref_dist < 0
        got_dist = got_dist.copy()
        got_dist[np.isinf(got_dist)] = -1
        if not (np.array_equal(got_dist.astype(np.int64), ref_dist)
                and np.array_equal(
                    got_count.astype(np.int64)[~unreachable],
                    ref_count[~unreachable])):
            bad += 1
    check_seconds = time.perf_counter() - check_started
    print(f"bfs spot-check: {args.bfs_samples} sources, {bad} mismatches "
          f"({check_seconds:.1f}s)")
    if bad:
        print(f"FAIL: {bad} single-source sweeps disagree with BFS",
              file=sys.stderr)
        failed = True

    if args.max_seconds is not None and build_seconds > args.max_seconds:
        print(f"FAIL: build took {build_seconds:.1f}s "
              f"> budget {args.max_seconds:.0f}s", file=sys.stderr)
        failed = True
    if args.max_rss_mb is not None and peak_rss > args.max_rss_mb:
        print(f"FAIL: peak RSS {peak_rss:.0f} MiB "
              f"> budget {args.max_rss_mb:.0f} MiB", file=sys.stderr)
        failed = True

    report = {
        "tier": args.tier,
        "graph": {"family": "barabasi_albert", "n": graph.n, "m": graph.m,
                  "attach": args.attach, "seed": args.seed},
        "ordering": args.ordering,
        "engine": "csr",
        "batch_width": batch,
        "build_seconds": round(build_seconds, 3),
        "max_seconds": args.max_seconds,
        "peak_rss_mb": round(peak_rss, 1),
        "max_rss_mb": args.max_rss_mb,
        "label_entries": entries,
        "avg_label_size": round(avg_label, 2),
        "label_bytes_per_vertex": round(bytes_per_vertex, 1),
        "oracle_vertices": args.oracle_vertices,
        "oracle_identical": oracle_ok,
        "bfs_samples": args.bfs_samples,
        "bfs_mismatches": bad,
        "python_version": platform.python_version(),
    }
    _write_report(report, args.output)
    return 1 if failed else 0


def _write_report(report, output):
    with open(output, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print(f"wrote {output}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--tier", default="smoke",
                        choices=["smoke", "scaling", "nightly"],
                        help="smoke: engine parity; scaling: 100k budgeted "
                             "build; nightly: the 1M record run")
    parser.add_argument("--vertices", type=int, default=None,
                        help="graph size (default: 10000/100000/1000000 "
                             "by tier)")
    parser.add_argument("--attach", type=int, default=3,
                        help="Barabási–Albert attachment degree (default 3)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--ordering", default="degree")
    parser.add_argument("--rounds", type=int, default=3,
                        help="smoke: rounds of one python and one csr "
                             "build each (default 3)")
    parser.add_argument("--min-speedup", type=float, default=1.0,
                        help="smoke: fail when the median per-round "
                             "python/csr ratio is below this (default 1.0)")
    parser.add_argument("--oracle-vertices", type=int, default=10_000,
                        help="scaling/nightly: size of the bit-identity "
                             "oracle graph (default 10000)")
    parser.add_argument("--bfs-samples", type=int, default=10,
                        help="scaling/nightly: single-source BFS spot checks "
                             "(default 10)")
    parser.add_argument("--max-seconds", type=float, default=None,
                        help="scaling/nightly: fail when the build exceeds "
                             "this wall-clock budget")
    parser.add_argument("--max-rss-mb", type=float, default=None,
                        help="scaling/nightly: fail when peak RSS exceeds "
                             "this budget")
    parser.add_argument("--output", default="BENCH_construction.json")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")

    default_n, default_secs, default_rss = TIER_DEFAULTS[args.tier]
    if args.vertices is None:
        args.vertices = default_n
    if args.max_seconds is None and args.tier != "smoke":
        args.max_seconds = default_secs
    if args.max_rss_mb is None and args.tier != "smoke":
        args.max_rss_mb = default_rss

    if args.tier == "smoke":
        return run_smoke(args)
    return run_scaling(args)


if __name__ == "__main__":
    sys.exit(main())
