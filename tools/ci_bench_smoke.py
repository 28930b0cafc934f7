#!/usr/bin/env python
"""CI benchmark smoke: flat batched engine must not be slower than python.

Builds an HP-SPC index over a generated Barabási–Albert graph, times the
same random-pair workload through both query engines, writes the numbers
to ``BENCH_ci_smoke.json`` and exits non-zero when the flat engine's
batched throughput falls below ``--min-speedup`` times the python
engine's (default 1.0: flat must not lose).

A second leg gates the query compilation layer: the same workload as a
compiled ``Batch`` of ``Count`` nodes must answer bit-identically to raw
``count_many`` and add less than ``--max-plan-overhead`` relative wall
time (default 0.05) over it. That compiled run reuses its cached plan,
so a third, cold leg times an uncompiled ``engine.run`` of the batch,
which validates and plans it on every call as a fresh batch does, and
fails at ``MAX_COLD_PLAN_OVERHEAD`` (0.15) over raw ``count_many``.
Both query-layer legs gate the median, over ``REPEATS`` interleaved
repetitions, of each repetition's ratio to its own ``count_many`` run.

Run from the repository root:

    PYTHONPATH=src python tools/ci_bench_smoke.py --vertices 4000
"""

import argparse
import json
import platform
import statistics
import sys
import time

#: Ceiling on an uncompiled batch run's relative overhead over count_many.
MAX_COLD_PLAN_OVERHEAD = 0.15
#: Interleaved repetitions behind each query-layer median.
REPEATS = 15


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--vertices", type=int, default=10000,
                        help="graph size (default 10000)")
    parser.add_argument("--attach", type=int, default=3,
                        help="Barabási–Albert attachment degree (default 3)")
    parser.add_argument("--queries", type=int, default=20000,
                        help="random query pairs (default 20000)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--min-speedup", type=float, default=1.0,
                        help="fail below this flat/python speedup (default 1.0)")
    parser.add_argument("--max-plan-overhead", type=float, default=0.05,
                        help="fail when the compiled query layer adds more "
                             "than this relative overhead over raw "
                             "count_many (default 0.05)")
    parser.add_argument("--output", default="BENCH_ci_smoke.json")
    args = parser.parse_args(argv)

    from repro.bench.harness import attach_metrics, compare_engines
    from repro.core.index import SPCIndex
    from repro.generators.random_graphs import barabasi_albert_graph
    from repro.observability.metrics import enable_metrics, get_registry
    from repro.utils.rng import random_pairs

    enable_metrics()
    graph = barabasi_albert_graph(args.vertices, args.attach, seed=args.seed)
    print(f"graph: barabasi_albert(n={graph.n}, m={graph.m})")
    started = time.perf_counter()
    index = SPCIndex.build(graph, collect_stats=True)
    build_seconds = time.perf_counter() - started
    print(f"build: {build_seconds:.1f}s, {index.total_entries()} entries")
    # The python-engine build ends by freezing its labels into columns.
    freeze_seconds = get_registry().histogram("spc_flat_freeze_seconds").sum
    pairs = list(random_pairs(graph.n, args.queries, rng=args.seed))
    result = compare_engines(index, pairs)
    print(f"python engine: {result['python_us_per_query']:.2f} us/query")
    print(f"flat engine  : {result['flat_us_per_query']:.2f} us/query "
          f"(freeze {freeze_seconds:.2f}s)")
    print(f"speedup      : {result['speedup']:.2f}x (floor {args.min_speedup:.2f}x)")

    from repro.query import Batch, Count, QueryEngine

    engine = QueryEngine(index=index, cache=None)
    batch = Batch(tuple(Count(s, t) for s, t in pairs))
    compiled = engine.compile(batch)
    plan_answers = list(compiled.run())
    direct_answers = [tuple(answer) for answer in index.count_many(pairs)]
    if plan_answers != direct_answers:
        print("FAIL: compiled query answers differ from raw count_many",
              file=sys.stderr)
        return 1
    # Both query-layer paths run the same vectorized scans as count_many,
    # so each repetition times all three back to back and the gates read
    # the median of the per-repetition ratios. A load spike then shifts one
    # ratio, not the reading; a best-of-N minimum divides the two paths'
    # luckiest runs, which need not be close in time.
    direct_times, plan_times, cold_times = [], [], []
    for _ in range(REPEATS):
        for run, times in ((lambda: index.count_many(pairs), direct_times),
                           (compiled.run, plan_times),
                           (lambda: engine.run(batch), cold_times)):
            started = time.perf_counter()
            run()
            times.append(time.perf_counter() - started)

    def median_overhead(times):
        return statistics.median(
            t / d for t, d in zip(times, direct_times)) - 1.0

    plan_overhead = median_overhead(plan_times)
    cold_overhead = median_overhead(cold_times)
    direct_seconds, plan_seconds, cold_seconds = (
        statistics.median(times)
        for times in (direct_times, plan_times, cold_times))
    print(f"query layer  : direct {direct_seconds * 1e3:.1f}ms, "
          f"compiled {plan_seconds * 1e3:.1f}ms, "
          f"median overhead {plan_overhead:+.2%} "
          f"(ceiling {args.max_plan_overhead:+.2%})")
    print(f"cold planning: uncompiled {cold_seconds * 1e3:.1f}ms, "
          f"median overhead {cold_overhead:+.2%} "
          f"(ceiling {MAX_COLD_PLAN_OVERHEAD:+.2%})")

    report = {
        "graph": {"family": "barabasi_albert", "n": graph.n, "m": graph.m,
                  "attach": args.attach, "seed": args.seed},
        "build_seconds": round(build_seconds, 3),
        "build_stats": index.build_stats.as_dict(),
        "label_entries": index.total_entries(),
        "freeze_seconds": round(freeze_seconds, 3),
        "queries": result["queries"],
        "python_us_per_query": round(result["python_us_per_query"], 3),
        "flat_us_per_query": round(result["flat_us_per_query"], 3),
        "speedup": round(result["speedup"], 3),
        "min_speedup": args.min_speedup,
        "query_layer": {
            "answers_identical": True,
            "repeats": REPEATS,
            "direct_seconds": round(direct_seconds, 4),
            "compiled_seconds": round(plan_seconds, 4),
            "plan_overhead": round(plan_overhead, 4),
            "max_plan_overhead": args.max_plan_overhead,
            "cold_seconds": round(cold_seconds, 4),
            "cold_plan_overhead": round(cold_overhead, 4),
            "max_cold_plan_overhead": MAX_COLD_PLAN_OVERHEAD,
        },
        "python_version": platform.python_version(),
    }
    attach_metrics(report)
    with open(args.output, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print(f"wrote {args.output}")

    if result["speedup"] < args.min_speedup:
        print(f"FAIL: flat engine speedup {result['speedup']:.2f}x "
              f"< floor {args.min_speedup:.2f}x", file=sys.stderr)
        return 1
    if plan_overhead >= args.max_plan_overhead:
        print(f"FAIL: compiled query overhead {plan_overhead:+.2%} "
              f">= ceiling {args.max_plan_overhead:+.2%}", file=sys.stderr)
        return 1
    if cold_overhead >= MAX_COLD_PLAN_OVERHEAD:
        print(f"FAIL: cold planning overhead {cold_overhead:+.2%} "
              f">= ceiling {MAX_COLD_PLAN_OVERHEAD:+.2%}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
