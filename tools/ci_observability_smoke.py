#!/usr/bin/env python
"""CI observability smoke: instrumentation must be complete, honest, cheap.

Runs three gates and writes the observed numbers to
``BENCH_observability.json``:

1. **coverage** — builds a small index with metrics + tracing enabled,
   runs flat batch queries and an :class:`repro.serving.SPCService`
   burst, then asserts the required metric families exist with sane
   values, that every registered family is listed in the metric catalog
   (``repro.observability.catalog``), and that the trace contains the
   expected nested spans (``build.csr`` wrapping one ``hp_spc.push`` per
   vertex).
2. **bit-identity** — the same build with instrumentation enabled and
   disabled must produce entry-for-entry identical labels.
3. **overhead** — on the bench graph (default 10k vertices, the
   ``BENCH_construction.json`` configuration) the fully *enabled*
   registry must keep ``build_flat_labels_csr`` within ``--max-overhead``
   (default 5%) of the default *disabled* one — so the no-op path is
   provably below it. The serving hot path gets the same budget: bursts
   of :meth:`ClusterService.submit_nowait` pairs through a cluster built
   with metrics on against one built with metrics off. Both legs gate
   the median ratio of interleaved disabled/enabled pairs, so a VM phase
   change moves one pair, not the reading.

Run from the repo root:

    PYTHONPATH=src python tools/ci_observability_smoke.py
"""

import argparse
import gc
import json
import platform
import statistics
import sys
import time

#: Serving overhead leg: graph size, pairs per burst, and interleaved
#: pairs of bursts per couple of clusters.
SERVE_VERTICES = 2000
SERVE_BURST = 500
SERVE_PAIRS = 151


def check(condition, message):
    if not condition:
        print(f"FAIL: {message}", file=sys.stderr)
        sys.exit(1)
    print(f"ok: {message}")


def counter_sum(registry, name):
    """Total across every label combination of a counter family."""
    return registry.sum_values(name)


def coverage_gate(args, report):
    """Instrumented build/query/serving run; assert the metrics exist."""
    import os
    import tempfile

    from repro.core.index import SPCIndex
    from repro.generators.random_graphs import barabasi_albert_graph
    from repro.io.serialize import save_index
    from repro.observability.catalog import missing_from_catalog
    from repro.observability.metrics import MetricsRegistry, scoped_registry, snapshot
    from repro.observability.tracing import Tracer, scoped_tracer
    from repro.serving import SPCService
    from repro.utils.rng import random_pairs

    graph = barabasi_albert_graph(args.vertices, 3, seed=args.seed)
    registry = MetricsRegistry()
    tracer = Tracer()
    with scoped_registry(registry), scoped_tracer(tracer):
        index = SPCIndex.build(graph, ordering="degree", engine="csr")
        pairs = list(random_pairs(graph.n, args.queries, rng=args.seed))
        answers = index.count_many(pairs)
        with tempfile.TemporaryDirectory() as scratch:
            path = os.path.join(scratch, "index.bin")
            save_index(index, path, graph=graph)
            service = SPCService(graph, index_path=path, capacity=4)
            for s, t in pairs[:50]:
                service.submit(s, t)

    n = graph.n
    required = {
        "spc_build_pushes_total": n,
        "spc_queries_total": len(pairs),
        "spc_requests_total": min(len(pairs), 50),
    }
    for name, expected in required.items():
        actual = counter_sum(registry, name)
        check(actual == expected, f"coverage: {name} == {expected}")
    check(counter_sum(registry, "spc_build_label_entries_total") > n,
          "coverage: spc_build_label_entries_total exceeds the vertex count")
    check(registry.get("spc_build_seconds", engine="csr").count == 1,
          "coverage: spc_build_seconds recorded exactly one build")
    check(registry.get("spc_batch_query_seconds").count >= 1,
          "coverage: spc_batch_query_seconds recorded the batch call")
    check(counter_sum(registry, "spc_io_bytes_total") > 0,
          "coverage: spc_io_bytes_total counted serialized bytes")
    check(counter_sum(registry, "spc_request_outcomes_total")
          == min(len(pairs), 50),
          "coverage: every service request reached a terminal outcome")
    uncatalogued = missing_from_catalog(registry)
    check(not uncatalogued,
          f"coverage: every registered family is catalogued ({uncatalogued})")

    roots = tracer.roots()
    root_names = {span.name for span in roots}
    check("build.csr" in root_names, "trace: build.csr root span present")
    build_root = next(span for span in roots if span.name == "build.csr")
    pushes = [s for s in build_root.children if s.name == "hp_spc.push"]
    check(len(pushes) == n, f"trace: one hp_spc.push span per vertex ({n})")
    check(any(s.name == "serve.request" for s in roots),
          "trace: serve.request spans present")

    report["coverage"] = {
        "vertices": n,
        "queries": len(pairs),
        "answered_nonzero": sum(1 for _, count in answers if count),
        "families": len(registry.families()),
        "spans": tracer.span_count(),
        "uncatalogued": uncatalogued,
    }
    report["metrics"] = snapshot(registry)


def bit_identity_gate(args, report):
    """Labels must be identical with instrumentation on and off."""
    from repro.generators.random_graphs import barabasi_albert_graph
    from repro.kernels.hub_push import build_flat_labels_csr
    from repro.observability.metrics import MetricsRegistry, scoped_registry
    from repro.observability.tracing import Tracer, scoped_tracer

    graph = barabasi_albert_graph(args.vertices, 3, seed=args.seed)
    plain = build_flat_labels_csr(graph)
    with scoped_registry(MetricsRegistry()), scoped_tracer(Tracer()):
        instrumented = build_flat_labels_csr(graph)
    check(plain.equals(instrumented),
          "bit-identity: labels unchanged with instrumentation enabled")
    report["bit_identity"] = {"vertices": graph.n, "identical": True}


def paired_times(run_off, run_on, pairs):
    """``(off, on)`` seconds of ``pairs`` interleaved pairs of runs.

    Each pair runs both modes back to back, in alternating order, and the
    gate reads the median of the per-pair ratios: a VM phase change then
    moves one ratio, not the reading, as it does when one mode's block
    runs after the other's.
    """
    timed = []
    for i in range(pairs):
        times = {}
        for mode, run in ((("off", run_off), ("on", run_on)) if i % 2 == 0
                          else (("on", run_on), ("off", run_off))):
            gc.collect()
            started = time.perf_counter()
            run()
            times[mode] = time.perf_counter() - started
        timed.append((times["off"], times["on"]))
    return timed


def gate_ratios(report, leg, timed, max_overhead, detail):
    ratios = [on / off for off, on in timed]
    ratio = statistics.median(ratios)
    print(f"{leg}: {len(ratios)} enabled/disabled paired ratios from "
          f"{min(ratios):.3f} to {max(ratios):.3f}, median {ratio:.3f}")
    check(ratio <= 1.0 + max_overhead,
          f"{leg} overhead: median paired ratio {ratio:.3f} within "
          f"{max_overhead:.0%} budget (no-op path is below it)")
    report[leg] = {
        **detail, "pairs": len(ratios),
        "disabled_seconds": round(statistics.median(t[0] for t in timed), 4),
        "enabled_seconds": round(statistics.median(t[1] for t in timed), 4),
        "ratio_range": [round(min(ratios), 4), round(max(ratios), 4)],
        "ratio": round(ratio, 4), "max_overhead": max_overhead}


def overhead_gate(args, report):
    """The disabled-by-default instrumentation must cost <5% build time."""
    from repro.generators.random_graphs import barabasi_albert_graph
    from repro.kernels.hub_push import build_flat_labels_csr
    from repro.observability.metrics import MetricsRegistry, scoped_registry

    graph = barabasi_albert_graph(args.overhead_vertices, 3, seed=args.seed)
    print(f"overhead graph: barabasi_albert(n={graph.n}, m={graph.m}), "
          f"{args.repeat} interleaved pairs")

    def build_on():
        with scoped_registry(MetricsRegistry()):
            build_flat_labels_csr(graph)

    build_flat_labels_csr(graph)  # warm caches outside the measurement
    timed = paired_times(lambda: build_flat_labels_csr(graph), build_on,
                         args.repeat)
    gate_ratios(report, "overhead", timed, args.max_overhead,
                {"vertices": graph.n})


def serving_overhead_gate(args, report):
    """Per-request metrics must cost <5% of a burst of cluster pair requests.

    A cluster resolves its metric instruments when it is built, so the
    leg builds clusters with metrics off and on and times interleaved
    bursts of ``submit_nowait`` pairs, first submit to last answer. Half
    the pairs run on a second couple of clusters built in the opposite
    order, so which cluster came up first does not lean on the ratio.
    """
    import os
    import tempfile

    from repro.generators.random_graphs import barabasi_albert_graph
    from repro.io.flat_store import save_flat_labels
    from repro.kernels.hub_push import build_flat_labels_csr
    from repro.observability.metrics import MetricsRegistry, scoped_registry
    from repro.serving import SERVED_INDEX, ClusterService
    from repro.utils.rng import random_pairs

    graph = barabasi_albert_graph(SERVE_VERTICES, 3, seed=args.seed)
    pairs = list(random_pairs(graph.n, SERVE_BURST, rng=args.seed))
    print(f"serving overhead: barabasi_albert(n={graph.n}), bursts of "
          f"{SERVE_BURST} pairs, {2 * SERVE_PAIRS} interleaved pairs")
    off_registry = MetricsRegistry(enabled=False)
    on_registry = MetricsRegistry()

    def burst(cluster, registry):
        def run():
            with scoped_registry(registry):
                futures = [cluster.submit_nowait(s, t) for s, t in pairs]
                statuses = {f.result(timeout=60).status for f in futures}
            if statuses != {SERVED_INDEX}:
                check(False, f"serving overhead: burst ended {statuses}")
        return run

    timed = []
    with tempfile.TemporaryDirectory() as scratch:
        path = os.path.join(scratch, "serve.spcf")
        save_flat_labels(build_flat_labels_csr(graph), path)
        for order in ((off_registry, on_registry),
                      (on_registry, off_registry)):
            clusters = {}
            for registry in order:
                with scoped_registry(registry):
                    clusters[registry] = ClusterService(
                        path, workers=1, capacity=SERVE_BURST,
                        queue_limit=SERVE_BURST, heartbeat_interval=0,
                        hedge_delay=None)
            try:
                off = burst(clusters[off_registry], off_registry)
                on = burst(clusters[on_registry], on_registry)
                off()  # warm both workers and routers
                on()
                timed += paired_times(off, on, SERVE_PAIRS)
            finally:
                for cluster in clusters.values():
                    cluster.close()
    check(on_registry.get("spc_cluster_requests_total").value
          == 2 * SERVE_BURST * (SERVE_PAIRS + 1),
          "serving overhead: the enabled clusters counted every request")
    gate_ratios(report, "serving_overhead", timed, args.max_overhead,
                {"vertices": graph.n, "burst": SERVE_BURST})


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--vertices", type=int, default=300,
                        help="coverage-gate graph size (default 300)")
    parser.add_argument("--queries", type=int, default=200,
                        help="flat batch queries in the coverage gate")
    parser.add_argument("--overhead-vertices", type=int, default=10_000,
                        help="overhead-gate graph size (default 10000, the "
                             "bench graph)")
    parser.add_argument("--repeat", type=int, default=6,
                        help="interleaved disabled/enabled build pairs in "
                             "the overhead gate, half of them in each order; "
                             "the median ratio is compared (default 6)")
    parser.add_argument("--max-overhead", type=float, default=0.05,
                        help="allowed enabled/disabled overtime (default 0.05)")
    parser.add_argument("--skip-overhead", action="store_true",
                        help="skip the (slow) overhead gate")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--output", default="BENCH_observability.json")
    args = parser.parse_args(argv)

    report = {"config": vars(args), "python": platform.python_version()}
    coverage_gate(args, report)
    bit_identity_gate(args, report)
    if args.skip_overhead:
        print("skipping overhead gate (--skip-overhead)")
        report["overhead"] = {"skipped": True}
        report["serving_overhead"] = {"skipped": True}
    else:
        overhead_gate(args, report)
        serving_overhead_gate(args, report)

    with open(args.output, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {args.output}")
    print("observability smoke: all gates hold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
