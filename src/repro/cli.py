"""Command-line interface: build, query, inspect and verify indexes.

Usage (also available as ``python -m repro``):

    repro-spc info   graph.txt
    repro-spc build  graph.txt index.bin
    repro-spc build  graph.txt index.bin --ordering significant-path --engine python
    repro-spc query  index.bin 12 9075
    repro-spc query  index.bin --random 5 --graph graph.txt
    repro-spc stats  index.bin
    repro-spc verify index.bin graph.txt --samples 500
    repro-spc bench  index.bin --queries 2000 --engine both
    repro-spc serve-smoke index.bin graph.txt --random 500 --deadline-ms 20
    repro-spc build  graph.txt index.bin --trace build-trace.json
    repro-spc query  index.spcf --random 5 --mmap
    repro-spc metrics --vertices 500 --format prom

Graphs are whitespace edge lists (SNAP/KONECT style; ``#``/``%``
comments). ``build`` writes an SPCF index file (exact counts, mmap-able;
``--weighted`` builds write wide-packed SPCL labels instead), the one
format every command and both serving tiers read. The CLI wraps the
plain HP-SPC index; the reduced variants are library-level APIs (their
query path needs reduction state that the index file does not carry).

Failures exit with *distinct* codes so scripts can branch on the cause:
``1`` unexpected library/I/O error, ``2`` usage, ``3`` graph parse error,
``4`` index serialization/corruption, ``5`` invalid vertex id, ``6``
serving flow-control (deadline/overload/circuit).
"""

import argparse
import contextlib
import sys
import time

from repro.core.diagnostics import (
    label_statistics,
    validate_against_bfs,
    validate_structure,
)
from repro.core.index import SPCIndex
from repro.exceptions import (
    GraphParseError,
    QuerySyntaxError,
    ReproError,
    SerializationError,
    ServingError,
    VertexError,
)
from repro.graph.io import read_edge_list
from repro.io.serialize import load_index, save_index
from repro.query import Batch, QueryEngine, parse_query
from repro.utils.rng import random_pairs

EXIT_ERROR = 1
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_SERIALIZATION = 4
EXIT_VERTEX = 5
EXIT_SERVING = 6


@contextlib.contextmanager
def _maybe_trace(trace_path):
    """Install a fresh tracer for the body; dump JSON + text tree on exit.

    With ``trace_path`` falsy this is a no-op, keeping the disabled
    process-default tracer (zero overhead). On success the nested span
    tree is written to ``trace_path`` as JSON and printed as a
    flamegraph-style text tree; on failure no trace file is left behind.
    """
    if not trace_path:
        yield None
        return
    import json

    from repro.observability.tracing import Tracer, scoped_tracer

    tracer = Tracer()
    with scoped_tracer(tracer):
        yield tracer
    with open(trace_path, "w") as handle:
        json.dump(tracer.to_json(), handle, indent=2)
        handle.write("\n")
    print(f"trace: {tracer.span_count()} span(s) written to {trace_path}")
    tree = tracer.format_tree()
    if tree:
        print(tree)


def _cmd_info(args):
    from repro.graph.metrics import graph_summary

    graph, id_map = read_edge_list(args.graph)
    print(f"graph                : {args.graph}")
    print(f"vertices             : {graph.n} (ids compacted from {len(id_map)} originals)")
    for key, value in graph_summary(graph).items():
        if key in ("n",):
            continue
        if isinstance(value, float):
            print(f"{key:21s}: {value:.4f}")
        else:
            print(f"{key:21s}: {value}")
    return 0


def _cmd_build(args):
    import os

    from repro.core.ordering import resolve_ordering
    from repro.io.serialize import WIDE_BITS, save_labels

    if args.resume and args.weighted:
        print("--resume is not supported for weighted builds", file=sys.stderr)
        return 2
    engine = args.engine or "csr"
    if (args.engine is None and not args.weighted
            and resolve_ordering(args.ordering).wants_tree):
        print(f"--ordering {args.ordering} is adaptive; the default csr "
              "engine needs a static ordering, so pass --engine python",
              file=sys.stderr)
        return 2

    with _maybe_trace(args.trace):
        # On failure, never leave a partial/stale artifact behind — but only
        # remove what *this* run created; a pre-existing index stays untouched
        # (saves are atomic, so it is still the old consistent bytes).
        preexisting = os.path.exists(args.index)
        try:
            if args.weighted:
                from repro.graph.io import read_weighted_edge_list
                from repro.weighted.labeling import build_weighted_labels

                graph, _ = read_weighted_edge_list(args.graph)
                print(f"building weighted HP-SPC over {graph.n} vertices / {graph.m} edges...")
                started = time.perf_counter()
                labels = build_weighted_labels(graph, ordering="degree")
                elapsed = time.perf_counter() - started
                # Weighted distances can exceed the 10-bit field: use the wide packing.
                written = save_labels(labels, args.index, bits=WIDE_BITS)
                entries = labels.total_entries()
            else:
                graph, _ = read_edge_list(args.graph)
                checkpoint = None
                if args.resume:
                    from repro.io.checkpoint import BuildCheckpoint

                    checkpoint = BuildCheckpoint(args.index + ".ckpt",
                                                 every=args.checkpoint_every)
                    if os.path.exists(checkpoint.path):
                        print(f"resuming from checkpoint {checkpoint.path}")
                print(f"building HP-SPC over {graph.n} vertices / {graph.m} edges "
                      f"(ordering: {args.ordering}, engine: {engine})...")
                index = SPCIndex.build(graph, ordering=args.ordering,
                                       engine=engine, checkpoint=checkpoint)
                written = save_index(index, args.index, graph=graph)
                elapsed = index.build_seconds
                entries = index.total_entries()
        except BaseException:
            # Covers ReproError, OSError, and hard interrupts (Ctrl-C) alike; a
            # checkpoint file, if any, survives for a later --resume.
            if not preexisting and os.path.exists(args.index):
                with contextlib.suppress(OSError):
                    os.remove(args.index)
                print(f"build failed: removed partial output {args.index}",
                      file=sys.stderr)
            raise
        print(f"built in {elapsed:.2f}s; {entries} entries; "
              f"wrote {written} bytes to {args.index}")
    return 0


def _cmd_query(args):
    index = load_index(args.index, mmap=args.mmap)
    if args.expr is not None:
        return _run_query_expr(args, index)
    pairs = []
    if args.random:
        if not args.graph:
            n = index.n
        else:
            n = read_edge_list(args.graph)[0].n
        pairs = list(random_pairs(n, args.random, rng=args.seed))
    elif args.s is not None and args.t is not None:
        pairs = [(args.s, args.t)]
    else:
        print("query needs either S and T or --random N", file=sys.stderr)
        return 2
    answers = index.count_many(pairs)
    print("     s       t    dist  #shortest-paths")
    for (s, t), (dist, count) in zip(pairs, answers):
        dist_text = str(dist) if count else "inf"
        print(f"{s:6d}  {t:6d}  {dist_text:>6}  {count}")
    return 0


def _run_query_expr(args, index):
    """``repro-spc query INDEX --expr '...'``: the compiled-query front end.

    Parses the compact textual form (docs/QUERYLANG.md), plans it over
    the index (plus the graph's BFS backend when ``--graph`` is
    given), optionally prints the plan, and prints one
    ``statement = answer`` line per statement.
    """
    try:
        node = parse_query(args.expr)
    except QuerySyntaxError as exc:
        print(f"query syntax error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    graph = read_edge_list(args.graph)[0] if args.graph else None
    engine = QueryEngine(index=index, graph=graph)
    if args.explain:
        print(engine.explain(node))
    answer = engine.run(node)
    if isinstance(node, Batch):
        statements, answers = node.queries, answer
    else:
        statements, answers = (node,), (answer,)
    for statement, value in zip(statements, answers):
        print(f"{statement!r} = {value!r}")
    return 0


def _cmd_stats(args):
    index = load_index(args.index)
    for key, value in label_statistics(index.labels).items():
        if isinstance(value, float):
            print(f"{key:22s} {value:.3f}")
        else:
            print(f"{key:22s} {value}")
    return 0


def _cmd_verify(args):
    index = load_index(args.index)
    graph, _ = read_edge_list(args.graph)
    if graph.n != index.n:
        print(f"vertex count mismatch: index {index.n}, graph {graph.n}",
              file=sys.stderr)
        return 1
    labels = index.labels
    validate_structure(labels, graph)
    checked = validate_against_bfs(labels, graph, samples=args.samples,
                                   seed=args.seed)
    print(f"ok: structure valid; {checked} random queries match BFS")
    return 0


def _cmd_bench(args):
    from repro.bench.harness import time_batched_queries, time_queries

    index = load_index(args.index, mmap=args.mmap)
    n = index.n
    pairs = list(random_pairs(n, args.queries, rng=args.seed))
    engines = ("python", "flat") if args.engine == "both" else (args.engine,)
    for engine in engines:
        if engine == "flat":
            timing = time_batched_queries(index.to_flat(), pairs,
                                          repeat=args.repeat)
            print(f"flat   engine: {timing.queries} queries, "
                  f"{timing.seconds_per_query * 1e6:.2f} us/query")
        else:
            timing = time_queries(index, pairs, repeat=args.repeat)
            print(f"python engine: {timing.queries} queries, "
                  f"{timing.seconds_per_query * 1e6:.2f} us/query "
                  f"(p50 {timing.p50_seconds * 1e6:.2f}, "
                  f"p95 {timing.p95_seconds * 1e6:.2f})")
    return 0


def _cmd_serve_smoke(args):
    """Drive a request burst through :class:`SPCService` and report stats.

    Requests come from ``--script`` (lines ``S T``; directives
    ``!corrupt``, ``!restore``, ``!reload``, ``!sleep MS`` drive the
    chaos) or from ``--random N``. Exits 0 when every request ended in a
    terminal status and none hit an unexpected library error.
    """
    with _maybe_trace(args.trace):
        return _run_serve_smoke(args)


def _run_serve_smoke(args):
    """The ``serve-smoke`` body, run under an optional ``--trace`` tracer."""
    from repro.serving import ERROR, SPCService, TERMINAL_STATUSES

    graph, _ = read_edge_list(args.graph)
    deadline = args.deadline_ms / 1000.0 if args.deadline_ms else None
    service = SPCService(
        graph, index_path=args.index, capacity=args.capacity,
        queue_limit=args.queue, default_deadline=deadline,
        failure_threshold=args.breaker_threshold,
        reset_timeout=args.breaker_reset_ms / 1000.0,
        reload_check_every=1, bfs_engine=args.bfs_engine,
    )

    flapper = None
    results = []

    def run_request(s, t):
        result = service.submit(s, t)
        if result.status not in TERMINAL_STATUSES:
            raise AssertionError(f"non-terminal status {result.status!r}")
        results.append(result)

    if args.script:
        from repro.testing.faults import FlappingFile

        with open(args.script) as handle:
            for line_no, line in enumerate(handle, start=1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if line.startswith("!"):
                    directive = line[1:].split()
                    if directive[0] == "corrupt":
                        if flapper is None:
                            flapper = FlappingFile(args.index)
                        flapper.corrupt(*directive[1:2])
                    elif directive[0] == "restore":
                        if flapper is None:
                            print(f"{args.script}:{line_no}: !restore before "
                                  "!corrupt", file=sys.stderr)
                            return EXIT_USAGE
                        flapper.restore()
                    elif directive[0] == "reload":
                        service.check_reload()
                    elif directive[0] == "sleep":
                        time.sleep(float(directive[1]) / 1000.0)
                    else:
                        print(f"{args.script}:{line_no}: unknown directive "
                              f"{line!r}", file=sys.stderr)
                        return EXIT_USAGE
                    continue
                parts = line.split()
                if len(parts) < 2:
                    print(f"{args.script}:{line_no}: expected 'S T'",
                          file=sys.stderr)
                    return EXIT_USAGE
                run_request(int(parts[0]), int(parts[1]))
    else:
        pairs = list(random_pairs(graph.n, args.random, rng=args.seed))
        if args.threads > 1:
            from concurrent.futures import ThreadPoolExecutor

            with ThreadPoolExecutor(max_workers=args.threads) as pool:
                list(pool.map(lambda p: run_request(*p), pairs))
        else:
            for s, t in pairs:
                run_request(s, t)

    stats = service.stats()
    health = service.health()
    print(f"requests      : {len(results)}")
    for status in ("index", "degraded", "shed", "circuit_open", "deadline",
                   "invalid", "error"):
        print(f"{status:14s}: {stats['counters'][status]}")
    print(f"generation    : {stats['generation']}")
    print(f"reloads       : {stats['counters']['reloads']}")
    print(f"serving status: {health['status']}")
    if "breaker" in health:
        print(f"breaker state : {health['breaker']['state']}")
    if results:
        latencies = sorted(r.elapsed for r in results)
        p95 = latencies[min(len(latencies) - 1, int(0.95 * len(latencies)))]
        print(f"p95 latency   : {p95 * 1e3:.2f} ms")
    return 0 if stats["counters"][ERROR] == 0 else EXIT_ERROR


def _run_cluster_drill(service, script, out=sys.stdout):
    """Execute a fault-drill script against a live :class:`ClusterService`.

    Lines are either ``S T`` pair requests (submitted and gathered
    immediately) or ``!`` directives aimed at a worker slot index:

    ``!kill W``          SIGKILL worker ``W``'s current process
    ``!stall W``         SIGSTOP it (silent stall; heartbeats expose it)
    ``!resume W``        SIGCONT a previously stalled process
    ``!drain W``         graceful drain + respawn, waits for the handoff
    ``!reload``          poll the arena file for a new generation
    ``!sleep MS``        wall-clock pause
    ``!wait-healthy [S]``block until every slot serves again (default 10s)

    Returns the list of terminal results; raises ``ValueError`` on a
    malformed line (the caller maps that to a usage exit).
    """
    import os
    import signal

    results = []

    def pid_of(slot):
        workers = service.stats()["workers"]
        if not 0 <= slot < len(workers):
            raise ValueError(f"no worker slot {slot}")
        return workers[slot]["pid"]

    for line_no, raw in enumerate(script.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            if line.startswith("!"):
                directive = line[1:].split()
                name = directive[0]
                if name == "kill":
                    os.kill(pid_of(int(directive[1])), signal.SIGKILL)
                    print(f"drill: killed worker {directive[1]}", file=out)
                elif name == "stall":
                    os.kill(pid_of(int(directive[1])), signal.SIGSTOP)
                    print(f"drill: stalled worker {directive[1]}", file=out)
                elif name == "resume":
                    with contextlib.suppress(ProcessLookupError):
                        os.kill(pid_of(int(directive[1])), signal.SIGCONT)
                    print(f"drill: resumed worker {directive[1]}", file=out)
                elif name == "drain":
                    slot = int(directive[1])
                    ok = service.drain(slot).result(timeout=30)
                    print(f"drill: drained worker {slot} "
                          f"(handoff {'ok' if ok else 'failed'})", file=out)
                elif name == "reload":
                    service.check_reload()
                elif name == "sleep":
                    time.sleep(float(directive[1]) / 1000.0)
                elif name == "wait-healthy":
                    budget = float(directive[1]) if len(directive) > 1 else 10.0
                    deadline = time.monotonic() + budget
                    while time.monotonic() < deadline:
                        workers = service.stats()["workers"]
                        if all(w["alive"] and w["state"] in ("idle", "busy")
                               for w in workers):
                            break
                        time.sleep(0.02)
                    else:
                        raise ValueError(
                            f"cluster not healthy after {budget:.1f}s")
                    print("drill: cluster healthy", file=out)
                else:
                    raise ValueError(f"unknown directive {line!r}")
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ValueError(f"expected 'S T', got {line!r}")
            result = service.submit(int(parts[0]), int(parts[1]))
            print(f"{parts[0]} {parts[1]} -> {result.status}", file=out)
            results.append(result)
        except (ValueError, IndexError) as exc:
            raise ValueError(f"line {line_no}: {exc}") from exc
    return results


def _cmd_serve_cluster(args):
    """Drive a request burst through the multiprocess cluster tier.

    Spawns ``--workers`` processes over one shared-memory SPCF arena,
    routes ``--random`` pair requests through the batching router
    (open-loop, then gathers every future), sprinkles in
    ``single_source`` sweeps when asked, and prints the same terminal
    status breakdown as ``serve-smoke`` plus per-worker memory-sharing
    evidence. ``--script`` switches to drill mode: a fault-injection
    script of ``S T`` requests and ``!kill``/``!stall``/``!drain``/...
    directives exercising the self-healing layer interactively. Exits 0
    when no request ended in an unexpected error.
    """
    from repro.serving import ERROR, TERMINAL_STATUSES
    from repro.serving.cluster import ClusterService

    graph = None
    if args.fallback_graph:
        graph, _ = read_edge_list(args.fallback_graph)
    deadline = args.deadline_ms / 1000.0 if args.deadline_ms else None
    hedge = "auto" if args.hedge_delay_ms is None else (
        args.hedge_delay_ms / 1000.0 if args.hedge_delay_ms > 0 else None)
    with ClusterService(
        args.index, workers=args.workers, max_batch=args.max_batch,
        capacity=args.capacity, queue_limit=args.queue,
        default_deadline=deadline,
        respawn=args.respawn, respawn_backoff=args.respawn_backoff_ms / 1000.0,
        heartbeat_interval=args.heartbeat_ms / 1000.0,
        stall_timeout=args.stall_timeout_ms / 1000.0,
        hedge_delay=hedge, graph=graph,
    ) as service:
        if args.script:
            with open(args.script) as handle:
                script = handle.read()
            try:
                results = _run_cluster_drill(service, script)
            except ValueError as exc:
                print(f"{args.script}: {exc}", file=sys.stderr)
                return EXIT_USAGE
        else:
            pairs = list(random_pairs(service.n, args.random, rng=args.seed))
            futures = [service.submit_nowait(s, t) for s, t in pairs]
            results = [f.result() for f in futures]
        for result in results:
            if result.status not in TERMINAL_STATUSES:
                raise AssertionError(f"non-terminal status {result.status!r}")
        for k in range(args.single_source):
            result = service.single_source(k % service.n)
            results.append(result)
        stats = service.stats()
        print(f"requests      : {len(results)}")
        for status in ("index", "degraded", "shed", "circuit_open",
                       "deadline", "invalid", "error"):
            print(f"{status:14s}: {stats['counters'][status]}")
        print(f"batches       : {stats['counters']['batches']}")
        for counter in ("respawns", "stalls", "hedges", "hedge_wins",
                        "drains", "replays"):
            if stats["counters"].get(counter):
                print(f"{counter:14s}: {stats['counters'][counter]}")
        print(f"generation    : {stats['generation']}")
        print(f"workers       : "
              f"{sum(1 for w in stats['workers'] if w['state'] != 'dead')}"
              f"/{len(stats['workers'])}")
        if results:
            latencies = sorted(r.elapsed for r in results)
            p95 = latencies[min(len(latencies) - 1,
                                int(0.95 * len(latencies)))]
            print(f"p95 latency   : {p95 * 1e3:.2f} ms")
        try:
            for worker in service.worker_stats():
                print(f"worker pid={worker['pid']} "
                      f"rss={worker['rss_kb']} kB "
                      f"arena_rss={worker['map_rss_kb']} kB "
                      f"arena_private_dirty={worker['map_private_dirty_kb']} "
                      f"kB gen={worker['generation']}")
        except ReproError as exc:  # stats are best-effort evidence
            print(f"worker stats unavailable: {exc}", file=sys.stderr)
        return 0 if stats["counters"][ERROR] == 0 else EXIT_ERROR


def _cmd_metrics(args):
    """Exercise build/query/serving on a small graph; dump the registry.

    The library's process-default registry is disabled (zero overhead), so
    a plain dump would be empty. This command installs a fresh enabled
    registry, runs a representative workload — index construction, flat
    batch queries, a burst of :class:`SPCService` requests — over
    ``--graph`` (or a generated scale-free graph), then prints every
    collected metric in the Prometheus text format and/or as JSON.
    """
    import json
    import os
    import tempfile

    from repro.observability.catalog import apply_help
    from repro.observability.metrics import (
        MetricsRegistry,
        render_prometheus,
        scoped_registry,
        snapshot,
    )

    if args.graph:
        graph, _ = read_edge_list(args.graph)
    else:
        from repro.generators.random_graphs import barabasi_albert_graph

        graph = barabasi_albert_graph(args.vertices, 3, seed=args.seed)

    registry = MetricsRegistry()
    with scoped_registry(registry):
        index = SPCIndex.build(graph, ordering="degree", engine=args.engine)
        pairs = list(random_pairs(graph.n, args.queries, rng=args.seed))
        index.count_many(pairs)

        from repro.serving import SPCService

        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "index.bin")
            save_index(index, path, graph=graph)
            service = SPCService(graph, index_path=path, capacity=4)
            for s, t in pairs[:32]:
                service.submit(s, t)

    apply_help(registry)
    if args.format in ("prom", "both"):
        print(render_prometheus(registry), end="")
    if args.format in ("json", "both"):
        print(json.dumps(snapshot(registry), indent=2))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro-spc",
        description="Hub labeling for shortest path counting (SIGMOD 2020).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", help="print statistics of an edge-list graph")
    p.add_argument("graph")
    p.set_defaults(func=_cmd_info)

    p = sub.add_parser("build", help="build an index from an edge list")
    p.add_argument("graph")
    p.add_argument("index")
    p.add_argument("--ordering", default="degree",
                   choices=["degree", "significant-path"])
    p.add_argument("--weighted", action="store_true",
                   help="treat the third edge-list column as edge weights")
    p.add_argument("--engine", default=None, choices=["python", "csr"],
                   help="construction engine: the vectorized rank-batched "
                        "csr kernels (default; static orderings) or the "
                        "scalar python reference (any ordering)")
    p.add_argument("--resume", action="store_true",
                   help="checkpoint progress to INDEX.ckpt and resume from it "
                        "if a previous build was interrupted")
    p.add_argument("--checkpoint-every", type=int, default=200, metavar="K",
                   help="with --resume: save a checkpoint every K hub pushes")
    p.add_argument("--trace", default=None, metavar="FILE",
                   help="record tracing spans during the build; write them as "
                        "JSON to FILE and print the nested span tree")
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("query", help="answer count queries from an index")
    p.add_argument("index")
    p.add_argument("s", nargs="?", type=int, default=None)
    p.add_argument("t", nargs="?", type=int, default=None)
    p.add_argument("--random", type=int, default=0, metavar="N",
                   help="answer N random pairs instead")
    p.add_argument("--expr", default=None, metavar="EXPR",
                   help="compiled-query program, e.g. 'count 0 4; distance "
                        "1 3; topk 3 samples=200' (see docs/QUERYLANG.md)")
    p.add_argument("--explain", action="store_true",
                   help="with --expr: print the planner's backend choice "
                        "per statement before the answers")
    p.add_argument("--graph", default=None,
                   help="graph file (for --random ids; with --expr it also "
                        "unlocks the BFS fallback backend)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mmap", action="store_true",
                   help="memory-map the SPCF index instead of loading it "
                        "into RAM (ignored for --weighted SPCL files)")
    p.set_defaults(func=_cmd_query)

    p = sub.add_parser("stats", help="print label statistics of an index")
    p.add_argument("index")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("verify", help="validate an index against its graph")
    p.add_argument("index")
    p.add_argument("graph")
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("bench", help="time random queries against an index")
    p.add_argument("index")
    p.add_argument("--queries", type=int, default=1000)
    p.add_argument("--repeat", type=int, default=1,
                   help="time the workload this many times, report the best run")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--engine", default="python", choices=["python", "flat", "both"],
                   help="which query engine(s) to time")
    p.add_argument("--mmap", action="store_true",
                   help="memory-map the SPCF index instead of loading it "
                        "into RAM (ignored for --weighted SPCL files)")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("serve-smoke",
                       help="drive a request burst through SPCService")
    p.add_argument("index")
    p.add_argument("graph")
    p.add_argument("--random", type=int, default=200, metavar="N",
                   help="number of random request pairs (default 200)")
    p.add_argument("--script", default=None,
                   help="request script: 'S T' lines plus !corrupt/!restore/"
                        "!reload/!sleep MS directives")
    p.add_argument("--deadline-ms", type=float, default=50.0,
                   help="per-request deadline budget (0 = unlimited)")
    p.add_argument("--capacity", type=int, default=8,
                   help="max concurrently executing requests")
    p.add_argument("--queue", type=int, default=16,
                   help="admission queue slots before shedding")
    p.add_argument("--threads", type=int, default=1,
                   help="driver threads for --random mode")
    p.add_argument("--breaker-threshold", type=int, default=5,
                   help="consecutive fallback failures before the circuit opens")
    p.add_argument("--breaker-reset-ms", type=float, default=500.0,
                   help="open-state cooldown before a half-open probe")
    p.add_argument("--bfs-engine", default="python", choices=["python", "csr"],
                   help="fallback BFS engine")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trace", default=None, metavar="FILE",
                   help="record tracing spans for the burst; write them as "
                        "JSON to FILE and print the nested span tree")
    p.set_defaults(func=_cmd_serve_smoke)

    p = sub.add_parser("serve-cluster",
                       help="drive a request burst through the "
                            "multiprocess shared-memory cluster")
    p.add_argument("index", help="SPCF index file (as written by build)")
    p.add_argument("--workers", type=int, default=2,
                   help="worker processes mapping the shared arena")
    p.add_argument("--max-batch", type=int, default=64,
                   help="max pair requests per worker round-trip")
    p.add_argument("--deadline-ms", type=float, default=50.0,
                   help="per-request deadline budget (0 = unlimited)")
    p.add_argument("--capacity", type=int, default=64,
                   help="admission capacity before the overflow queue")
    p.add_argument("--queue", type=int, default=256,
                   help="admission overflow slots before shedding")
    p.add_argument("--random", type=int, default=500, metavar="N",
                   help="number of random request pairs (default 500)")
    p.add_argument("--single-source", type=int, default=0, metavar="K",
                   help="single-source sweeps to run too")
    p.add_argument("--script", default=None, metavar="FILE",
                   help="fault-drill script: 'S T' requests plus !kill W, "
                        "!stall W, !resume W, !drain W, !reload, !sleep MS "
                        "and !wait-healthy [S] directives (replaces --random)")
    p.add_argument("--no-respawn", dest="respawn", action="store_false",
                   help="fail fast on worker death instead of supervised "
                        "respawn")
    p.add_argument("--respawn-backoff-ms", type=float, default=50.0,
                   help="initial respawn backoff after a worker death")
    p.add_argument("--heartbeat-ms", type=float, default=500.0,
                   help="idle-worker PING interval (0 disables heartbeats)")
    p.add_argument("--stall-timeout-ms", type=float, default=2000.0,
                   help="silence budget before a stalled worker is killed")
    p.add_argument("--hedge-delay-ms", type=float, default=None,
                   help="fixed hedge delay for slow sub-requests "
                        "(default: auto from the p95 latency; 0 disables)")
    p.add_argument("--fallback-graph", default=None, metavar="GRAPH",
                   help="edge-list graph enabling exact BFS answers "
                        "while no worker is live (status 'degraded')")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_serve_cluster)

    p = sub.add_parser("metrics",
                       help="run a small instrumented workload and dump "
                            "build/query/serving metrics")
    p.add_argument("--graph", default=None,
                   help="edge-list graph to exercise (default: generated "
                        "scale-free graph)")
    p.add_argument("--vertices", type=int, default=300, metavar="N",
                   help="size of the generated graph when no --graph is given")
    p.add_argument("--queries", type=int, default=200, metavar="N",
                   help="random query pairs to run through the flat engine")
    p.add_argument("--engine", default="csr", choices=["python", "csr"],
                   help="construction engine to exercise")
    p.add_argument("--format", default="both", choices=["prom", "json", "both"],
                   help="output format: Prometheus text, JSON snapshot, or both")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_metrics)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except GraphParseError as exc:
        print(f"graph parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except VertexError as exc:
        print(f"invalid vertex: {exc}", file=sys.stderr)
        return EXIT_VERTEX
    except SerializationError as exc:
        print(f"index error: {exc}", file=sys.stderr)
        return EXIT_SERIALIZATION
    except ServingError as exc:
        print(f"serving error: {exc}", file=sys.stderr)
        return EXIT_SERVING
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
