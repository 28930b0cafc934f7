#!/usr/bin/env python
"""CI chaos smoke: injected faults must end in typed errors or correct answers.

A fast, deterministic slice of the chaos suite, runnable as a standalone
gate: it builds a small index, then drives the fault matrix end to end —

* truncated / bit-flipped / missing index files must degrade a
  :class:`repro.resilience.ResilientSPCIndex` to BFS fallback whose
  answers still match ground truth;
* a build killed between checkpoints must resume to labels
  entry-for-entry identical to an uninterrupted build.

Exits non-zero on the first violated invariant. Run from the repo root:

    PYTHONPATH=src python tools/ci_chaos_smoke.py
"""

import argparse
import os
import sys
import tempfile


def check(condition, message):
    if not condition:
        print(f"FAIL: {message}", file=sys.stderr)
        sys.exit(1)
    print(f"ok: {message}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--vertices", type=int, default=60,
                        help="graph size for the fault matrix (default 60)")
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)

    from repro.baselines.bfs_counting import spc_all_pairs
    from repro.core.hp_spc import BuildStats, build_labels
    from repro.core.index import SPCIndex
    from repro.exceptions import SerializationError
    from repro.generators.random_graphs import barabasi_albert_graph
    from repro.io.checkpoint import BuildCheckpoint
    from repro.io.serialize import load_labels, save_index
    from repro.resilience import ResilientSPCIndex
    from repro.testing.faults import (
        CrashingCheckpoint,
        SimulatedKill,
        flip_bit,
        truncate_file,
    )

    graph = barabasi_albert_graph(args.vertices, 2, seed=args.seed)
    dist, count = spc_all_pairs(graph)
    probes = [(0, args.vertices - 1), (3, 3), (5, args.vertices // 2)]

    def truth(s, t):
        return (dist[s][t], count[s][t]) if count[s][t] else (float("inf"), 0)

    reference_index = SPCIndex.build(graph)
    reference = reference_index.labels

    def identical(labels):
        return labels.order == reference.order and all(
            labels.canonical(v) == reference.canonical(v)
            and labels.noncanonical(v) == reference.noncanonical(v)
            for v in range(graph.n)
        )

    with tempfile.TemporaryDirectory() as scratch:
        index_path = os.path.join(scratch, "index.bin")
        save_index(reference_index, index_path, graph=graph)

        # 1. Corrupt index files -> typed error recorded, BFS answers correct.
        for name, damage in (
            ("truncation", lambda: truncate_file(index_path, 25)),
            ("bit-flip", lambda: flip_bit(index_path, 100, 3)),
        ):
            save_index(reference_index, index_path, graph=graph)
            damage()
            try:
                load_labels(index_path)
            except SerializationError as exc:
                check(True, f"{name}: loader raised typed error ({exc})")
            else:
                check(False, f"{name}: loader accepted a damaged file")
            resilient = ResilientSPCIndex(graph, index_path=index_path)
            check(resilient.status == "degraded",
                  f"{name}: resilient index degraded instead of crashing")
            check(
                all(resilient.count_with_distance(s, t) == truth(s, t)
                    for s, t in probes),
                f"{name}: BFS fallback answers match ground truth",
            )
            check(resilient.counters["fallback_queries"] == len(probes),
                  f"{name}: fallback counter observed the degradation")

        # 2. Missing index -> degraded but correct.
        resilient = ResilientSPCIndex(
            graph, index_path=os.path.join(scratch, "absent.bin")
        )
        check(resilient.status == "degraded"
              and all(resilient.count_with_distance(s, t) == truth(s, t)
                      for s, t in probes),
              "missing index: degraded with correct answers")

        # 3. Kill between checkpoints -> resume is bit-identical.
        ckpt = os.path.join(scratch, "build.ckpt")
        try:
            build_labels(graph, checkpoint=CrashingCheckpoint(ckpt, every=15))
        except SimulatedKill:
            pass
        check(os.path.exists(ckpt), "kill mid-build: checkpoint survived")
        stats = BuildStats()
        resumed = build_labels(
            graph, stats=stats, checkpoint=BuildCheckpoint(ckpt, every=15)
        )
        check(stats.resumed_pushes == 15, "resume skipped the pushed prefix")
        check(identical(resumed),
              "resumed build is entry-for-entry identical to uninterrupted")

    print("chaos smoke: all invariants hold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
