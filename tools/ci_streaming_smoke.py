#!/usr/bin/env python3
"""CI gate: rebuild-behind maintenance must stay exact under streaming churn.

Two tiers, both writing into ``BENCH_streaming.json``:

* **streaming** — sustained insert/delete churn on the 10k-vertex bench
  graph with concurrent query traffic. Every facade answer is checked
  against a BFS oracle on the logical graph, and every generation-stable
  answer served by the fronting :class:`SPCService` is checked against
  the published graph of its own generation. Gates: zero wrong answers,
  zero reload failures, at least one background publish (the service
  generation must actually move), and the observed staleness window under
  the configured SLO.
* **chaos** — a small graph, two legs. *resume*: a
  :class:`~repro.testing.faults.KillDuringRebuild` fault SIGKILLs the
  rebuild worker right after its first checkpoint save; supervision must
  retry and the retry must *resume* from the surviving checkpoint
  (``resumed_pushes > 0``) — all while queries keep being answered
  exactly. *corrupt*: the worker is killed again, and before the retry
  the harness flips a bit in the half-written checkpoint; the worker's
  CRC pre-flight must detect it, discard it, and build fresh — again with
  zero wrong answers. A published index is never trusted untested either
  way: the parent re-reads it through the checksummed loader before
  adopting it.

Run from the repo root:

    PYTHONPATH=src python tools/ci_streaming_smoke.py
    PYTHONPATH=src python tools/ci_streaming_smoke.py \\
        --vertices 1500 --duration 6 --chaos-duration 4
"""

import argparse
import json
import os
import platform
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.dynamic import MaintenanceSLO, run_streaming_scenario  # noqa: E402
from repro.generators.random_graphs import barabasi_albert_graph  # noqa: E402
from repro.testing.faults import KillDuringRebuild, flip_bit  # noqa: E402


def check(condition, message):
    if not condition:
        print(f"FAIL: {message}", file=sys.stderr)
        sys.exit(1)
    print(f"ok: {message}")


def merge_report(output, key, section):
    """Write ``section`` under ``key`` in ``output``, keeping other keys."""
    existing = {}
    if os.path.exists(output):
        try:
            with open(output) as handle:
                existing = json.load(handle)
        except (OSError, ValueError):
            existing = {}
    existing[key] = section
    existing["python"] = platform.python_version()
    existing["platform"] = platform.platform()
    with open(output, "w") as handle:
        json.dump(existing, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {output} [{key}]")


def summarize(report):
    """The slice of a scenario report worth persisting in the bench file."""
    counters = report["controller"]["counters"]
    section = {
        "config": report["config"],
        "elapsed": round(report["elapsed"], 3),
        "mutations": report["mutations"],
        "queries_checked": report["queries"]["total"],
        "served_qps": round(report["queries"]["qps"], 1),
        "overlay_fallbacks": report["queries"]["overlay_fallbacks"],
        "mismatches": len(report["queries"]["mismatches"]),
        "staleness_p50_s": round(report["staleness"]["p50"], 3),
        "staleness_p95_s": round(report["staleness"]["p95"], 3),
        "staleness_max_s": round(report["staleness"]["max"], 3),
        "pending_max": report["staleness"]["pending_max"],
        "publishes": counters["publishes"],
        "rebuild_retries": counters["rebuild_retries"],
        "rebuild_failures": counters["rebuild_failures"],
        "worker_crashes": counters["worker_crashes"],
        "resumed_pushes": counters["resumed_pushes"],
        "checkpoint_discards": counters["checkpoint_discards"],
        "slo_breaches": (counters["slo_staleness_breaches"]
                         + counters["slo_pending_breaches"]),
    }
    if report.get("service") is not None:
        svc = report["service"]
        section["service"] = {
            "generation": svc["generation"],
            "checked": svc["checked"],
            "skipped": svc["skipped"],
            "mismatches": len(svc["mismatches"]),
            "reload_failures": svc["counters"]["reload_failures"],
        }
    return section


def gate_exactness(report, label):
    """The non-negotiable gates every tier shares: nothing wrong, ever."""
    check(not report["errors"], f"{label}: no harness thread failed "
                                f"({report['errors'] or 'clean'})")
    check(report["queries"]["total"] > 0, f"{label}: queries actually ran "
                                          f"({report['queries']['total']})")
    check(not report["queries"]["mismatches"],
          f"{label}: 100% of {report['queries']['total']} facade answers "
          "match the BFS oracle on the logical graph")
    if report.get("service") is not None:
        svc = report["service"]
        check(not svc["mismatches"],
              f"{label}: 100% of {svc['checked']} generation-stable served "
              "answers match their generation's published graph")
        check(svc["counters"]["reload_failures"] == 0,
              f"{label}: zero reload failures")
    check(report["final_exact"] is not False,
          f"{label}: post-drain spot check exact")


def run_streaming(args):
    print(f"== streaming tier: n={args.vertices}, {args.duration:.0f}s of "
          f"churn at {args.rate:.0f} mutations/s ==")
    graph = barabasi_albert_graph(args.vertices, args.degree, seed=args.seed)
    slo = MaintenanceSLO(max_staleness_seconds=args.slo_seconds,
                         max_pending_mutations=args.slo_pending)
    with tempfile.TemporaryDirectory() as workdir:
        report = run_streaming_scenario(
            graph, workdir, duration=args.duration,
            churn_per_second=args.rate,
            delete_fraction=args.delete_fraction,
            query_threads=args.threads, rebuild_threshold=args.threshold,
            slo=slo, engine=args.engine, seed=args.seed,
            task_timeout=args.task_timeout,
            checkpoint_every=args.checkpoint_every,
            query_interval=args.query_interval,
        )

    gate_exactness(report, "streaming")
    counters = report["controller"]["counters"]
    check(counters["publishes"] >= 1,
          f"streaming: background rebuilds published "
          f"({counters['publishes']})")
    check(counters["rebuild_failures"] == 0,
          "streaming: no rebuild cycle exhausted its retries")
    if report.get("service") is not None:
        check(report["service"]["generation"] >= 2,
              f"streaming: the service generation moved "
              f"(gen {report['service']['generation']})")
        check(report["service"]["checked"] > 0,
              f"streaming: served answers were generation-checked "
              f"({report['service']['checked']})")
    check(report["staleness"]["max"] <= args.slo_seconds,
          f"streaming: staleness window {report['staleness']['max']:.2f}s "
          f"within the {args.slo_seconds:.0f}s SLO")
    check(report["mutations"]["inserts"] > 0
          and report["mutations"]["deletes"] > 0,
          f"streaming: churn included both inserts "
          f"({report['mutations']['inserts']}) and deletes "
          f"({report['mutations']['deletes']})")
    return summarize(report)


def run_chaos(args):
    print(f"== chaos tier: n={args.chaos_vertices}, kill the rebuild worker "
          f"mid-build ==")
    graph = barabasi_albert_graph(args.chaos_vertices, args.degree,
                                  seed=args.seed + 1)
    sections = {}

    # Leg A: SIGKILL after the first checkpoint save; the retry must
    # resume from the surviving checkpoint, not restart.
    with tempfile.TemporaryDirectory() as workdir, \
            tempfile.TemporaryDirectory() as markers:
        fault = KillDuringRebuild(markers, after_saves=1, times=1)
        report = run_streaming_scenario(
            graph, workdir, duration=args.chaos_duration,
            churn_per_second=args.rate,
            delete_fraction=args.delete_fraction,
            query_threads=args.threads, rebuild_threshold=6,
            engine="csr", seed=args.seed + 1,
            task_timeout=args.task_timeout, retry_backoff=0.05,
            checkpoint_every=max(10, args.chaos_vertices // 12),
            fault=fault,
        )
    gate_exactness(report, "chaos/resume")
    counters = report["controller"]["counters"]
    check(counters["worker_crashes"] >= 1,
          f"chaos/resume: the kill actually fired "
          f"({counters['worker_crashes']} worker crash)")
    check(counters["rebuild_retries"] >= 1,
          f"chaos/resume: supervision retried "
          f"({counters['rebuild_retries']})")
    check(counters["resumed_pushes"] > 0,
          f"chaos/resume: the retry resumed from the checkpoint "
          f"({counters['resumed_pushes']} pushes skipped)")
    check(counters["publishes"] >= 1,
          f"chaos/resume: a correct index was still published "
          f"({counters['publishes']})")
    sections["resume"] = summarize(report)

    # Leg B: kill again, then corrupt the surviving checkpoint before the
    # retry; the CRC pre-flight must discard it and build fresh.
    corruptions = []

    def corrupt_checkpoint(controller, attempt):
        path = controller.checkpoint_path
        if os.path.exists(path):
            flip_bit(path, 12, 2)
            corruptions.append(attempt)

    with tempfile.TemporaryDirectory() as workdir, \
            tempfile.TemporaryDirectory() as markers:
        fault = KillDuringRebuild(markers, after_saves=1, times=1)
        report = run_streaming_scenario(
            graph, workdir, duration=args.chaos_duration,
            churn_per_second=args.rate,
            delete_fraction=args.delete_fraction,
            query_threads=args.threads, rebuild_threshold=6,
            engine="csr", seed=args.seed + 2,
            task_timeout=args.task_timeout, retry_backoff=0.05,
            checkpoint_every=max(10, args.chaos_vertices // 12),
            fault=fault, before_retry=corrupt_checkpoint,
        )
    gate_exactness(report, "chaos/corrupt")
    counters = report["controller"]["counters"]
    check(counters["worker_crashes"] >= 1,
          f"chaos/corrupt: the kill actually fired "
          f"({counters['worker_crashes']} worker crash)")
    check(corruptions, f"chaos/corrupt: the checkpoint was corrupted "
                       f"before retry {corruptions}")
    check(counters["checkpoint_discards"] >= 1,
          f"chaos/corrupt: the corrupt checkpoint was detected and "
          f"discarded ({counters['checkpoint_discards']})")
    check(counters["publishes"] >= 1,
          f"chaos/corrupt: a correct index was still published "
          f"({counters['publishes']})")
    sections["corrupt"] = summarize(report)
    return sections


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--vertices", type=int, default=10_000,
                        help="streaming-tier graph size (default 10000)")
    parser.add_argument("--degree", type=int, default=2,
                        help="Barabási–Albert attachment parameter")
    parser.add_argument("--duration", type=float, default=60.0,
                        help="seconds of sustained churn (default 60)")
    parser.add_argument("--rate", type=float, default=8.0,
                        help="target mutations per second")
    parser.add_argument("--delete-fraction", type=float, default=0.4)
    parser.add_argument("--threads", type=int, default=2,
                        help="concurrent query threads")
    parser.add_argument("--threshold", type=int, default=32,
                        help="pending mutations triggering a rebuild")
    parser.add_argument("--engine", default="csr",
                        choices=["python", "csr"])
    parser.add_argument("--query-interval", type=float, default=0.2,
                        help="pause between checked queries per thread; the "
                             "10k BFS oracle is expensive enough to starve "
                             "the rebuild worker on small runners otherwise")
    parser.add_argument("--checkpoint-every", type=int, default=2048,
                        help="worker checkpoint cadence (pushes); the chaos "
                             "tier uses its own much smaller cadence")
    parser.add_argument("--slo-seconds", type=float, default=60.0,
                        help="staleness SLO for the streaming tier; covers "
                             "~2 rebuild cycles of the 10k graph on a "
                             "heavily shared CI core")
    parser.add_argument("--slo-pending", type=int, default=1024)
    parser.add_argument("--task-timeout", type=float, default=120.0)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--chaos-vertices", type=int, default=600)
    parser.add_argument("--chaos-duration", type=float, default=6.0)
    parser.add_argument("--skip-chaos", action="store_true")
    parser.add_argument("--skip-streaming", action="store_true")
    parser.add_argument("--output", default="BENCH_streaming.json")
    args = parser.parse_args()

    if not args.skip_streaming:
        merge_report(args.output, "streaming", run_streaming(args))
    if not args.skip_chaos:
        merge_report(args.output, "chaos", run_chaos(args))
    print("streaming smoke: all gates passed")


if __name__ == "__main__":
    main()
