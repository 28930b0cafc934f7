#!/usr/bin/env python
"""Render the committed ``BENCH_*.json`` records into ``docs/PERF.md``.

One page collecting the numbers that matter across the bench suite —
construction wall time, label size (entries and bytes/vertex), query
microbenchmarks, serving latency percentiles, observability overhead —
so a reader gets the repository's current performance story without
spelunking JSON. The rendering is a pure function of the committed
``BENCH_*.json`` files, which makes staleness checkable:

    python tools/perf_report.py           # rewrite docs/PERF.md
    python tools/perf_report.py --check   # exit 1 when PERF.md is stale

CI runs ``--check`` in the lint job (same idiom as
``tools/gen_api_docs.py``): regenerate and commit whenever a bench
record changes.
"""

import argparse
import json
import os
import sys

#: Bench records rendered, in page order. Missing files are skipped with
#: a note, so the report works from any subset.
BENCH_FILES = (
    "BENCH_construction.json",
    "BENCH_ci_smoke.json",
    "BENCH_serving.json",
    "BENCH_observability.json",
    "BENCH_perfbench_ab.json",
)

_HEADER = """\
# Performance

Current bench numbers, rendered from the committed ``BENCH_*.json``
records by ``tools/perf_report.py`` — do not edit by hand; rerun the
generator (CI's lint job fails when this page is stale). Absolute
timings depend on the box that produced the record; the relative
numbers (speedups, bytes/vertex, overhead ratios) are the contract.
"""


def _get(record, *path, default=None):
    for key in path:
        if not isinstance(record, dict) or key not in record:
            return default
        record = record[key]
    return record


def _fmt(value, spec=""):
    if value is None:
        return "—"
    if spec:
        return format(value, spec)
    return str(value)


def _graph_line(record):
    graph = record.get("graph", {})
    if not graph:
        return "unknown graph"
    return (f"{graph.get('family', 'graph')} with n = {graph.get('n', '?')}, "
            f"m = {graph.get('m', '?')}")


def render_construction(record):
    lines = [f"Graph: {_graph_line(record)}.", ""]
    tier = record.get("tier", "smoke")
    if tier == "smoke":
        rows = [
            ("python engine", _get(record, "python_seconds"),
             _get(record, "python_runs")),
            ("csr engine", _get(record, "csr_seconds"),
             _get(record, "csr_runs")),
        ]
        lines += ["| Engine | Median build seconds | Runs |", "|---|---|---|"]
        for name, seconds, runs in rows:
            if seconds is not None:
                runs = ", ".join(_fmt(run, ".2f") for run in runs or ())
                lines.append(f"| {name} | {_fmt(seconds, '.2f')} | "
                             f"{runs or '—'} |")
        lines += [
            "",
            f"csr bit-identical to python: "
            f"{_fmt(record.get('identical'))}; shared build counters match: "
            f"{_fmt(record.get('counters_match'))}; csr speedup over python "
            f"{_fmt(record.get('speedup'), '.2f')}x, the median of "
            f"{_fmt(record.get('rounds'))} paired per-round ratios "
            f"(floor {_fmt(record.get('min_speedup'), '.2f')}x); "
            f"{_fmt(record.get('label_entries'))} label entries.",
        ]
    else:
        lines += [
            f"| Metric | Value |", "|---|---|",
            f"| Tier | {tier} |",
            f"| Engine | {_fmt(record.get('engine'))} |",
            f"| Build seconds | {_fmt(record.get('build_seconds'), '.1f')} "
            f"(budget {_fmt(record.get('max_seconds'))}) |",
            f"| Peak RSS | {_fmt(record.get('peak_rss_mb'), '.0f')} MiB "
            f"(budget {_fmt(record.get('max_rss_mb'))}) |",
            f"| Label entries | {_fmt(record.get('label_entries'))} "
            f"(avg size {_fmt(record.get('avg_label_size'))}) |",
            f"| Label bytes/vertex | "
            f"{_fmt(record.get('label_bytes_per_vertex'))} |",
            f"| Oracle bit-identity (n = "
            f"{_fmt(record.get('oracle_vertices'))}) | "
            f"{_fmt(record.get('oracle_identical'))} |",
            f"| BFS spot-checks | {_fmt(record.get('bfs_samples'))} sources, "
            f"{_fmt(record.get('bfs_mismatches'))} mismatches |",
        ]
    return lines


def render_ci_smoke(record):
    lines = [
        f"Graph: {_graph_line(record)}; "
        f"{_fmt(record.get('queries'))} random query pairs.",
        "",
        "| Metric | Value |", "|---|---|",
        f"| Build seconds | {_fmt(record.get('build_seconds'), '.2f')} |",
        f"| Freeze seconds | {_fmt(record.get('freeze_seconds'), '.3f')} |",
        f"| python engine | "
        f"{_fmt(record.get('python_us_per_query'), '.2f')} µs/query |",
        f"| flat engine | "
        f"{_fmt(record.get('flat_us_per_query'), '.2f')} µs/query |",
        f"| Speedup | {_fmt(record.get('speedup'), '.1f')}x "
        f"(floor {_fmt(record.get('min_speedup'), '.1f')}x) |",
    ]
    query_layer = record.get("query_layer")
    if query_layer:
        overhead = query_layer.get("plan_overhead")
        ceiling = query_layer.get("max_plan_overhead")
        lines += [
            f"| Compiled query layer | "
            f"{_fmt(None if overhead is None else overhead * 100, '+.2f')}% "
            f"over raw count_many "
            f"(ceiling {_fmt(None if ceiling is None else ceiling * 100, '+.0f')}%, "
            f"answers bit-identical: "
            f"{_fmt(query_layer.get('answers_identical'))}) |",
        ]
        cold = query_layer.get("cold_plan_overhead")
        if cold is not None:
            cold_ceiling = query_layer.get("max_cold_plan_overhead")
            lines.append(
                f"| Uncompiled run, planned afresh | {_fmt(cold * 100, '+.2f')}% "
                f"over raw count_many (ceiling "
                f"{_fmt(None if cold_ceiling is None else cold_ceiling * 100, '+.0f')}%) |"
            )
    return lines


def render_serving(record):
    healthy = record.get("healthy", {})
    recovery = record.get("recovery", {})
    overload = record.get("overload", {})
    lines = [
        f"{_fmt(_get(record, 'config', 'vertices'))}-vertex graph, "
        f"{_fmt(_get(record, 'config', 'threads'))} driver thread(s), "
        f"deadline {_fmt(_get(record, 'config', 'deadline_ms'))} ms.",
        "",
        "| Phase | Requests | Outcome | p95 latency |",
        "|---|---|---|---|",
        f"| Healthy | {_fmt(healthy.get('requests'))} | "
        f"{_fmt(healthy.get('served'))} served | "
        f"{_fmt(healthy.get('p95_ms'), '.2f')} ms |",
        f"| Overload burst | {_fmt(overload.get('requests'))} | "
        f"{_fmt(overload.get('shed'))} shed | — |",
        f"| Post-chaos recovery | {_fmt(recovery.get('requests'))} | "
        f"{_fmt(recovery.get('served_index'))} from index | "
        f"{_fmt(recovery.get('p95_ms'), '.2f')} ms |",
    ]
    sustained = record.get("sustained", {})
    if sustained:
        single = sustained.get("single", {})
        cluster = sustained.get("cluster", {})
        memory = cluster.get("worker_memory", [])
        dirty = max((w.get("arena_private_dirty_kb", 0) for w in memory),
                    default=None)
        lines += [
            "",
            "### Sustained throughput: cluster vs single process",
            "",
            f"G(n, p) graph with n = {_fmt(sustained.get('n'))}, "
            f"m = {_fmt(sustained.get('m'))} "
            f"({_fmt(sustained.get('entries'))} label entries); "
            f"{_fmt(_get(sustained, 'config', 'duration'))} s of load per "
            f"side on {_fmt(sustained.get('cpu_count'))} core(s).",
            "",
            "| Tier | QPS | p50 | p95 | p99 |",
            "|---|---|---|---|---|",
            f"| single process ({_fmt(single.get('threads'))} threads) | "
            f"{_fmt(single.get('qps'), ',.0f')} | "
            f"{_fmt(single.get('p50_ms'), '.2f')} ms | "
            f"{_fmt(single.get('p95_ms'), '.2f')} ms | "
            f"{_fmt(single.get('p99_ms'), '.2f')} ms |",
            f"| cluster ({_fmt(cluster.get('workers'))} workers) | "
            f"{_fmt(cluster.get('qps'), ',.0f')} | "
            f"{_fmt(cluster.get('p50_ms'), '.2f')} ms | "
            f"{_fmt(cluster.get('p95_ms'), '.2f')} ms | "
            f"{_fmt(cluster.get('p99_ms'), '.2f')} ms |",
            "",
            f"Speedup {_fmt(cluster.get('speedup'), '.1f')}x from request "
            f"coalescing ({_fmt(cluster.get('served'))} requests in "
            f"{_fmt(cluster.get('batches'))} worker batches); every worker "
            f"maps the label arena copy-on-read shared "
            f"(max Private_Dirty {_fmt(dirty)} kB).",
        ]
    resilience = record.get("resilience", {})
    if resilience:
        tally = resilience.get("tally", {})
        lines += [
            "",
            "### Self-healing under process chaos",
            "",
            f"G(n, p) graph with n = {_fmt(resilience.get('n'))}, "
            f"m = {_fmt(resilience.get('m'))}; "
            f"{_fmt(_get(resilience, 'config', 'duration'))} s burst with "
            f"{_fmt(resilience.get('kills_injected'))} SIGKILLed worker(s), "
            f"one SIGSTOP stall, two workers killed at once and a "
            f"graceful drain.",
            "",
            "| Metric | Value |", "|---|---|",
            f"| Requests | {_fmt(resilience.get('requests'))} "
            f"({_fmt(resilience.get('qps'), ',.0f')} qps) |",
            f"| Availability | "
            f"{_fmt(resilience.get('availability'), '.4f')} |",
            f"| Wrong answers | {_fmt(resilience.get('wrong'))} |",
            f"| Supervised respawns | {_fmt(resilience.get('respawns'))} "
            f"(incl. {_fmt(resilience.get('stalls'))} stall kill(s)) |",
            f"| Hedges / wins | {_fmt(resilience.get('hedges'))} / "
            f"{_fmt(resilience.get('hedge_wins'))} |",
            f"| Degraded (BFS-served) answers | "
            f"{_fmt(tally.get('degraded', 0))} |",
            f"| Replays / drains | {_fmt(resilience.get('replays'))} / "
            f"{_fmt(resilience.get('drains'))} |",
            "",
            f"Status tally: {tally}. Every success was checked bit-exact "
            "against the batch oracle on the same labels.",
        ]
    return lines


def render_observability(record):
    overhead = record.get("overhead", {})
    serving = record.get("serving_overhead", {})
    coverage = record.get("coverage", {})
    return [
        "| Metric | Value |", "|---|---|",
        f"| Instrumented build (n = {_fmt(overhead.get('vertices'))}) | "
        f"{_fmt(overhead.get('enabled_seconds'), '.2f')}s vs "
        f"{_fmt(overhead.get('disabled_seconds'), '.2f')}s bare |",
        f"| Build overhead, median of {_fmt(overhead.get('pairs'))} paired "
        f"ratios | {_fmt(overhead.get('ratio'), '.3f')} "
        f"(budget {_fmt(overhead.get('max_overhead'))}) |",
        f"| Cluster burst of {_fmt(serving.get('burst'))} pairs "
        f"(n = {_fmt(serving.get('vertices'))}) | "
        f"{_fmt(serving.get('enabled_seconds'), '.4f')}s vs "
        f"{_fmt(serving.get('disabled_seconds'), '.4f')}s bare |",
        f"| Serving overhead, median of {_fmt(serving.get('pairs'))} paired "
        f"ratios | {_fmt(serving.get('ratio'), '.3f')} "
        f"(budget {_fmt(serving.get('max_overhead'))}) |",
        f"| Metric families observed | {_fmt(coverage.get('families'))} "
        f"({_fmt(coverage.get('uncatalogued'))} uncatalogued) |",
        f"| Trace spans | {_fmt(coverage.get('spans'))} |",
        f"| Bit-identity under instrumentation | "
        f"{_fmt(record.get('bit_identity'))} |",
    ]


def _median(values):
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2


def render_perfbench_ab(record):
    """The last performance claim: alternating parent/change perfbench
    runs, one row per pair, then the traced stage that moved."""
    claim = record.get("metric", "pairs_per_s")
    pairs = record.get("pairs", [])
    lines = [
        f"{_fmt(record.get('change'))}. Workload `{_fmt(record.get('workload'))}`, "
        f"`--seconds {_fmt(record.get('seconds'))}`, {len(pairs)} pairs of "
        f"runs on fresh seeds, the side that ran first alternating; "
        f"{_fmt(record.get('host'))}.",
        "",
        f"| Seed | First | {claim} parent | {claim} change | Ratio "
        "| latency_p50_ms parent | latency_p50_ms change |",
        "|---|---|---|---|---|---|---|",
    ]
    for pair in pairs:
        before, after = pair["parent"], pair["change"]
        lines.append(
            f"| {pair['seed']} | {pair['first']} | {before[claim]:,.0f} | "
            f"{after[claim]:,.0f} | {after[claim] / before[claim]:.3f} | "
            f"{before['latency_p50_ms']:.3f} | {after['latency_p50_ms']:.3f} |")
    if pairs:
        before = _median([pair["parent"][claim] for pair in pairs])
        after = _median([pair["change"][claim] for pair in pairs])
        wins = sum(pair["change"][claim] > pair["parent"][claim]
                   for pair in pairs)
        lines += ["", f"Median {claim} {before:,.0f} → {after:,.0f} "
                      f"({after / before - 1:+.1%}); the change was higher in "
                      f"{wins} of {len(pairs)} pairs."]
    traced = record.get("traced", {})
    if traced:
        lines += ["", "| Traced stage (`--trace 1`) | Parent | Change |",
                  "|---|---|---|"]
        for name, (before, after) in traced.items():
            lines.append(f"| `{name}` | {_fmt(before)} | {_fmt(after)} |")
    if record.get("stage"):
        lines += ["", f"Stage that moved: {record['stage']}"]
    return lines


_SECTIONS = {
    "BENCH_construction.json": ("Construction", render_construction),
    "BENCH_ci_smoke.json": ("Query engines", render_ci_smoke),
    "BENCH_serving.json": ("Serving", render_serving),
    "BENCH_observability.json": ("Observability overhead",
                                 render_observability),
    "BENCH_perfbench_ab.json": ("Last performance claim (perfbench A/B)",
                                render_perfbench_ab),
}


def render(root="."):
    lines = [_HEADER]
    for name in BENCH_FILES:
        title, renderer = _SECTIONS[name]
        path = os.path.join(root, name)
        lines.append(f"## {title}")
        lines.append("")
        if not os.path.exists(path):
            lines.append(f"*No committed `{name}` record.*")
            lines.append("")
            continue
        with open(path) as handle:
            record = json.load(handle)
        lines.extend(renderer(record))
        lines.append("")
        lines.append(f"Source: [`{name}`](../{name}).")
        lines.append("")
    return "\n".join(lines)


def _write_or_check(path, text, check):
    """Write ``text`` to ``path`` (or, with ``check``, diff against it)."""
    if check:
        try:
            with open(path) as handle:
                current = handle.read()
        except FileNotFoundError:
            print(f"STALE: {path} is missing; run tools/perf_report.py",
                  file=sys.stderr)
            return False
        if current != text:
            print(f"STALE: {path} does not match the committed bench "
                  "records; run tools/perf_report.py", file=sys.stderr)
            return False
        print(f"ok: {path} is up to date")
        return True
    with open(path, "w") as handle:
        handle.write(text)
    print(f"wrote {path} ({len(text.splitlines())} lines)")
    return True


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--check", action="store_true",
                        help="verify docs/PERF.md matches; exit 1 if stale")
    parser.add_argument("--stdout", action="store_true",
                        help="print the page instead of writing it")
    parser.add_argument("--output", default="docs/PERF.md")
    args = parser.parse_args(argv)
    text = render(".")
    if args.stdout:
        sys.stdout.write(text)
        return 0
    return 0 if _write_or_check(args.output, text, args.check) else 1


if __name__ == "__main__":
    sys.exit(main())
