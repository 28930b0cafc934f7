"""Benchmark plumbing: query/construction timing and plain-text tables.

Timing methodology: every timer here reports the **best of ``repeat``**
runs, not the mean over runs. A run can only be slowed down by noise
(scheduler preemption, cache pollution, GC), never sped up, so the
minimum is the best estimator of the workload's intrinsic cost and it
stabilizes far faster than the mean. Per-query p50/p95 come from the
best run so the percentiles describe latency spread, not machine noise.
"""

import time


def _percentile(sorted_values, q):
    """Linear-interpolated quantile of an ascending list (q in [0, 1])."""
    if not sorted_values:
        return 0.0
    position = (len(sorted_values) - 1) * q
    lo = int(position)
    hi = min(lo + 1, len(sorted_values) - 1)
    fraction = position - lo
    return sorted_values[lo] * (1.0 - fraction) + sorted_values[hi] * fraction


class QueryTiming:
    """Result of a query-timing run.

    Unpacks as the legacy ``(seconds_per_query, queries)`` 2-tuple —
    ``avg, total = time_queries(...)`` keeps working — and additionally
    carries best-of-repeat and percentile detail:

    * ``seconds_per_query`` — best run's total / queries per run
    * ``queries`` — total queries executed (``repeat * len(pairs)``)
    * ``p50_seconds`` / ``p95_seconds`` — per-query latency percentiles
      within the best run (for the batched engine these describe
      run-level variation instead; see :func:`time_batched_queries`)
    * ``repeats`` — number of runs timed
    * ``best_run_seconds`` — wall time of the fastest run
    """

    __slots__ = ("seconds_per_query", "queries", "p50_seconds", "p95_seconds",
                 "repeats", "best_run_seconds")

    def __init__(self, seconds_per_query, queries, p50_seconds, p95_seconds,
                 repeats, best_run_seconds):
        self.seconds_per_query = seconds_per_query
        self.queries = queries
        self.p50_seconds = p50_seconds
        self.p95_seconds = p95_seconds
        self.repeats = repeats
        self.best_run_seconds = best_run_seconds

    def __iter__(self):
        return iter((self.seconds_per_query, self.queries))

    def as_dict(self):
        return {name: getattr(self, name) for name in self.__slots__}

    def __repr__(self):
        return (f"QueryTiming({self.seconds_per_query * 1e6:.2f} us/query, "
                f"p95={self.p95_seconds * 1e6:.2f} us, "
                f"queries={self.queries}, repeats={self.repeats})")


def time_queries(oracle, pairs, repeat=1):
    """Time ``count_with_distance`` per query; best of ``repeat`` runs.

    Each query is clocked individually so the returned
    :class:`QueryTiming` carries per-query p50/p95 from the fastest run
    (the per-call ``perf_counter`` overhead, ~100 ns, is included in all
    figures — negligible against the µs-scale label scans timed here).
    """
    pairs = list(pairs)
    if not pairs:
        raise ValueError("empty query workload")
    query = oracle.count_with_distance
    clock = time.perf_counter
    best_durations = None
    best_total = float("inf")
    for _ in range(repeat):
        durations = []
        for s, t in pairs:
            started = clock()
            query(s, t)
            durations.append(clock() - started)
        run_total = sum(durations)
        if run_total < best_total:
            best_total = run_total
            best_durations = durations
    best_durations.sort()
    return QueryTiming(
        seconds_per_query=best_total / len(pairs),
        queries=repeat * len(pairs),
        p50_seconds=_percentile(best_durations, 0.50),
        p95_seconds=_percentile(best_durations, 0.95),
        repeats=repeat,
        best_run_seconds=best_total,
    )


def time_batched_queries(flat, pairs, repeat=1):
    """Time the flat batched engine; best of ``repeat`` runs.

    The whole workload is answered by one
    :func:`repro.core.batch_query.count_many_arrays` call per run, so
    individual queries cannot be clocked: ``p50_seconds``/``p95_seconds``
    are percentiles of the per-run *average* across runs (run-to-run
    noise), not per-query latency. With ``repeat=1`` all three figures
    coincide.
    """
    import numpy as np

    from repro.core.batch_query import count_many_arrays

    pairs = list(pairs)
    if not pairs:
        raise ValueError("empty query workload")
    sources = np.fromiter((s for s, _ in pairs), dtype=np.int64, count=len(pairs))
    targets = np.fromiter((t for _, t in pairs), dtype=np.int64, count=len(pairs))
    run_averages = []
    for _ in range(repeat):
        started = time.perf_counter()
        count_many_arrays(flat, sources, targets)
        run_averages.append((time.perf_counter() - started) / len(pairs))
    run_averages.sort()
    best_average = run_averages[0]
    return QueryTiming(
        seconds_per_query=best_average,
        queries=repeat * len(pairs),
        p50_seconds=_percentile(run_averages, 0.50),
        p95_seconds=_percentile(run_averages, 0.95),
        repeats=repeat,
        best_run_seconds=best_average * len(pairs),
    )


def compare_engines(index, pairs, repeat=1):
    """Time the python and flat query engines on one workload.

    Returns a dict with per-query seconds for both engines (best of
    ``repeat``), their p95s, and the flat-over-python ``speedup``
    (>1 means the flat engine is faster).
    """
    python_timing = time_queries(index, pairs, repeat=repeat)
    flat_timing = time_batched_queries(index.to_flat(), pairs, repeat=repeat)
    python_avg = python_timing.seconds_per_query
    flat_avg = flat_timing.seconds_per_query
    return {
        "queries": python_timing.queries,
        "python_us_per_query": python_avg * 1e6,
        "python_p95_us": python_timing.p95_seconds * 1e6,
        "flat_us_per_query": flat_avg * 1e6,
        "flat_p95_us": flat_timing.p95_seconds * 1e6,
        "speedup": (python_avg / flat_avg) if flat_avg > 0 else float("inf"),
    }


def _timed_build(graph, engine, ordering, repeat):
    """Best-of-repeat construction; returns ``(result_dict, last_index)``."""
    from repro.core.index import SPCIndex

    if repeat < 1:
        raise ValueError("repeat must be >= 1")
    best_seconds = float("inf")
    index = None
    for _ in range(repeat):
        built = SPCIndex.build(graph, ordering=ordering, collect_stats=True,
                               engine=engine)
        if built.build_seconds < best_seconds:
            best_seconds = built.build_seconds
            index = built
    result = {
        "engine": engine,
        "ordering": ordering,
        "repeats": repeat,
        "seconds": best_seconds,
        "entries": index.total_entries(),
        "build_stats": index.build_stats.as_dict(),
    }
    return result, index


def time_construction(graph, engine="python", ordering="degree", repeat=1):
    """Time index construction; best of ``repeat`` builds.

    Returns a dict with ``engine``/``ordering``/``repeats``,
    the best build's wall ``seconds``, the labeling's ``entries``, and
    the :meth:`~repro.core.hp_spc.BuildStats.as_dict` counters of the
    fastest build (counters are deterministic, so every build agrees).
    """
    result, _ = _timed_build(graph, engine, ordering, repeat)
    return result


def compare_builders(graph, engines=("python", "csr"), ordering="degree",
                     repeat=1, check_identical=True):
    """Time several construction engines on one graph.

    Returns ``{"engines": {name: time_construction-dict}, "speedup",
    "identical"}`` where ``speedup`` is first engine's seconds over the
    last engine's (>1 means the last — conventionally ``csr`` — is
    faster) and ``identical`` reports whether all engines produced
    entry-for-entry equal labelings (``None`` when not checked).
    """
    engines = tuple(engines)
    if not engines:
        raise ValueError("need at least one engine")
    results = {}
    flats = []
    for engine in engines:
        result, index = _timed_build(graph, engine, ordering, repeat)
        results[engine] = result
        if check_identical:
            flats.append(index.to_flat())
    identical = None
    if check_identical:
        identical = all(flats[0].equals(other) for other in flats[1:])
    first_seconds = results[engines[0]]["seconds"]
    last_seconds = results[engines[-1]]["seconds"]
    return {
        "engines": results,
        "speedup": (first_seconds / last_seconds) if last_seconds > 0
        else float("inf"),
        "identical": identical,
    }


def attach_metrics(payload, registry=None):
    """Embed a metric snapshot into a ``BENCH_*.json`` payload dict.

    When the (given or process-global) registry is enabled, sets
    ``payload["metrics"]`` to :func:`repro.observability.metrics.snapshot`
    so recorded bench runs carry the same counters and histograms an
    operator would scrape live. A disabled registry leaves the payload
    untouched — bench scripts can call this unconditionally. Returns the
    payload for chaining.
    """
    from repro.observability.metrics import get_registry, snapshot

    registry = registry if registry is not None else get_registry()
    if registry.enabled:
        payload["metrics"] = snapshot(registry)
    return payload


def format_table(rows, columns, title=None):
    """Render dict rows as an aligned text table (harness stdout format).

    ``columns`` is a list of ``(key, header, format_spec)``; format_spec
    may be ``None`` for plain ``str``.
    """
    headers = [header for _, header, _ in columns]
    rendered = []
    for row in rows:
        cells = []
        for key, _, spec in columns:
            value = row.get(key, "")
            cells.append(format(value, spec) if spec and value != "" else str(value))
        rendered.append(cells)
    widths = [
        max(len(headers[i]), max((len(r[i]) for r in rendered), default=0))
        for i in range(len(columns))
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for cells in rendered:
        lines.append("  ".join(c.ljust(w) for c, w in zip(cells, widths)))
    return "\n".join(lines)


def markdown_table(rows, columns, title=None):
    """Render dict rows as a GitHub-flavored markdown table."""
    lines = []
    if title:
        lines.append(f"### {title}")
        lines.append("")
    lines.append("| " + " | ".join(header for _, header, _ in columns) + " |")
    lines.append("|" + "|".join("---" for _ in columns) + "|")
    for row in rows:
        cells = []
        for key, _, spec in columns:
            value = row.get(key, "")
            cells.append(format(value, spec) if spec and value != "" else str(value))
        lines.append("| " + " | ".join(cells) + " |")
    return "\n".join(lines)
