"""Declarative catalog of every metric the library registers.

The instrumented modules create metrics lazily at their call sites; this
module is the single authoritative list of what can exist — name, type,
label names and meaning. Three consumers keep it honest:

* ``tools/gen_api_docs.py`` renders :func:`catalog_table` into
  ``docs/METRICS.md`` and fails CI when that file is stale;
* ``tools/ci_observability_smoke.py`` exercises build/query/serving and
  fails when a registered family is missing from the catalog (or a
  required catalog entry never materialised);
* the unit suite cross-checks both directions on a small run.

Keep the list alphabetical by metric name; one :class:`MetricSpec` per
family (label *values* are free-form, label *names* are part of the
contract).
"""

from collections import namedtuple

from repro.observability.metrics import MetricsRegistry

__all__ = ["MetricSpec", "METRICS", "apply_help", "catalog_table",
           "register_all", "missing_from_catalog", "spec_for"]

#: One metric family: ``kind`` is ``counter``/``gauge``/``histogram``,
#: ``labels`` the tuple of label *names* every instance carries.
MetricSpec = namedtuple("MetricSpec", ["name", "kind", "labels", "help"])

METRICS = (
    MetricSpec(
        "spc_batch_query_seconds", "histogram", (),
        "Wall time of one vectorized batch-query call "
        "(count_many_arrays), whatever its batch size.",
    ),
    MetricSpec(
        "spc_breaker_short_circuits_total", "counter", (),
        "Fallback attempts rejected fast because the circuit breaker "
        "was open (or half-open past its probe budget).",
    ),
    MetricSpec(
        "spc_breaker_transitions_total", "counter", ("to",),
        "Circuit-breaker state transitions, labelled by the state "
        "entered (open, half_open, closed).",
    ),
    MetricSpec(
        "spc_build_batch_seconds", "histogram", (),
        "Wall time of one rank batch in the csr engine (shared "
        "frontier sweep plus its in-order merges).",
    ),
    MetricSpec(
        "spc_build_batches_total", "counter", (),
        "Rank batches completed by the csr construction engine.",
    ),
    MetricSpec(
        "spc_build_entries_per_push", "histogram", ("engine",),
        "Label entries emitted by each hub push — the per-push label "
        "growth distribution (root self-entries excluded, matching "
        "BuildStats.label_entries).",
    ),
    MetricSpec(
        "spc_build_label_entries_total", "counter", ("engine",),
        "Label entries emitted by index construction, including "
        "non-canonical entries.",
    ),
    MetricSpec(
        "spc_build_push_seconds", "histogram", ("engine",),
        "Wall time of each hub push: the rank-restricted BFS plus its "
        "pruning joins under the python engine, the push's in-order "
        "merge step under csr (its batch's shared sweep is in "
        "spc_build_batch_seconds) — stragglers show up in the top "
        "buckets.",
    ),
    MetricSpec(
        "spc_build_pushes_total", "counter", ("engine",),
        "Hub pushes completed by index construction.",
    ),
    MetricSpec(
        "spc_build_resumed_pushes_total", "counter", ("engine",),
        "Pushes skipped on a checkpoint resume instead of recomputed.",
    ),
    MetricSpec(
        "spc_build_seconds", "histogram", ("engine",),
        "Whole-build wall time per construction run.",
    ),
    MetricSpec(
        "spc_checkpoint_saves_total", "counter", (),
        "Build checkpoints persisted (rank-watermark saves).",
    ),
    MetricSpec(
        "spc_checkpoint_seconds", "histogram", ("op",),
        "Wall time of checkpoint I/O, labelled save (including the "
        "gather of the prefix into columns) or load.",
    ),
    MetricSpec(
        "spc_cluster_batch_seconds", "histogram", (),
        "Router-observed round-trip of one worker batch (send to reply).",
    ),
    MetricSpec(
        "spc_cluster_batch_size", "histogram", (),
        "Pair requests coalesced into one worker round-trip — batches "
        "grow with load, up to max_batch.",
    ),
    MetricSpec(
        "spc_cluster_batches_total", "counter", (),
        "Worker request round-trips completed: pair batches (router-"
        "coalesced or a caller's submit_many), sweeps and set queries.",
    ),
    MetricSpec(
        "spc_cluster_drains_total", "counter", (),
        "Graceful worker drains completed (stop admitting, flush "
        "in-flight, swap) — rolling restarts count one per worker.",
    ),
    MetricSpec(
        "spc_cluster_generation", "gauge", (),
        "Lowest index generation any live cluster worker is serving "
        "(all workers agree once a rolling reload completes).",
    ),
    MetricSpec(
        "spc_cluster_hedge_wins_total", "counter", (),
        "Hedged duplicates that answered before their primary — tail "
        "latency the sibling replica actually absorbed.",
    ),
    MetricSpec(
        "spc_cluster_hedges_total", "counter", (),
        "Duplicate sub-requests dispatched to a sibling replica because "
        "the primary exceeded its hedge delay.",
    ),
    MetricSpec(
        "spc_cluster_inflight_requests", "gauge", (),
        "Requests admitted to the cluster router and not yet terminal.",
    ),
    MetricSpec(
        "spc_cluster_reloads_total", "counter", ("outcome",),
        "Per-worker arena remaps during rolling reloads, labelled "
        "success or failure (a failed remap keeps the old arena).",
    ),
    MetricSpec(
        "spc_cluster_request_outcomes_total", "counter", ("status",),
        "Cluster requests by terminal status (index, shed, circuit_open, "
        "deadline, invalid, error).",
    ),
    MetricSpec(
        "spc_cluster_request_seconds", "histogram", (),
        "End-to-end latency of one cluster request, admission to "
        "terminal result (includes batching wait).",
    ),
    MetricSpec(
        "spc_cluster_requests_total", "counter", (),
        "Requests entering the cluster front door, whatever their fate.",
    ),
    MetricSpec(
        "spc_cluster_respawn_seconds", "histogram", (),
        "Worker death to replacement HELLO (serving again), "
        "including the supervisor's backoff wait.",
    ),
    MetricSpec(
        "spc_cluster_respawns_total", "counter", (),
        "Worker processes respawned by the router's supervisor.",
    ),
    MetricSpec(
        "spc_cluster_stalls_total", "counter", (),
        "Workers declared stalled (missed heartbeat or batch overran "
        "its stall allowance) and SIGKILLed for respawn.",
    ),
    MetricSpec(
        "spc_cluster_worker_failures_total", "counter", (),
        "Worker processes lost (died or unreachable pipe).",
    ),
    MetricSpec(
        "spc_cluster_workers", "gauge", (),
        "Live worker processes.",
    ),
    MetricSpec(
        "spc_count_overflow_escapes_total", "counter", (),
        "Label columns widened from uint32 to int64 because a "
        "shortest-path count exceeded 2^32-1 — exactness kept, "
        "memory frugality given up.",
    ),
    MetricSpec(
        "spc_dynamic_mutations_total", "counter", ("op",),
        "Edge mutations absorbed by the dynamic facade, labelled insert "
        "or delete (retractions count as the retracting op).",
    ),
    MetricSpec(
        "spc_dynamic_overlay_fallbacks_total", "counter", (),
        "Dynamic-facade queries answered by an exact online BFS because "
        "an overlay term crossed a deleted edge (labels unsound for that "
        "pair until the next rebuild).",
    ),
    MetricSpec(
        "spc_flat_freeze_seconds", "histogram", (),
        "Wall time of freezing a LabelSet into FlatLabels CSR columns.",
    ),
    MetricSpec(
        "spc_index_events_total", "counter", ("kind",),
        "ResilientSPCIndex lifecycle tallies: index_queries, "
        "fallback_queries, load_failures, verify_failures, "
        "query_failures, stale_detections, graph_swaps.",
    ),
    MetricSpec(
        "spc_index_generation", "gauge", (),
        "Monotonic count of successful index (re)loads on the serving "
        "path; bumps make hot swaps visible.",
    ),
    MetricSpec(
        "spc_inflight_requests", "gauge", (),
        "Requests currently executing inside SPCService.",
    ),
    MetricSpec(
        "spc_io_bytes_total", "counter", ("op",),
        "Bytes moved by index (de)serialization, labelled save or load.",
    ),
    MetricSpec(
        "spc_io_seconds", "histogram", ("op",),
        "Wall time of index (de)serialization, labelled save or load.",
    ),
    MetricSpec(
        "spc_label_avg_size", "gauge", ("engine",),
        "Average |L(v)| of the most recently built labeling — the "
        "paper's per-vertex label-size statistic as a live metric.",
    ),
    MetricSpec(
        "spc_label_mmap_bytes_total", "counter", (),
        "Bytes of SPCF flat label files opened memory-mapped instead of "
        "loaded into RAM.",
    ),
    MetricSpec(
        "spc_label_total_entries", "gauge", ("engine",),
        "Total label entries of the most recently built labeling "
        "(the labeling size in the paper's sense).",
    ),
    MetricSpec(
        "spc_maintenance_pending_mutations", "gauge", (),
        "Edge mutations absorbed but not yet covered by a published "
        "rebuild (the overlay patch size rebuild-behind must bound).",
    ),
    MetricSpec(
        "spc_maintenance_publishes_total", "counter", (),
        "Finished background rebuilds adopted and published for serving "
        "(journal prefix folded, tail replayed).",
    ),
    MetricSpec(
        "spc_maintenance_rebuild_retries_total", "counter", (),
        "Background rebuild attempts resubmitted after a worker crash, "
        "typed failure or timeout kill.",
    ),
    MetricSpec(
        "spc_maintenance_rebuild_seconds", "histogram", (),
        "Wall time of one successful background rebuild cycle, worker "
        "fork to atomic publish (retries included).",
    ),
    MetricSpec(
        "spc_maintenance_rebuilds_total", "counter", ("outcome",),
        "Background rebuild attempts by outcome: success, timeout "
        "(killed past task_timeout), crash (died unreported) or error "
        "(typed worker failure).",
    ),
    MetricSpec(
        "spc_maintenance_slo_breaches_total", "counter", ("kind",),
        "Staleness-SLO excursions (counted once per excursion), labelled "
        "staleness (seconds bound) or pending (mutation-count bound).",
    ),
    MetricSpec(
        "spc_maintenance_staleness_seconds", "gauge", (),
        "Age of the oldest mutation not yet covered by a published "
        "rebuild; 0 while the published index matches the logical graph.",
    ),
    MetricSpec(
        "spc_queries_total", "counter", ("engine", "kind"),
        "Queries answered, labelled by engine (flat) and kind (pair, "
        "single_source, set_to_set).",
    ),
    MetricSpec(
        "spc_query_backends_chosen_total", "counter", ("backend",),
        "Execution backends chosen by the query planner, one increment "
        "per query node (a batch's pair group adds its size): flat, bfs, "
        "oracle, sampled+<backend>, brandes or batch.",
    ),
    MetricSpec(
        "spc_query_cache_hits_total", "counter", (),
        "Compiled-query result-cache hits (same index generation and "
        "backend line-up).",
    ),
    MetricSpec(
        "spc_query_cache_misses_total", "counter", (),
        "Compiled-query result-cache misses, including every lookup "
        "after a hot reload or staleness demotion changed the cache "
        "token.",
    ),
    MetricSpec(
        "spc_query_exact_reroutes_total", "counter", (),
        "Pairs the batched join answered with an exact python-int merge "
        "because the store could not rule out int64 overflow for them.",
    ),
    MetricSpec(
        "spc_query_plans_total", "counter", ("operator",),
        "Query plans produced, labelled by the root operator (count, "
        "distance, exists, single_source, set_to_set, relevance, "
        "topk_betweenness, batch).",
    ),
    MetricSpec(
        "spc_query_scan_chunks_total", "counter", (),
        "Label-scan chunks executed by the batched engine (one per "
        "join chunk).",
    ),
    MetricSpec(
        "spc_queued_requests", "gauge", (),
        "Requests waiting in SPCService's bounded admission queue.",
    ),
    MetricSpec(
        "spc_reloads_total", "counter", ("outcome",),
        "Hot index reload attempts, labelled success or failure.",
    ),
    MetricSpec(
        "spc_request_outcomes_total", "counter", ("status",),
        "Terminal request outcomes: index, degraded, shed, circuit_open, "
        "deadline, invalid, error.",
    ),
    MetricSpec(
        "spc_request_seconds", "histogram", (),
        "SPCService request execution latency (slot held; admission "
        "wait excluded).",
    ),
    MetricSpec(
        "spc_requests_total", "counter", (),
        "Requests submitted to SPCService, whatever their outcome.",
    ),
    MetricSpec(
        "spc_serving_degraded", "gauge", (),
        "1 while the resilient index answers from the BFS fallback, "
        "0 while it serves from labels.",
    ),
)

_BY_NAME = {spec.name: spec for spec in METRICS}


def spec_for(name):
    """The :class:`MetricSpec` for ``name``, or ``None`` if uncatalogued."""
    return _BY_NAME.get(name)


def register_all(registry=None):
    """Materialise every catalogued family into ``registry`` (zero-valued).

    Labelled families are instantiated with the placeholder value
    ``"..."`` per label so the family metadata (kind, help, label names)
    is live without faking observations. Returns the registry — callers
    wanting "the full catalog as a live registry" (the doc generator)
    pass a fresh enabled one.
    """
    registry = registry if registry is not None else MetricsRegistry()
    for spec in METRICS:
        labels = {label: "..." for label in spec.labels}
        getattr(registry, spec.kind)(spec.name, help=spec.help, **labels)
    return registry


def apply_help(registry):
    """Backfill catalog help text onto ``registry``'s known families.

    Hot-path call sites register metrics without ``help=`` to stay lean;
    calling this before rendering restores the ``# HELP`` lines for every
    catalogued family the workload actually touched. Returns the registry.
    """
    for spec in METRICS:
        registry.describe(spec.name, spec.help)
    return registry


def missing_from_catalog(registry):
    """Names of families registered in ``registry`` but absent here."""
    return sorted(set(registry.families()) - set(_BY_NAME))


def catalog_table():
    """The catalog as a GitHub-markdown table (rendered into docs)."""
    lines = [
        "| Metric | Type | Labels | Meaning |",
        "|---|---|---|---|",
    ]
    for spec in METRICS:
        labels = ", ".join(f"`{label}`" for label in spec.labels) or "—"
        lines.append(
            f"| `{spec.name}` | {spec.kind} | {labels} | {spec.help} |"
        )
    return "\n".join(lines)
