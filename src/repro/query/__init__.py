"""Declarative query compilation over the SPC engines.

Queries are small immutable AST nodes (:class:`Count`,
:class:`Distance`, :class:`PathExists`, :class:`SingleSource`,
:class:`SetToSet`, :class:`Relevance`, :class:`TopKBetweenness`,
composed with :class:`Batch`); a cost-based planner
(:class:`QueryPlanner`) picks the cheapest capable backend per node,
and once per batch for its pair operators — the flat/batched engine
when an index generation is loaded, counting BFS for degraded or
index-less graphs, sampled estimation for large betweenness asks — and
:class:`QueryEngine` executes the plan with a generation-keyed result
cache that invalidates on hot reload. ``parse_query`` turns the compact
textual form (``"count 0 4; distance 1 3"``) into the same AST the
``applications/`` drivers and the serving tier compile to.

See ``docs/QUERYLANG.md`` for the full reference.
"""

from repro.query.ast import (
    Batch,
    Count,
    Distance,
    PAIR_OPS,
    PathExists,
    Query,
    Relevance,
    SetToSet,
    SingleSource,
    TopKBetweenness,
)
from repro.query.backends import (
    Backend,
    BFSBackend,
    FlatBackend,
    OracleBackend,
    ResilientBackend,
)
from repro.query.cache import ResultCache
from repro.query.engine import CompiledQuery, QueryEngine
from repro.query.parser import parse_query, parse_statement
from repro.query.planner import (
    DEFAULT_SAMPLES,
    PairGroup,
    Plan,
    PlanNode,
    QueryPlanner,
)

__all__ = [
    # AST
    "Query", "Count", "Distance", "PathExists", "SingleSource", "SetToSet",
    "Relevance", "TopKBetweenness", "Batch", "PAIR_OPS",
    # engine + planning
    "QueryEngine", "CompiledQuery", "QueryPlanner", "Plan", "PlanNode",
    "PairGroup", "ResultCache", "DEFAULT_SAMPLES",
    # backends
    "Backend", "FlatBackend", "BFSBackend", "OracleBackend",
    "ResilientBackend",
    # textual form
    "parse_query", "parse_statement",
]
