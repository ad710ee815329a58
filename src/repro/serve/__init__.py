"""The design-space-exploration service layer (docs/SERVICE.md).

ROADMAP item 3: promote the sweep farm into a queryable shared system.
Three pieces, layered on the result store (:mod:`repro.store`):

* :class:`WorkStealingDispatcher` -- re-exported from
  :mod:`repro.flow.pool`, where it is :class:`ExperimentRunner`'s own
  ``jobs > 1`` pool: long-lived supervised worker processes pulling
  sweep points from per-worker shards and stealing from stragglers;
* :class:`QueryEngine` (:mod:`repro.serve.service`) -- design-space
  queries ("cheapest 5x5 config >= 800 MHz under this traffic")
  answered from the store when every point is present, admission-
  controlled into the farm when not;
* the asyncio HTTP front end (:mod:`repro.serve.http`, ``python -m
  repro serve``) -- ``POST /query``, job polling with progress from the
  ``repro.telemetry.events`` plane, ``GET /healthz`` and a Prometheus
  ``GET /metrics``.
"""

from repro.flow.pool import WorkStealingDispatcher
from repro.serve.service import (
    CircuitBreaker,
    FarmUnavailable,
    QueryEngine,
    QueryError,
    QueryResult,
    QuerySpec,
    core_graph_from_name,
    parse_query,
    topology_from_name,
)

__all__ = [
    "CircuitBreaker",
    "FarmUnavailable",
    "QueryEngine",
    "QueryError",
    "QueryResult",
    "QuerySpec",
    "WorkStealingDispatcher",
    "core_graph_from_name",
    "parse_query",
    "topology_from_name",
]
