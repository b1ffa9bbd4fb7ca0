"""Serving metrics: request counters, latency histograms, and ``/metrics``.

The daemon's ``GET /v1/stats`` endpoint is assembled from three sources --
engine-side runtime stats (cache hit rate, shard sizes, loose-operation
counters), ingest/coalescer counters, and the per-endpoint request metrics
collected here by :class:`ServerMetrics`.  ``GET /metrics`` is a pure
function of that body: :func:`metric_families` is the one table of every
exported family -- name, kind, help text, and where in the stats dict its
samples are read -- so each counter is kept once, reported once through
``/v1/stats``, and named for Prometheus in this module only.

Design constraints, in order:

* **correct under concurrency** -- every handler thread of the
  ``ThreadingHTTPServer`` records observations, so all mutation and all
  snapshotting happens under one lock;
* **constant memory** -- latencies go into fixed-boundary histograms
  (:data:`LATENCY_BUCKETS`), never into unbounded lists, so a soak test
  cannot grow the metrics;
* **snapshot, don't expose** -- readers get plain dicts copied under the
  lock (:meth:`ServerMetrics.snapshot`), never live mutable state;
* **one unit end to end** -- everything is **seconds**: ``observe()``
  takes seconds, the bucket edges are in seconds, and snapshots report
  ``total_seconds``/``mean_seconds``/``max_seconds``.  (Earlier versions
  kept edges in milliseconds behind a seconds API, a unit seam that made
  the exposition layer convert on every read.)
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.obs.exposition import MetricFamily, Sample, histogram_samples
from repro.obs.trace import LATENCY_BUCKETS, LatencyHistogram, snapshot_bucket_counts

__all__ = ["LATENCY_BUCKETS", "LatencyHistogram", "ServerMetrics", "metric_families"]

#: A ``GET /v1/stats`` body (as served, or decoded from its JSON).
Stats = Dict[str, Any]


class ServerMetrics:
    """Thread-safe per-endpoint request metrics of one daemon.

    Each endpoint accumulates a request count, a per-status-code breakdown,
    and a latency histogram; :meth:`snapshot` returns the whole structure as
    plain dicts copied under the lock.

    >>> metrics = ServerMetrics()
    >>> metrics.observe("/v1/topk", status=200, seconds=0.003)
    >>> metrics.observe("/v1/topk", status=429, seconds=0.0001)
    >>> snapshot = metrics.snapshot()
    >>> snapshot["/v1/topk"]["requests"], snapshot["/v1/topk"]["status"]["429"]
    (2, 1)
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._requests: Dict[str, int] = {}
        self._status: Dict[str, Dict[str, int]] = {}
        self._latency: Dict[str, LatencyHistogram] = {}

    def observe(self, endpoint: str, status: int, seconds: float) -> None:
        """Record one answered request (any status, including errors)."""
        with self._lock:
            self._requests[endpoint] = self._requests.get(endpoint, 0) + 1
            by_status = self._status.setdefault(endpoint, {})
            key = str(status)
            by_status[key] = by_status.get(key, 0) + 1
            histogram = self._latency.get(endpoint)
            if histogram is None:
                histogram = self._latency[endpoint] = LatencyHistogram()
            histogram.observe(seconds)

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """Per-endpoint ``{requests, status, latency}`` dicts (copied)."""
        with self._lock:
            return {
                endpoint: {
                    "requests": self._requests[endpoint],
                    "status": dict(self._status[endpoint]),
                    "latency": self._latency[endpoint].snapshot(),
                }
                for endpoint in sorted(self._requests)
            }


# ----------------------------------------------------------------------
# GET /metrics: one table over the /v1/stats body
# ----------------------------------------------------------------------
def _dig(stats: Stats, path: Sequence[str]) -> Any:
    """``stats[path[0]][path[1]]...``, or ``None`` once a step is null
    (``engine.cache`` with caching off, a clock before its first tick)."""
    value: Any = stats
    for key in path:
        if value is None:
            return None
        value = value[key]
    return value


def _gauge(*path: str) -> Callable[[Stats], List[Sample]]:
    """One unlabelled sample at ``path``; none when the value is null."""

    def read(stats: Stats) -> List[Sample]:
        value = _dig(stats, path)
        return [] if value is None else [("", {}, float(value))]

    return read


def _keyed(
    label: str, keys: Sequence[str], *path: str, prefix: str = ""
) -> Callable[[Stats], List[Sample]]:
    """One sample per key of the section at ``path``, labelled ``{label: key}``
    and read from ``section[prefix + key]``; none when the section is null."""

    def read(stats: Stats) -> List[Sample]:
        section = _dig(stats, path)
        if section is None:
            return []
        return _labelled(label, ((key, section[prefix + key]) for key in keys))

    return read


def _labelled(label: str, values: Iterable[Tuple[str, object]]) -> List[Sample]:
    return [("", {label: str(key)}, float(value)) for key, value in values]


def _histograms(label: str, snapshots: Dict[str, Dict[str, object]]) -> List[Sample]:
    """The ``_bucket``/``_sum``/``_count`` series of each histogram snapshot,
    in label order."""
    samples: List[Sample] = []
    for key in sorted(snapshots):
        snapshot = snapshots[key]
        samples.extend(
            histogram_samples(
                {label: key},
                snapshot_bucket_counts(snapshot),
                LATENCY_BUCKETS,
                snapshot["total_seconds"],
                snapshot["count"],
            )
        )
    return samples


def _endpoints(stats: Stats) -> List[Tuple[str, Dict[str, object]]]:
    return sorted(stats["endpoints"].items())


def _replicas(stats: Stats) -> Iterable[Tuple[Dict[str, str], str]]:
    """``({shard, replica}, health state)`` per cluster replica, group order."""
    for group in stats["cluster"]["coordinator"]["groups"]:
        for replica in group["replicas"]:
            yield {"shard": group["shard"], "replica": replica["name"]}, replica["state"]


def _cluster_events(stats: Stats) -> List[Sample]:
    """Fleet-wide traffic counters; ``degraded_queries`` counts answers that
    went out explicitly marked degraded -- the metric the degraded-answer
    contract promises."""
    cluster = stats["cluster"]
    coordinator, supervisor = cluster["coordinator"], cluster["supervisor"]
    events = {
        key: sum(group["counters"][key] for group in coordinator["groups"])
        for key in ("requests", "retries", "hedges", "failovers")
    }
    events["degraded_queries"] = coordinator["counters"]["degraded_queries"]
    events["failed_queries"] = coordinator["counters"]["failed_queries"]
    events["respawns"] = sum(supervisor["respawns"].values())
    events["respawn_storms"] = supervisor["respawn_storms"]
    return _labelled("event", events.items())


def _replica_up(stats: Stats) -> List[Sample]:
    return [("", labels, 1.0 if state == "live" else 0.0) for labels, state in _replicas(stats)]


def _replica_state(stats: Stats) -> List[Sample]:
    return [("", {**labels, "state": state}, 1.0) for labels, state in _replicas(stats)]


#: Every exported family, in exposition order: ``(section, name, kind,
#: help, samples)``.  ``section`` is the top-level ``/v1/stats`` key a
#: plugged part contributes (``None``: the server's own); a part's families
#: are emitted only when its section is present.  ``samples(stats)``
#: returns the family's samples -- an empty list when the value is null,
#: which keeps the family's HELP/TYPE lines without samples.
_FAMILIES: Tuple[Tuple[Optional[str], str, str, str, Callable[[Stats], List[Sample]]], ...] = (
    (None, "repro_requests_total", "counter", "HTTP requests answered, by endpoint.",
     lambda stats: _labelled(
         "endpoint", ((endpoint, entry["requests"]) for endpoint, entry in _endpoints(stats))
     )),
    (None, "repro_responses_total", "counter", "HTTP responses, by endpoint and status code.",
     lambda stats: [
         ("", {"endpoint": endpoint, "status": status}, float(count))
         for endpoint, entry in _endpoints(stats)
         for status, count in sorted(entry["status"].items())
     ]),
    (None, "repro_request_latency_seconds", "histogram",
     "End-to-end HTTP request latency, by endpoint.",
     lambda stats: _histograms(
         "endpoint", {endpoint: entry["latency"] for endpoint, entry in _endpoints(stats)}
     )),
    (None, "repro_stage_latency_seconds", "histogram",
     "Span durations of traced requests, by pipeline stage.",
     lambda stats: _histograms("stage", stats["tracing"]["stages"])),
    (None, "repro_traces_total", "counter", "Traces sampled (started) and retained (recorded).",
     _keyed("event", ("started", "recorded"), "tracing")),
    (None, "repro_trace_sample_rate", "gauge",
     "Configured trace sampling rate (0 disables tracing).",
     _gauge("tracing", "sample_rate")),
    (None, "repro_coalescer_queries_total", "counter",
     "Coalescer admission and dispatch counters.",
     _keyed("event", ("submitted", "rejected", "dispatched", "coalesced"), "coalescer")),
    (None, "repro_coalescer_batches_total", "counter", "Coalescer dispatch rounds.",
     _gauge("coalescer", "batches")),
    (None, "repro_ingest_events_total", "counter", "Streamed events, by outcome.",
     _keyed("outcome", ("submitted", "flushed", "dropped_late"), "ingest", prefix="events_")),
    (None, "repro_ingest_buffered_events", "gauge",
     "Events accepted but not yet flushed into the index (ingest lag).",
     _gauge("ingest", "events_buffered")),
    (None, "repro_ingest_last_flush_age_seconds", "gauge",
     "Seconds since the last ingest flush (absent before the first).",
     _gauge("ingest", "seconds_since_last_flush")),
    (None, "repro_cache_entries", "gauge",
     "Query-result cache entries (absent when caching is off).",
     _gauge("engine", "cache", "entries")),
    (None, "repro_cache_events_total", "counter",
     "Query-result cache hits/misses/evictions/invalidations.",
     _keyed("event", ("hits", "misses", "evictions", "invalidations"), "engine", "cache")),
    (None, "repro_cache_hit_rate", "gauge", "Cumulative query-result cache hit rate.",
     _gauge("engine", "cache", "hit_rate")),
    (None, "repro_index_entities", "gauge", "Entities in the served index.",
     _gauge("engine", "entities")),
    (None, "repro_uptime_seconds", "gauge", "Seconds since the server started.",
     _gauge("uptime_seconds")),
    ("workers", "repro_worker_pool_workers", "gauge", "Configured query worker processes.",
     _gauge("workers", "workers")),
    ("workers", "repro_worker_events_total", "counter",
     "Worker pool activity: answered requests, retries after a worker death, respawned "
     "workers, respawn storms (a worker repeatedly dying on startup).",
     _keyed("event", ("requests", "retries", "respawns", "respawn_storms"), "workers")),
    ("generation", "repro_generation_id", "gauge", "Newest published snapshot generation.",
     _gauge("generation")),
    ("generation", "repro_generation_age_seconds", "gauge",
     "Seconds since the last generation publish (absent before the first; a growing age "
     "with buffered ingest events means workers answer from a stale snapshot).",
     _gauge("generation_age_seconds")),
    ("cluster", "repro_cluster_shards", "gauge", "Shard groups in the cluster.",
     _gauge("cluster", "coordinator", "shards")),
    ("cluster", "repro_cluster_replica_up", "gauge",
     "Per-replica liveness (1 = live and serving, 0 = suspect, down, or catching up).",
     _replica_up),
    ("cluster", "repro_cluster_replica_state", "gauge",
     "Per-replica health state (live/suspect/down/catching_up).",
     _replica_state),
    ("cluster", "repro_cluster_events_total", "counter",
     "Cluster activity: shard requests, retries, hedged requests, failovers, degraded "
     "answers (a whole replica group down), failed queries, replica respawns and "
     "respawn storms.",
     _cluster_events),
    ("cluster", "repro_cluster_generation", "gauge",
     "Newest published generation per shard store.",
     lambda stats: _labelled("shard", sorted(stats["cluster"]["generations"].items()))),
)


def metric_families(stats: Stats) -> List[MetricFamily]:
    """The ``GET /metrics`` families of one ``GET /v1/stats`` body.

    A pure function of the (JSON-decodable) body, so a scrape and a stats
    read of the same moment agree by construction, and a client holding
    only the JSON can rebuild the exposition.
    """
    return [
        MetricFamily(name=name, kind=kind, help=help_text, samples=samples(stats))
        for section, name, kind, help_text, samples in _FAMILIES
        if section is None or section in stats
    ]
