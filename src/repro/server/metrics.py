"""Serving metrics: request counters and latency histograms.

The daemon's ``GET /v1/stats`` endpoint is assembled from three sources --
engine-side runtime stats (cache hit rate, shard sizes, loose-operation
counters), ingest/coalescer counters, and the per-endpoint request metrics
collected here.  This module owns the last kind; ``GET /metrics`` renders
the same histograms in Prometheus exposition format via
:meth:`ServerMetrics.raw_snapshot`.

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
  ``mean_seconds``/``max_seconds``.  (Earlier versions kept edges in
  milliseconds behind a seconds API, a unit seam that made the exposition
  layer convert on every read.)
"""

from __future__ import annotations

import threading
from typing import Dict

from repro.obs.trace import LATENCY_BUCKETS, LatencyHistogram

__all__ = ["LATENCY_BUCKETS", "LatencyHistogram", "ServerMetrics"]


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

    def raw_snapshot(self) -> Dict[str, Dict[str, object]]:
        """Per-endpoint raw aggregates for the Prometheus exposition layer.

        Each entry is :meth:`LatencyHistogram.raw` -- the shape the
        tracer's per-stage aggregates come back in too -- plus the
        endpoint's ``requests`` and ``status`` counters.
        """
        with self._lock:
            return {
                endpoint: {
                    "requests": self._requests[endpoint],
                    "status": dict(self._status[endpoint]),
                    **self._latency[endpoint].raw(),
                }
                for endpoint in sorted(self._requests)
            }
