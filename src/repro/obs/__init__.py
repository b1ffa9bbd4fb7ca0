"""Observability layer: spans/traces, Prometheus exposition, slow-query log.

The package is deliberately dependency-free (stdlib only) and owned by no
other subsystem: :mod:`repro.server`, :mod:`repro.core`, and the CLI all
import *from* it, never the other way around.  Two modules:

- :mod:`repro.obs.trace` -- a lightweight span/trace API built around
  explicit context objects (no globals, no thread-locals).  A sampled
  query carries a :class:`~repro.obs.trace.SpanContext` down the call
  stack; unsampled queries carry ``None`` and pay a single ``is None``
  check per instrumentation point.
- :mod:`repro.obs.exposition` -- Prometheus text exposition (format
  0.0.4) rendering plus a strict pure-python parser used by tests and CI
  to validate what ``GET /metrics`` serves.
- :mod:`repro.obs.health` -- the per-node health state machine
  (``live``/``suspect``/``down``/``catching_up``) the cluster tier's
  replica groups report through ``/metrics``.

See ``docs/OBSERVABILITY.md`` for the span taxonomy and metric names.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.obs.exposition": [
            "ExpositionError",
            "MetricFamily",
            "histogram_samples",
            "parse_exposition",
            "render_exposition",
        ],
        "repro.obs.health": ["NodeHealth"],
        "repro.obs.trace": [
            "LATENCY_BUCKETS",
            "ActiveTrace",
            "Span",
            "SpanContext",
            "Tracer",
            "format_trace",
            "histogram_percentile",
            "snapshot_bucket_counts",
        ],
    },
)
