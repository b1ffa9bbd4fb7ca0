"""The network serving daemon: HTTP/JSON front-end over the engines.

Everything below this package serves queries *in-process*; this package is
the network boundary that the ROADMAP's "heavy traffic" north-star needs.
It is standard-library only (``http.server``).  There is **one** serving
class; the tiers are configurations of it.

The core (``repro serve``):

* :mod:`~repro.server.protocol` -- the wire format: request validation
  into dataclasses, canonical (byte-stable) JSON response payloads;
* :mod:`~repro.server.coalescer` -- :class:`RequestCoalescer`: concurrent
  top-k requests arriving within a small window are answered by **one**
  call on the server's read backend, with a bounded admission queue
  (full → HTTP 429);
* :mod:`~repro.server.metrics` -- per-endpoint request counters and
  fixed-bucket latency histograms behind one lock;
* :mod:`~repro.server.app` -- :class:`TraceServer` (the transport-free
  core and the only class with ``handle_*`` methods: ``handle_topk`` /
  ``handle_events`` / ``handle_healthz`` / ``handle_stats`` / ...),
  :class:`EngineBackend` (its default read backend: the engine itself,
  under the engine lock) and :func:`build_http_server` (the
  ``ThreadingHTTPServer`` skin the ``repro serve`` CLI runs).

The parts of the multi-process tier (``repro serve --workers N``), which
escapes the GIL by running read-only query workers in their own processes
over shared memory-mapped snapshot generations:

* :mod:`~repro.server.generation` -- :class:`GenerationStore`: the
  single-writer publish / many-reader adopt protocol over immutable
  snapshot directories plus an atomically swapped ``CURRENT`` file;
* :mod:`~repro.server.workers` -- the read process both multi-process
  tiers run (``python -m repro.server.workers``), its length-prefixed JSON
  frames, and ``ReadClient``, the one framed client a parent sends them
  with (``docs/SERVING.md``, "The read process"); a parent holds the
  child itself as a :class:`~repro.cluster.supervisor.ManagedReplica`;
* :mod:`~repro.server.frontend` -- :class:`GenerationPublisher` (the
  publisher: every index-changing flush becomes a generation) and
  :func:`worker_tier`, which pairs it with a one-group
  :class:`~repro.cluster.frontend.ClusterFleet` (the read backend:
  scatter, failover and respawn over the N read processes) for
  ``TraceServer(engine, **worker_tier(engine, workers=N))``.

The networked tier plugs :mod:`repro.cluster.frontend`'s parts into the
same two slots -- the same fleet, one group per shard; ``docs/SERVING.md``
has the table.

The serving contract -- request/response schemas, status codes, the
coalescing and consistency semantics (including which generation a request
can observe) -- is documented in ``docs/SERVING.md``; the
concurrency-equivalence guarantee (daemon responses byte-identical to the
in-process API, in both tiers) is pinned by
``tests/test_server_equivalence.py``.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.server.app": ["EngineBackend", "ServingPart", "TraceServer", "build_http_server"],
        "repro.server.coalescer": ["CoalescerStats", "QueueFullError", "RequestCoalescer"],
        "repro.server.frontend": ["GenerationPublisher", "worker_tier"],
        "repro.server.generation": ["GenerationStore"],
        "repro.server.metrics": ["LatencyHistogram", "ServerMetrics"],
        "repro.server.protocol": [
            "EventsRequest",
            "ProtocolError",
            "TopKRequest",
            "parse_events_request",
            "parse_topk_request",
        ],
    },
)
