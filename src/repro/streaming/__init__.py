"""Streaming ingestion and online index maintenance.

The paper's engine (and PR 1/PR 2's serving stack) assumed a dataset that is
built -- or bulk-refreshed -- offline.  This package opens the *online*
workload: a continuous stream of presence events is ingested while the index
stays queryable throughout, with an optional sliding window that expires old
events and retracts their contribution from the index.

Three pieces compose, smallest to largest:

* :class:`SlidingWindow` -- the expiry/compaction *policy* over one engine:
  turns a stream watermark into ``expire_events`` cutoffs and decides when
  accumulated retraction looseness justifies a compaction
  (:mod:`repro.streaming.window`);
* :class:`EventIngestor` -- buffers per-entity event appends and flushes
  them through the engine's bulk-signature pipeline in micro-batches,
  advancing the window at every flush (:mod:`repro.streaming.ingestor`);
* :func:`replay_events` -- drives an event log through an ingestor at a
  target rate with interleaved top-k queries, which is what the ``repro
  stream`` CLI mode runs (:mod:`repro.streaming.replay`);
* :class:`WriteAheadLog` -- a checksummed, segmented durable log the
  ingestor appends every micro-batch to *before* it mutates the engine, so
  a crashed process replays the acknowledged suffix of the stream instead
  of losing it (:mod:`repro.streaming.wal`, ``docs/DURABILITY.md``).

Everything works identically over a :class:`~repro.core.engine.TraceQueryEngine`
and a :class:`~repro.service.sharded.ShardedEngine` -- both expose the same
``add_records`` / ``expire_events`` / ``compact`` maintenance surface; the
sharded engine routes each micro-batch to the owning shards, and either
engine clears its query cache on every flush that changes the index.

The *streaming equivalence guarantee* (pinned by
``tests/test_streaming_equivalence.py``): after any interleaving of ingests,
expiries, and compactions, ``top_k`` results are identical to a from-scratch
engine built over the surviving events with the same configuration and
horizon (see ``docs/ARCHITECTURE.md``).
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.core.engine": ["ExpiryReport"],
        "repro.streaming.ingestor": [
            "EventIngestor",
            "FlushReport",
            "IngestStats",
            "StreamingConfig",
        ],
        "repro.streaming.replay": ["ReplayReport", "read_event_log", "replay_events"],
        "repro.streaming.wal": [
            "ReplaySummary",
            "WalRecord",
            "WalScanReport",
            "WriteAheadLog",
            "replay_into",
            "scan_wal",
        ],
        "repro.streaming.window": ["SlidingWindow", "WindowStats"],
    },
)
