#!/usr/bin/env python3
"""Streaming ingestion: a live index over a continuous detection feed.

WiFi controllers and cell towers deliver detections continuously.  Instead
of rebuilding the MinSigTree -- or even re-signing per event -- the
streaming subsystem (``repro.streaming``) buffers events and flushes them
through the bulk-signature pipeline in micro-batches, while a sliding
window expires detections that have aged out and periodic compaction keeps
the tree's pruning tight.  This example:

1. builds an *empty* engine whose hash range covers the whole stream,
2. replays a generated WiFi detection log through an ``EventIngestor``
   with a 3-day sliding window, serving top-k queries along the way,
3. shows the ingest/expiry/compaction accounting, and
4. cross-checks the streamed index against a from-scratch build over the
   surviving events -- the streaming equivalence guarantee.

Run with ``PYTHONPATH=src python examples/streaming_updates.py``.
"""

import time

from repro import EventIngestor, TraceDataset, TraceQueryEngine
from repro.mobility import generate_wifi_dataset

HORIZON = 24 * 10          # ten days of hourly detections
WINDOW = 24 * 3            # keep the last three days
KNOBS = dict(num_hashes=128, seed=5)


def main() -> None:
    # A recorded detection log, flattened to a time-ordered event stream.
    recorded, _config = generate_wifi_dataset(
        num_devices=300, num_hotspots=150, horizon=HORIZON, mean_detections=30, seed=77
    )
    events = [p for device in recorded.entities for p in recorded.trace(device)]
    events.sort(key=lambda p: (p.start, p.end, p.entity, p.unit))
    print(f"recorded log: {len(events)} detections from {recorded.num_entities} devices")

    # The serving engine starts empty; the explicit horizon fixes the hash
    # range up front so signatures stay comparable across the whole stream.
    live = TraceQueryEngine(
        TraceDataset(recorded.hierarchy, horizon=HORIZON), **KNOBS
    ).build()
    ingestor = EventIngestor(live, max_batch_events=256, window=WINDOW, compact_after=200)

    query_device = events[0].entity
    started = time.perf_counter()
    for index, event in enumerate(ingestor_events(events, ingestor), start=1):
        if index % 2500 == 0 and query_device in live.dataset:
            top = live.top_k(query_device, k=3)
            print(f"  [event {index}] top-3 of {query_device}: "
                  f"{[device for device, _ in top]}")
    ingestor.close()
    elapsed = time.perf_counter() - started

    stats, window = ingestor.stats, ingestor.window.stats
    print(f"\nstreamed {stats.events_flushed} events in {elapsed:.2f}s "
          f"({stats.events_flushed / elapsed:.0f} ev/s) over "
          f"{stats.batches_flushed} micro-batches "
          f"(mean {stats.mean_batch_size:.0f} events/flush, "
          f"{stats.entities_reindexed} device re-signings)")
    print(f"window: {window.expired_records} detections expired, "
          f"{window.entities_removed} devices aged out, "
          f"{window.entities_resigned} re-signed, "
          f"{window.compactions} compactions")
    print(f"live index now holds {live.dataset.num_entities} devices "
          f"({live.tree.num_nodes} nodes)")

    # The equivalence guarantee: a from-scratch build over the surviving
    # events answers every query identically.  (cutoff is None when the
    # stream never outlived the window: everything survives.)
    cutoff = ingestor.window.cutoff or 0
    survivors = [e for e in events if e.end > cutoff]
    scratch_dataset = TraceDataset(recorded.hierarchy, horizon=HORIZON)
    for event in survivors:
        scratch_dataset.add_presence(event)
    scratch = TraceQueryEngine(scratch_dataset, **KNOBS).build()
    checked = list(live.dataset.entities)[:25]
    assert all(
        live.top_k(d, k=5).items == scratch.top_k(d, k=5).items for d in checked
    )
    print(f"streamed index == from-scratch build over the surviving events "
          f"({len(checked)} queries checked)")


def ingestor_events(events, ingestor):
    """Feed events into the ingestor, yielding each one for progress hooks."""
    for event in events:
        ingestor.submit(event)
        yield event


if __name__ == "__main__":
    main()
