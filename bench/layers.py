"""Per-layer probes: timed calls from the harness into public functions.

These run in every traced run, after the timed phases, against the run's own
dataset.  Each call is a span in the trace log, named after the module it
enters; metric names are ``<package>.<module>.<what>`` so a row of the
ledger names the code it measures.  The stage timings a *daemon* reports
about itself are read elsewhere (``workloads.daemon_layer_metrics``).
"""

from __future__ import annotations

import socket
from pathlib import Path
from typing import Dict

from repro import TraceQueryEngine
from repro.core.columnar import ColumnarTree
from repro.server import TraceServer, protocol
from repro.server.generation import GenerationStore, SnapshotDelta
from repro.server.workers import recv_frame, send_frame
from repro.service.cache import QueryResultCache
from repro.streaming.ingestor import EventIngestor, StreamingConfig
from repro.streaming.wal import WriteAheadLog
from repro.traces.events import PresenceInstance

from bench import inputs
from bench.trace import TraceLog

#: Calls per micro-probe loop (one span covers the loop; the mean is reported).
LOOP = 2000


def directory_bytes(path: Path) -> int:
    """Total size of the regular files under ``path``."""
    return sum(entry.stat().st_size for entry in path.rglob("*") if entry.is_file())


def probe(ctx, engine: TraceQueryEngine, log: TraceLog, build_s: float) -> Dict[str, float]:
    """Time one call path into each layer; returns the per-layer metrics.

    ``engine`` is the run's read engine and ``build_s`` the (cold) build
    time the workload measured for it; the write-path probes mutate a
    private engine loaded from the stream-less base snapshot and feed it the
    stream batches the ``ingest-mixed`` writer never sends.
    """
    metrics = {"bench.datagen_s": ctx.datagen_s, "core.build_s": build_s}
    metrics.update(read_path(ctx, engine, log))
    metrics.update(write_path(ctx, log))
    return metrics


def read_path(ctx, engine: TraceQueryEngine, log: TraceLog) -> Dict[str, float]:
    """storage.snapshot, core.columnar, service.cache, server edge and framing."""
    snapshot = ctx.scratch("probe-snapshot")
    save_s, _ = log.timed("storage.snapshot.save", lambda: engine.save(snapshot))
    load_s, served = log.timed("storage.snapshot.load", lambda: TraceQueryEngine.load(snapshot))
    compile_s, _ = log.timed(
        "core.columnar.compile", lambda: ColumnarTree.compile(engine.tree, engine.dataset)
    )
    metrics = {
        "storage.snapshot.save_s": save_s,
        "storage.snapshot.load_s": load_s,
        "storage.snapshot.bytes_per_presence": directory_bytes(snapshot)
        / engine.dataset.num_presences,
        "core.compile_s": compile_s,
    }

    entity = engine.dataset.entities[0]
    result = engine.top_k(entity, k=inputs.K)
    payload = {"entity": entity, "k": inputs.K}
    request = protocol.parse_topk_request(payload)
    cache = QueryResultCache(1024)
    cache.put(entity, result.copy())

    def per_call(name: str, call, loops: int = LOOP) -> float:
        """Mean seconds of ``call`` over one spanned loop."""

        def run() -> None:
            for _ in range(loops):
                call()

        return log.timed(name, run)[0] / loops

    metrics["service.cache.lookup_ms"] = (
        per_call("service.cache.get", lambda: cache.get(entity)) * 1e3
    )
    metrics["server.protocol.parse_us"] = (
        per_call("server.protocol.parse", lambda: protocol.parse_topk_request(payload)) * 1e6
    )
    metrics["server.protocol.encode_us"] = (
        per_call(
            "server.protocol.encode",
            lambda: protocol.dumps(protocol.topk_payload(request, [result])),
        )
        * 1e6
    )

    # Transport-free edge on a cache hit: parse, coalescer window, lookup.
    served.configure_query_cache(1024)
    with TraceServer(served) as server:
        server.handle_topk(payload)
        metrics["server.handle_topk_ms"] = (
            log.timed("server.app.handle_topk", lambda: server.handle_topk(payload), repeat=50)[0]
            * 1e3
        )

    reply = {"generation": 1, "results": [protocol.topk_result_payload(result)]}
    left, right = socket.socketpair()
    try:

        def round_trip() -> None:
            send_frame(left, reply)
            recv_frame(right)

        metrics["server.workers.frame_us"] = (
            per_call("server.workers.frame", round_trip, loops=LOOP // 4) * 1e6
        )
    finally:
        left.close()
        right.close()
    return metrics


def write_path(ctx, log: TraceLog) -> Dict[str, float]:
    """streaming.wal, streaming.ingestor, core.columnar.patch, server.generation."""
    _base, stream = ctx.split()
    batches = inputs.event_batches(stream)[-inputs.PROBE_BATCHES :]
    owner = TraceQueryEngine.load(ctx.base_snapshot())
    owner.top_k(owner.dataset.entities[0], k=inputs.K)  # compile once: flushes then patch
    store = GenerationStore(ctx.scratch("probe-store"))
    wal_dir = ctx.scratch("probe-wal")
    publish_s, _ = log.timed("server.generation.publish", lambda: store.publish(owner))
    load_current_s, (generation, reader) = log.timed(
        "server.generation.load_current", store.load_current
    )
    totals = dict.fromkeys(("append", "flush", "patch", "publish_update", "catch_up"), 0.0)
    # fsync on every append: the policy `repro serve --wal` runs with.
    with WriteAheadLog(wal_dir) as wal:
        ingestor = EventIngestor(owner, StreamingConfig(max_batch_events=inputs.EVENT_BATCH))
        for batch in batches:
            events = [PresenceInstance(**event) for event in batch]
            seconds, _ = log.timed(
                "streaming.wal.append", lambda: wal.append(events, ingestor.watermark)
            )
            totals["append"] += seconds
            seconds, report = log.timed(
                "streaming.ingestor.flush", lambda: ingestor.ingest_batch(events)
            )
            totals["flush"] += seconds
            seconds, _ = log.timed("core.columnar.patch", owner.searcher.refresh_compiled)
            totals["patch"] += seconds
            delta = SnapshotDelta(
                events=list(report.appended), cutoff=report.cutoff, compacted=report.compacted
            )
            seconds, _ = log.timed(
                "server.generation.publish_update",
                lambda: store.publish_update(owner, delta=delta),
            )
            totals["publish_update"] += seconds
            seconds, generation = log.timed(
                "server.generation.catch_up", lambda: store.catch_up(reader, generation)
            )
            totals["catch_up"] += seconds
    count = len(batches)
    return {
        "server.generation.publish_ms": publish_s * 1e3,
        "server.generation.load_current_ms": load_current_s * 1e3,
        "streaming.wal.append_ms": totals["append"] / count * 1e3,
        "streaming.wal.bytes_per_event": directory_bytes(wal_dir) / (count * inputs.EVENT_BATCH),
        "streaming.ingestor.flush_ms": totals["flush"] / count * 1e3,
        "core.patch_ms": totals["patch"] / count * 1e3,
        "core.kernel_patches": owner.searcher.kernel_patches,
        "core.kernel_compiles": owner.searcher.kernel_compiles,
        "server.generation.publish_update_ms": totals["publish_update"] / count * 1e3,
        "server.generation.catch_up_ms": totals["catch_up"] / count * 1e3,
    }
