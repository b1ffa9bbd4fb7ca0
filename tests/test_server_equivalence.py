"""Concurrency-equivalence of the serving daemon (acceptance criterion).

N client threads issue interleaved ``/v1/topk`` and ``/v1/events`` requests
against a live daemon -- coalescing on, query cache on -- and every response
body must be **byte-identical** to the canonical encoding of the same
operation sequence applied serially to an in-process engine.

Determinism is arranged the way a real deployment gets it, not by luck:

* the run is split into *phases*; within a phase, threads concurrently mix
  event appends (buffered -- the micro-batch is larger than a phase's event
  count, so nothing flushes mid-phase) with top-k queries, which therefore
  all observe the stable pre-phase index -- the daemon's documented
  consistency model (queries see flushed data only);
* a barrier then closes the phase with one explicit flush, and the serial
  reference applies the same events and flush;
* events are partitioned by entity across threads, so each entity's records
  arrive in trace order no matter how threads interleave;
* engines search with the admissible per-level bound, under which results
  are a theorem of the surviving data, independent of update interleaving
  -- the same construction the streaming- and sharded-equivalence suites
  pin.

Runs for the single engine and a 2-shard deployment.
"""

import http.client
import json
import os
import signal
import threading

import pytest

from repro.core.engine import TraceQueryEngine
from repro.server.app import TraceServer, build_http_server
from repro.server.frontend import worker_tier
from repro.server.protocol import dumps, parse_topk_request, topk_payload
from repro.service.sharded import ShardedEngine
from repro.streaming.ingestor import EventIngestor, StreamingConfig
from repro.traces.dataset import TraceDataset
from repro.traces.events import PresenceInstance
from repro.traces.spatial import SpatialHierarchy

NUM_THREADS = 4
NUM_PHASES = 3
HORIZON = 96


def collect_span_names(nodes, names=None):
    """Flatten a trace record's span tree into a set of span names."""
    if names is None:
        names = set()
    for node in nodes:
        names.add(node["name"])
        collect_span_names(node["children"], names)
    return names


def iter_spans(nodes):
    """Depth-first walk over every span node in a trace record."""
    for node in nodes:
        yield node
        yield from iter_spans(node["children"])


def find_span(nodes, name):
    """First span named ``name`` in a depth-first walk, or ``None``."""
    for node in nodes:
        if node["name"] == name:
            return node
        found = find_span(node["children"], name)
        if found is not None:
            return found
    return None


def single_query_traces(tracer):
    """All retained single-query (non-batch) traces, oldest first."""
    return [
        record
        for record in reversed(tracer.recent_snapshot(limit=1_000_000))
        if record["name"] == "request.topk"
        and record["spans"][0]["attributes"].get("batch") is False
    ]


def base_dataset() -> TraceDataset:
    hierarchy = SpatialHierarchy.regular([2, 3])
    dataset = TraceDataset(hierarchy, horizon=HORIZON)
    for index in range(18):
        unit = f"u2_{index % 2}_{index % 3}"
        dataset.add_record(f"seed-{index:02d}", unit, time=(index * 3) % 40, duration=4)
        if index % 3 == 0:
            dataset.add_record(f"seed-{index:02d}", "u2_0_1", time=44, duration=2)
    return dataset


def make_engine(kind: str):
    dataset = base_dataset()
    if kind == "sharded":
        return ShardedEngine(
            dataset,
            num_shards=2,
            num_hashes=32,
            seed=9,
            query_cache_size=64,
        ).build()
    return TraceQueryEngine(
        dataset, num_hashes=32, seed=9, query_cache_size=64
    ).build()


def phase_events(phase: int, thread: int):
    """Thread ``thread``'s disjoint slice of phase ``phase``'s appends.

    Entities are owned by exactly one thread (and new per phase), so the
    per-entity record order is identical however threads interleave.
    """
    events = []
    for number in range(3):
        entity = f"p{phase}-t{thread}-{number}"
        unit = f"u2_{(phase + thread) % 2}_{number % 3}"
        start = 50 + phase * 10 + number
        events.append(PresenceInstance(entity, unit, start, start + 3))
    # Also touch a seed entity this thread owns, so updates hit warm
    # cache entries, not only fresh entities.
    touched = f"seed-{(thread * 5) % 18:02d}"
    events.append(PresenceInstance(touched, "u2_1_2", 60 + phase, 63 + phase))
    return events


def phase_queries(phase: int, thread: int):
    """The top-k queries thread ``thread`` issues during phase ``phase``.

    Overlapping across threads on purpose: identical concurrent queries are
    exactly what the coalescer and the cache must answer consistently.
    """
    queries = [("seed-00", 5), ("seed-07", 3), (f"seed-{(thread * 3) % 18:02d}", 5)]
    if phase > 0:
        queries.append((f"p{phase - 1}-t{thread}-0", 4))
        queries.append((f"p{phase - 1}-t{(thread + 1) % NUM_THREADS}-1", 2))
    return queries


def serial_reference(kind: str):
    """Apply the whole operation sequence serially, in-process.

    Returns ``{(phase, entity, k): canonical response bytes}``.
    """
    engine = make_engine(kind)
    ingestor = EventIngestor(engine, StreamingConfig(max_batch_events=10_000))
    expected = {}
    for phase in range(NUM_PHASES):
        # Queries observe the pre-phase state (appends stay buffered).
        for thread in range(NUM_THREADS):
            for event in phase_events(phase, thread):
                ingestor.submit(event)
        for thread in range(NUM_THREADS):
            for entity, k in phase_queries(phase, thread):
                request = parse_topk_request({"entity": entity, "k": k})
                result = engine.top_k(entity, k=k)
                expected[(phase, entity, k)] = dumps(topk_payload(request, [result]))
        ingestor.flush()
    return expected


@pytest.mark.parametrize("kind", ["single", "sharded"])
def test_daemon_matches_serial_engine_byte_for_byte(kind):
    expected = serial_reference(kind)

    engine = make_engine(kind)
    trace_server = TraceServer(
        engine,
        # The micro-batch far exceeds a phase's appends: nothing flushes
        # until the explicit end-of-phase flush request.
        streaming=StreamingConfig(max_batch_events=10_000),
        coalesce_window=0.005,
        # Sampling every request pins the acceptance criterion that tracing
        # is semantics-free: the byte-comparisons below still hold.
        trace_sample=1.0,
    )
    httpd = build_http_server(trace_server, port=0)
    port = httpd.server_address[1]
    server_thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    server_thread.start()

    def request_bytes(method, path, payload):
        connection = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
        try:
            connection.request(
                method,
                path,
                body=json.dumps(payload),
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            return response.status, response.read()
        finally:
            connection.close()

    observed = {}
    observed_lock = threading.Lock()
    errors = []
    barrier = threading.Barrier(NUM_THREADS)

    def client(thread: int) -> None:
        try:
            for phase in range(NUM_PHASES):
                barrier.wait()
                # Interleave: appends first for even threads, queries first
                # for odd ones, so both orders race in every phase.
                operations = [
                    ("events", phase_events(phase, thread)),
                    ("queries", phase_queries(phase, thread)),
                ]
                if thread % 2:
                    operations.reverse()
                for op, payload in operations:
                    if op == "events":
                        status, _ = request_bytes(
                            "POST",
                            "/v1/events",
                            {
                                "events": [
                                    {
                                        "entity": event.entity,
                                        "unit": event.unit,
                                        "start": event.start,
                                        "end": event.end,
                                    }
                                    for event in payload
                                ]
                            },
                        )
                        assert status == 200
                    else:
                        for entity, k in payload:
                            status, body = request_bytes(
                                "POST", "/v1/topk", {"entity": entity, "k": k}
                            )
                            assert status == 200, body
                            with observed_lock:
                                # Two threads asking the same question in
                                # the same phase must get the same bytes.
                                previous = observed.get((phase, entity, k))
                                assert previous is None or previous == body
                                observed[(phase, entity, k)] = body
                barrier.wait()
                if thread == 0:
                    # One explicit flush closes the phase for everyone.
                    status, _ = request_bytes("POST", "/v1/events", {"flush": True})
                    assert status == 200
                barrier.wait()
        except Exception as exc:  # pragma: no cover - surfaced below
            errors.append(exc)
            barrier.abort()

    threads = [
        threading.Thread(target=client, args=(thread,)) for thread in range(NUM_THREADS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    httpd.shutdown()
    httpd.server_close()
    trace_server.close()
    server_thread.join(timeout=10)

    assert not errors, errors
    assert set(observed) == set(expected)
    for key in expected:
        assert observed[key] == expected[key], f"response diverged for {key}"
    # The run must actually have exercised the machinery it claims to pin.
    stats = trace_server.coalescer.stats
    total_queries = len(
        [query for phase in range(NUM_PHASES) for thread in range(NUM_THREADS)
         for query in phase_queries(phase, thread)]
    )
    assert stats.submitted == total_queries

    # Every sampled query produced a complete trace: root -> coalescer ->
    # engine spans, with the engine stage named by deployment kind.
    counters = trace_server.tracer.counters_snapshot()
    assert counters["started"] == counters["recorded"] == total_queries
    traces = single_query_traces(trace_server.tracer)
    assert len(traces) == total_queries
    for record in traces:
        names = collect_span_names(record["spans"])
        assert {"request.topk", "coalesce.wait", "coalesce.dispatch"} <= names, names
        # Both engines answer a cache hit at the lookup span; a miss runs
        # the kernel (the sharded engine once per shard, then merges).
        assert "cache.lookup" in names, names
        if not find_span(record["spans"], "cache.lookup")["attributes"]["hit"]:
            assert {"kernel.bounds", "kernel.scores", "kernel.merge"} <= names
            if kind == "sharded":
                assert "shard.search" in names, names
    cache = engine.query_cache
    assert cache is not None and cache.stats.lookups > 0


@pytest.mark.parametrize("kind", ["single", "sharded"])
def test_multiprocess_daemon_matches_serial_engine_byte_for_byte(kind, fleet_up):
    """The ``--workers N`` tier answers the same workload byte-identically.

    Same phased workload as the in-process test, but served by a
    :class:`TraceServer` with two query-worker *processes* plugged in: every
    end-of-phase flush publishes a new snapshot generation that the workers
    adopt at a request boundary, so the run crosses ``NUM_PHASES``
    generation publishes.  Midway, one worker is SIGKILLed while queries
    are in flight -- the replica group must answer through the survivor and
    the supervisor respawn the dead worker without a single diverging byte.
    A final batch request exercises the scatter path over the respawned
    fleet.
    """
    expected = serial_reference(kind)

    engine = make_engine(kind)
    frontend = TraceServer(
        engine,
        streaming=StreamingConfig(max_batch_events=10_000),
        coalesce_window=0.005,
        # Sample everything: worker spans must stitch into the frontend
        # trace over the wire without changing a single response byte.
        trace_sample=1.0,
        **worker_tier(engine, workers=2),
    )
    fleet_up(frontend)
    httpd = build_http_server(frontend, port=0)
    port = httpd.server_address[1]
    server_thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    server_thread.start()

    def request_bytes(method, path, payload):
        connection = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
        try:
            connection.request(
                method,
                path,
                body=json.dumps(payload),
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            return response.status, response.read()
        finally:
            connection.close()

    observed = {}
    observed_lock = threading.Lock()
    errors = []
    barrier = threading.Barrier(NUM_THREADS)

    def client(thread: int) -> None:
        try:
            for phase in range(NUM_PHASES):
                barrier.wait()
                if phase == 1 and thread == 0:
                    # Kill one worker mid-run, with the other threads'
                    # queries racing the death: an exchange in flight to
                    # it fails over to the survivor, and the supervisor
                    # brings it back while phase 1 keeps querying.
                    victim = frontend.backend.managed["worker-r0"].pid
                    assert victim is not None
                    os.kill(victim, signal.SIGKILL)
                operations = [
                    ("events", phase_events(phase, thread)),
                    ("queries", phase_queries(phase, thread)),
                ]
                if thread % 2:
                    operations.reverse()
                for op, payload in operations:
                    if op == "events":
                        status, _ = request_bytes(
                            "POST",
                            "/v1/events",
                            {
                                "events": [
                                    {
                                        "entity": event.entity,
                                        "unit": event.unit,
                                        "start": event.start,
                                        "end": event.end,
                                    }
                                    for event in payload
                                ]
                            },
                        )
                        assert status == 200
                    else:
                        for entity, k in payload:
                            status, body = request_bytes(
                                "POST", "/v1/topk", {"entity": entity, "k": k}
                            )
                            assert status == 200, body
                            with observed_lock:
                                previous = observed.get((phase, entity, k))
                                assert previous is None or previous == body
                                observed[(phase, entity, k)] = body
                barrier.wait()
                if thread == 0:
                    status, _ = request_bytes("POST", "/v1/events", {"flush": True})
                    assert status == 200
                barrier.wait()
        except Exception as exc:  # pragma: no cover - surfaced below
            errors.append(exc)
            barrier.abort()

    threads = [
        threading.Thread(target=client, args=(thread,)) for thread in range(NUM_THREADS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=240)

    try:
        assert not errors, errors
        assert set(observed) == set(expected)
        for key in expected:
            assert observed[key] == expected[key], f"response diverged for {key}"

        # Batch form after the final flush: scattered over both workers
        # (one of them the respawned one), against the newest generation.
        assert frontend.backend.supervisor.wait_settled(timeout=60)
        batch_entities = [
            f"p{NUM_PHASES - 1}-t{thread}-0" for thread in range(NUM_THREADS)
        ] + ["seed-00", "seed-07"]
        reference = make_engine(kind)
        ingestor = EventIngestor(reference, StreamingConfig(max_batch_events=10_000))
        for phase in range(NUM_PHASES):
            for thread in range(NUM_THREADS):
                for event in phase_events(phase, thread):
                    ingestor.submit(event)
            ingestor.flush()
        batch_request = parse_topk_request({"entities": batch_entities, "k": 4})
        expected_batch = dumps(
            topk_payload(
                batch_request, reference.top_k_batch(batch_entities, k=4).results
            )
        )
        status, body = request_bytes(
            "POST", "/v1/topk", {"entities": batch_entities, "k": 4}
        )
        assert status == 200, body
        assert body == expected_batch

        # The run really crossed generations and really killed a worker.
        fleet_stats = frontend.backend.stats()["workers"]
        assert fleet_stats["respawns"] >= 1
        # Initial publish + one per (index-changing) phase flush.
        assert frontend.publisher.store.generation == 1 + NUM_PHASES

        # Every sampled single query stitched a full cross-process trace:
        # the frontend half (request/coalescer/worker round-trip) plus the
        # worker half shipped back over the wire and re-based under its
        # ``worker.request`` anchor.
        traces = single_query_traces(frontend.tracer)
        assert len(traces) == len(
            [query for phase in range(NUM_PHASES) for thread in range(NUM_THREADS)
             for query in phase_queries(phase, thread)]
        )
        for record in traces:
            names = collect_span_names(record["spans"])
            assert {"request.topk", "coalesce.wait", "coalesce.dispatch",
                    "worker.request", "worker.topk", "worker.adopt"} <= names, names
            # The worker-side engine records its cache outcome; misses
            # additionally run the kernel stages (sharded: per shard).
            assert "cache.lookup" in names, names
            if kind == "sharded" and not find_span(
                record["spans"], "cache.lookup"
            )["attributes"]["hit"]:
                assert {"shard.search", "kernel.merge"} <= names, names
            worker_root = find_span(record["spans"], "worker.topk")
            assert worker_root["process"] in {"worker-r0", "worker-r1"}
            # The worker half hangs under the worker.request span of the
            # group exchange that produced it (retries and hedges included).
            assert any(
                worker_root in anchor["children"]
                for anchor in iter_spans(record["spans"])
                if anchor["name"] == "worker.request"
            )

        # The batch request was traced too, scattered over both workers
        # (no coalescer involved) -- one worker.topk per entity, since the
        # wire propagates a trace descriptor per request slot.
        batch_traces = [
            trace
            for trace in frontend.tracer.recent_snapshot(limit=1_000_000)
            if trace["spans"][0]["attributes"].get("batch") is True
        ]
        (batch_record,) = batch_traces
        batch_names = collect_span_names(batch_record["spans"])
        assert {"worker.request", "worker.topk"} <= batch_names
        assert "coalesce.wait" not in batch_names
        worker_roots = [
            span for span in iter_spans(batch_record["spans"])
            if span["name"] == "worker.topk"
        ]
        assert len(worker_roots) == len(batch_entities)
    finally:
        httpd.shutdown()
        httpd.server_close()
        frontend.close()
        server_thread.join(timeout=10)


def test_sigkilled_frontend_recovers_byte_identically_by_wal_replay(tmp_path, fleet_up):
    """Crash injection: SIGKILL the frontend *mid-publish*, recover, compare.

    A forked child runs a ``--workers 1`` :class:`TraceServer` over a
    generation store and a write-ahead log, ingesting phased events.  At the
    final phase's publish the child SIGKILLs itself at the worst possible
    instant -- after the flush mutated the engine and wrote its delta
    document, but *before* the ``CURRENT`` pointer swap -- leaving a torn
    publish on disk and an acknowledged flush that exists only in the WAL.

    The parent then recovers exactly as a restarted ``repro serve`` would
    (:func:`recover_engine_from_store` + :func:`replay_wal_into_engine`),
    boots a fresh frontend from the recovered state, waits until its read
    process answers, and every response that process serves must be
    byte-identical to a never-crashed oracle fed the same events.
    """
    from repro.server.generation import GenerationStore
    from repro.server.recovery import recover_engine_from_store, replay_wal_into_engine
    from repro.streaming.wal import WriteAheadLog, scan_wal

    store_root = tmp_path / "store"
    wal_root = tmp_path / "wal"
    pids_path = tmp_path / "worker-pids.json"
    marker_path = tmp_path / "crash-marker"
    crash_phase = NUM_PHASES - 1
    streaming = StreamingConfig(max_batch_events=10_000)

    child = os.fork()
    if child == 0:
        # -------- child: the serving process that will be SIGKILLed --------
        try:
            engine = make_engine("single")
            wal = WriteAheadLog(wal_root)
            frontend = TraceServer(
                engine,
                streaming=streaming,
                wal=wal,
                **worker_tier(engine, workers=1, store_root=store_root),
            )
            pids_path.write_text(json.dumps([r.pid for r in frontend.backend.managed.values()]))

            def killing_swap(document):
                # The delta document is already on disk; dying before the
                # CURRENT swap is the worst-case torn publish.
                marker_path.write_text(str(os.getpid()))
                os.kill(os.getpid(), signal.SIGKILL)

            for phase in range(NUM_PHASES):
                for thread in range(NUM_THREADS):
                    for event in phase_events(phase, thread):
                        frontend.ingestor.submit(event)
                if phase == crash_phase:
                    frontend.publisher.store._swap_current = killing_swap
                frontend.ingestor.flush()
        finally:
            os._exit(1)  # any path that survives the SIGKILL is a failure

    # -------- parent: wait for the crash, then recover --------
    try:
        _, status = os.waitpid(child, 0)
        assert os.WIFSIGNALED(status) and os.WTERMSIG(status) == signal.SIGKILL
        assert marker_path.exists(), "child died before the injected point"

        # The torn publish: the crashed flush's delta document reached the
        # store, but CURRENT still names the previous generation.
        store = GenerationStore(store_root)
        current, _ = store.current()
        assert current == 1 + crash_phase  # initial publish + earlier phases
        assert (store_root / f"delta-{current + 1:06d}.json").exists()

        # The WAL holds every acknowledged flush, including the crashed one.
        report = scan_wal(wal_root)
        assert not report.corrupt
        assert report.total_records == NUM_PHASES

        recovered = recover_engine_from_store(store_root)
        assert recovered is not None
        engine, meta, generation = recovered
        assert generation == current
        assert meta["wal_seq"] == NUM_PHASES - 1
        summary, stream_state = replay_wal_into_engine(
            engine, WriteAheadLog(wal_root), streaming=streaming, meta=meta
        )
        assert summary.records == 1  # exactly the crashed flush replays
        assert summary.last_seq == NUM_PHASES

        # Never-crashed oracle: the same phased ingest, serially.
        oracle = make_engine("single")
        oracle_ingestor = EventIngestor(oracle, streaming)
        for phase in range(NUM_PHASES):
            for thread in range(NUM_THREADS):
                for event in phase_events(phase, thread):
                    oracle_ingestor.submit(event)
            oracle_ingestor.flush()
        assert stream_state == oracle_ingestor.stream_state()

        # Boot a replacement frontend from the recovered state -- the same
        # construction ``repro serve --workers N --store ... --wal ...``
        # performs -- and face it off byte-for-byte against the oracle.
        frontend = TraceServer(
            engine,
            streaming=streaming,
            wal=WriteAheadLog(wal_root),
            stream_state=stream_state,
            **worker_tier(engine, workers=1, store_root=store_root),
        )
        try:
            # The read process, not the owner, must serve the recovered store.
            fleet_up(frontend)
            entities = sorted(oracle.dataset.entities)
            assert sorted(engine.dataset.entities) == entities
            for entity in entities:
                for k in (1, 3, 5):
                    request = parse_topk_request({"entity": entity, "k": k})
                    expected = dumps(
                        topk_payload(request, [oracle.top_k(entity, k=k)])
                    )
                    status_code, payload = frontend.handle_topk(
                        {"entity": entity, "k": k}
                    )
                    assert status_code == 200, payload
                    assert dumps(payload) == expected, (
                        f"recovered frontend diverged for {entity!r} k={k}"
                    )
            assert frontend.handle_stats()[1]["workers"]["owner_queries"] == 0
        finally:
            frontend.close()
    finally:
        # The SIGKILLed child never cleaned up its query worker; reap it.
        if pids_path.exists():
            for pid in json.loads(pids_path.read_text()):
                if pid:
                    try:
                        os.kill(pid, signal.SIGKILL)
                    except ProcessLookupError:
                        pass


# ----------------------------------------------------------------------
# The owner phase: the owner answers until the fleet is up
# ----------------------------------------------------------------------
TIER_KIND = {"workers": "single", "cluster": "sharded"}
SWITCH_BODIES = [
    {"entity": "seed-00", "k": 5},
    {"entity": "seed-07", "k": 3},
    {"entities": ["seed-01", "seed-04", "seed-09", "seed-13"], "k": 4},
]


def process_tier(tier, engine):
    """Two read processes per group: ``--workers 2`` or ``--cluster 2``."""
    if tier == "workers":
        return worker_tier(engine, workers=2)
    from repro.cluster.frontend import cluster_tier

    return cluster_tier(engine, replication=2)


def answer_bytes(server, body):
    status, payload = server.handle_topk(body)
    assert status == 200, payload
    return dumps(payload)


@pytest.mark.parametrize("tier", ["workers", "cluster"])
def test_answers_are_byte_identical_across_the_switch_to_replicas(tier, fleet_up):
    """The owner answers until every replica group is up, the replicas
    after: the same requests read the in-process tier's bytes on both
    sides of the switch, and a first start counts no respawn, no respawn
    storm and no recovery."""
    local = TraceServer(make_engine(TIER_KIND[tier]), coalesce_window=0.0)
    expected = [answer_bytes(local, body) for body in SWITCH_BODIES]
    local.close()

    engine = make_engine(TIER_KIND[tier])
    server = TraceServer(engine, coalesce_window=0.0, **process_tier(tier, engine))
    fleet = server.backend
    try:
        with fleet.supervisor._tending:  # no replica is admitted meanwhile
            assert server.handle_healthz()[1]["reads"] == "owner"
            by_owner = [answer_bytes(server, body) for body in SWITCH_BODIES]
        fleet_up(server)
        by_replicas = [answer_bytes(server, body) for body in SWITCH_BODIES]
        stats = fleet.stats()
    finally:
        server.close()
    assert by_owner == expected
    assert by_replicas == expected
    workers = stats["workers"]
    assert workers["owner_queries"] == 6  # two single queries, one batch of four
    assert workers["requests"] > 0
    assert (workers["respawns"], workers["respawn_storms"]) == (0, 0)
    for group in stats["cluster"]["coordinator"]["groups"]:
        for replica in group["replicas"]:
            assert (replica["state"], replica["recoveries_total"]) == ("live", 0), replica


@pytest.mark.parametrize("tier", ["workers", "cluster"])
def test_a_session_reads_its_writes_across_the_switch(tier, fleet_up):
    """One client session writes and reads while its fleet comes up.

    Every answer is the in-process engine's after the session's flushed
    writes -- the first answer the replicas give included -- and the
    generation an answer observes never goes back: the owner answers at
    the newest published generation of every store, a replica at the
    generation its ``worker.request`` span reports.
    """
    streaming = StreamingConfig(max_batch_events=10_000)
    reference = make_engine(TIER_KIND[tier])
    reference_ingestor = EventIngestor(reference, streaming)
    engine = make_engine(TIER_KIND[tier])
    server = TraceServer(
        engine,
        streaming=streaming,
        coalesce_window=0.0,
        trace_sample=1.0,
        **process_tier(tier, engine),
    )
    fleet = server.backend
    observed = []  # (who answered, {store: generation}), in session order

    def write(index):
        unit = f"u2_{index % 2}_{index % 3}"
        event = PresenceInstance(f"s{index}", unit, 70 + index, 74 + index)
        body = {"entity": event.entity, "unit": event.unit, "start": event.start, "end": event.end}
        assert server.handle_events({"events": [body], "flush": True})[0] == 200
        reference_ingestor.submit(event)
        reference_ingestor.flush()

    def read(entity):
        owner_queries = fleet.stats()["workers"]["owner_queries"]
        request = parse_topk_request({"entity": entity, "k": 4})
        assert answer_bytes(server, {"entity": entity, "k": 4}) == dumps(
            topk_payload(request, [reference.top_k(entity, k=4)])
        )
        record = server.tracer.recent_snapshot(limit=1)[0]
        spans = [span for span in iter_spans(record["spans"]) if span["name"] == "worker.request"]
        if fleet.stats()["workers"]["owner_queries"] > owner_queries:
            assert not spans
            observed.append(("owner", server.publisher.generations()))
        else:
            attributes = [span["attributes"] for span in spans]
            observed.append(
                ("replicas", {entry["shard"]: entry["generation"] for entry in attributes})
            )

    try:
        with fleet.supervisor._tending:  # no replica is admitted meanwhile
            read("seed-00")
            for index in range(2):
                write(index)
                read(f"s{index}")
        fleet_up(server)
        read("s1")  # the first answer from the replicas holds the owner phase's writes
        write(2)
        read("s2")
        read("s0")
    finally:
        server.close()
    assert [who for who, _ in observed] == ["owner"] * 3 + ["replicas"] * 3
    assert observed[3][1] == observed[2][1]
    for (_, earlier), (_, later) in zip(observed, observed[1:]):
        assert set(later) == set(earlier)
        assert all(later[store] >= earlier[store] for store in later), observed
