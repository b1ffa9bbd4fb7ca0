"""Tests for the serving daemon (repro.server): protocol, coalescer,
metrics, the transport-free TraceServer core, the HTTP layer, and the
``repro serve`` CLI error paths."""

import http.client
import json
import math
import re
import socket
import threading
import time
from pathlib import Path

import pytest

from repro.cli import main
from repro.core.engine import TraceQueryEngine
from repro.obs import parse_exposition, render_exposition
from repro.server.app import EngineBackend, TraceServer, build_http_server
from repro.server.coalescer import QueueFullError, RequestCoalescer
from repro.server.generation import GenerationStore
from repro.server.metrics import (
    LATENCY_BUCKETS,
    LatencyHistogram,
    ServerMetrics,
    metric_families,
)
from repro.server.protocol import (
    ProtocolError,
    dumps,
    parse_events_request,
    parse_topk_request,
    topk_result_payload,
)
from repro.server.workers import MAX_ERROR_CHARS, QueryWorker
from repro.service.sharded import ShardedEngine
from repro.streaming.ingestor import StreamingConfig
from repro.traces.dataset import TraceDataset
from repro.traces.events import PresenceInstance
from repro.traces.spatial import SpatialHierarchy


def small_dataset() -> TraceDataset:
    hierarchy = SpatialHierarchy.regular([2, 3])
    dataset = TraceDataset(hierarchy, horizon=48)
    for index in range(12):
        unit = f"u2_{index % 2}_{index % 3}"
        dataset.add_record(f"e{index:02d}", unit, time=(index % 5) * 3, duration=3)
        dataset.add_record(f"e{index:02d}", "u2_0_0", time=30, duration=2)
    return dataset


@pytest.fixture(scope="module")
def engine():
    return TraceQueryEngine(small_dataset(), num_hashes=32, seed=5).build()


# ----------------------------------------------------------------------
# Worker frames: request-shape errors are 400, only a missing entity is 404
# ----------------------------------------------------------------------
class TestQueryWorkerStatuses:
    @pytest.fixture
    def worker(self, engine, tmp_path):
        GenerationStore(tmp_path / "store").publish(engine)
        return QueryWorker(str(tmp_path / "store"), str(tmp_path / "worker.sock"))

    @pytest.mark.parametrize(
        "frame, named",
        [
            ({"op": "topk"}, "entities"),
            ({"op": "topk", "entities": 7}, "int"),
            ({"op": "topk", "entities": ["e00"], "k": "many"}, "many"),
            ({"op": "topk", "entities": ["e00"], "approximation": None}, "NoneType"),
            ({"op": "topk", "entities": ["e00"], "k": 0}, "k must be >= 1"),
            ({"op": "topk", "entities": ["e00"], "approximation": -1}, "approximation"),
            ({"op": "topk", "entities": ["e00"], "approximation": float("nan")}, "nan"),
            ({"op": "topk", "entities": [["e00"]]}, "list of strings"),
            ({"op": "topk", "entities": [{"a": 1}]}, "list of strings"),
            ({"op": "topk", "entities": "e00"}, "list of strings"),
        ],
    )
    def test_request_shape_errors_are_400(self, worker, frame, named):
        reply = worker.handle(frame)
        assert reply["status"] == 400
        assert named in reply["error"]
        assert "unknown entity" not in reply["error"]

    def test_relayed_error_message_is_bounded(self, worker):
        reply = worker.handle({"op": "topk", "entities": ["e00"], "k": "x" * 5000})
        assert reply["status"] == 400
        assert len(reply["error"]) <= MAX_ERROR_CHARS

    def test_only_a_missing_query_entity_is_404(self, worker, engine):
        reply = worker.handle({"op": "topk", "entities": ["e00", "nobody"], "k": 2})
        assert reply == {"error": "unknown entity 'nobody'", "status": 404}
        # ...and the worker keeps answering well-formed frames afterwards.
        reply = worker.handle({"op": "topk", "entities": ["e00"], "k": 2})
        assert reply["results"] == [topk_result_payload(engine.top_k("e00", k=2))]


# ----------------------------------------------------------------------
# Protocol
# ----------------------------------------------------------------------
class TestTopKRequestParsing:
    def test_single_form(self):
        request = parse_topk_request({"entity": "e01", "k": 3, "approximation": 0.5})
        assert request.entities == ["e01"]
        assert request.k == 3
        assert request.approximation == 0.5
        assert not request.batch

    def test_batch_form_defaults(self):
        request = parse_topk_request({"entities": ["a", "b"]})
        assert request.entities == ["a", "b"]
        assert request.k == 10
        assert request.batch

    @pytest.mark.parametrize(
        "payload",
        [
            [],
            "x",
            {},
            {"entity": "a", "entities": ["b"]},
            {"entity": ""},
            {"entity": 7},
            {"entities": []},
            {"entities": "abc"},
            {"entities": ["a", 3]},
            {"entity": "a", "k": 0},
            {"entity": "a", "k": True},
            {"entity": "a", "k": "many"},
            {"entity": "a", "approximation": -0.1},
            {"entity": "a", "approximation": "lots"},
            # json.loads accepts the non-standard NaN/Infinity literals; a
            # NaN slack would defeat every pruning comparison (exhaustive
            # scan per query), Infinity returns arbitrary results.
            {"entity": "a", "approximation": float("nan")},
            {"entity": "a", "approximation": float("inf")},
            {"entity": "a", "unknown_knob": 1},
        ],
    )
    def test_rejects_malformed(self, payload):
        with pytest.raises(ProtocolError) as excinfo:
            parse_topk_request(payload)
        assert excinfo.value.status == 400

    def test_oversized_batch_is_413(self):
        with pytest.raises(ProtocolError) as excinfo:
            parse_topk_request({"entities": ["e"] * 5000})
        assert excinfo.value.status == 413


class TestEventsRequestParsing:
    def test_events_and_flush(self):
        request = parse_events_request(
            {
                "events": [{"entity": "a", "unit": "u", "start": 0, "end": 2}],
                "flush": True,
            }
        )
        assert request.events == [PresenceInstance("a", "u", 0, 2)]
        assert request.flush

    def test_empty_flush_only(self):
        request = parse_events_request({"flush": True})
        assert request.events == []
        assert request.flush

    @pytest.mark.parametrize(
        "payload",
        [
            {"events": "nope"},
            {"events": [{"entity": "a", "unit": "u", "start": 0}]},
            {"events": [{"entity": "a", "unit": "u", "start": 0, "end": 0}]},
            {"events": [{"entity": "a", "unit": "u", "start": -1, "end": 2}]},
            {"events": [{"entity": "a", "unit": "u", "start": "x", "end": 2}]},
            {"events": [{"entity": "", "unit": "u", "start": 0, "end": 2}]},
            {"events": [{"entity": "a", "unit": "u", "start": 0, "end": 2, "extra": 1}]},
            {"events": [], "flush": "yes"},
            {"events": [], "extra": True},
        ],
    )
    def test_rejects_malformed(self, payload):
        with pytest.raises(ProtocolError):
            parse_events_request(payload)


class TestPayloads:
    def test_dumps_is_canonical(self):
        assert dumps({"b": 1, "a": 2}) == b'{"a":2,"b":1}\n'

    def test_topk_result_payload_shape(self, engine):
        payload = topk_result_payload(engine.top_k("e00", k=2))
        assert payload["query"] == "e00"
        assert all(set(row) == {"entity", "score"} for row in payload["results"])
        assert {"entities_scored", "population"} <= set(payload["stats"])


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
class TestMetrics:
    def test_histogram_buckets_are_le_semantics(self):
        histogram = LatencyHistogram()
        histogram.observe(0.0004)  # 0.4 ms -> first bucket (<= 0.0005 s)
        histogram.observe(0.001)   # exactly 1 ms -> le_0.001
        histogram.observe(99.0)    # far beyond the last edge -> le_inf
        snapshot = histogram.snapshot()
        assert snapshot["count"] == 3
        assert snapshot["buckets"]["le_0.0005"] == 1
        assert snapshot["buckets"]["le_0.001"] == 1
        assert snapshot["buckets"]["le_inf"] == 1
        assert snapshot["max_seconds"] == pytest.approx(99.0)
        assert len(snapshot["buckets"]) == len(LATENCY_BUCKETS) + 1
        # Every edge: an observation equal to it is the last one its bucket
        # admits (first edge with seconds <= edge), the next float up
        # already belongs to the following bucket.
        for index, edge in enumerate(LATENCY_BUCKETS):
            for seconds, expected in ((edge, index), (math.nextafter(edge, math.inf), index + 1)):
                histogram = LatencyHistogram()
                histogram.observe(seconds)
                assert histogram.bucket_counts.index(1) == expected, (seconds, expected)

    def test_four_millisecond_observation_lands_in_the_5ms_bucket(self):
        # Regression for the ms/seconds unit seam: observe() takes seconds
        # and the edges are seconds, so 4 ms must land in the le_0.005
        # bucket (index 3), not be misread as 0.004 "ms" or 4 "seconds".
        histogram = LatencyHistogram()
        histogram.observe(0.004)
        assert histogram.bucket_counts[3] == 1
        assert LATENCY_BUCKETS[3] == 0.005
        snapshot = histogram.snapshot()
        assert snapshot["buckets"]["le_0.005"] == 1
        assert snapshot["buckets"]["le_0.002"] == 0
        assert sum(histogram.bucket_counts) == 1

    def test_server_metrics_aggregates_by_endpoint_and_status(self):
        metrics = ServerMetrics()
        metrics.observe("/v1/topk", status=200, seconds=0.001)
        metrics.observe("/v1/topk", status=404, seconds=0.001)
        metrics.observe("/v1/healthz", status=200, seconds=0.0001)
        snapshot = metrics.snapshot()
        assert snapshot["/v1/topk"]["requests"] == 2
        assert snapshot["/v1/topk"]["status"] == {"200": 1, "404": 1}
        assert snapshot["/v1/healthz"]["latency"]["count"] == 1

    def test_concurrent_observations_are_not_lost(self):
        metrics = ServerMetrics()

        def hammer():
            for _ in range(500):
                metrics.observe("/v1/topk", status=200, seconds=0.001)

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert metrics.snapshot()["/v1/topk"]["requests"] == 4000


# ----------------------------------------------------------------------
# Coalescer
# ----------------------------------------------------------------------
class TestCoalescer:
    def test_results_match_direct_topk(self, engine):
        with RequestCoalescer(EngineBackend(engine, threading.Lock())) as coalescer:
            for entity in ("e00", "e05", "e11"):
                assert coalescer.submit(entity, k=3) == topk_result_payload(
                    engine.top_k(entity, k=3)
                )

    def test_concurrent_submissions_coalesce(self, engine):
        coalescer = RequestCoalescer(
            EngineBackend(engine, threading.Lock()), window_seconds=0.05, max_batch=64
        )
        results = {}
        barrier = threading.Barrier(8)

        def query(entity):
            barrier.wait()
            results[entity] = coalescer.submit(entity, k=2)

        threads = [
            threading.Thread(target=query, args=(f"e{index:02d}",)) for index in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        coalescer.close()
        assert len(results) == 8
        for entity, result in results.items():
            assert result == topk_result_payload(engine.top_k(entity, k=2))
        # 8 queries released together inside one 50 ms window must share
        # dispatch rounds: strictly fewer batches than queries.
        assert coalescer.stats.batches < 8
        assert coalescer.stats.coalesced > 0

    def test_mixed_k_groups_still_answer_correctly(self, engine):
        coalescer = RequestCoalescer(EngineBackend(engine, threading.Lock()), window_seconds=0.05)
        results = {}
        barrier = threading.Barrier(4)

        def query(entity, k):
            barrier.wait()
            results[(entity, k)] = coalescer.submit(entity, k=k)

        threads = [
            threading.Thread(target=query, args=(f"e{index:02d}", 1 + index % 2))
            for index in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        coalescer.close()
        for (entity, k), result in results.items():
            assert result == topk_result_payload(engine.top_k(entity, k=k))

    def test_unknown_entity_raises_keyerror_without_poisoning_batch(self, engine):
        coalescer = RequestCoalescer(EngineBackend(engine, threading.Lock()), window_seconds=0.05)
        outcomes = {}
        barrier = threading.Barrier(3)

        def query(entity):
            barrier.wait()
            try:
                outcomes[entity] = coalescer.submit(entity, k=2)
            except KeyError as exc:
                outcomes[entity] = exc

        threads = [
            threading.Thread(target=query, args=(entity,))
            for entity in ("e00", "ghost", "e03")
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        coalescer.close()
        assert isinstance(outcomes["ghost"], KeyError)
        assert outcomes["e00"] == topk_result_payload(engine.top_k("e00", k=2))
        assert outcomes["e03"] == topk_result_payload(engine.top_k("e03", k=2))

    def test_queue_overflow_raises(self, engine):
        lock = threading.Lock()
        coalescer = RequestCoalescer(
            EngineBackend(engine, lock), window_seconds=0.0, max_pending=1, max_batch=1
        )
        outcomes = []
        outcomes_lock = threading.Lock()

        def worker():
            try:
                coalescer.submit("e00", k=1)
                outcome = "ok"
            except QueueFullError:
                outcome = "full"
            with outcomes_lock:
                outcomes.append(outcome)

        # Starve the dispatcher by holding the engine lock: it can absorb at
        # most one in-flight query, the bounded queue holds one more, and
        # every further submission must be rejected.
        with lock:
            threads = [threading.Thread(target=worker, daemon=True) for _ in range(10)]
            for thread in threads:
                thread.start()
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                with outcomes_lock:
                    if outcomes.count("full") >= 8:
                        break
                time.sleep(0.002)
        for thread in threads:
            thread.join(timeout=5)
        coalescer.close()
        assert outcomes.count("full") >= 8
        assert outcomes.count("ok") >= 1
        assert coalescer.stats.rejected >= 8

    def test_submit_after_close_raises(self, engine):
        coalescer = RequestCoalescer(EngineBackend(engine, threading.Lock()))
        coalescer.close()
        with pytest.raises(RuntimeError):
            coalescer.submit("e00")

    def test_validates_parameters(self, engine):
        backend = EngineBackend(engine, threading.Lock())
        with pytest.raises(ValueError):
            RequestCoalescer(backend, window_seconds=-1)
        with pytest.raises(ValueError):
            RequestCoalescer(backend, max_pending=0)
        with pytest.raises(ValueError):
            RequestCoalescer(backend, max_batch=0)


# ----------------------------------------------------------------------
# TraceServer core (transport-free)
# ----------------------------------------------------------------------
class TestTraceServer:
    @pytest.fixture
    def server(self):
        engine = TraceQueryEngine(
            small_dataset(), num_hashes=32, seed=5, query_cache_size=16
        ).build()
        server = TraceServer(engine, coalesce_window=0.0)
        yield server
        server.close()

    def test_requires_built_engine(self):
        with pytest.raises(ValueError):
            TraceServer(TraceQueryEngine(small_dataset(), num_hashes=8))

    def test_topk_single_matches_engine(self, server):
        status, payload = server.handle_topk({"entity": "e00", "k": 3})
        assert status == 200
        direct = server.engine.top_k("e00", k=3)
        assert payload == topk_result_payload(direct)

    def test_topk_batch_matches_engine_and_skips_coalescer(self, server):
        entities = ["e00", "e03", "e07"]
        status, payload = server.handle_topk({"entities": entities, "k": 2})
        assert status == 200
        assert payload == {
            "results": [
                topk_result_payload(server.engine.top_k(entity, k=2))
                for entity in entities
            ]
        }
        # Batch requests dispatch directly as one top_k_batch call under
        # the engine lock, not entity-by-entity through the coalescer.
        assert server.coalescer.stats.submitted == 0

    def test_topk_batch_unknown_entity_is_404(self, server):
        status, payload = server.handle_topk({"entities": ["e00", "ghost"]})
        assert status == 404
        assert "ghost" in payload["error"]

    def test_topk_unknown_entity_is_404(self, server):
        status, payload = server.handle_topk({"entity": "ghost"})
        assert status == 404
        assert "ghost" in payload["error"]

    def test_topk_malformed_is_400(self, server):
        status, payload = server.handle_topk({"k": 3})
        assert status == 400
        assert "error" in payload

    def test_events_buffer_then_flush(self, server):
        status, payload = server.handle_events(
            {"events": [{"entity": "new", "unit": "u2_0_0", "start": 1, "end": 4}]}
        )
        assert status == 200
        assert payload == {
            "accepted": 1, "buffered": 1, "flushed_events": 0, "dropped_late": 0,
        }
        # Buffered events are invisible to queries until a flush.
        assert server.handle_topk({"entity": "new"})[0] == 404
        status, payload = server.handle_events({"flush": True})
        assert status == 200
        assert payload["flushed_events"] == 1
        assert payload["affected_entities"] == ["new"]
        assert server.handle_topk({"entity": "new"})[0] == 200

    def test_events_reject_unknown_unit_atomically(self, server):
        status, payload = server.handle_events(
            {
                "events": [
                    {"entity": "a", "unit": "u2_0_0", "start": 1, "end": 2},
                    {"entity": "b", "unit": "mars", "start": 1, "end": 2},
                ]
            }
        )
        assert status == 400
        assert "mars" in payload["error"]
        # Nothing from the rejected batch was buffered.
        assert server.ingestor.buffered_events == 0

    def test_events_reject_non_base_unit(self, server):
        status, payload = server.handle_events(
            {"events": [{"entity": "a", "unit": "u1_0", "start": 1, "end": 2}]}
        )
        assert status == 400
        assert "base unit" in payload["error"]

    def test_events_reject_period_beyond_horizon(self, server):
        # The horizon bound is load-bearing: signature work is O(duration)
        # under the engine lock, and a far-future end would poison the
        # monotone watermark of a windowed deployment.
        status, payload = server.handle_events(
            {"events": [{"entity": "a", "unit": "u2_0_0", "start": 0, "end": 10**6}]}
        )
        assert status == 400
        assert "beyond the served horizon" in payload["error"]
        assert server.ingestor.buffered_events == 0

    def test_windowed_late_arrivals_are_reported_in_the_response(self):
        engine = TraceQueryEngine(small_dataset(), num_hashes=32, seed=5).build()
        with TraceServer(
            engine, streaming=StreamingConfig(max_batch_events=100, window=10)
        ) as server:
            status, payload = server.handle_events(
                {
                    "events": [
                        {"entity": "now", "unit": "u2_0_0", "start": 40, "end": 44}
                    ],
                    "flush": True,
                }
            )
            assert (status, payload["dropped_late"]) == (200, 0)
            # end=2 is already outside [watermark - window, ...) = [34, ...)
            status, payload = server.handle_events(
                {
                    "events": [
                        {"entity": "old", "unit": "u2_0_0", "start": 1, "end": 2}
                    ],
                    "flush": True,
                }
            )
            assert status == 200
            assert payload["accepted"] == 1
            assert payload["flushed_events"] == 0
            assert payload["dropped_late"] == 1
            assert "old" not in engine.dataset

    def test_healthz(self, server):
        status, payload = server.handle_healthz()
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["entities"] == 12
        assert payload["uptime_seconds"] >= 0

    def test_healthz_flips_to_503_once_closed(self, server):
        assert server.handle_healthz()[0] == 200
        server.close()
        status, payload = server.handle_healthz()
        # Load balancers key on the status code, not the body: a draining
        # instance answering 200 with "shutting_down" would stay in rotation.
        assert status == 503
        assert payload["status"] == "shutting_down"

    def test_stats_sections(self, server):
        server.handle_topk({"entity": "e00"})
        server.handle_topk({"entity": "e00"})
        status, payload = server.handle_stats()
        assert status == 200
        assert set(payload) == {
            "engine", "ingest", "coalescer", "endpoints", "tracing", "uptime_seconds",
        }
        assert payload["engine"]["kind"] == "single"
        assert payload["engine"]["cache"]["hits"] >= 1
        assert payload["coalescer"]["submitted"] == 2
        assert payload["ingest"]["events_submitted"] == 0

    def test_stats_shard_sizes_for_sharded_engine(self):
        engine = ShardedEngine(
            small_dataset(), num_shards=3, num_hashes=32, seed=5, query_cache_size=16
        ).build()
        with TraceServer(engine, coalesce_window=0.0) as server:
            status, payload = server.handle_stats()
        assert status == 200
        assert payload["engine"]["kind"] == "sharded"
        assert len(payload["engine"]["shard_sizes"]) == 3
        assert sum(payload["engine"]["shard_sizes"]) == 12
        assert payload["engine"]["loose_operations"] == 0

    def test_close_flushes_buffered_events(self):
        engine = TraceQueryEngine(small_dataset(), num_hashes=32, seed=5).build()
        server = TraceServer(engine, streaming=StreamingConfig(max_batch_events=100))
        server.handle_events(
            {"events": [{"entity": "tail", "unit": "u2_0_0", "start": 1, "end": 3}]}
        )
        assert "tail" not in engine.dataset
        server.close()
        assert "tail" in engine.dataset
        # Idempotent.
        server.close()

    def test_events_rejected_while_closed(self, server):
        server.close()
        status, payload = server.handle_events({"flush": True})
        assert status == 503

    def test_topk_rejected_while_closed_in_both_forms(self, server):
        server.close()
        assert server.handle_topk({"entity": "e00"})[0] == 503
        assert server.handle_topk({"entities": ["e00"], "k": 1})[0] == 503


# ----------------------------------------------------------------------
# Tiers are configurations of the one TraceServer
# ----------------------------------------------------------------------
def _tier_engine(**options) -> ShardedEngine:
    """The same sharded engine under every tier, so bodies are comparable."""
    return ShardedEngine(
        small_dataset(),
        num_shards=2,
        num_hashes=32,
        seed=5,
        bound_mode="per_level",
        **options,
    ).build()


def _tier_parts(tier, engine):
    if tier == "workers":
        from repro.server.frontend import worker_tier

        return worker_tier(engine, workers=1)
    if tier == "cluster":
        from repro.cluster.frontend import cluster_tier

        return cluster_tier(engine, replication=1)
    return {}


def _coalescer_threads() -> int:
    return sum(thread.name == "repro-coalescer" for thread in threading.enumerate())


NEW_EVENT = {"entity": "fresh", "unit": "u2_0_0", "start": 30, "end": 32}


@pytest.mark.parametrize("tier", ["local", "workers", "cluster"])
def test_tiers_are_configurations_of_one_server(tier):
    """One transport-free sequence, three tiers, one class, one dispatcher.

    Every top-k body must equal, byte for byte, what an in-process engine
    fed the same events answers -- hence the three tiers agree with each
    other -- and each server runs exactly one coalescer thread.
    """
    oracle = _tier_engine()

    def expected(body):
        request = parse_topk_request(body)
        results = [
            oracle.top_k(entity, k=request.k) for entity in request.entities
        ]
        if request.batch:
            return dumps({"results": [topk_result_payload(r) for r in results]})
        return dumps(topk_result_payload(results[0]))

    threads_before = _coalescer_threads()
    engine = _tier_engine()
    server = TraceServer(engine, coalesce_window=0.0, **_tier_parts(tier, engine))
    try:
        assert type(server) is TraceServer
        assert _coalescer_threads() == threads_before + 1

        single = {"entity": "e00", "k": 3}
        batch = {"entities": ["e01", "e04", "e07"], "k": 2}
        for body in (single, batch):
            status, payload = server.handle_topk(body)
            assert status == 200, payload
            assert dumps(payload) == expected(body)
        assert server.handle_topk({"entity": "ghost"})[0] == 404
        assert server.handle_topk({"entities": ["e00", "ghost"]})[0] == 404
        assert server.handle_topk({"entity": "e00", "k": 0})[0] == 400
        assert server.handle_topk(["not", "an", "object"])[0] == 400

        # Read-your-writes: the acknowledged flush is visible to the very
        # next query, whichever process answers it.
        assert server.handle_topk({"entity": "fresh"})[0] == 404
        status, payload = server.handle_events({"events": [NEW_EVENT], "flush": True})
        assert (status, payload["affected_entities"]) == (200, ["fresh"])
        oracle.add_records([PresenceInstance("fresh", "u2_0_0", 30, 32)])
        for body in ({"entity": "fresh", "k": 3}, single, batch):
            status, payload = server.handle_topk(body)
            assert status == 200, payload
            assert dumps(payload) == expected(body)

        status, health = server.handle_healthz()
        assert (status, health["status"], health["entities"]) == (200, "ok", 13)
        status, stats = server.handle_stats()
        assert status == 200
        assert {"engine", "ingest", "coalescer", "endpoints", "tracing"} <= set(stats)
        assert stats["coalescer"]["submitted"] == 3  # the admitted single queries
        extra = {"local": set(), "workers": {"workers", "generation"}, "cluster": {"cluster"}}
        assert extra[tier] <= set(stats) and extra[tier] <= set(health)
        status, text = server.handle_metrics()
        assert status == 200
        assert "repro_coalescer_queries_total" in parse_exposition(text)
        # /metrics is a function of the public /v1/stats body.
        rebuilt = render_exposition(metric_families(json.loads(json.dumps(stats))))
        assert _label_sets(parse_exposition(rebuilt)) == _label_sets(parse_exposition(text))
    finally:
        server.close()
    assert _coalescer_threads() == threads_before
    assert server.handle_healthz()[0] == 503
    server.close()  # idempotent
    assert server.handle_topk({"entity": "e00"})[0] == 503


def _label_sets(families):
    """``{family: {(sample name, labels)}}`` of a parsed exposition."""
    return {
        name: {(sample, tuple(sorted(labels.items()))) for sample, labels, _ in entry["samples"]}
        for name, entry in families.items()
    }


@pytest.mark.parametrize("tier", ["workers", "cluster"])
def test_process_tiers_report_no_owner_cache(tier):
    """Worker and replica processes answer every read, so the owner's cache
    is never consulted: the snapshot must report no cache rather than one
    that looks live and never hits, and ``/metrics`` no cache samples."""
    engine = _tier_engine(query_cache_size=16)
    with TraceServer(engine, coalesce_window=0.0, **_tier_parts(tier, engine)) as server:
        for _ in range(3):
            assert server.handle_topk({"entity": "e00"})[0] == 200
        stats = server.handle_stats()[1]
        families = parse_exposition(server.handle_metrics()[1])
    assert stats["engine"]["cache"] is None
    for name in ("repro_cache_entries", "repro_cache_events_total", "repro_cache_hit_rate"):
        assert families[name]["samples"] == [], name


def _exported_stages(server):
    """Stage labels of ``/metrics``, plus ``http:<endpoint>`` per request
    histogram -- the names ``bench/workloads.py`` reads."""
    families = parse_exposition(server.handle_metrics()[1])
    stages = {
        labels["stage"] for _, labels, _ in families["repro_stage_latency_seconds"]["samples"]
    }
    return stages | {
        "http:" + labels["endpoint"]
        for _, labels, _ in families["repro_request_latency_seconds"]["samples"]
    }


def test_bench_stage_names_are_exported():
    """Every stage the benchmark reads via ``mean("...")`` is exported, so a
    renamed span fails here rather than mid-way through a ``--traced`` run."""
    source = (Path(__file__).resolve().parent.parent / "bench" / "workloads.py").read_text()
    wanted = set(re.findall(r'\bmean\("([^"]+)"\)', source))
    assert {"http:/v1/topk", "worker.topk", "cache.lookup"} <= wanted

    engine = TraceQueryEngine(small_dataset(), num_hashes=32, seed=5).build()
    with TraceServer(
        engine, coalesce_window=0.0, trace_sample=1.0, **_tier_parts("workers", engine)
    ) as server:
        assert server.handle_topk({"entity": "e00"})[0] == 200
        exported = _exported_stages(server)
    engine = TraceQueryEngine(small_dataset(), num_hashes=32, seed=5, query_cache_size=16).build()
    daemon = _Daemon(engine, coalesce_window=0.0, trace_sample=1.0)
    try:
        for _ in range(2):
            assert daemon.request("POST", "/v1/topk", {"entity": "e00"})[0] == 200
        exported |= _exported_stages(daemon.trace_server)
    finally:
        daemon.close()
    assert wanted <= exported, sorted(wanted - exported)


# ----------------------------------------------------------------------
# Observability endpoints (transport-free)
# ----------------------------------------------------------------------
def _span_names(nodes):
    names = set()
    for node in nodes:
        names.add(node["name"])
        names.update(_span_names(node["children"]))
    return names


class TestObservabilityEndpoints:
    def build_server(self, **kwargs):
        engine = TraceQueryEngine(
            small_dataset(), num_hashes=32, seed=5, query_cache_size=16
        ).build()
        return TraceServer(engine, coalesce_window=0.0, **kwargs)

    def test_metrics_exposition_is_valid_and_counts_requests(self):
        with self.build_server() as server:
            server.handle_topk({"entity": "e00"})
            server.handle_topk({"entities": ["e01", "e02"], "k": 2})
            server.metrics.observe("/v1/topk", 200, 0.004)
            server.metrics.observe("/v1/topk", 200, 0.004)
            status, text = server.handle_metrics()
        assert status == 200
        families = parse_exposition(text)
        for name in (
            "repro_requests_total",
            "repro_request_latency_seconds",
            "repro_stage_latency_seconds",
            "repro_trace_sample_rate",
            "repro_coalescer_queries_total",
            "repro_ingest_buffered_events",
            "repro_cache_entries",
            "repro_index_entities",
            "repro_uptime_seconds",
        ):
            assert name in families, name
        samples = families["repro_requests_total"]["samples"]
        topk = [s for s in samples if s[1].get("endpoint") == "/v1/topk"]
        assert [value for _, _, value in topk] == [2.0]
        # The 4ms observations land in cumulative buckets at le=0.005+.
        latency = families["repro_request_latency_seconds"]["samples"]
        by_le = {
            s[1]["le"]: s[2]
            for s in latency
            if s[0].endswith("_bucket") and s[1].get("endpoint") == "/v1/topk"
        }
        assert by_le["0.002"] == 0.0
        assert by_le["0.005"] == 2.0
        assert by_le["+Inf"] == 2.0

    def test_tracing_is_zero_cost_when_disabled(self):
        with self.build_server() as server:
            for _ in range(5):
                server.handle_topk({"entity": "e00"})
            counters = server.tracer.counters_snapshot()
        assert counters["started"] == 0
        assert counters["recorded"] == 0
        assert server.tracer.recent_snapshot() == []

    def test_traced_results_stay_byte_identical(self):
        with self.build_server() as plain, self.build_server(
            trace_sample=1.0
        ) as traced:
            for request in (
                {"entity": "e00", "k": 3},
                {"entities": ["e01", "e05", "e09"], "k": 2},
            ):
                assert traced.handle_topk(dict(request)) == plain.handle_topk(
                    dict(request)
                )

    def test_traced_query_yields_full_span_tree(self):
        with self.build_server(trace_sample=1.0) as server:
            server.handle_topk({"entity": "e00", "k": 3})
            records = server.tracer.recent_snapshot()
        (record,) = records
        assert record["status"] == 200
        (root,) = record["spans"]
        assert root["name"] == "request.topk"
        assert root["attributes"]["queries"] == 1
        names = _span_names(record["spans"])
        assert {"coalesce.wait", "coalesce.dispatch"} <= names
        # The kernel stages run on a cache miss; cache.lookup always runs.
        assert {"cache.lookup", "kernel.bounds", "kernel.traverse",
                "kernel.scores", "kernel.merge"} <= names

    def test_client_errors_keep_their_status_but_are_not_errored(self):
        # 4xx responses are the client's fault: they are retained in the
        # ring/slow log with their status, but only 5xx and raised
        # exceptions land in the errored buffer.
        with self.build_server(trace_sample=1.0) as server:
            server.handle_topk({"entity": "ghost"})
            status, payload = server.handle_debug_slow()
        assert status == 200
        assert set(payload) == {"sample_rate", "slowest", "errored"}
        assert payload["sample_rate"] == 1.0
        assert payload["errored"] == []
        (record,) = payload["slowest"]
        assert record["status"] == 404
        assert record["error"] is False

    def test_debug_slow_retains_sampled_traces(self):
        with self.build_server(trace_sample=1.0) as server:
            for index in range(4):
                server.handle_topk({"entity": f"e{index:02d}"})
            status, payload = server.handle_debug_slow()
        assert status == 200
        assert len(payload["slowest"]) == 4
        for record in payload["slowest"]:
            assert record["trace_id"]
            assert record["duration_seconds"] >= 0.0

    def test_stats_reports_tracing_counters(self):
        with self.build_server(trace_sample=1.0) as server:
            server.handle_topk({"entity": "e00"})
            status, payload = server.handle_stats()
        assert status == 200
        tracing = payload["tracing"]
        assert tracing["sample_rate"] == 1.0
        assert tracing["started"] == 1
        assert tracing["recorded"] == 1


# ----------------------------------------------------------------------
# HTTP layer
# ----------------------------------------------------------------------
class _Daemon:
    """A live daemon on an ephemeral port, with a tiny JSON client."""

    def __init__(self, engine, **server_kwargs):
        self.trace_server = TraceServer(engine, **server_kwargs)
        self.httpd = build_http_server(self.trace_server, port=0)
        self.port = self.httpd.server_address[1]
        self.thread = threading.Thread(target=self.httpd.serve_forever, daemon=True)
        self.thread.start()

    def request(self, method, path, payload=None):
        connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=10)
        try:
            body = None if payload is None else json.dumps(payload)
            connection.request(
                method, path, body=body, headers={"Content-Type": "application/json"}
            )
            response = connection.getresponse()
            raw = response.read()
            return response.status, json.loads(raw)
        finally:
            connection.close()

    def close(self):
        self.httpd.shutdown()
        self.httpd.server_close()
        self.trace_server.close()
        self.thread.join(timeout=5)


@pytest.fixture
def daemon():
    engine = TraceQueryEngine(
        small_dataset(), num_hashes=32, seed=5, query_cache_size=16
    ).build()
    daemon = _Daemon(engine, coalesce_window=0.0)
    yield daemon
    daemon.close()


class TestHTTP:
    def test_topk_roundtrip(self, daemon):
        status, payload = daemon.request("POST", "/v1/topk", {"entity": "e00", "k": 2})
        assert status == 200
        expected = topk_result_payload(daemon.trace_server.engine.top_k("e00", k=2))
        assert payload == json.loads(dumps(expected))

    def test_events_then_query(self, daemon):
        status, payload = daemon.request(
            "POST",
            "/v1/events",
            {
                "events": [
                    {"entity": "fresh", "unit": "u2_1_1", "start": 2, "end": 6},
                    {"entity": "e00", "unit": "u2_1_1", "start": 2, "end": 6},
                ],
                "flush": True,
            },
        )
        assert status == 200
        assert payload["flushed_events"] == 2
        status, payload = daemon.request("POST", "/v1/topk", {"entity": "fresh", "k": 1})
        assert status == 200
        expected = daemon.trace_server.engine.top_k("fresh", k=1)
        assert payload["results"][0]["entity"] == expected.entities[0]

    def test_healthz_and_stats(self, daemon):
        assert daemon.request("GET", "/v1/healthz")[0] == 200
        daemon.request("POST", "/v1/topk", {"entity": "e01"})
        status, payload = daemon.request("GET", "/v1/stats")
        assert status == 200
        assert payload["endpoints"]["/v1/topk"]["requests"] == 1
        assert payload["endpoints"]["/v1/topk"]["status"]["200"] == 1

    def test_error_statuses(self, daemon):
        assert daemon.request("POST", "/v1/topk", {"entity": "ghost"})[0] == 404
        assert daemon.request("POST", "/v1/topk", {"bad": 1})[0] == 400
        assert daemon.request("GET", "/v1/nope")[0] == 404
        assert daemon.request("GET", "/v1/topk")[0] == 405
        assert daemon.request("POST", "/v1/unknown", {})[0] == 404

    def test_unrouted_paths_share_one_metrics_key(self, daemon):
        for suffix in ("a", "b", "c"):
            assert daemon.request("GET", f"/v1/scan-{suffix}")[0] == 404
        assert daemon.request("POST", "/v1/also-unknown", {})[0] == 404
        # Query strings are stripped both for routing and for metrics keys.
        assert daemon.request("GET", "/v1/healthz?probe=1")[0] == 200
        snapshot = daemon.trace_server.metrics.snapshot()
        assert snapshot["other"]["requests"] == 4
        assert snapshot["/v1/healthz"]["requests"] == 1
        assert set(snapshot) <= {
            "/v1/topk", "/v1/events", "/v1/healthz", "/v1/stats", "other",
        }

    def test_invalid_json_body_is_400(self, daemon):
        connection = http.client.HTTPConnection("127.0.0.1", daemon.port, timeout=10)
        try:
            connection.request(
                "POST",
                "/v1/topk",
                body="{nope",
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            assert response.status == 400
            assert b"not valid JSON" in response.read()
        finally:
            connection.close()

    def test_unread_body_closes_the_keepalive_connection(self, daemon):
        # A 413 (body never read) must not leave a keep-alive connection
        # desynchronised -- the unread bytes would otherwise be parsed as
        # the next request line.
        connection = http.client.HTTPConnection("127.0.0.1", daemon.port, timeout=10)
        try:
            connection.putrequest("POST", "/v1/topk")
            connection.putheader("Content-Type", "application/json")
            connection.putheader("Content-Length", str(99999999999))
            connection.endheaders()
            response = connection.getresponse()
            assert response.status == 413
            assert response.getheader("Connection") == "close"
            response.read()
        finally:
            connection.close()
        # A fresh connection keeps working.
        assert daemon.request("GET", "/v1/healthz")[0] == 200

    def test_get_with_a_body_closes_the_connection(self, daemon):
        connection = http.client.HTTPConnection("127.0.0.1", daemon.port, timeout=10)
        try:
            connection.request("GET", "/v1/healthz", body="stray body")
            response = connection.getresponse()
            assert response.status == 200
            assert response.getheader("Connection") == "close"
            response.read()
        finally:
            connection.close()

    def test_unknown_post_path_is_404_even_with_garbage_body(self, daemon):
        connection = http.client.HTTPConnection("127.0.0.1", daemon.port, timeout=10)
        try:
            connection.request(
                "POST",
                "/v1/not-an-endpoint",
                body="not json at all",
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            assert response.status == 404
            assert b"unknown path" in response.read()
        finally:
            connection.close()

    def test_one_response_is_one_send_with_nagle_off(self, daemon):
        # The wire stall: status line + headers and body written as two
        # segments make the body wait out the client's delayed ACK of the
        # first (~40 ms per keep-alive response).  No clock needed: count
        # the sends on the accepted socket.
        sends = []

        class RecordingSocket(socket.socket):
            def send(self, data, *args):
                sends.append(len(data))
                return super().send(data, *args)

            def sendall(self, data, *args):
                sends.append(len(data))
                return super().sendall(data, *args)

        accepted = []
        accept = daemon.httpd.get_request

        def get_request():
            connection, address = accept()
            accepted.append(RecordingSocket(fileno=connection.detach()))
            return accepted[-1], address

        daemon.httpd.get_request = get_request
        connection = http.client.HTTPConnection("127.0.0.1", daemon.port, timeout=10)
        try:
            for entity in ("e00", "e01"):
                connection.request(
                    "POST",
                    "/v1/topk",
                    body=json.dumps({"entity": entity, "k": 2}),
                    headers={"Content-Type": "application/json"},
                )
                response = connection.getresponse()
                assert response.status == 200
                assert response.read()
            (server_side,) = accepted  # keep-alive: both rode one connection
            assert len(sends) == 2
            assert server_side.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY) != 0
        finally:
            connection.close()

    def test_admission_control_returns_429(self):
        engine = TraceQueryEngine(small_dataset(), num_hashes=32, seed=5).build()
        daemon = _Daemon(
            engine, coalesce_window=0.0, max_pending=1, max_batch=1
        )
        try:
            statuses = []
            lock = daemon.trace_server.engine_lock
            with lock:
                # With the engine lock held the dispatcher cannot finish a
                # round, so concurrent requests pile into the bounded queue.
                threads = []
                collected = threading.Lock()

                def fire():
                    status, _ = daemon.request(
                        "POST", "/v1/topk", {"entity": "e00", "k": 1}
                    )
                    with collected:
                        statuses.append(status)

                for _ in range(8):
                    thread = threading.Thread(target=fire)
                    thread.start()
                    threads.append(thread)
                deadline = time.monotonic() + 5.0
                while len(statuses) < 6 and time.monotonic() < deadline:
                    time.sleep(0.005)
            for thread in threads:
                thread.join(timeout=5)
            assert 429 in statuses
            assert statuses.count(200) >= 1
        finally:
            daemon.close()

    def test_metrics_served_as_prometheus_text(self):
        engine = TraceQueryEngine(small_dataset(), num_hashes=32, seed=5).build()
        daemon = _Daemon(engine, coalesce_window=0.0, trace_sample=1.0)
        try:
            daemon.request("POST", "/v1/topk", {"entity": "e00", "k": 2})
            connection = http.client.HTTPConnection(
                "127.0.0.1", daemon.port, timeout=10
            )
            try:
                connection.request("GET", "/metrics")
                response = connection.getresponse()
                content_type = response.getheader("Content-Type")
                text = response.read().decode("utf-8")
            finally:
                connection.close()
            assert response.status == 200
            assert content_type == "text/plain; version=0.0.4; charset=utf-8"
            families = parse_exposition(text)
            assert "repro_requests_total" in families
            assert "repro_traces_total" in families
            # /metrics requests are themselves metered.
            status, payload = daemon.request("GET", "/v1/stats")
            assert status == 200
            assert payload["endpoints"]["/metrics"]["requests"] == 1
        finally:
            daemon.close()

    def test_debug_slow_over_http(self):
        engine = TraceQueryEngine(small_dataset(), num_hashes=32, seed=5).build()
        daemon = _Daemon(engine, coalesce_window=0.0, trace_sample=1.0)
        try:
            daemon.request("POST", "/v1/topk", {"entity": "e00", "k": 2})
            status, payload = daemon.request("GET", "/v1/debug/slow")
            assert status == 200
            assert payload["sample_rate"] == 1.0
            (record,) = payload["slowest"]
            assert record["spans"][0]["name"] == "request.topk"
        finally:
            daemon.close()


# ----------------------------------------------------------------------
# CLI error paths (satellite: serve-adjacent errors exit 2, no traceback)
# ----------------------------------------------------------------------
class TestServeCLIErrors:
    def test_missing_snapshot_exits_2(self, tmp_path, capsys):
        assert main(["serve", "--snapshot", str(tmp_path / "nope")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err

    def test_corrupt_snapshot_exits_2(self, tmp_path, capsys):
        snapshot = tmp_path / "corrupt"
        snapshot.mkdir()
        (snapshot / "manifest.json").write_text("{broken")
        assert main(["serve", "--snapshot", str(snapshot)]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_port_in_use_exits_2(self, tmp_path, capsys):
        engine = TraceQueryEngine(small_dataset(), num_hashes=16, seed=5).build()
        snapshot = tmp_path / "snap"
        engine.save(snapshot)
        blocker = socket.socket()
        try:
            blocker.bind(("127.0.0.1", 0))
            port = blocker.getsockname()[1]
            code = main(["serve", "--snapshot", str(snapshot), "--port", str(port)])
        finally:
            blocker.close()
        assert code == 2
        err = capsys.readouterr().err
        assert "cannot bind" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["serve"],
            ["serve", "--snapshot", "s", "--traces", "t", "--hierarchy", "h"],
            ["serve", "--traces", "t"],
            ["serve", "--snapshot", "s", "--port", "70000"],
            ["serve", "--snapshot", "s", "--port", "-1"],
            ["serve", "--snapshot", "s", "--shards", "2"],
            ["serve", "--snapshot", "s", "--num-hashes", "64"],
            ["serve", "--snapshot", "s", "--horizon", "99"],
            ["serve", "--snapshot", "s", "--coalesce-window", "-1"],
            ["serve", "--snapshot", "s", "--max-pending", "0"],
            ["serve", "--snapshot", "s", "--max-batch", "0"],
            ["serve", "--snapshot", "s", "--batch-size", "0"],
            ["serve", "--snapshot", "s", "--window", "-1"],
            ["serve", "--snapshot", "s", "--compact-every", "-1"],
            ["serve", "--snapshot", "s", "--cache", "-1"],
        ],
    )
    def test_invalid_options_exit_2(self, argv, capsys):
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_negative_delta_limit_exits_2_naming_the_flag(self, capsys):
        # Used to reach GenerationStore.__init__ and die with a ValueError
        # traceback on the --workers tier.
        argv = ["serve", "--snapshot", "s", "--workers", "1", "--delta-limit", "-1"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --delta-limit must be >= 0")
        assert "Traceback" not in err

    def test_store_without_a_publishing_tier_exits_2(self, tmp_path, capsys):
        # Used to be silently ignored: the daemon started, nothing was ever
        # published, and the operator believed the store was recoverable.
        store = tmp_path / "store"
        assert main(["serve", "--snapshot", "s", "--store", str(store)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --store needs --workers or --cluster")
        assert not store.exists()

    def test_index_build_horizon_carries_into_served_snapshot(self, tmp_path):
        # The remedy the /v1/events beyond-horizon error prescribes for
        # snapshot deployments must actually exist: `index build --horizon`
        # over-provisions the hash range, and the snapshot serves it.
        traces = tmp_path / "t.csv"
        hierarchy = tmp_path / "h.json"
        assert (
            main(
                [
                    "generate", "syn", "--entities", "20", "--horizon", "48",
                    "--seed", "3", "--output", str(traces),
                    "--hierarchy", str(hierarchy),
                ]
            )
            == 0
        )
        snapshot = tmp_path / "snap"
        assert (
            main(
                [
                    "index", "build", "--traces", str(traces),
                    "--hierarchy", str(hierarchy), "--output", str(snapshot),
                    "--num-hashes", "16", "--horizon", "500",
                ]
            )
            == 0
        )
        engine = TraceQueryEngine.load(snapshot)
        assert engine.dataset.horizon == 500
        with TraceServer(engine, coalesce_window=0.0) as server:
            unit = engine.dataset.trace(next(iter(engine.dataset.entities)))[0].unit
            status, payload = server.handle_events(
                {
                    "events": [
                        {"entity": "late", "unit": unit, "start": 400, "end": 404}
                    ],
                    "flush": True,
                }
            )
        assert (status, payload["affected_entities"]) == (200, ["late"])

    def test_index_build_rejects_bad_horizon(self, tmp_path, capsys):
        assert (
            main(
                [
                    "index", "build", "--traces", "t", "--hierarchy", "h",
                    "--output", str(tmp_path / "s"), "--horizon", "0",
                ]
            )
            == 2
        )
        assert "--horizon must be >= 1" in capsys.readouterr().err

    def test_unreadable_traces_exit_2(self, tmp_path, capsys):
        hierarchy = tmp_path / "h.json"
        hierarchy.write_text("{}")
        assert (
            main(
                [
                    "serve",
                    "--traces",
                    str(tmp_path / "missing.csv"),
                    "--hierarchy",
                    str(hierarchy),
                ]
            )
            == 2
        )
        assert capsys.readouterr().err.startswith("error:")
