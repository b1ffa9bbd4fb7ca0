"""Unit tests for the observability layer (:mod:`repro.obs`).

Covers the span/trace API (nesting, the bounded ring, the slow-query log,
cross-process stitching via export/attach) and the Prometheus text
exposition (golden rendering, label escaping, the strict parser's
histogram invariants).
"""

import pytest

from repro.obs.exposition import (
    ExpositionError,
    MetricFamily,
    histogram_samples,
    parse_exposition,
    render_exposition,
)
from repro.obs.trace import (
    LATENCY_BUCKETS,
    ActiveTrace,
    Span,
    Tracer,
    format_trace,
)


def span_names(nodes):
    """Flatten a record's span tree into a set of (process, name) pairs."""
    names = set()
    for node in nodes:
        names.add((node["process"], node["name"]))
        names.update(span_names(node["children"]))
    return names


class TestTracerSampling:
    def test_rate_zero_never_samples(self):
        tracer = Tracer(sample_rate=0.0)
        assert all(tracer.start_trace("request.topk") is None for _ in range(50))
        assert tracer.counters_snapshot()["started"] == 0

    def test_rate_one_always_samples(self):
        tracer = Tracer(sample_rate=1.0)
        assert all(tracer.start_trace("request.topk") is not None for _ in range(10))
        assert tracer.counters_snapshot()["started"] == 10

    def test_fractional_rate_is_seeded_and_partial(self):
        tracer = Tracer(sample_rate=0.5, seed=7)
        outcomes = [tracer.start_trace("x") is not None for _ in range(200)]
        sampled = sum(outcomes)
        assert 0 < sampled < 200
        # Same seed, same decisions: the sampler is reproducible.
        again = Tracer(sample_rate=0.5, seed=7)
        assert [again.start_trace("x") is not None for _ in range(200)] == outcomes

    def test_invalid_rate_rejected(self):
        with pytest.raises(ValueError):
            Tracer(sample_rate=1.5)
        with pytest.raises(ValueError):
            Tracer(sample_rate=-0.1)


class TestSpanTree:
    def test_nesting_follows_contexts(self):
        tracer = Tracer(sample_rate=1.0)
        trace = tracer.start_trace("request.topk")
        context = trace.context()
        dispatch = context.begin("coalesce.dispatch")
        inner = trace.context(parent=dispatch)
        inner.begin("kernel.bounds").end(nodes=3)
        dispatch.end()
        record = tracer.finish(trace, status=200)

        assert record["status"] == 200
        assert record["error"] is False
        (root,) = record["spans"]
        assert root["name"] == "request.topk"
        (dispatch_node,) = root["children"]
        assert dispatch_node["name"] == "coalesce.dispatch"
        (bounds_node,) = dispatch_node["children"]
        assert bounds_node["name"] == "kernel.bounds"
        assert bounds_node["attributes"] == {"nodes": 3}

    def test_span_end_is_idempotent(self):
        span = Span("stage")
        first = span.end().duration
        assert span.end(extra=1).duration == first
        assert span.attributes == {"extra": 1}

    def test_under_reparents_same_trace(self):
        trace = ActiveTrace("root")
        context = trace.context()
        outer = context.begin("outer")
        child = context.under(outer).begin("child")
        assert child.parent_id == outer.span_id

    def test_non_scalar_attributes_coerced_to_repr(self):
        tracer = Tracer(sample_rate=1.0)
        trace = tracer.start_trace("root")
        trace.begin("stage").end(payload=[1, 2])
        record = tracer.finish(trace)
        (root,) = record["spans"]
        (stage,) = root["children"]
        assert stage["attributes"]["payload"] == "[1, 2]"


class TestRingAndSlowLog:
    def finish_one(self, tracer, name, error=False):
        trace = tracer.start_trace(name)
        return tracer.finish(trace, status=500 if error else 200, error=error)

    def test_ring_evicts_oldest(self):
        tracer = Tracer(sample_rate=1.0, ring_capacity=3)
        for index in range(5):
            self.finish_one(tracer, f"t{index}")
        recent = tracer.recent_snapshot()
        assert [record["name"] for record in recent] == ["t4", "t3", "t2"]
        assert tracer.counters_snapshot()["recorded"] == 5

    def test_slow_log_keeps_slowest(self):
        tracer = Tracer(sample_rate=1.0, slow_capacity=2)
        records = [self.finish_one(tracer, f"t{index}") for index in range(6)]
        # Rewrite durations to a known ordering, then rebuild the heap the
        # way finish() would have seen them.
        tracer_b = Tracer(sample_rate=1.0, slow_capacity=2)
        for index, record in enumerate(records):
            trace = tracer_b.start_trace(f"slow{index}")
            trace.root.start -= float(index)  # pretend it ran `index` seconds
            tracer_b.finish(trace)
        slow = tracer_b.slow_snapshot()
        assert [record["name"] for record in slow] == ["slow5", "slow4"]
        assert slow[0]["duration_seconds"] > slow[1]["duration_seconds"]

    def test_errored_buffer_only_holds_errors(self):
        tracer = Tracer(sample_rate=1.0)
        self.finish_one(tracer, "fine")
        self.finish_one(tracer, "broken", error=True)
        errored = tracer.errored_snapshot()
        assert [record["name"] for record in errored] == ["broken"]
        assert errored[0]["error"] is True

    def test_stage_histogram_aggregates_span_names(self):
        tracer = Tracer(sample_rate=1.0)
        trace = tracer.start_trace("root")
        trace.context().begin("kernel.traverse").end()
        tracer.finish(trace)
        stages = tracer.counters_snapshot()["stages"]
        assert stages["kernel.traverse"]["count"] == 1
        assert stages["root"]["count"] == 1


class TestCrossProcessStitch:
    def test_export_and_attach_rebases_offsets(self):
        tracer = Tracer(sample_rate=1.0)
        frontend = tracer.start_trace("request.topk")
        anchor = frontend.context().begin("worker.request")

        worker = ActiveTrace(
            "worker.topk",
            trace_id=frontend.trace_id,
            parent_id=anchor.span_id,
            process="worker",
        )
        worker.context().begin("kernel.bounds").end(nodes=7)
        exported = worker.export_spans()
        assert all(entry["offset"] >= 0.0 for entry in exported)

        frontend.attach_remote(exported, anchor=anchor)
        anchor.end()
        record = tracer.finish(frontend, status=200)

        names = span_names(record["spans"])
        assert ("worker", "worker.topk") in names
        assert ("worker", "kernel.bounds") in names
        # The worker root hangs under the local anchor span...
        (root,) = record["spans"]
        (anchor_node,) = root["children"]
        assert anchor_node["name"] == "worker.request"
        (worker_root,) = anchor_node["children"]
        assert worker_root["name"] == "worker.topk"
        assert worker_root["process"] == "worker"
        # ...and its re-based start can never precede the anchor's.
        assert worker_root["start_offset_seconds"] >= anchor_node["start_offset_seconds"]
        (bounds,) = worker_root["children"]
        assert bounds["attributes"] == {"nodes": 7}

    def test_attach_remote_ignores_malformed_entries(self):
        trace = ActiveTrace("root")
        anchor = trace.context().begin("worker.request")
        trace.attach_remote(["nonsense", 17], anchor=anchor)
        assert len(trace.spans) == 2  # root + anchor, nothing attached

    def test_format_trace_renders_remote_spans(self):
        tracer = Tracer(sample_rate=1.0)
        frontend = tracer.start_trace("request.topk")
        anchor = frontend.context().begin("worker.request")
        worker = ActiveTrace("worker.topk", parent_id=anchor.span_id, process="worker")
        worker.context().begin("kernel.scores").end(candidates=4)
        frontend.attach_remote(worker.export_spans(), anchor=anchor)
        text = format_trace(tracer.finish(frontend, status=200))
        assert "[worker] kernel.scores" in text
        assert "candidates=4" in text
        assert "status=200" in text


GOLDEN_EXPOSITION = """\
# HELP repro_requests_total HTTP requests answered, by endpoint.
# TYPE repro_requests_total counter
repro_requests_total{endpoint="/v1/topk"} 5
repro_requests_total{endpoint="other"} 1
# HELP repro_trace_sample_rate Configured trace sampling rate.
# TYPE repro_trace_sample_rate gauge
repro_trace_sample_rate 0.25
# HELP repro_stage_latency_seconds Span durations by stage.
# TYPE repro_stage_latency_seconds histogram
repro_stage_latency_seconds_bucket{stage="kernel.bounds",le="0.001"} 2
repro_stage_latency_seconds_bucket{stage="kernel.bounds",le="0.01"} 3
repro_stage_latency_seconds_bucket{stage="kernel.bounds",le="+Inf"} 4
repro_stage_latency_seconds_sum{stage="kernel.bounds"} 0.5
repro_stage_latency_seconds_count{stage="kernel.bounds"} 4
"""


class TestExposition:
    def golden_families(self):
        return [
            MetricFamily(
                name="repro_requests_total",
                kind="counter",
                help="HTTP requests answered, by endpoint.",
                samples=[
                    ("", {"endpoint": "/v1/topk"}, 5.0),
                    ("", {"endpoint": "other"}, 1.0),
                ],
            ),
            MetricFamily(
                name="repro_trace_sample_rate",
                kind="gauge",
                help="Configured trace sampling rate.",
                samples=[("", {}, 0.25)],
            ),
            MetricFamily(
                name="repro_stage_latency_seconds",
                kind="histogram",
                help="Span durations by stage.",
                samples=histogram_samples(
                    {"stage": "kernel.bounds"}, [2, 1, 1], (0.001, 0.01), 0.5, 4
                ),
            ),
        ]

    def test_golden_rendering(self):
        assert render_exposition(self.golden_families()) == GOLDEN_EXPOSITION

    def test_golden_round_trips_through_the_parser(self):
        parsed = parse_exposition(GOLDEN_EXPOSITION)
        assert parsed["repro_requests_total"]["type"] == "counter"
        assert parsed["repro_stage_latency_seconds"]["type"] == "histogram"
        buckets = [
            sample
            for sample in parsed["repro_stage_latency_seconds"]["samples"]
            if sample[0] == "repro_stage_latency_seconds_bucket"
        ]
        assert [value for _, _, value in buckets] == [2.0, 3.0, 4.0]

    def test_label_values_are_escaped_and_recovered(self):
        tricky = 'quote " backslash \\ newline \n end'
        family = MetricFamily(
            name="repro_test_total",
            kind="counter",
            help="Help with \\ backslash\nand newline.",
            samples=[("", {"label": tricky}, 1.0)],
        )
        text = render_exposition([family])
        assert "\\n" in text and '\\"' in text
        parsed = parse_exposition(text)
        ((_, labels, value),) = parsed["repro_test_total"]["samples"]
        assert labels["label"] == tricky
        assert value == 1.0

    def test_histogram_samples_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            histogram_samples({}, [1, 2], (0.001, 0.01), 0.1, 3)

    def test_parser_rejects_non_cumulative_buckets(self):
        text = (
            "# TYPE repro_h histogram\n"
            'repro_h_bucket{le="0.001"} 5\n'
            'repro_h_bucket{le="+Inf"} 3\n'
            "repro_h_sum 0.1\n"
            "repro_h_count 3\n"
        )
        with pytest.raises(ExpositionError):
            parse_exposition(text)

    def test_parser_rejects_missing_inf_bucket(self):
        text = (
            "# TYPE repro_h histogram\n"
            'repro_h_bucket{le="0.001"} 5\n'
            "repro_h_sum 0.1\n"
            "repro_h_count 5\n"
        )
        with pytest.raises(ExpositionError):
            parse_exposition(text)

    def test_parser_rejects_count_not_matching_inf(self):
        text = (
            "# TYPE repro_h histogram\n"
            'repro_h_bucket{le="+Inf"} 5\n'
            "repro_h_sum 0.1\n"
            "repro_h_count 4\n"
        )
        with pytest.raises(ExpositionError):
            parse_exposition(text)

    def test_parser_rejects_samples_before_type(self):
        text = "repro_x_total 1\n# TYPE repro_x_total counter\n"
        with pytest.raises(ExpositionError):
            parse_exposition(text)

    def test_parser_rejects_invalid_metric_name(self):
        with pytest.raises(ExpositionError):
            parse_exposition("9bad_name 1\n")

    def test_bucket_edges_are_shared_and_in_seconds(self):
        # The whole layer hangs off one set of edges: sub-millisecond to
        # seconds, strictly increasing.
        assert LATENCY_BUCKETS[0] == 0.0005
        assert LATENCY_BUCKETS[-1] == 5.0
        assert list(LATENCY_BUCKETS) == sorted(LATENCY_BUCKETS)
