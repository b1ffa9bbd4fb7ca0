"""Unit tests for the streaming subsystem (repro.streaming).

The end-to-end streamed-vs-scratch guarantee lives in
``test_streaming_equivalence.py``; this module covers the pieces in
isolation: dataset expiry, engine-level retraction tiers, the sliding-window
policy, the micro-batching ingestor, and the replay driver.
"""

import pytest

from repro import (
    EventIngestor,
    PresenceInstance,
    ShardedEngine,
    SlidingWindow,
    SpatialHierarchy,
    StreamingConfig,
    TraceDataset,
    TraceQueryEngine,
    replay_events,
)
from repro.streaming import read_event_log
from repro.traces.io import iter_traces_csv, write_traces_csv


@pytest.fixture
def hierarchy():
    return SpatialHierarchy.regular([2, 2], prefix="s")


def unit(hierarchy, index=0):
    return hierarchy.base_units[index]


def build_engine(hierarchy, horizon=100, **knobs):
    knobs.setdefault("num_hashes", 16)
    knobs.setdefault("seed", 2)
    return TraceQueryEngine(TraceDataset(hierarchy, horizon=horizon), **knobs).build()


class TestDatasetExpiry:
    def test_partial_expiry_keeps_surviving_records(self, hierarchy):
        dataset = TraceDataset(hierarchy, horizon=50)
        dataset.add_record("a", unit(hierarchy), time=0, duration=2)
        dataset.add_record("a", unit(hierarchy), time=10, duration=2)
        removed = dataset.expire_before(5)
        assert removed == {"a": 1}
        assert [p.start for p in dataset.trace("a")] == [10]

    def test_full_expiry_removes_the_entity(self, hierarchy):
        dataset = TraceDataset(hierarchy, horizon=50)
        dataset.add_record("a", unit(hierarchy), time=0, duration=2)
        dataset.add_record("b", unit(hierarchy), time=20, duration=2)
        removed = dataset.expire_before(10)
        assert removed == {"a": 1}
        assert "a" not in dataset
        assert dataset.entities == ("b",)

    def test_boundary_is_inclusive(self, hierarchy):
        """A record with ``end == cutoff`` has left the window."""
        dataset = TraceDataset(hierarchy, horizon=50)
        dataset.add_record("a", unit(hierarchy), time=0, duration=5)  # [0, 5)
        assert dataset.expire_before(4) == {}
        assert dataset.expire_before(5) == {"a": 1}

    def test_expiry_never_shrinks_a_derived_horizon(self, hierarchy):
        dataset = TraceDataset(hierarchy)
        dataset.add_record("a", unit(hierarchy), time=30, duration=2)
        dataset.add_record("b", unit(hierarchy), time=5, duration=2)
        assert dataset.horizon == 32
        dataset.expire_before(32)
        assert dataset.horizon == 32


class TestEngineExpiry:
    def test_full_expiry_drops_entity_from_index(self, hierarchy):
        engine = build_engine(hierarchy)
        engine.add_records(
            [
                PresenceInstance("old", unit(hierarchy), 0, 2),
                PresenceInstance("new", unit(hierarchy), 40, 42),
            ]
        )
        report = engine.expire_events(10)
        assert report.removed_entities == ["old"]
        assert "old" not in engine.tree
        assert "old" not in engine.dataset
        assert report.expired_records == 1

    def test_redundant_expired_record_leaves_tree_untouched(self, hierarchy):
        """Expired cells that never held a minimum change no signature.

        ``[0, 2)`` is covered by the surviving ``[0, 4)`` record, so the
        entity's ST-cell sets -- and therefore its signature -- are
        identical after expiry, and the incremental retraction skips the
        tree surgery entirely.
        """
        engine = build_engine(hierarchy)
        engine.add_records(
            [
                PresenceInstance("a", unit(hierarchy), 0, 2),
                PresenceInstance("a", unit(hierarchy), 0, 4),
            ]
        )
        leaf_before = engine.tree.leaf_of("a")
        loose_before = engine.tree.loose_operations
        report = engine.expire_events(2)
        assert report.unchanged_entities == ["a"]
        assert report.resigned_entities == []
        assert engine.tree.leaf_of("a") is leaf_before
        assert engine.tree.loose_operations == loose_before

    def test_changed_signature_is_resigned(self, hierarchy):
        engine = build_engine(hierarchy)
        engine.add_records(
            [
                PresenceInstance("a", unit(hierarchy, 0), 0, 2),
                PresenceInstance("a", unit(hierarchy, 3), 40, 42),
            ]
        )
        report = engine.expire_events(10)
        assert report.resigned_entities == ["a"]
        assert report.affected_entities == ["a"]
        assert report.changed_index

    def test_noop_expiry_returns_empty_report(self, hierarchy):
        engine = build_engine(hierarchy)
        engine.add_records([PresenceInstance("a", unit(hierarchy), 40, 42)])
        report = engine.expire_events(10)
        assert report.expired_records == 0
        assert not report.changed_index

    def test_expiry_invalidates_the_query_cache(self, hierarchy):
        engine = build_engine(hierarchy, query_cache_size=4)
        engine.add_records(
            [
                PresenceInstance("a", unit(hierarchy), 0, 2),
                PresenceInstance("b", unit(hierarchy), 0, 2),
                PresenceInstance("b", unit(hierarchy), 40, 42),
            ]
        )
        engine.top_k("b", k=1)
        assert len(engine.query_cache) == 1
        engine.expire_events(10)
        assert len(engine.query_cache) == 0
        assert engine.top_k("b", k=1).items == []  # "a" is gone

    def test_compact_resets_looseness_and_preserves_results(self, hierarchy):
        engine = build_engine(hierarchy)
        records = []
        for slot in range(8):
            records.append(PresenceInstance(f"e{slot}", unit(hierarchy, slot % 4), slot, slot + 2))
            records.append(
                PresenceInstance(f"e{slot}", unit(hierarchy, (slot + 1) % 4), 20 + slot, 22 + slot)
            )
        engine.add_records(records)
        engine.expire_events(12)  # partial expiry: several re-signings
        assert engine.tree.loose_operations > 0
        before = {e: engine.top_k(e, k=3).items for e in engine.dataset.entities}
        engine.compact()
        assert engine.tree.loose_operations == 0
        for entity, items in before.items():
            assert engine.top_k(entity, k=3).items == items


class TestSlidingWindow:
    def test_unbounded_window_never_expires(self, hierarchy):
        engine = build_engine(hierarchy)
        engine.add_records([PresenceInstance("a", unit(hierarchy), 0, 2)])
        window = SlidingWindow(engine, length=None)
        assert window.advance(10_000) is None
        assert "a" in engine.dataset

    def test_cutoff_is_monotone(self, hierarchy):
        engine = build_engine(hierarchy)
        engine.add_records([PresenceInstance("a", unit(hierarchy), 0, 2)])
        window = SlidingWindow(engine, length=10)
        assert window.advance(30) is not None
        assert window.cutoff == 20
        # A stale watermark must not re-run (or somehow undo) the expiry.
        assert window.advance(25) is None
        assert window.advance(30) is None
        assert window.cutoff == 20

    def test_failed_expiry_leaves_the_window_retryable(self, hierarchy):
        engine = build_engine(hierarchy)
        engine.add_records([PresenceInstance("a", unit(hierarchy), 0, 2)])

        class FlakyEngine:
            """Delegates to the real engine; expire_events fails once."""

            def __init__(self, inner):
                self._inner = inner
                self.failures_left = 1

            def __getattr__(self, name):
                return getattr(self._inner, name)

            def expire_events(self, cutoff):
                if self.failures_left:
                    self.failures_left -= 1
                    raise RuntimeError("transient storage error")
                return self._inner.expire_events(cutoff)

        window = SlidingWindow(FlakyEngine(engine), length=10)
        with pytest.raises(RuntimeError, match="transient"):
            window.advance(30)
        # The cutoff must not be committed by the failed attempt; otherwise
        # the monotonicity check treats the retry as stale and the range is
        # silently skipped forever (the record would never expire).
        assert window.cutoff is None
        assert "a" in engine.dataset
        report = window.advance(30)  # same watermark: the retry
        assert report is not None
        assert report.removed_entities == ["a"]
        assert window.cutoff == 20
        assert "a" not in engine.dataset

    def test_cutoff_below_first_possible_end_is_a_noop(self, hierarchy):
        engine = build_engine(hierarchy)
        window = SlidingWindow(engine, length=10)
        assert window.advance(10) is None  # cutoff 0: no record can end <= 0
        assert window.cutoff is None

    def test_auto_compaction_threshold(self, hierarchy):
        engine = build_engine(hierarchy)
        engine.add_records(
            [PresenceInstance(f"e{slot}", unit(hierarchy, slot % 4), 0, 2) for slot in range(6)]
            + [PresenceInstance(f"e{slot}", unit(hierarchy, 3 - slot % 4), 30, 32) for slot in range(6)]
        )
        window = SlidingWindow(engine, length=20, compact_after=3)
        report = window.advance(40)  # expires the t=0 records, re-signs 6 entities
        assert len(report.resigned_entities) + len(report.removed_entities) >= 3
        assert window.stats.compactions == 1
        assert window.churn_since_compaction == 0
        assert engine.tree.loose_operations == 0

    def test_validation(self, hierarchy):
        engine = build_engine(hierarchy)
        with pytest.raises(ValueError, match="window length"):
            SlidingWindow(engine, length=0)
        with pytest.raises(ValueError, match="compact_after"):
            SlidingWindow(engine, length=5, compact_after=-1)


class TestEventIngestor:
    def test_buffers_until_batch_size(self, hierarchy):
        engine = build_engine(hierarchy)
        ingestor = EventIngestor(engine, max_batch_events=3)
        assert ingestor.submit(PresenceInstance("a", unit(hierarchy), 0, 2)) is None
        assert ingestor.submit(PresenceInstance("b", unit(hierarchy), 0, 2)) is None
        assert engine.dataset.num_entities == 0  # nothing flushed yet
        report = ingestor.submit(PresenceInstance("a", unit(hierarchy), 4, 6))
        assert report is not None
        assert report.events == 3
        assert report.affected_entities == ["a", "b"]
        assert engine.dataset.num_entities == 2
        assert ingestor.buffered_events == 0

    def test_watermark_tracks_submissions_not_flushes(self, hierarchy):
        engine = build_engine(hierarchy)
        ingestor = EventIngestor(engine, max_batch_events=10)
        ingestor.submit(PresenceInstance("a", unit(hierarchy), 0, 7))
        assert ingestor.watermark == 7
        ingestor.submit(PresenceInstance("b", unit(hierarchy), 0, 3))  # out of order
        assert ingestor.watermark == 7

    def test_context_manager_flushes_the_tail(self, hierarchy):
        engine = build_engine(hierarchy)
        with EventIngestor(engine, max_batch_events=100) as ingestor:
            ingestor.extend(
                [
                    PresenceInstance("a", unit(hierarchy), 0, 2),
                    PresenceInstance("b", unit(hierarchy), 0, 2),
                ]
            )
            assert engine.dataset.num_entities == 0
        assert engine.dataset.num_entities == 2

    def test_windowed_flush_reports_expiry(self, hierarchy):
        engine = build_engine(hierarchy)
        ingestor = EventIngestor(engine, max_batch_events=2, window=10)
        ingestor.extend(
            [
                PresenceInstance("old", unit(hierarchy), 0, 2),
                PresenceInstance("old2", unit(hierarchy), 1, 3),
            ]
        )
        reports = ingestor.extend(
            [
                PresenceInstance("new", unit(hierarchy), 40, 42),
                PresenceInstance("new2", unit(hierarchy), 41, 43),
            ]
        )
        assert len(reports) == 1
        expiry = reports[0].expiry
        assert expiry is not None and expiry.removed_entities == ["old", "old2"]
        assert sorted(engine.dataset.entities) == ["new", "new2"]
        assert ingestor.stats.events_flushed == 4
        assert ingestor.stats.mean_batch_size == 2.0

    def test_stats_accumulate(self, hierarchy):
        engine = build_engine(hierarchy)
        ingestor = EventIngestor(engine, max_batch_events=2)
        ingestor.extend(
            [PresenceInstance("a", unit(hierarchy), t, t + 1) for t in range(5)]
        )
        assert ingestor.stats.events_submitted == 5
        assert ingestor.stats.events_flushed == 4
        assert ingestor.stats.events_buffered == 1
        assert ingestor.stats.batches_flushed == 2
        # One entity, two flushes: re-signed once per flush.
        assert ingestor.stats.entities_reindexed == 2

    def test_late_arrival_below_the_cutoff_is_dropped_not_leaked(self, hierarchy):
        """Regression: an event already outside the window must not be indexed.

        A long-duration event pushes the watermark (and cutoff) far ahead;
        a short event arriving afterwards with ``end <= cutoff`` could never
        be expired by the monotone window, so it must be dropped at flush
        instead of leaking into the index forever.
        """
        engine = build_engine(hierarchy, horizon=200)
        ingestor = EventIngestor(engine, max_batch_events=1, window=10)
        ingestor.submit(PresenceInstance("a", unit(hierarchy), 1, 100))  # cutoff -> 90
        assert ingestor.window.cutoff == 90
        report = ingestor.submit(PresenceInstance("b", unit(hierarchy), 2, 3))
        assert report.dropped_late == 1
        assert report.events == 0
        assert "b" not in engine.dataset
        assert list(engine.dataset.entities) == ["a"]
        assert ingestor.stats.events_dropped_late == 1
        assert ingestor.stats.events_buffered == 0

    def test_event_expiring_within_its_own_flush_is_dropped_up_front(self, hierarchy):
        """An event that this very flush's cutoff advance would expire is
        never appended at all (no pointless index churn)."""
        engine = build_engine(hierarchy, horizon=200)
        ingestor = EventIngestor(engine, max_batch_events=2, window=10)
        report = ingestor.extend(
            [
                PresenceInstance("stale", unit(hierarchy), 2, 3),
                PresenceInstance("fresh", unit(hierarchy), 98, 100),  # cutoff becomes 90
            ]
        )[0]
        assert report.dropped_late == 1
        assert report.affected_entities == ["fresh"]
        assert list(engine.dataset.entities) == ["fresh"]

    def test_config_validation(self, hierarchy):
        engine = build_engine(hierarchy)
        with pytest.raises(ValueError, match="max_batch_events"):
            EventIngestor(engine, max_batch_events=0)
        with pytest.raises(TypeError, match="unknown streaming options"):
            EventIngestor(engine, batch_size=5)
        with pytest.raises(ValueError, match="window"):
            StreamingConfig(window=0)

    def test_works_against_a_sharded_engine(self, hierarchy):
        dataset = TraceDataset(hierarchy, horizon=100)
        sharded = ShardedEngine(dataset, num_shards=2, num_hashes=16, seed=2).build()
        ingestor = EventIngestor(sharded, max_batch_events=2, window=20)
        ingestor.extend(
            [
                PresenceInstance("a", unit(hierarchy), 0, 2),
                PresenceInstance("b", unit(hierarchy), 0, 2),
                PresenceInstance("c", unit(hierarchy, 1), 50, 52),
                PresenceInstance("d", unit(hierarchy, 1), 50, 52),
            ]
        )
        assert sorted(sharded.dataset.entities) == ["c", "d"]
        # Fully expired entities leave the routing table too.
        with pytest.raises(KeyError):
            sharded.shard_of("a")
        assert sharded.top_k("c", k=1).entities == ["d"]


class TestShardedExpiry:
    def test_aggregated_report_covers_all_shards(self, hierarchy):
        dataset = TraceDataset(hierarchy, horizon=100)
        sharded = ShardedEngine(dataset, num_shards=3, num_hashes=16, seed=2).build()
        names = ["e0", "e1", "e2", "e3", "e4", "e9"]
        records = [
            PresenceInstance(name, unit(hierarchy, slot % 4), 0, 2)
            for slot, name in enumerate(names)
        ] + [PresenceInstance("e0", unit(hierarchy), 50, 52)]
        sharded.add_records(records)
        # The names are chosen so the hash places them on every shard.
        assert {sharded.shard_of(name) for name in names} == {0, 1, 2}
        report = sharded.expire_events(25)
        assert sorted(report.removed_entities) == sorted(names[1:])
        assert report.resigned_entities == ["e0"]
        assert report.expired_records == 6
        assert sharded.dataset.entities == ("e0",)

    def test_sharded_compact(self, hierarchy):
        dataset = TraceDataset(hierarchy, horizon=100)
        sharded = ShardedEngine(dataset, num_shards=2, num_hashes=16, seed=2).build()
        sharded.add_records(
            [PresenceInstance(f"e{slot}", unit(hierarchy, slot % 4), 0, 2) for slot in range(8)]
            + [PresenceInstance(f"e{slot}", unit(hierarchy, 3 - slot % 4), 30, 32) for slot in range(8)]
        )
        sharded.expire_events(10)
        before = {e: sharded.top_k(e, k=3).items for e in sharded.dataset.entities}
        sharded.compact()
        assert all(shard.tree.loose_operations == 0 for shard in sharded.shards)
        for entity, items in before.items():
            assert sharded.top_k(entity, k=3).items == items


class TestReplay:
    def make_log(self, hierarchy, count=30):
        events = []
        for index in range(count):
            entity = f"r{index % 5}"
            events.append(
                PresenceInstance(entity, unit(hierarchy, index % 4), index, index + 2)
            )
        return events

    def test_replay_matches_direct_ingest(self, hierarchy):
        events = self.make_log(hierarchy)
        streamed = build_engine(hierarchy)
        report = replay_events(streamed, events, max_batch_events=7, window=15)
        direct = build_engine(hierarchy)
        ingestor = EventIngestor(direct, max_batch_events=7, window=15)
        ingestor.extend(events)
        ingestor.close()
        assert report.events == len(events)
        assert sorted(streamed.dataset.entities) == sorted(direct.dataset.entities)
        for entity in streamed.dataset.entities:
            assert streamed.top_k(entity, k=3).items == direct.top_k(entity, k=3).items

    def test_interleaved_queries_and_skips(self, hierarchy):
        events = self.make_log(hierarchy)
        engine = build_engine(hierarchy)
        seen = []
        report = replay_events(
            engine,
            events,
            max_batch_events=5,
            query_entities=["r0", "absent"],
            query_every=10,
            k=2,
            on_query=lambda index, result: seen.append((index, result.query_entity)),
        )
        # Queries fire at events 10, 20, 30: r0, absent (skipped), r0.
        assert report.queries_answered == 2
        assert report.queries_skipped == 1
        assert seen == [(10, "r0"), (30, "r0")]

    def test_validation(self, hierarchy):
        engine = build_engine(hierarchy)
        with pytest.raises(ValueError, match="rate"):
            replay_events(engine, [], rate=-1)
        with pytest.raises(ValueError, match="query_entities"):
            replay_events(engine, [], query_every=5)

    def test_read_event_log_orders_by_time(self, hierarchy, tmp_path):
        dataset = TraceDataset(hierarchy, horizon=50)
        dataset.add_record("b", unit(hierarchy), time=9, duration=1)
        dataset.add_record("b", unit(hierarchy), time=0, duration=1)
        dataset.add_record("a", unit(hierarchy), time=4, duration=1)
        path = tmp_path / "log.csv"
        write_traces_csv(dataset, path)
        events = read_event_log(path)
        assert [(e.entity, e.start) for e in events] == [("b", 0), ("a", 4), ("b", 9)]
        # The raw iterator preserves file order instead.
        raw = list(iter_traces_csv(path))
        assert [(e.entity, e.start) for e in raw] == [("b", 9), ("b", 0), ("a", 4)]
