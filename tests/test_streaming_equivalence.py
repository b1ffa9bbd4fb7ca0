"""The streaming equivalence guarantee, pinned by fuzzing.

After **any** interleaving of micro-batched ingests, sliding-window
expiries, compactions, and queries, the streamed engine's ``top_k`` results
must be identical to a from-scratch engine built over the surviving events
with the same configuration and horizon -- for the single engine and for
sharded deployments (shard counts {1, 2, 4}), with the query cache enabled.

Every engine searches with the admissible per-level bound, so result
equality is a theorem rather than an empirical observation: loose
group-level signatures left by retraction weaken pruning but can never
change an exact search's answer.
"""


import pytest

from repro import (
    EventIngestor,
    PresenceInstance,
    ShardedEngine,
    SpatialHierarchy,
    TraceDataset,
    TraceQueryEngine,
)
from repro.core.columnar import ColumnarTree

HORIZON = 120
KNOBS = dict(num_hashes=32, seed=7)


@pytest.fixture(scope="module")
def hierarchy():
    return SpatialHierarchy.regular([2, 3, 2], prefix="f")


def make_stream(hierarchy, rng, count, num_entities=14, span=100, long_every=0):
    """A time-ordered random event stream over a small entity population.

    ``long_every > 0`` mixes in one long-duration event per that many
    events; a long event pushes the watermark far ahead of same-``start``
    short events, which is exactly the interleaving where flush-time
    late-arrival dropping matters.
    """
    events = []
    for index in range(count):
        start = rng.randrange(0, span)
        duration = rng.randrange(1, 4)
        if long_every and index % long_every == 0:
            duration = rng.randrange(20, 60)
        events.append(
            PresenceInstance(
                entity=f"s{rng.randrange(num_entities)}",
                unit=rng.choice(hierarchy.base_units),
                start=start,
                end=start + duration,
            )
        )
    events.sort(key=lambda p: (p.start, p.end, p.entity, p.unit))
    return events


def scratch_engine(hierarchy, events, **extra):
    """A from-scratch single engine over exactly ``events``."""
    dataset = TraceDataset(hierarchy, horizon=HORIZON)
    for event in events:
        dataset.add_presence(event)
    knobs = dict(KNOBS)
    knobs.update(extra)
    return TraceQueryEngine(dataset, **knobs).build()


def surviving(events, cutoff):
    """The events a window with the given cutoff retains (all, when None)."""
    if cutoff is None:
        return list(events)
    return [event for event in events if event.end > cutoff]


def assert_streamed_matches_scratch(streamed, scratch, k_values=(1, 3, 10)):
    streamed_entities = sorted(streamed.dataset.entities)
    assert streamed_entities == sorted(scratch.dataset.entities)
    for query in streamed_entities:
        for k in k_values:
            live = streamed.top_k(query, k=k)
            fresh = scratch.top_k(query, k=k)
            assert live.items == fresh.items, (
                f"divergence for query {query!r} k={k}: {live.items} != {fresh.items}"
            )


class TestSingleEngineFuzz:
    @pytest.mark.parametrize("fuzz_seed", [11, 23, 47])
    def test_random_ingest_expire_query_interleavings(self, hierarchy, fuzz_seed, seeded_rng):
        rng = seeded_rng(fuzz_seed)
        events = make_stream(hierarchy, rng, count=240)
        engine = scratch_engine(hierarchy, [])
        ingestor = EventIngestor(
            engine,
            max_batch_events=rng.choice([1, 5, 16]),
            window=rng.choice([25, 40]),
            compact_after=rng.choice([0, 8]),
        )
        flushed = 0
        for index, event in enumerate(events, start=1):
            ingestor.submit(event)
            if rng.random() < 0.05:
                # Checkpoint: flush the tail and face off against scratch.
                ingestor.flush()
                flushed = index
                scratch = scratch_engine(
                    hierarchy, surviving(events[:flushed], ingestor.window.cutoff)
                )
                assert_streamed_matches_scratch(engine, scratch, k_values=(3,))
        ingestor.close()
        scratch = scratch_engine(hierarchy, surviving(events, ingestor.window.cutoff))
        assert_streamed_matches_scratch(engine, scratch)

    @pytest.mark.parametrize("fuzz_seed", [13, 61])
    def test_long_duration_events_and_late_arrivals(self, hierarchy, fuzz_seed, seeded_rng):
        """Regression fuzz: long events race the watermark past short ones.

        A long-duration event can push the cutoff beyond a same-``start``
        short event still in flight; the ingestor must drop such late
        arrivals instead of indexing records the window can never expire.
        """
        rng = seeded_rng(fuzz_seed)
        events = make_stream(hierarchy, rng, count=200, long_every=7)
        engine = scratch_engine(hierarchy, [])
        ingestor = EventIngestor(engine, max_batch_events=3, window=25, compact_after=9)
        ingestor.extend(events)
        ingestor.close()
        assert ingestor.stats.events_dropped_late > 0  # the race actually fired
        scratch = scratch_engine(hierarchy, surviving(events, ingestor.window.cutoff))
        assert_streamed_matches_scratch(engine, scratch)

    def test_everything_can_expire(self, hierarchy, seeded_rng):
        """A stream with a gap longer than the window empties the index."""
        rng = seeded_rng(5)
        early = make_stream(hierarchy, rng, count=40, span=10)
        late = [
            PresenceInstance("phoenix", hierarchy.base_units[0], 100, 102),
        ]
        engine = scratch_engine(hierarchy, [])
        ingestor = EventIngestor(engine, max_batch_events=8, window=20)
        ingestor.extend(early + late)
        ingestor.close()
        assert sorted(engine.dataset.entities) == ["phoenix"]
        scratch = scratch_engine(hierarchy, surviving(early + late, ingestor.window.cutoff))
        assert_streamed_matches_scratch(engine, scratch)


class TestShardedFuzz:
    @pytest.mark.parametrize("num_shards", [1, 2, 4])
    def test_sharded_streamed_matches_single_scratch(self, hierarchy, num_shards, seeded_rng):
        """Streamed sharded serving (cache on) == from-scratch single engine.

        This is the strongest cross-check: the streamed index diverges from
        scratch in tree tightness, the sharded merge reassembles partials,
        and the cache serves repeats -- results must still be identical.
        """
        rng = seeded_rng(300 + num_shards)
        events = make_stream(hierarchy, rng, count=220)
        dataset = TraceDataset(hierarchy, horizon=HORIZON)
        # Sized above the distinct partial-key count (entities x k values x
        # shards), so the second face-off pass really serves from the cache.
        sharded = ShardedEngine(
            dataset, num_shards=num_shards, query_cache_size=512, **KNOBS
        ).build()
        ingestor = EventIngestor(
            sharded, max_batch_events=12, window=35, compact_after=10
        )
        for index, event in enumerate(events, start=1):
            ingestor.submit(event)
            # Interleave cached queries against the half-ingested stream;
            # each result must match an uncached from-scratch single engine
            # over the flushed-and-surviving prefix.
            if index % 60 == 0:
                ingestor.flush()
                scratch = scratch_engine(
                    hierarchy, surviving(events[:index], ingestor.window.cutoff)
                )
                assert_streamed_matches_scratch(sharded, scratch, k_values=(3,))
        ingestor.close()
        scratch = scratch_engine(hierarchy, surviving(events, ingestor.window.cutoff))
        # Twice: the second pass is served from the (partial-result) cache.
        assert_streamed_matches_scratch(sharded, scratch)
        assert_streamed_matches_scratch(sharded, scratch)
        assert sharded.query_cache.stats.hits > 0

    def test_three_shard_fuzz(self, hierarchy, seeded_rng):
        rng = seeded_rng(77)
        events = make_stream(hierarchy, rng, count=150)
        dataset = TraceDataset(hierarchy, horizon=HORIZON)
        sharded = ShardedEngine(
            dataset, num_shards=3, query_cache_size=32, **KNOBS
        ).build()
        ingestor = EventIngestor(sharded, max_batch_events=9, window=45)
        ingestor.extend(events)
        ingestor.close()
        scratch = scratch_engine(hierarchy, surviving(events, ingestor.window.cutoff))
        assert_streamed_matches_scratch(sharded, scratch)


class TestIncrementalRecompileFuzz:
    """The delta-patch kernel maintenance path, under streamed mutations.

    Every fuzz above already answers through patched kernels (the searcher
    patches whenever ``ColumnarTree.patch`` accepts the delta); this class
    pins the *stronger* guarantee the patch path promises: at every
    checkpoint the live (possibly patched) kernel's exported arrays are
    **byte-identical** to a from-scratch :meth:`ColumnarTree.compile` over
    the same tree and dataset -- and at least one checkpoint was actually
    served by a patch, so the assertion exercises the splice, not just the
    fallback.
    """

    @pytest.mark.parametrize("fuzz_seed", [17, 29, 53])
    def test_patched_kernel_byte_identical_to_fresh_compile(
        self, hierarchy, fuzz_seed, seeded_rng
    ):
        rng = seeded_rng(fuzz_seed)
        # Small micro-batches over a wider population keep per-flush churn
        # under the staleness threshold, so flushes patch instead of
        # falling back to a full recompile.
        events = make_stream(hierarchy, rng, count=240, num_entities=24)
        engine = scratch_engine(hierarchy, [])
        ingestor = EventIngestor(
            engine,
            max_batch_events=rng.choice([1, 2, 3]),
            window=rng.choice([30, 45]),
            compact_after=rng.choice([0, 6]),
        )
        checkpoints = 0
        for index, event in enumerate(events, start=1):
            ingestor.submit(event)
            if rng.random() < 0.06:
                ingestor.flush()
                if not engine.dataset.entities:
                    continue
                # Serve one query so the kernel refreshes (patch or
                # recompile), then face the live arrays off against a
                # from-scratch compile of the very same tree.
                engine.top_k(sorted(engine.dataset.entities)[0], k=3)
                live = engine.searcher.compiled_tree().export_arrays()
                fresh = ColumnarTree.compile(engine._tree, engine.dataset).export_arrays()
                assert sorted(live) == sorted(fresh)
                for name, array in live.items():
                    assert array.dtype == fresh[name].dtype, name
                    assert array.tobytes() == fresh[name].tobytes(), (
                        f"seed {fuzz_seed}: array {name!r} diverged after "
                        f"{index} events ({engine.searcher.kernel_patches} patches, "
                        f"{engine.searcher.kernel_compiles} compiles)"
                    )
                checkpoints += 1
        ingestor.close()
        assert checkpoints >= 4  # the 6% checkpoint coin actually fired
        assert engine.searcher.kernel_patches > 0  # the splice path really ran
        scratch = scratch_engine(hierarchy, surviving(events, ingestor.window.cutoff))
        assert_streamed_matches_scratch(engine, scratch)
