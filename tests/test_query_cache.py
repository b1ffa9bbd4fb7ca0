"""The LRU query-result cache and the query front both engines share.

Correctness contract: a cache hit returns the very result a fresh search
would produce, because (a) keys include the config fingerprint and (b)
every index change clears the cache.  The single and the sharded engine
run the same ``top_k``/``top_k_batch`` (``repro.service.cache.QueryFront``),
so every engine-level test runs against both.
"""

import pytest

from repro import (
    EngineConfig,
    PresenceInstance,
    QueryResultCache,
    ShardedEngine,
    TraceQueryEngine,
)
from repro.core.query import TopKSearcher
from repro.obs.trace import ActiveTrace

ENGINE_KINDS = ["single", "sharded"]


def make_engine(kind, dataset, measure, **overrides):
    """A built engine of ``kind`` over ``dataset`` (two shards when sharded)."""
    if kind == "sharded":
        return ShardedEngine(
            dataset, measure=measure, num_shards=2, num_hashes=32, seed=5, **overrides
        ).build()
    return TraceQueryEngine(dataset, measure=measure, num_hashes=32, seed=5, **overrides).build()


class TestQueryResultCache:
    def test_bounded_lru_eviction(self):
        cache = QueryResultCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("c", 3)  # evicts "a", the least recently used
        assert cache.get("a") is None
        assert cache.get("b") == 2
        assert cache.get("c") == 3
        assert len(cache) == 2
        assert cache.stats.evictions == 1

    def test_get_refreshes_recency(self):
        cache = QueryResultCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # "b" becomes the LRU entry
        cache.put("c", 3)
        assert cache.get("b") is None
        assert cache.get("a") == 1

    def test_direct_get_returns_a_copy(self):
        # The copy-on-hit contract holds for every get() caller (regression:
        # get() used to hand out the live stored object, so any caller
        # mutating its hit poisoned later hits).
        cache = QueryResultCache(4)
        cache.put("a", [1, 2, 3])
        hit = cache.get("a")
        hit.append(99)
        assert cache.get("a") == [1, 2, 3]

    def test_put_refreshes_existing_key(self):
        cache = QueryResultCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)  # refresh, not insert: "b" is now LRU
        cache.put("c", 3)
        assert cache.get("a") == 10
        assert cache.get("b") is None

    def test_clear_and_stats(self):
        cache = QueryResultCache(4)
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache.get("missing") is None
        cache.clear()
        assert len(cache) == 0
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.invalidations == 1
        assert cache.stats.hit_rate == 0.5

    def test_size_validation(self):
        with pytest.raises(ValueError, match="max_entries"):
            QueryResultCache(0)

    def test_config_validation(self):
        with pytest.raises(ValueError, match="query_cache_size"):
            EngineConfig(query_cache_size=-1)


class TestEngineIntegration:
    @pytest.fixture(params=ENGINE_KINDS)
    def kind(self, request):
        return request.param

    @pytest.fixture
    def cached_engine(self, kind, small_dataset, small_measure):
        return make_engine(kind, small_dataset, small_measure, query_cache_size=8)

    def test_repeat_query_served_from_cache(self, cached_engine):
        first = cached_engine.top_k("a", k=3)
        second = cached_engine.top_k("a", k=3)
        assert second.items == first.items
        assert second.stats.__dict__ == first.stats.__dict__
        # One lookup per call, whatever the shard count: a miss, then a hit.
        stats = cached_engine.query_cache.stats
        assert (stats.hits, stats.misses) == (1, 1)
        assert len(cached_engine.query_cache) == 1

    def test_traced_hit_answers_at_the_lookup_span(self, cached_engine):
        cached_engine.top_k("a", k=3)
        trace = ActiveTrace("root")
        cached_engine.top_k("a", k=3, trace=trace.context())
        names = [span.name for span in trace.spans[1:]]
        assert names == ["cache.lookup"]
        assert trace.spans[1].attributes == {"hit": True}

    def test_mutating_a_result_does_not_poison_the_cache(self, cached_engine):
        first = cached_engine.top_k("a", k=3)
        pristine = list(first.items)
        first.items.reverse()
        second = cached_engine.top_k("a", k=3)
        assert second.items == pristine
        # And mutating a *hit* leaves later hits untouched too.
        second.items.clear()
        assert cached_engine.top_k("a", k=3).items == pristine

    def test_batch_path_shares_the_cache(self, cached_engine):
        single = cached_engine.top_k("a", k=3)
        batch = cached_engine.top_k_batch(["a", "b"], k=3)
        # "a" was a hit, only "b" was computed.
        assert cached_engine.query_cache.stats.hits == 1
        assert len(cached_engine.query_cache) == 2
        assert batch.results[0].items == single.items
        assert [r.query_entity for r in batch.results] == ["a", "b"]
        # A repeat batch is served entirely from the cache.
        again = cached_engine.top_k_batch(["a", "b"], k=3)
        assert [r.items for r in again.results] == [r.items for r in batch.results]
        assert cached_engine.query_cache.stats.hits == 3

    def test_cached_batch_runs_no_search(self, cached_engine, monkeypatch):
        queries = ["a", "b", "d"]
        for query in queries:
            cached_engine.top_k(query, k=3)
        expected = [cached_engine.top_k(query, k=3).items for query in queries]
        hits_before = cached_engine.query_cache.stats.hits

        def no_search(*args, **kwargs):
            raise AssertionError("a cached batch searched")

        monkeypatch.setattr(TopKSearcher, "search", no_search)
        monkeypatch.setattr(type(cached_engine.hash_family), "warm_cache", no_search)
        batch = cached_engine.top_k_batch(queries, k=3)
        assert [result.items for result in batch.results] == expected
        assert batch.warmed_cells == 0
        assert cached_engine.query_cache.stats.hits == hits_before + len(queries)

    def test_batch_results_match_uncached_engine(
        self, kind, cached_engine, small_dataset, small_measure
    ):
        uncached = make_engine(kind, small_dataset, small_measure)
        queries = ["a", "b", "a", "d"]
        cached_batch = cached_engine.top_k_batch(queries, k=3)
        plain_batch = uncached.top_k_batch(queries, k=3)
        assert [r.items for r in cached_batch.results] == [r.items for r in plain_batch.results]
        assert [r.query_entity for r in cached_batch.results] == queries

    @pytest.mark.parametrize("cache_size", [0, 8])
    def test_a_repeated_entity_is_searched_once(
        self, kind, cache_size, small_dataset, small_measure, monkeypatch
    ):
        """Cold cache or caching off, a batch repeating an entity runs its
        search once; every repeat gets its own copy of the very answer
        (items and all five counters) a per-query ``top_k`` gives."""
        engine = make_engine(kind, small_dataset, small_measure, query_cache_size=cache_size)
        reference = make_engine(kind, small_dataset, small_measure)
        searched = []
        search = engine._search

        def counting_search(entity, *args):
            searched.append(entity)
            return search(entity, *args)

        monkeypatch.setattr(engine, "_search", counting_search)
        batch = engine.top_k_batch(["a", "a", "b", "a"], k=3)
        assert sorted(searched) == ["a", "b"]
        for result, entity in zip(batch.results, ["a", "a", "b", "a"]):
            expected = reference.top_k(entity, k=3)
            assert result.items == expected.items
            assert result.stats.__dict__ == expected.stats.__dict__
        assert len({id(result) for result in batch.results}) == 4
        batch.results[0].items.clear()
        assert batch.results[1].items == reference.top_k("a", k=3).items

    def test_distinct_parameters_get_distinct_entries(self, cached_engine):
        cached_engine.top_k("a", k=3)
        cached_engine.top_k("a", k=2)
        cached_engine.top_k("a", k=3, approximation=0.1)
        assert len(cached_engine.query_cache) == 3
        assert cached_engine.query_cache.stats.hits == 0

    def test_cache_disabled_by_default(self, kind, small_dataset, small_measure):
        engine = make_engine(kind, small_dataset, small_measure)
        assert engine.query_cache is None
        first = engine.top_k("a", k=3)
        second = engine.top_k("a", k=3)
        assert first is not second
        assert first.items == second.items

    @pytest.mark.parametrize(
        "mutate",
        ["add_records", "remove_entity", "refresh_entities", "expire_events", "compact"],
    )
    def test_every_index_change_clears_the_cache(
        self, cached_engine, small_dataset, small_measure, mutate
    ):
        queries = sorted(small_dataset.entities)
        for query in queries:
            cached_engine.top_k(query, k=3)
        assert len(cached_engine.query_cache) == len(queries)
        invalidations = cached_engine.query_cache.stats.invalidations
        base = small_dataset.hierarchy.base_units
        if mutate == "add_records":
            cached_engine.add_records([PresenceInstance("z", base[0], 0, 2)])
        elif mutate == "remove_entity":
            cached_engine.remove_entity("e")
        elif mutate == "refresh_entities":
            cached_engine.refresh_entities(["a"])
        elif mutate == "expire_events":
            assert cached_engine.expire_events(10).changed_index
        else:
            cached_engine.compact()
        assert cached_engine.query_cache.stats.invalidations == invalidations + 1
        assert len(cached_engine.query_cache) == 0
        # The next answers reflect the change, not a stale entry.
        fresh = make_engine("single", small_dataset, small_measure)
        for query in sorted(small_dataset.entities):
            assert cached_engine.top_k(query, k=3).items == fresh.top_k(query, k=3).items

    def test_cached_result_matches_fresh_search_after_invalidation(
        self, cached_engine, small_hierarchy
    ):
        before = cached_engine.top_k("a", k=3)
        base = small_hierarchy.base_units
        # Give "c" heavy co-presence with "a": the cached ranking is stale.
        cached_engine.add_records(
            [PresenceInstance("c", base[0], t, t + 2) for t in range(0, 20, 2)]
        )
        after = cached_engine.top_k("a", k=3)
        assert after.items != before.items
        assert after.entities[0] in ("b", "c")


class TestShardedIntegration:
    """The sharded engine caches whole merged answers; its shards run uncached."""

    def test_shards_never_cache(self, small_dataset, small_measure):
        sharded = make_engine("sharded", small_dataset, small_measure, query_cache_size=8)
        sharded.top_k("a", k=3)
        assert all(shard.query_cache is None for shard in sharded.shards)
        assert sharded.query_cache.keys() == (("a", 3, 0.0, sharded.config.fingerprint()),)
