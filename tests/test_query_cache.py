"""The LRU query-result cache and its engine/sharded-engine wiring.

Correctness contract: a cache hit returns the very result a fresh search
would produce, because (a) keys include the config fingerprint and (b)
every mutation path clears the cache.
"""

import pytest

from repro import (
    EngineConfig,
    PresenceInstance,
    QueryResultCache,
    ShardedEngine,
    TraceQueryEngine,
)


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
        # The copy-on-hit contract must hold for *direct* get() callers, not
        # only fetch_or_compute (regression: get() used to hand out the live
        # stored object, so any caller mutating its hit poisoned later hits).
        cache = QueryResultCache(4)
        cache.put("a", [1, 2, 3])
        hit = cache.get("a")
        hit.append(99)
        assert cache.get("a") == [1, 2, 3]
        # A fetch_or_compute hit stays independent too (single copy, in get).
        fetched = cache.fetch_or_compute("a", list)
        fetched.clear()
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
    @pytest.fixture
    def cached_engine(self, small_dataset, small_measure):
        return TraceQueryEngine(
            small_dataset,
            measure=small_measure,
            num_hashes=32,
            seed=5,
            query_cache_size=8,
        ).build()

    def test_repeat_query_served_from_cache(self, cached_engine):
        first = cached_engine.top_k("a", k=3)
        second = cached_engine.top_k("a", k=3)
        assert second.items == first.items
        assert second.stats.__dict__ == first.stats.__dict__
        assert cached_engine.query_cache.stats.hits == 1

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

    def test_batch_results_match_uncached_engine(self, cached_engine, small_dataset, small_measure):
        uncached = TraceQueryEngine(
            small_dataset, measure=small_measure, num_hashes=32, seed=5
        ).build()
        queries = ["a", "b", "a", "d"]
        cached_batch = cached_engine.top_k_batch(queries, k=3)
        plain_batch = uncached.top_k_batch(queries, k=3)
        assert [r.items for r in cached_batch.results] == [r.items for r in plain_batch.results]
        assert [r.query_entity for r in cached_batch.results] == queries

    def test_distinct_parameters_get_distinct_entries(self, cached_engine):
        cached_engine.top_k("a", k=3)
        cached_engine.top_k("a", k=2)
        cached_engine.top_k("a", k=3, approximation=0.1)
        assert len(cached_engine.query_cache) == 3
        assert cached_engine.query_cache.stats.hits == 0

    def test_cache_disabled_by_default(self, small_engine):
        assert small_engine.query_cache is None
        first = small_engine.top_k("a", k=3)
        second = small_engine.top_k("a", k=3)
        assert first is not second
        assert first.items == second.items

    @pytest.mark.parametrize("mutate", ["add_records", "remove_entity", "refresh_entities"])
    def test_mutations_invalidate(self, cached_engine, small_hierarchy, mutate):
        cached_engine.top_k("a", k=3)
        assert len(cached_engine.query_cache) == 1
        base = small_hierarchy.base_units
        if mutate == "add_records":
            cached_engine.add_records([PresenceInstance("z", base[0], 0, 2)])
        elif mutate == "remove_entity":
            cached_engine.remove_entity("e")
        else:
            cached_engine.refresh_entities(["a"])
        assert len(cached_engine.query_cache) == 0
        # The next query reflects the mutation, not the stale entry.
        fresh = cached_engine.top_k("a", k=3)
        assert fresh.items == cached_engine.top_k("a", k=3).items
        assert cached_engine.query_cache.stats.hits == 1

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
    """The sharded engine caches *per-shard partial* results.

    One ``top_k`` over N shards costs N cache entries/lookups, and an update
    routed to one shard invalidates only that shard's entries (plus entries
    whose query entity was updated) -- the other shards' partials survive.
    """

    @pytest.fixture
    def cached_sharded(self, small_dataset, small_measure):
        return ShardedEngine(
            small_dataset,
            measure=small_measure,
            num_shards=2,
            num_hashes=32,
            seed=5,
            query_cache_size=8,
        ).build()

    def test_sharded_cache_hits_and_invalidation(self, cached_sharded, small_dataset):
        sharded = cached_sharded
        first = sharded.top_k("a", k=3)
        assert sharded.top_k("a", k=3).items == first.items
        # One hit per shard partial: two shards, so two hits.
        assert sharded.query_cache.stats.hits == 2
        assert len(sharded.query_cache) == 2
        # Shards never cache on their own: the sharded layer owns the cache.
        assert all(shard.query_cache is None for shard in sharded.shards)
        sharded.add_records(
            [PresenceInstance("a", small_dataset.hierarchy.base_units[1], 40, 42)]
        )
        # "a" was updated, so every partial about "a" is dropped.
        assert len(sharded.query_cache) == 0
        after = sharded.top_k("a", k=3)
        assert sharded.query_cache.stats.hits == 2  # recomputed, not served stale
        fresh = ShardedEngine(
            small_dataset, measure=sharded.measure, num_shards=2, num_hashes=32, seed=5
        ).build()
        assert after.items == fresh.top_k("a", k=3).items

    def test_update_preserves_unaffected_shard_partials(self, cached_sharded, small_dataset):
        sharded = cached_sharded
        sharded.top_k("a", k=3)
        sharded.top_k("d", k=3)
        assert len(sharded.query_cache) == 4  # two queries x two shard partials
        # Update an entity that is neither "a" nor "d": only its owning
        # shard's partials drop; the other shard's stay warm.
        victim = "e"
        assert victim not in ("a", "d")
        shard_of_victim = sharded.shard_of(victim)
        sharded.add_records(
            [PresenceInstance(victim, small_dataset.hierarchy.base_units[2], 40, 41)]
        )
        surviving = sharded.query_cache.keys()
        assert len(surviving) == 2
        assert all(key[0] != shard_of_victim for key in surviving)
        # Served answers after partial invalidation still match from-scratch.
        fresh = ShardedEngine(
            small_dataset, measure=sharded.measure, num_shards=2, num_hashes=32, seed=5
        ).build()
        for query in ("a", "d"):
            assert sharded.top_k(query, k=3).items == fresh.top_k(query, k=3).items

    def test_query_entity_update_drops_its_partials_on_every_shard(
        self, cached_sharded, small_dataset
    ):
        sharded = cached_sharded
        sharded.top_k("a", k=3)
        sharded.top_k("b", k=3)
        own_shard = sharded.shard_of("a")
        sharded.add_records(
            [PresenceInstance("a", small_dataset.hierarchy.base_units[3], 44, 45)]
        )
        # "a" partials vanish on *both* shards (its query sequence changed);
        # "b" partials survive only on the shard "a" does not live on.
        for key in sharded.query_cache.keys():
            assert key[1] == "b" and key[0] != own_shard
