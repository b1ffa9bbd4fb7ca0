"""ShardedEngine: exact equivalence with the single engine, plus routing.

The acceptance contract: for every shard count, ``top_k`` and
``top_k_batch`` over the sharded deployment return exactly the single
engine's results -- including after interleaved ``add_records`` /
``remove_entity`` updates -- because shard hash families are identical and
per-shard searches are exact over a partition of the candidates.
"""

import hashlib
import json
import os
import subprocess
import sys

import pytest

import repro
from repro import PresenceInstance, ShardedEngine, TraceDataset, TraceQueryEngine
from repro.storage.snapshot import SnapshotError

SHARD_COUNTS = (1, 2, 4)


def clone_dataset(dataset: TraceDataset) -> TraceDataset:
    """An independent copy (engines mutate their dataset on updates)."""
    copy = TraceDataset(dataset.hierarchy, horizon=dataset.explicit_horizon)
    for entity in dataset.entities:
        copy.restore_trace(entity, dataset.trace(entity))
    return copy


def assert_same_results(sharded_result, single_result):
    assert sharded_result.items == single_result.items
    assert sharded_result.stats.population == single_result.stats.population


@pytest.fixture(scope="module")
def syn(syn_dataset):
    return syn_dataset


class TestEquivalence:
    @pytest.mark.parametrize("num_shards", SHARD_COUNTS)
    def test_top_k_matches_single_engine(self, syn, num_shards):
        single = TraceQueryEngine(clone_dataset(syn), num_hashes=64, seed=11).build()
        sharded = ShardedEngine(
            clone_dataset(syn), num_shards=num_shards, num_hashes=64, seed=11
        ).build()
        for query in list(syn.entities)[:6]:
            assert_same_results(sharded.top_k(query, k=10), single.top_k(query, k=10))

    @pytest.mark.parametrize("num_shards", SHARD_COUNTS)
    def test_top_k_batch_matches_single_engine(self, syn, num_shards):
        single = TraceQueryEngine(clone_dataset(syn), num_hashes=64, seed=11).build()
        sharded = ShardedEngine(
            clone_dataset(syn), num_shards=num_shards, num_hashes=64, seed=11
        ).build()
        queries = list(syn.entities)[:8]
        single_batch = single.top_k_batch(queries, k=10)
        for workers in (0, 3):
            sharded_batch = sharded.top_k_batch(queries, k=10, workers=workers)
            assert [r.query_entity for r in sharded_batch] == queries
            for sharded_result, single_result in zip(sharded_batch, single_batch):
                assert_same_results(sharded_result, single_result)

    @pytest.mark.parametrize("num_shards", SHARD_COUNTS)
    def test_equivalence_after_interleaved_updates(self, syn, num_shards):
        """add/remove/re-add interleaved with queries stays exactly equal."""
        single = TraceQueryEngine(clone_dataset(syn), num_hashes=64, seed=11).build()
        sharded = ShardedEngine(
            clone_dataset(syn), num_shards=num_shards, num_hashes=64, seed=11
        ).build()
        entities = list(syn.entities)
        base_units = syn.hierarchy.base_units
        victim, query = entities[3], entities[0]

        new_records = [
            PresenceInstance("late-arrival", base_units[0], 1, 4),
            PresenceInstance("late-arrival", base_units[5], 10, 12),
            PresenceInstance(entities[1], base_units[0], 2, 3),
        ]
        assert single.add_records(new_records) == sharded.add_records(new_records)
        assert_same_results(sharded.top_k(query, k=10), single.top_k(query, k=10))

        single.remove_entity(victim)
        sharded.remove_entity(victim)
        assert_same_results(sharded.top_k(query, k=10), single.top_k(query, k=10))
        assert victim not in sharded.dataset

        # Re-introduce the removed entity with a fresh trace.
        revived = [PresenceInstance(victim, base_units[2], 6, 9)]
        single.add_records(revived)
        sharded.add_records(revived)
        assert_same_results(sharded.top_k(query, k=10), single.top_k(query, k=10))
        assert_same_results(sharded.top_k(victim, k=10), single.top_k(victim, k=10))

    @pytest.mark.parametrize("fuzz_seed", [0, 1, 2])
    def test_per_level_bound_equivalence_is_unconditional(self, fuzz_seed):
        """With the admissible per-level bound, equality holds on any data.

        Random datasets with deliberately duplicated traces (score ties and
        heavy coarse-level overlap -- the paper's lifted bound's weak spot)
        must give identical sharded and single-engine answers for every
        query and shard count.
        """
        import random

        from repro import SpatialHierarchy

        rng = random.Random(fuzz_seed)
        hierarchy = SpatialHierarchy.regular([2, 3, 3], prefix="f")
        dataset = TraceDataset(hierarchy, horizon=24)
        bases = hierarchy.base_units
        for index in range(30):
            entity = f"e{index}"
            for _ in range(rng.randint(1, 8)):
                dataset.add_record(
                    entity, rng.choice(bases), rng.randrange(22), duration=rng.randint(1, 2)
                )
            if rng.random() < 0.4:  # a twin with an identical trace
                for presence in dataset.trace(entity):
                    dataset.add_record(
                        f"{entity}-twin", presence.unit, presence.start, presence.duration
                    )
        knobs = dict(num_hashes=32, seed=fuzz_seed)
        single = TraceQueryEngine(clone_dataset(dataset), **knobs).build()
        for num_shards in SHARD_COUNTS:
            sharded = ShardedEngine(
                clone_dataset(dataset), num_shards=num_shards, **knobs
            ).build()
            for query in dataset.entities:
                assert sharded.top_k(query, k=5).items == single.top_k(query, k=5).items

    def test_query_entity_in_another_shard(self, small_dataset, small_measure):
        """Every entity is queryable regardless of which shard owns it."""
        single = TraceQueryEngine(
            clone_dataset(small_dataset), measure=small_measure, num_hashes=32, seed=5
        ).build()
        sharded = ShardedEngine(
            clone_dataset(small_dataset),
            measure=small_measure,
            num_shards=3,
            num_hashes=32,
            seed=5,
        ).build()
        for query in small_dataset.entities:
            assert_same_results(sharded.top_k(query, k=3), single.top_k(query, k=3))

    def test_tied_scores_resolve_identically(self, small_hierarchy):
        """Exact score ties at the k boundary pick the same entities.

        Entities with identical traces score identically; both the single
        engine and the sharded merge must retain the lexicographically
        smallest tied entities, whatever the leaf traversal or shard layout.
        """
        dataset = TraceDataset(small_hierarchy, horizon=24)
        base = small_hierarchy.base_units
        for entity in ("q", "zz", "aa", "mm"):
            for t in range(0, 10, 2):
                dataset.add_record(entity, base[0], t, duration=2)
        for k in (1, 2, 3):
            single = TraceQueryEngine(clone_dataset(dataset), num_hashes=16, seed=3).build()
            expected = single.top_k("q", k=k)
            assert expected.entities == ["aa", "mm", "zz"][:k]
            for num_shards in (2, 4):
                sharded = ShardedEngine(
                    clone_dataset(dataset), num_shards=num_shards, num_hashes=16, seed=3
                ).build()
                assert sharded.top_k("q", k=k).items == expected.items

    def test_more_shards_than_entities(self, small_dataset, small_measure):
        """Empty shards are legal and contribute nothing."""
        sharded = ShardedEngine(
            clone_dataset(small_dataset),
            measure=small_measure,
            num_shards=16,
            num_hashes=32,
            seed=5,
        ).build()
        single = TraceQueryEngine(
            clone_dataset(small_dataset), measure=small_measure, num_hashes=32, seed=5
        ).build()
        assert_same_results(sharded.top_k("a", k=3), single.top_k("a", k=3))


class TestRoutingAndLifecycle:
    def test_requires_build(self, small_dataset):
        sharded = ShardedEngine(clone_dataset(small_dataset), num_shards=2, num_hashes=16)
        with pytest.raises(RuntimeError, match="build"):
            sharded.top_k("a", k=1)
        with pytest.raises(RuntimeError, match="build"):
            sharded.add_records([])

    def test_updates_route_to_owning_shard(self, small_dataset, small_hierarchy):
        sharded = ShardedEngine(clone_dataset(small_dataset), num_shards=2, num_hashes=16).build()
        base = small_hierarchy.base_units
        affected = sharded.add_records([PresenceInstance("fresh", base[0], 0, 2)])
        assert affected == ["fresh"]
        owner = sharded.shard_of("fresh")
        assert "fresh" in sharded.shards[owner].dataset
        other = sharded.shards[1 - owner]
        assert "fresh" not in other.dataset

    def test_remove_unknown_entity_raises(self, small_dataset):
        sharded = ShardedEngine(clone_dataset(small_dataset), num_shards=2, num_hashes=16).build()
        with pytest.raises(KeyError, match="nobody"):
            sharded.remove_entity("nobody")

    def test_refresh_entities_syncs_shard_copy(self, small_dataset, small_hierarchy):
        sharded = ShardedEngine(clone_dataset(small_dataset), num_shards=2, num_hashes=16).build()
        single = TraceQueryEngine(clone_dataset(small_dataset), num_hashes=16).build()
        base = small_hierarchy.base_units
        # Mutate the trace out of band on both substrates, then refresh.
        replacement = [PresenceInstance("a", base[3], 5, 9)]
        sharded.dataset.replace_trace("a", replacement)
        single.dataset.replace_trace("a", replacement)
        sharded.refresh_entities(["a"])
        single.refresh_entities(["a"])
        owner = sharded.shard_of("a")
        assert sharded.shards[owner].dataset.trace("a") == tuple(replacement)
        assert_same_results(sharded.top_k("b", k=3), single.top_k("b", k=3))

    def test_invalid_shard_count(self, small_dataset):
        with pytest.raises(ValueError, match="num_shards"):
            ShardedEngine(small_dataset, num_shards=0)


def hash_shard(entity: str, num_shards: int) -> int:
    """The placement rule, restated independently of the engine."""
    digest = hashlib.blake2b(entity.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big") % num_shards


class TestPlacement:
    def test_hash_placement_is_pinned(self, small_hierarchy):
        """Placement is a pure function of the identifier, fixed across builds."""
        dataset = TraceDataset(small_hierarchy, horizon=24)
        for index in range(10):
            dataset.add_record(f"syn-{index}", small_hierarchy.base_units[index % 4], index)
        placements = [
            [engine.shard_of(f"syn-{index}") for index in range(10)]
            for engine in (
                ShardedEngine(clone_dataset(dataset), num_shards=3, num_hashes=16).build()
                for _ in range(2)
            )
        ]
        assert placements[0] == placements[1] == [2, 1, 2, 2, 2, 2, 1, 0, 0, 2]

    def test_placement_agrees_across_processes(self):
        """The digest, not ``hash()``, places: ``PYTHONHASHSEED`` has no say."""
        script = (
            "from repro.service.sharded import _hash_shard\n"
            "print([_hash_shard(f'syn-{index}', 3) for index in range(10)])\n"
        )
        src_dir = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        placements = []
        for hash_seed in ("0", "4242"):
            completed = subprocess.run(
                [sys.executable, "-c", script],
                env={**os.environ, "PYTHONPATH": src_dir, "PYTHONHASHSEED": hash_seed},
                capture_output=True,
                text=True,
                timeout=60,
                check=True,
            )
            placements.append(completed.stdout.strip())
        assert placements == ["[2, 1, 2, 2, 2, 2, 1, 0, 0, 2]"] * 2

    @pytest.mark.parametrize("num_shards", [2, 3, 5])
    def test_every_entity_lands_on_its_hash_shard(self, small_hierarchy, num_shards):
        dataset = TraceDataset(small_hierarchy, horizon=24)
        entities = [f"entity-{index}" for index in range(200)]
        for index, entity in enumerate(entities):
            dataset.add_record(entity, small_hierarchy.base_units[index % 8], index % 24)
        sharded = ShardedEngine(dataset, num_shards=num_shards, num_hashes=8).build()
        for entity in entities:
            owner = sharded.shard_of(entity)
            assert owner == hash_shard(entity, num_shards)
            assert entity in sharded.shards[owner].dataset
        sizes = [shard.dataset.num_entities for shard in sharded.shards]
        assert sum(sizes) == len(entities)
        # A stable digest spreads identifiers evenly: every shard gets a share
        # within a loose envelope of fair.
        fair = len(entities) / num_shards
        assert min(sizes) > fair / 2
        assert max(sizes) < 2 * fair
        assert sharded.runtime_stats()["shard_sizes"] == sizes


def write_manifest(target, **changes):
    manifest_path = target / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest.update(changes)
    manifest_path.write_text(json.dumps(manifest))


class TestShardedSnapshot:
    @pytest.mark.parametrize(
        "partitioner_block",
        [
            None,
            {"kind": "hash"},
            {"kind": "round_robin", "next_shard": 1},
            {"kind": "consistent_hash"},
        ],
        ids=["current", "hash", "round_robin", "consistent_hash"],
    )
    def test_save_load_round_trip(self, syn, tmp_path, partitioner_block):
        """Manifests from older builds load, keep placement, hash new entities.

        Older builds wrote a ``partitioner`` block and could place entities
        by other rules; a deployment dealt out in rotation stands in for
        those, and must keep every stored entity on its saved shard.
        """
        sharded = ShardedEngine(clone_dataset(syn), num_shards=3, num_hashes=64, seed=11)
        if partitioner_block is not None and partitioner_block["kind"] != "hash":
            sharded._shard_of = {
                entity: index % 3 for index, entity in enumerate(syn.entities)
            }
        sharded.build()
        sharded.save(tmp_path / "snap")
        if partitioner_block is not None:
            write_manifest(tmp_path / "snap", partitioner=partitioner_block)
        restored = ShardedEngine.load(tmp_path / "snap")
        assert restored.num_shards == 3
        assert restored.num_entities == sharded.num_entities
        for entity in syn.entities:
            assert restored.shard_of(entity) == sharded.shard_of(entity)
        for query in list(syn.entities)[:5]:
            assert restored.top_k(query, k=10).items == sharded.top_k(query, k=10).items
        records = [PresenceInstance("post-restore", syn.hierarchy.base_units[0], 0, 3)]
        restored.add_records(records)
        assert restored.shard_of("post-restore") == hash_shard("post-restore", 3)

    def test_save_writes_no_placement_block(self, small_dataset, tmp_path):
        """Placement is not configurable, so the manifest records none."""
        sharded = ShardedEngine(clone_dataset(small_dataset), num_shards=2, num_hashes=16).build()
        sharded.save(tmp_path / "snap")
        manifest = json.loads((tmp_path / "snap" / "manifest.json").read_text())
        assert set(manifest) == {
            "format",
            "format_version",
            "num_shards",
            "shards",
            "config",
            "fingerprint",
        }
        assert manifest["num_shards"] == 2
        assert manifest["shards"] == ["shard-00", "shard-01"]

    def test_runtime_stats_carry_no_placement_field(self, small_dataset):
        sharded = ShardedEngine(clone_dataset(small_dataset), num_shards=3, num_hashes=16)
        assert "partitioner" not in sharded.runtime_stats()
        stats = sharded.build().runtime_stats()
        assert "partitioner" not in stats
        assert stats["num_shards"] == 3
        assert sum(stats["shard_sizes"]) == small_dataset.num_entities
        assert "shards=3" in repr(sharded)

    def test_loaded_deployment_supports_updates(self, syn, tmp_path):
        sharded = ShardedEngine(clone_dataset(syn), num_shards=2, num_hashes=64, seed=11).build()
        sharded.save(tmp_path / "snap")
        restored = ShardedEngine.load(tmp_path / "snap")
        base_units = syn.hierarchy.base_units
        records = [PresenceInstance("post-restore", base_units[0], 0, 3)]
        assert sharded.add_records(records) == restored.add_records(records)
        query = list(syn.entities)[0]
        assert restored.top_k(query, k=10).items == sharded.top_k(query, k=10).items

    def test_resave_with_fewer_shards_drops_stale_directories(self, small_dataset, tmp_path):
        target = tmp_path / "snap"
        ShardedEngine(clone_dataset(small_dataset), num_shards=4, num_hashes=16).build().save(
            target
        )
        assert (target / "shard-03").is_dir()
        ShardedEngine(clone_dataset(small_dataset), num_shards=2, num_hashes=16).build().save(
            target
        )
        assert not (target / "shard-02").exists()
        assert not (target / "shard-03").exists()
        restored = ShardedEngine.load(target)
        assert restored.num_shards == 2
        assert restored.num_entities == small_dataset.num_entities

    @pytest.mark.parametrize(
        "changes",
        [
            {"shards": ["../t/shard-00", "../t/shard-01"]},
            {"num_shards": 2.9},
            {"num_shards": True},
            {"num_shards": 0},
            {"num_shards": 3},
            {"shards": ["shard-01", "shard-00"]},
        ],
        ids=["outside-dir", "float", "bool", "zero", "count-mismatch", "reordered"],
    )
    def test_malformed_manifest_fails_loudly(self, small_dataset, tmp_path, changes):
        # A sibling deployment "t" exists, so a manifest pointing at its
        # shards would load it if the names were not checked.
        for name in ("ours", "t"):
            ShardedEngine(
                clone_dataset(small_dataset), num_shards=2, num_hashes=16
            ).build().save(tmp_path / name)
        write_manifest(tmp_path / "ours", **changes)
        with pytest.raises(SnapshotError, match="invalid sharded snapshot manifest"):
            ShardedEngine.load(tmp_path / "ours")

    def test_swapped_shard_from_other_deployment_fails_loudly(self, syn, tmp_path):
        import shutil

        ShardedEngine(clone_dataset(syn), num_shards=2, num_hashes=64, seed=11).build().save(
            tmp_path / "ours"
        )
        ShardedEngine(clone_dataset(syn), num_shards=2, num_hashes=32, seed=4).build().save(
            tmp_path / "theirs"
        )
        shutil.rmtree(tmp_path / "ours" / "shard-01")
        shutil.copytree(tmp_path / "theirs" / "shard-01", tmp_path / "ours" / "shard-01")
        with pytest.raises(SnapshotError, match="different engine config"):
            ShardedEngine.load(tmp_path / "ours")

    def test_single_snapshot_rejected_by_sharded_load(self, small_engine, tmp_path):
        small_engine.save(tmp_path / "snap")
        with pytest.raises(SnapshotError, match="TraceQueryEngine.load"):
            ShardedEngine.load(tmp_path / "snap")

    def test_sharded_snapshot_rejected_by_engine_load(self, small_dataset, tmp_path):
        sharded = ShardedEngine(clone_dataset(small_dataset), num_shards=2, num_hashes=16).build()
        sharded.save(tmp_path / "snap")
        with pytest.raises(SnapshotError, match="ShardedEngine.load"):
            TraceQueryEngine.load(tmp_path / "snap")
