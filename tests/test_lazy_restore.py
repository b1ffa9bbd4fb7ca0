"""Lazy trace restore: a loaded engine builds a trace only when it reads it.

``load_engine_snapshot`` leaves every entity's records in the snapshot's
presence columns (:meth:`TraceDataset.restore_columns`); the first read
that needs them builds the ``PresenceInstance`` list in place.  These
tests pin that a lazily restored engine is indistinguishable from one
whose traces were all built at load, through every kind of mutation, and
that a load -- single or sharded -- builds no record at all.
"""

import dataclasses

import numpy as np
import pytest

from repro import PresenceInstance, ShardedEngine, SpatialHierarchy, TraceDataset, TraceQueryEngine
from repro.storage.snapshot import load_engine_snapshot
from repro.traces import dataset as dataset_module
from repro.traces.events import cell_table_from_traces

HORIZON = 40


@pytest.fixture(scope="module")
def hierarchy():
    return SpatialHierarchy.regular([2, 2, 2], prefix="z")


def random_dataset(hierarchy, rng, num_entities=24):
    dataset = TraceDataset(hierarchy, horizon=HORIZON)
    for index in range(num_entities):
        for _ in range(rng.randrange(1, 7)):
            dataset.add_presence(random_record(hierarchy, rng, f"e{index}"))
    return dataset


def random_record(hierarchy, rng, entity):
    start = rng.randrange(0, HORIZON - 4)
    return PresenceInstance(
        entity=entity,
        unit=rng.choice(hierarchy.base_units),
        start=start,
        end=start + rng.randrange(1, 4),
    )


def unbuilt(dataset):
    """Entities whose records are still restored rows."""
    return {
        entity
        for entity, entry in dataset._presences.items()
        if isinstance(entry, dataset_module._RestoredRows)
    }


def peek(dataset, entity):
    """An entity's records, without building them into the dataset."""
    entry = dataset._presences[entity]
    if isinstance(entry, dataset_module._RestoredRows):
        return entry.build(entity)
    return list(entry)


def assert_tables_equal(actual, expected):
    for field in dataclasses.fields(expected):
        assert np.array_equal(getattr(actual, field.name), getattr(expected, field.name)), field


def load_eager(path):
    """The snapshot at ``path``, with every trace built at load."""
    engine = load_engine_snapshot(path)
    for entity in engine.dataset.entities:
        engine.dataset.trace(entity)
    assert not unbuilt(engine.dataset)
    return engine


def assert_same(lazy, eager, queries, since):
    """Everything a reader can observe agrees; the comparison builds nothing."""
    before = unbuilt(lazy.dataset)
    assert lazy.dataset.entities == eager.dataset.entities
    for entity in eager.dataset.entities:
        assert peek(lazy.dataset, entity) == list(eager.dataset.trace(entity)), entity
    assert lazy.dataset.num_presences == eager.dataset.num_presences
    assert lazy.dataset.horizon == eager.dataset.horizon
    assert lazy.dataset.mutation_count == eager.dataset.mutation_count
    for count in since:
        assert lazy.dataset.touched_entities_since(count) == (
            eager.dataset.touched_entities_since(count)
        )
    hierarchy = lazy.dataset.hierarchy
    assert_tables_equal(
        cell_table_from_traces(
            [peek(lazy.dataset, entity) for entity in lazy.dataset.entities], hierarchy
        ),
        eager.dataset.cell_table(),
    )
    assert unbuilt(lazy.dataset) == before
    for query in queries:
        if query in eager.dataset:
            for k in (1, 5):
                expected = eager.top_k(query, k=k)
                actual = lazy.top_k(query, k=k)
                assert actual.items == expected.items, (query, k)
                assert dataclasses.asdict(actual.stats) == dataclasses.asdict(expected.stats)


@pytest.mark.parametrize("seed", [2024, 7, 311])
def test_lazy_restore_matches_an_eager_one_through_mutations(
    hierarchy, seeded_rng, tmp_path, seed
):
    rng = seeded_rng(seed)
    source = TraceQueryEngine(random_dataset(hierarchy, rng), num_hashes=16, seed=7).build()
    snapshot = source.save(tmp_path / "snap")
    lazy = load_engine_snapshot(snapshot)
    eager = load_eager(snapshot)
    assert unbuilt(lazy.dataset) == set(source.dataset.entities)

    # The lazy restore leaves the dataset as one restore_trace per entity did.
    reference = TraceDataset(hierarchy, horizon=HORIZON)
    for entity in source.dataset.entities:
        reference.restore_trace(entity, source.dataset.trace(entity))
    assert lazy.dataset.mutation_count == reference.mutation_count
    assert lazy.dataset.touched_entities_since(0) == reference.touched_entities_since(0)
    assert lazy.dataset.horizon == reference.horizon

    fresh = 0
    saves = 0
    for step in range(30):
        since = [0, lazy.dataset.mutation_count]
        operation = rng.choice(
            ["read", "read", "add", "add_new", "expire", "remove", "compact", "save_load"]
        )
        entities = list(eager.dataset.entities)
        if operation == "read":
            entity = rng.choice(entities)
            assert lazy.dataset.trace(entity) == eager.dataset.trace(entity)
            assert lazy.dataset.cell_sequence(entity) == eager.dataset.cell_sequence(entity)
        elif operation in ("add", "add_new"):
            if operation == "add":
                owners = rng.sample(entities, min(3, len(entities)))
            else:
                owners = [f"new{fresh}"]
                fresh += 1
            records = [random_record(hierarchy, rng, owner) for owner in owners]
            assert lazy.add_records(records) == eager.add_records(records)
        elif operation == "expire":
            cutoff = rng.randrange(0, 8)
            lazy_report = lazy.expire_events(cutoff)
            eager_report = eager.expire_events(cutoff)
            assert dataclasses.asdict(lazy_report) == dataclasses.asdict(eager_report)
        elif operation == "remove" and len(entities) > 4:
            entity = rng.choice(entities)
            lazy.remove_entity(entity)
            eager.remove_entity(entity)
        elif operation == "compact":
            lazy.compact()
            eager.compact()
        elif operation == "save_load":
            saves += 1
            lazy = load_engine_snapshot(lazy.save(tmp_path / f"lazy-{saves}"))
            eager = load_eager(eager.save(tmp_path / f"eager-{saves}"))
            assert unbuilt(lazy.dataset) == set(lazy.dataset.entities)
            since = [0]
        queries = rng.sample(list(eager.dataset.entities), min(2, len(eager.dataset)))
        assert_same(lazy, eager, queries, since)

    # Real reads agree too, once they have built everything.
    for entity in eager.dataset.entities:
        assert lazy.dataset.trace(entity) == eager.dataset.trace(entity)
    assert_tables_equal(lazy.dataset.cell_table(), eager.dataset.cell_table())
    assert not unbuilt(lazy.dataset)


def test_parallel_batch_on_a_fresh_load_equals_serial(hierarchy, seeded_rng, tmp_path):
    """Worker threads building traces concurrently answer as one thread does."""
    rng = seeded_rng(31)
    source = TraceQueryEngine(random_dataset(hierarchy, rng, 40), num_hashes=16, seed=2).build()
    snapshot = source.save(tmp_path / "snap")
    queries = list(source.dataset.entities)
    serial = load_engine_snapshot(snapshot).top_k_batch(queries, k=5, workers=0)
    parallel = load_engine_snapshot(snapshot).top_k_batch(queries, k=5, workers=4)
    assert [result.items for result in parallel.results] == [
        result.items for result in serial.results
    ]
    assert [result.stats for result in parallel.results] == [
        result.stats for result in serial.results
    ]


def test_sharded_load_builds_no_record(hierarchy, seeded_rng, tmp_path, monkeypatch):
    rng = seeded_rng(5)
    dataset = random_dataset(hierarchy, rng, 30)
    fleet = ShardedEngine(dataset, num_shards=3, num_hashes=16, seed=4).build()
    snapshot = fleet.save(tmp_path / "fleet")
    built = []
    original = PresenceInstance.__post_init__

    def counting(self):
        built.append(self)
        original(self)

    monkeypatch.setattr(PresenceInstance, "__post_init__", counting)
    loaded = ShardedEngine.load(snapshot)
    assert built == []
    assert unbuilt(loaded.dataset) == set(dataset.entities)
    monkeypatch.undo()
    for query in ("e0", "e7"):
        assert loaded.top_k(query, k=5).items == fleet.top_k(query, k=5).items
