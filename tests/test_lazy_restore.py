"""Lazy restore: a loaded engine builds a trace or a tree node only when it needs it.

``load_engine_snapshot`` leaves every entity's records in the snapshot's
presence columns (:meth:`TraceDataset.restore_columns`); the first read
that needs them builds the ``PresenceInstance`` list in place.  The tree
answers from the validated kernel arrays it was restored from
(:meth:`MinSigTree.restore`) until a mutation or a walk builds its nodes.
These tests pin that a lazily restored engine is indistinguishable from one
whose traces and tree were all built at load, through every kind of
mutation, and that a load -- single or sharded -- and everything a read
process does after it builds no record and no tree node at all.
"""

import dataclasses
import json
import sys
import threading

import numpy as np
import pytest

from repro import PresenceInstance, ShardedEngine, SpatialHierarchy, TraceDataset, TraceQueryEngine
from repro.core.columnar import ColumnarTree
from repro.core.minsigtree import MinSigTreeNode
from repro.storage.snapshot import SnapshotError, _file_digest, load_engine_snapshot
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


def tree_built(engine):
    """Whether the engine's tree has built its nodes."""
    return engine.tree._root is not None


def load_eager(path):
    """The snapshot at ``path``, with every trace and the tree built at load."""
    engine = load_engine_snapshot(path)
    for entity in engine.dataset.entities:
        engine.dataset.trace(entity)
    assert not unbuilt(engine.dataset)
    assert engine.tree.root is not None and tree_built(engine)
    return engine


def payload_arrays(snapshot):
    """``{(file, key): (dtype, bytes)}`` of a snapshot's two ``.npz`` payloads."""
    arrays = {}
    for name in ("arrays.npz", "columnar.npz"):
        with np.load(snapshot / name) as payload:
            for key in payload.files:
                arrays[name, key] = (payload[key].dtype, payload[key].tobytes())
    return arrays


@pytest.fixture
def node_builds(monkeypatch):
    """A list that records every ``MinSigTreeNode`` constructed from now on."""
    built = []
    original = MinSigTreeNode.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        original(self, *args, **kwargs)

    monkeypatch.setattr(MinSigTreeNode, "__init__", counting)
    return built


def assert_same(lazy, eager, queries, since):
    """Everything a reader can observe agrees; the comparison builds nothing."""
    before = unbuilt(lazy.dataset)
    tree_before = tree_built(lazy)
    lazy_tree, eager_tree = lazy.tree, eager.tree
    assert lazy_tree.num_entities == eager_tree.num_entities
    assert lazy_tree.num_nodes == eager_tree.num_nodes
    assert lazy_tree.size_bytes() == eager_tree.size_bytes()
    assert lazy.runtime_stats() == eager.runtime_stats()
    assert lazy_tree.mutation_count == eager_tree.mutation_count
    for entity in [*eager.dataset.entities, "never-indexed"]:
        assert (entity in lazy_tree) == (entity in eager_tree), entity
    for count in {0, eager_tree.mutation_count - 1, eager_tree.mutation_count}:
        assert lazy_tree.touched_entities_since(count) == (
            eager_tree.touched_entities_since(count)
        )
    assert tree_built(lazy) == tree_before
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
    assert not tree_built(lazy)

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
        tree_mutations = lazy.tree.mutation_count
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
            lazy_snapshot = lazy.save(tmp_path / f"lazy-{saves}")
            eager_snapshot = eager.save(tmp_path / f"eager-{saves}")
            assert payload_arrays(lazy_snapshot) == payload_arrays(eager_snapshot)
            lazy = load_engine_snapshot(lazy_snapshot)
            eager = load_eager(eager_snapshot)
            assert unbuilt(lazy.dataset) == set(lazy.dataset.entities)
            assert not tree_built(lazy)
            since = [0]
        if operation != "save_load" and lazy.tree.mutation_count != tree_mutations:
            # Only a tree mutation builds the nodes.
            assert tree_built(lazy)
        queries = rng.sample(list(eager.dataset.entities), min(2, len(eager.dataset)))
        assert_same(lazy, eager, queries, since)

    # Real reads agree too, once they have built everything.
    for entity in eager.dataset.entities:
        assert lazy.dataset.trace(entity) == eager.dataset.trace(entity)
        assert np.array_equal(lazy.tree.signature_of(entity), eager.tree.signature_of(entity))
    assert_tables_equal(lazy.dataset.cell_table(), eager.dataset.cell_table())
    assert not unbuilt(lazy.dataset)
    assert tree_built(lazy)
    lazy_kernel = ColumnarTree.compile(lazy.tree, lazy.dataset).export_arrays()
    eager_kernel = ColumnarTree.compile(eager.tree, eager.dataset).export_arrays()
    assert set(lazy_kernel) == set(eager_kernel)
    for key, value in eager_kernel.items():
        assert np.array_equal(lazy_kernel[key], value), key
    assert lazy.tree.leaf_order() == eager.tree.leaf_order()


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


@pytest.mark.parametrize("shards", [0, 3], ids=["single", "sharded"])
def test_a_read_process_builds_no_tree_node(
    hierarchy, seeded_rng, tmp_path, node_builds, shards
):
    """Load, answer (single and batched), report stats and publish a linked
    save: everything a read process or an idle owner does builds no node."""
    rng = seeded_rng(17)
    knobs = dict(num_hashes=16, seed=3)
    dataset = random_dataset(hierarchy, rng, 30)
    if shards:
        source = ShardedEngine(dataset, num_shards=shards, **knobs).build()
    else:
        source = TraceQueryEngine(dataset, **knobs).build()
    snapshot = source.save(tmp_path / "snap")
    queries = ["e0", "e7", "e11"]
    expected = [source.top_k(query, k=5).items for query in queries]
    stats = source.runtime_stats()
    del node_builds[:]

    loaded = type(source).load(snapshot)
    assert [loaded.top_k(query, k=5).items for query in queries] == expected
    batch = loaded.top_k_batch(queries, k=5)
    assert [result.items for result in batch.results] == expected
    assert loaded.runtime_stats()["index_size_bytes"] == stats["index_size_bytes"]
    linked = loaded.save(tmp_path / "linked")
    assert node_builds == []
    for name in ("arrays.npz", "columnar.npz"):
        first = next(snapshot.rglob(name))
        assert first.stat().st_ino == (linked / first.relative_to(snapshot)).stat().st_ino

    # The first mutation builds the tree, and answers stay exact.
    record = random_record(hierarchy, rng, "e0")
    loaded.add_records([record])
    source.add_records([record])
    assert node_builds
    assert [loaded.top_k(query, k=5).items for query in queries] == [
        source.top_k(query, k=5).items for query in queries
    ]


def rewrite_payload(snapshot, name, arrays):
    """Replace one ``.npz`` payload of ``snapshot``, keeping its digest valid."""
    np.savez(snapshot / name, **arrays)
    manifest_path = snapshot / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["content"][name] = _file_digest(snapshot / name)
    manifest_path.write_text(json.dumps(manifest))


@pytest.mark.parametrize(
    "defect, message",
    [
        ("no-root", "missing virtual root"),
        ("forward-parent", "has parent"),
        ("repeated-sibling", "repeats a sibling"),
        ("routing-index-out-of-range", "routing index outside"),
        ("child-span-mismatch", "child spans"),
        ("leaf-out-of-range", "entity span out of range"),
        ("duplicate-entity", "listed twice"),
        ("entity-without-trace", "no trace"),
        ("short-signatures", "signature block"),
    ],
)
def test_a_malformed_tree_fails_at_load(hierarchy, seeded_rng, tmp_path, defect, message):
    """The kernel arrays are validated at load, so a tree that builds later
    cannot fail; each defect is written into a snapshot whose digests match."""
    rng = seeded_rng(3)
    engine = TraceQueryEngine(random_dataset(hierarchy, rng), num_hashes=16, seed=7).build()
    snapshot = engine.save(tmp_path / "snap")
    name = "arrays.npz" if defect == "short-signatures" else "columnar.npz"
    with np.load(snapshot / name) as payload:
        arrays = {key: payload[key].copy() for key in payload.files}
    if defect == "no-root":
        arrays["node_parent"][0] = 0
    elif defect == "forward-parent":
        arrays["node_parent"][1] = 2
    elif defect == "repeated-sibling":
        # Give the root's second child the first child's routing index.
        children = np.flatnonzero(arrays["node_parent"] == 0)
        arrays["node_routing_index"][children[1]] = arrays["node_routing_index"][children[0]]
    elif defect == "routing-index-out-of-range":
        arrays["node_routing_index"][1] = 16
    elif defect == "child-span-mismatch":
        arrays["child_end"][0] -= 1
    elif defect == "leaf-out-of-range":
        leaf = np.flatnonzero(arrays["entity_end"] > arrays["entity_start"])[0]
        arrays["entity_start"][leaf] = -1
    elif defect == "duplicate-entity":
        arrays["entity_order"][1] = arrays["entity_order"][0]
    elif defect == "entity-without-trace":
        arrays["entity_order"][0] = "e99"
    else:
        arrays["signatures"] = arrays["signatures"][:-1]
    rewrite_payload(snapshot, name, arrays)
    with pytest.raises(SnapshotError, match=message) as caught:
        load_engine_snapshot(snapshot)
    # Refused, not unreadable: a generation store does not retry it.
    assert not isinstance(caught.value.__cause__, OSError)


def test_concurrent_first_reads_build_one_tree(hierarchy, seeded_rng, tmp_path):
    """Threads racing to the first structural read build the nodes once and
    see one complete state: the same root, and counts equal to the eager tree."""
    rng = seeded_rng(23)
    source = TraceQueryEngine(random_dataset(hierarchy, rng, 40), num_hashes=16, seed=9).build()
    snapshot = source.save(tmp_path / "snap")
    expected = (source.tree.num_nodes, source.tree.size_bytes(), source.tree.leaf_order())
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            tree = load_engine_snapshot(snapshot).tree
            seen = []
            barrier = threading.Barrier(8)

            def read(walk):
                barrier.wait(timeout=30)
                if walk:
                    seen.append((id(tree.root), tree.leaf_order()))
                else:
                    seen.append((tree.num_nodes, tree.size_bytes()))

            threads = [threading.Thread(target=read, args=(i % 2 == 0,)) for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive()
            assert len(seen) == 8
            walks = [entry for entry in seen if isinstance(entry[1], dict)]
            counts = [entry for entry in seen if not isinstance(entry[1], dict)]
            assert {root for root, _ in walks} == {id(tree.root)}
            assert all(order == expected[2] for _, order in walks)
            assert set(counts) == {expected[:2]}
    finally:
        sys.setswitchinterval(interval)
