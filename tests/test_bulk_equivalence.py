"""Equivalence suite: the bulk pipeline vs the per-entity path.

The vectorised bulk-signature pipeline and the batch query executor are pure
performance features: they must be *bitwise-identical* (signatures) and
*result-identical including tie-breaks* (top-k) to the per-entity/serial
paths.  This suite pins that guarantee with property-style checks over
seeded-random datasets across hierarchy shapes, plus the edge cases that
historically break vectorised rewrites: empty traces, a single entity,
horizon = 1, and irregular (mixed fan-out) hierarchies.

The bulk paths are fed by the integer cell table
(``TraceDataset.cell_table``); the last section fuzzes it against the
object-walking paths it replaced, with the retired ``ColumnarTree.compile``
frozen here as the oracle.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro import (
    PresenceInstance,
    SpatialHierarchy,
    TraceDataset,
    TraceQueryEngine,
)
from repro.core.columnar import ColumnarTree
from repro.core.hashing import HierarchicalHashFamily
from repro.core.minsigtree import MinSigTree
from repro.core.signatures import SignatureComputer
from repro.scenarios.generators import build_dataset
from repro.traces.events import STCell


# ----------------------------------------------------------------------
# Random dataset generation
# ----------------------------------------------------------------------
def irregular_hierarchy() -> SpatialHierarchy:
    """A 3-level sp-index with mixed fan-outs (exercises the grouped plan)."""
    parents = {
        "r0": None,
        "r1": None,
        "r0a": "r0",
        "r0b": "r0",
        "r0c": "r0",
        "r1a": "r1",
        # r0a has 1 base child, r0b has 3, r0c has 2, r1a has 4.
        "v0": "r0a",
        "v1": "r0b",
        "v2": "r0b",
        "v3": "r0b",
        "v4": "r0c",
        "v5": "r0c",
        "v6": "r1a",
        "v7": "r1a",
        "v8": "r1a",
        "v9": "r1a",
    }
    return SpatialHierarchy.from_parent_map(parents)


HIERARCHIES = {
    "regular-3level": lambda: SpatialHierarchy.regular([2, 2, 2], prefix="h"),
    "regular-2level": lambda: SpatialHierarchy.regular([3, 4], prefix="g"),
    "flat-1level": lambda: SpatialHierarchy.regular([6], prefix="f"),
    "deep-4level": lambda: SpatialHierarchy.regular([2, 2, 2, 2], prefix="d"),
    "irregular": irregular_hierarchy,
}


def random_dataset(
    hierarchy: SpatialHierarchy,
    horizon: int,
    num_entities: int,
    seed: int,
    include_empty: bool = False,
) -> TraceDataset:
    """A seeded-random dataset over ``hierarchy``."""
    rng = random.Random(seed)
    dataset = TraceDataset(hierarchy, horizon=horizon)
    base_units = hierarchy.base_units
    for index in range(num_entities):
        entity = f"e{index}"
        for _ in range(rng.randint(1, 8)):
            start = rng.randrange(horizon)
            duration = rng.randint(1, min(3, horizon - start) or 1)
            dataset.add_record(entity, rng.choice(base_units), start, duration=duration)
    if include_empty:
        dataset.replace_trace("ghost", [])
    return dataset


def oracle_signatures(computer: SignatureComputer, dataset: TraceDataset):
    """The per-entity oracle: one ``signature_matrix`` call per entity."""
    return {
        entity: computer.signature_matrix(dataset.cell_sequence(entity))
        for entity in dataset.entities
    }


def both_signature_sets(dataset: TraceDataset, num_hashes: int, seed: int):
    """Signatures from a cold per-entity path and a cold bulk path."""
    horizon = max(dataset.horizon, 1)
    per_family = HierarchicalHashFamily(
        dataset.hierarchy, horizon=horizon, num_hashes=num_hashes, seed=seed
    )
    per = oracle_signatures(SignatureComputer(per_family), dataset)
    bulk_family = HierarchicalHashFamily(
        dataset.hierarchy, horizon=horizon, num_hashes=num_hashes, seed=seed
    )
    bulk = SignatureComputer(bulk_family).bulk_signature_matrices(dataset)
    return per, bulk


# ----------------------------------------------------------------------
# Signature equivalence
# ----------------------------------------------------------------------
class TestBulkSignatureEquivalence:
    @pytest.mark.parametrize("shape", sorted(HIERARCHIES))
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_datasets_bitwise_equal(self, shape, seed):
        hierarchy = HIERARCHIES[shape]()
        dataset = random_dataset(hierarchy, horizon=24, num_entities=25, seed=seed)
        per, bulk = both_signature_sets(dataset, num_hashes=17, seed=seed)
        assert set(per) == set(bulk)
        for entity in per:
            assert np.array_equal(per[entity], bulk[entity]), entity

    def test_empty_trace_entity(self, small_hierarchy):
        dataset = random_dataset(
            small_hierarchy, horizon=12, num_entities=5, seed=3, include_empty=True
        )
        per, bulk = both_signature_sets(dataset, num_hashes=8, seed=3)
        assert np.array_equal(per["ghost"], bulk["ghost"])
        sentinel = small_hierarchy.num_base_units * 12
        assert (bulk["ghost"] == sentinel).all()
        for entity in per:
            assert np.array_equal(per[entity], bulk[entity]), entity

    def test_single_entity(self, small_hierarchy):
        dataset = TraceDataset(small_hierarchy, horizon=10)
        dataset.add_record("only", small_hierarchy.base_units[0], 2, duration=3)
        per, bulk = both_signature_sets(dataset, num_hashes=5, seed=9)
        assert np.array_equal(per["only"], bulk["only"])

    def test_horizon_one(self, small_hierarchy):
        dataset = TraceDataset(small_hierarchy, horizon=1)
        for index, unit in enumerate(small_hierarchy.base_units):
            dataset.add_record(f"e{index}", unit, 0)
        per, bulk = both_signature_sets(dataset, num_hashes=7, seed=4)
        for entity in per:
            assert np.array_equal(per[entity], bulk[entity]), entity

    def test_entity_subset_selection(self, small_dataset):
        horizon = max(small_dataset.horizon, 1)
        family = HierarchicalHashFamily(
            small_dataset.hierarchy, horizon=horizon, num_hashes=6, seed=1
        )
        computer = SignatureComputer(family)
        subset = ("a", "d")
        bulk = computer.bulk_signature_matrices(small_dataset, subset)
        assert tuple(bulk) == subset
        for entity in subset:
            expected = computer.signature_matrix(small_dataset.cell_sequence(entity))
            assert np.array_equal(bulk[entity], expected)

    def test_signatures_for_dataset_rejects_unknown_method(self, small_dataset):
        # There is one construction path; the selector is gone, not ignored.
        family = HierarchicalHashFamily(
            small_dataset.hierarchy, horizon=48, num_hashes=4, seed=0
        )
        with pytest.raises(TypeError, match="method"):
            SignatureComputer(family).signatures_for_dataset(small_dataset, method="magic")


class TestNarrowKernelWidths:
    """The kernel reduces in the narrowest dtype holding the hash range.

    Four base units times the horizon put the range just below, at and just
    above 2^8 and 2^16 (the uint8 / uint16 / uint32 boundaries); the mixed
    hierarchy has one level-1 unit whose children own 1 and 3 base units, so
    its subtree reduces through the ``"grouped"`` plan at every width.
    """

    FOUR_BASE_UNITS = {
        "regular": lambda: SpatialHierarchy.regular([2, 2]),
        "mixed": lambda: SpatialHierarchy.from_parent_map(
            {"r": None, "a": "r", "b": "r", "v0": "a", "v1": "b", "v2": "b", "v3": "b"}
        ),
    }

    @pytest.mark.parametrize(
        "horizon, itemsize",
        [(63, 1), (64, 1), (65, 2), (16383, 2), (16384, 2), (16385, 4)],
    )
    @pytest.mark.parametrize("shape", sorted(FOUR_BASE_UNITS))
    def test_bulk_matches_per_entity_at_width_boundaries(self, shape, horizon, itemsize):
        hierarchy = self.FOUR_BASE_UNITS[shape]()
        family = HierarchicalHashFamily(hierarchy, horizon=horizon, num_hashes=9)
        assert family.hash_range == 4 * horizon
        assert family.value_dtype.itemsize == itemsize
        dataset = random_dataset(hierarchy, horizon=horizon, num_entities=12, seed=horizon)
        per, bulk = both_signature_sets(dataset, num_hashes=9, seed=horizon)
        assert list(bulk) == list(per)
        for entity in per:
            assert bulk[entity].dtype == per[entity].dtype == np.int64
            assert np.array_equal(bulk[entity], per[entity]), entity


class TestBulkHashKernel:
    def test_hash_cells_bulk_matches_hash_matrix(self):
        hierarchy = irregular_hierarchy()
        dataset = random_dataset(hierarchy, horizon=16, num_entities=10, seed=7)
        family = HierarchicalHashFamily(hierarchy, horizon=16, num_hashes=11, seed=2)
        cells = []
        for entity in dataset.entities:
            for level_cells in dataset.cell_sequence(entity).levels:
                cells.extend(level_cells)
        cells = list(dict.fromkeys(cells))
        reference = family.hash_matrix(cells)
        cold = HierarchicalHashFamily(hierarchy, horizon=16, num_hashes=11, seed=2)
        assert np.array_equal(cold.hash_cells_bulk(cells), reference)
        # int32 output carries the same values.
        cold2 = HierarchicalHashFamily(hierarchy, horizon=16, num_hashes=11, seed=2)
        assert np.array_equal(cold2.hash_cells_bulk(cells, out_dtype=np.int32), reference)

    def test_warm_cache_rows_match_per_cell_path(self, small_hierarchy):
        family = HierarchicalHashFamily(small_hierarchy, horizon=8, num_hashes=9, seed=5)
        cells = [STCell(1, small_hierarchy.base_units[0]), STCell(1, "h1_0"), STCell(3, "h2_1_1")]
        warmed = family.warm_cache(cells)
        assert warmed == len(cells)
        reference = HierarchicalHashFamily(small_hierarchy, horizon=8, num_hashes=9, seed=5)
        for cell in cells:
            assert np.array_equal(family.hash_cell(cell), reference.hash_cell(cell))
        # Already-cached cells are not re-hashed.
        assert family.warm_cache(cells) == 0

    def test_empty_batch(self, small_hierarchy):
        family = HierarchicalHashFamily(small_hierarchy, horizon=8, num_hashes=3, seed=0)
        assert family.hash_cells_bulk([]).shape == (0, 3)
        assert family.warm_cache([]) == 0


# ----------------------------------------------------------------------
# Engine determinism: the built index vs a tree over per-entity signatures
# ----------------------------------------------------------------------
class TestBuildDeterminism:
    @pytest.mark.parametrize("shape", ["regular-3level", "irregular"])
    def test_same_index_regardless_of_path(self, shape):
        hierarchy = HIERARCHIES[shape]()
        dataset = random_dataset(hierarchy, horizon=20, num_entities=30, seed=11)
        engine = TraceQueryEngine(dataset, num_hashes=16, seed=7).build()
        oracle = oracle_signatures(SignatureComputer(engine.hash_family), dataset)
        oracle_tree = MinSigTree.build(
            oracle, num_levels=dataset.num_levels, num_hashes=16
        )
        assert engine.index_size_bytes() == oracle_tree.size_bytes()
        for entity in dataset.entities:
            assert np.array_equal(engine.tree.signature_of(entity), oracle[entity])
        # Identical leaf partitions: same entities grouped in the same order.
        assert [tuple(leaf.entities) for leaf in engine.tree.leaves()] == [
            tuple(leaf.entities) for leaf in oracle_tree.leaves()
        ]
        assert engine.tree.leaf_order() == oracle_tree.leaf_order()


# ----------------------------------------------------------------------
# Batch executor equivalence
# ----------------------------------------------------------------------
class TestBatchExecutorEquivalence:
    @pytest.mark.parametrize("workers", [0, 2])
    def test_matches_serial_top_k_for_every_entity(self, workers):
        hierarchy = SpatialHierarchy.regular([2, 2, 2], prefix="h")
        dataset = random_dataset(hierarchy, horizon=24, num_entities=20, seed=21)
        engine = TraceQueryEngine(dataset, num_hashes=24, seed=3).build()
        queries = list(dataset.entities)
        serial = [engine.top_k(entity, k=5) for entity in queries]
        batch = engine.top_k_batch(queries, k=5, workers=workers)
        assert batch.num_queries == len(queries)
        assert batch.workers == workers
        for serial_result, batch_result in zip(serial, batch.results):
            assert serial_result.query_entity == batch_result.query_entity
            # Identical ranked (entity, score) pairs -- ties included.
            assert serial_result.items == batch_result.items

    def test_executor_aggregates(self, small_engine):
        report = small_engine.top_k_batch(list(small_engine.dataset.entities), k=2, workers=0)
        assert report.num_queries == small_engine.dataset.num_entities
        assert len(report) == report.num_queries
        assert report.wall_seconds > 0.0
        assert report.total_entities_scored == sum(
            r.stats.entities_scored for r in report.results
        )
        assert 0.0 <= report.mean_pruning_effectiveness <= 1.0
        assert report.queries_per_second > 0.0
        # The second batch finds everything already cached.
        again = small_engine.top_k_batch(list(small_engine.dataset.entities), k=2, workers=0)
        assert again.warmed_cells == 0

    def test_rejects_negative_workers(self, small_engine):
        with pytest.raises(ValueError, match="workers"):
            small_engine.top_k_batch(["a"], 1, workers=-1)
        with pytest.raises(ValueError, match="workers"):
            small_engine.top_k_batch(["a"], 1, workers=-2)


# ----------------------------------------------------------------------
# Incremental updates through the bulk path (Figure 7.9)
# ----------------------------------------------------------------------
class TestBulkUpdates:
    def _update_batch(self, dataset, count=8):
        base_units = dataset.hierarchy.base_units
        horizon = max(dataset.horizon, 2)
        existing = list(dataset.entities[: count // 2])
        fresh = [f"new-{index}" for index in range(count - len(existing))]
        records = []
        for index, entity in enumerate(existing + fresh):
            unit = base_units[(index * 3) % len(base_units)]
            start = (index * 5) % (horizon - 1)
            records.append(PresenceInstance(entity, unit, start, start + 1))
        return records

    @pytest.mark.parametrize("batched", [True, False])
    def test_add_records_matches_full_rebuild(self, batched):
        """Both routes the engine picks by batch size: one multi-entity batch
        is re-signed in bulk, one-entity batches through the per-cell cache."""
        hierarchy = SpatialHierarchy.regular([2, 3, 2], prefix="u")
        dataset = random_dataset(hierarchy, horizon=20, num_entities=15, seed=33)
        engine = TraceQueryEngine(dataset, num_hashes=12, seed=5).build()
        records = self._update_batch(dataset)
        if batched:
            assert len(engine.add_records(records)) == 8
        else:
            for record in records:
                assert engine.add_records([record]) == [record.entity]
        rebuilt = TraceQueryEngine(dataset, num_hashes=12, seed=5).build()
        for entity in dataset.entities:
            assert np.array_equal(
                engine.tree.signature_of(entity), rebuilt.tree.signature_of(entity)
            ), entity
        assert engine.index_size_bytes() == rebuilt.index_size_bytes()

    def test_bulk_and_per_entity_updates_agree(self):
        hierarchy = SpatialHierarchy.regular([2, 2, 2], prefix="h")
        seed_data = random_dataset(hierarchy, horizon=16, num_entities=12, seed=44)
        copies = []
        for batched in (True, False):
            dataset = TraceDataset(hierarchy, horizon=16)
            for entity in seed_data.entities:
                for presence in seed_data.trace(entity):
                    dataset.add_presence(presence)
            engine = TraceQueryEngine(dataset, num_hashes=10, seed=2).build()
            records = self._update_batch(dataset)
            # One multi-entity batch is re-signed in bulk; one-entity
            # batches go through the per-cell cache.
            for batch in [records] if batched else [[record] for record in records]:
                engine.add_records(batch)
            copies.append(engine)
        bulk_engine, per_engine = copies
        for entity in bulk_engine.dataset.entities:
            assert np.array_equal(
                bulk_engine.tree.signature_of(entity), per_engine.tree.signature_of(entity)
            )
        assert [tuple(l.entities) for l in bulk_engine.tree.leaves()] == [
            tuple(l.entities) for l in per_engine.tree.leaves()
        ]

    def test_refresh_entities_uses_batch_resign(self, small_dataset):
        engine = TraceQueryEngine(small_dataset, num_hashes=16, seed=1).build()
        base = small_dataset.hierarchy.base_units[5]
        small_dataset.add_record("d", base, 40)
        small_dataset.add_record("e", base, 41)
        engine.refresh_entities(["d", "e"])
        rebuilt = TraceQueryEngine(small_dataset, num_hashes=16, seed=1).build()
        for entity in ("d", "e"):
            assert np.array_equal(
                engine.tree.signature_of(entity), rebuilt.tree.signature_of(entity)
            )


# ----------------------------------------------------------------------
# Cell table ≡ object path (seeded fuzz)
# ----------------------------------------------------------------------
def oracle_compile(tree, dataset) -> ColumnarTree:
    """The object-walking ``ColumnarTree.compile`` the cell table retired.

    Frozen here as the oracle: it walks every entity's ``CellSequence``,
    sorts and interns ``STCell`` objects per level through dicts, and builds
    the membership CSR row by row.
    """
    nodes, structure, entity_order = ColumnarTree._flatten_structure(tree)
    full_signatures = None
    if tree.store_full_signatures:
        full_signatures = np.zeros((len(nodes), tree.num_hashes), dtype=np.int64)
        for position, node in enumerate(nodes):
            if node.full_signature is not None:
                full_signatures[position] = node.full_signature
    num_levels = tree.num_levels
    level_cell_sets = [set() for _ in range(num_levels)]
    entity_cells = []
    for entity in entity_order:
        per_level = [sorted(cells) for cells in dataset.cell_sequence(entity).levels]
        for level_index, ordered in enumerate(per_level):
            level_cell_sets[level_index].update(ordered)
        entity_cells.append(per_level)
    level_cells = [sorted(cells) for cells in level_cell_sets]
    local_index = [{cell: slot for slot, cell in enumerate(cells)} for cells in level_cells]
    offsets = np.zeros(num_levels + 1, dtype=np.int64)
    np.cumsum([len(cells) for cells in level_cells], out=offsets[1:])
    segments = []
    for per_level in entity_cells:
        for level_index, ordered in enumerate(per_level):
            interned = local_index[level_index]
            segments.append(
                np.array(
                    [interned[cell] + int(offsets[level_index]) for cell in ordered],
                    dtype=np.int64,
                )
            )
    member_indptr = np.zeros(len(entity_order) * num_levels + 1, dtype=np.int64)
    np.cumsum([row.size for row in segments], out=member_indptr[1:])
    member_indices = (
        np.concatenate(segments) if member_indptr[-1] else np.empty(0, dtype=np.int64)
    )
    units, code_of = dataset.hierarchy.coded_units(), dataset.hierarchy.unit_codes()
    return ColumnarTree(
        num_levels=num_levels,
        num_hashes=tree.num_hashes,
        entity_order=tuple(entity_order),
        units=units,
        cell_codes=np.array(
            [cell.time * len(units) + code_of[cell.unit] for cells in level_cells for cell in cells],
            dtype=np.int64,
        ),
        level_cell_offset=offsets,
        member_indptr=member_indptr,
        member_indices=member_indices,
        node_full_signatures=full_signatures,
        **structure,
    )


def fuzz_dataset(rng: random.Random, hierarchy: SpatialHierarchy, horizon: int) -> TraceDataset:
    """Random traces with the shapes that break vectorised expansions.

    Overlapping and exactly duplicated presences of one entity, presences
    running past the explicit horizon, a single-cell entity and an entity
    whose trace was emptied.
    """
    dataset = TraceDataset(hierarchy, horizon=horizon)
    bases = hierarchy.base_units
    for index in range(rng.randint(8, 20)):
        entity = f"e{index}"
        for _ in range(rng.randint(1, 7)):
            unit = rng.choice(bases)
            start = rng.randrange(horizon)
            duration = rng.randint(1, 4)  # may end past the horizon
            dataset.add_record(entity, unit, start, duration=duration)
            if rng.random() < 0.3:  # exact duplicate
                dataset.add_record(entity, unit, start, duration=duration)
            if rng.random() < 0.3:  # overlapping period, same unit
                dataset.add_record(entity, unit, start + 1, duration=duration)
            if rng.random() < 0.2:  # same period, another unit
                dataset.add_record(entity, rng.choice(bases), start, duration=duration)
    dataset.add_record("single", rng.choice(bases), rng.randrange(horizon))
    dataset.add_record("past", rng.choice(bases), horizon - 1, duration=3)
    dataset.replace_trace("ghost", [])
    return dataset


def scenario_dataset(generator: str, seed: int) -> TraceDataset:
    """A small dataset from one of the hostile scenario generators."""
    params = {
        "heavy_tail": dict(num_entities=30, horizon=48, max_records=60),
        "clone_families": dict(num_families=5, num_background=8, horizon=40),
    }[generator]
    return build_dataset(generator, dict(params, seed=seed))


def assert_table_matches_objects(dataset: TraceDataset, entities, rng: random.Random) -> None:
    """Cell table, bulk signatures and compile ≡ the object-walking paths."""
    entities = list(entities)
    num_levels = dataset.num_levels
    # The table itself: every (entity, level) row decodes to the sorted set.
    table = dataset.cell_table(entities)
    universe = [
        STCell(time, table.units[code])
        for time, code in zip(table.times.tolist(), table.unit_codes.tolist())
    ]
    assert table.indptr.size == len(entities) * num_levels + 1
    for slot, entity in enumerate(entities):
        sequence = dataset.cell_sequence(entity)
        for level_index in range(num_levels):
            start, stop = table.indptr[slot * num_levels + level_index :][:2]
            row = [universe[cell_id] for cell_id in table.indices[start:stop]]
            assert row == sorted(sequence.levels[level_index]), (entity, level_index)
    # Signatures: bulk (table-fed) vs the per-entity oracle, cold families.
    horizon = max(dataset.horizon, 1)
    seed = rng.randrange(1000)
    family = lambda: HierarchicalHashFamily(  # noqa: E731
        dataset.hierarchy, horizon=horizon, num_hashes=13, seed=seed
    )
    bulk = SignatureComputer(family()).bulk_signature_matrices(dataset, entities)
    oracle = SignatureComputer(family())
    assert list(bulk) == list(dict.fromkeys(entities))
    for entity in entities:
        expected = oracle.signature_matrix(dataset.cell_sequence(entity))
        assert bulk[entity].dtype == expected.dtype
        assert np.array_equal(bulk[entity], expected), entity
    # The hash-operation count reads the same total off the CSR.
    cells = sum(
        len(level) for entity in dataset.entities for level in dataset.cell_sequence(entity).levels
    )
    assert oracle.hash_operations(dataset) == cells * 13
    # Compile: every exported array equals the frozen object-walking compile.
    for store_full in (False, True):
        tree = MinSigTree.build(
            bulk, num_levels, num_hashes=13, store_full_signatures=store_full
        )
        compiled = ColumnarTree.compile(tree, dataset).export_arrays()
        expected = oracle_compile(tree, dataset).export_arrays()
        assert compiled.keys() == expected.keys()
        for name in expected:
            assert compiled[name].dtype == expected[name].dtype, name
            assert np.array_equal(compiled[name], expected[name]), name


class TestCellTableEquivalence:
    @pytest.mark.parametrize("shape", sorted(HIERARCHIES))
    @pytest.mark.parametrize("fuzz_seed", [101, 202, 303])
    def test_fuzzed_traces(self, shape, fuzz_seed, seeded_rng):
        rng = seeded_rng(fuzz_seed)
        dataset = fuzz_dataset(rng, HIERARCHIES[shape](), horizon=rng.randint(1, 18))
        assert_table_matches_objects(dataset, dataset.entities, rng)

    @pytest.mark.parametrize("generator", ["heavy_tail", "clone_families"])
    def test_hostile_scenario_generators(self, generator, seeded_rng):
        rng = seeded_rng(47)
        dataset = scenario_dataset(generator, seed=rng.randrange(100))
        assert_table_matches_objects(dataset, dataset.entities, rng)

    @pytest.mark.parametrize("fuzz_seed", [7, 8])
    def test_entity_subsets(self, fuzz_seed, seeded_rng):
        rng = seeded_rng(fuzz_seed)
        dataset = fuzz_dataset(rng, irregular_hierarchy(), horizon=12)
        shuffled = rng.sample(dataset.entities, k=len(dataset.entities) // 2)
        for subset in ([], ["single"], ["ghost"], ["ghost", "single", "past"], shuffled):
            assert_table_matches_objects(dataset, subset, rng)

    def test_unknown_entity_is_a_key_error(self, small_dataset):
        with pytest.raises(KeyError, match="unknown entity 'nobody'"):
            small_dataset.cell_table(["a", "nobody"])

    def test_table_bypasses_the_sequence_cache(self, small_dataset, monkeypatch):
        def forbidden(self, entity):
            raise AssertionError(f"cell_sequence({entity!r}) called")

        monkeypatch.setattr(TraceDataset, "cell_sequence", forbidden)
        table = small_dataset.cell_table()
        assert table.num_cells == sum(np.diff(table.level_offsets))
        assert small_dataset._sequence_cache == {}
