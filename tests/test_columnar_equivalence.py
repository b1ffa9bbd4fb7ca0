"""The columnar kernel's bitwise-equivalence guarantee, pinned by fuzzing.

The columnar kernel behind ``TopKSearcher.search`` must produce
**bit-identical** ``TopKResult``s -- items, ordering, scores, and every
``QueryStats`` counter -- to the pointer-walking oracle
(``repro.baselines.reference_search``, run over the *same* searcher, so
both sides see one index state), across:

* random workloads (plus clone families: identical traces, so path bounds
  and k-th scores tie) × result sizes × approximation slacks × the
  full-signature ablation;
* every registered association measure (the batched ``score_levels_batch``
  / ``bound_batch_kernel`` kernels are pinned directly, too);
* streaming ingest/expire/compact interleavings (the compiled arrays must
  invalidate and recompile on every index or data mutation);
* sharded deployments (shard counts {1, 2});
* snapshot save/load, including the round-trip of the compiled arrays
  themselves (the only stored form of the tree), the byte-identity of a
  loaded tree's recompile, and the load failing for a payload the import
  refuses.
"""

import dataclasses
import json

import numpy as np
import pytest

from repro import (
    EventIngestor,
    PresenceInstance,
    ShardedEngine,
    SpatialHierarchy,
    TraceDataset,
    TraceQueryEngine,
)
from repro.baselines import reference_search
from repro.core.columnar import ColumnarTree
from repro.measures.adm import ExampleDiceADM, HierarchicalADM
from repro.measures.setsim import DiceADM, FScoreADM, JaccardADM, OverlapADM
from repro.service.merge import merge_topk_results

HORIZON = 96


@pytest.fixture(scope="module")
def hierarchy():
    return SpatialHierarchy.regular([2, 3, 2], prefix="c")


@pytest.fixture(scope="module")
def two_level_hierarchy():
    return SpatialHierarchy.regular([3, 4], prefix="d")


def random_events(hierarchy, rng, num_entities=16, max_events=7, span=90):
    events = []
    for index in range(num_entities):
        name = f"e{index}"
        for _ in range(rng.randrange(1, max_events)):
            start = rng.randrange(0, span)
            events.append(
                PresenceInstance(
                    entity=name,
                    unit=rng.choice(hierarchy.base_units),
                    start=start,
                    end=start + rng.randrange(1, 4),
                )
            )
    return events


def clone_family_events(hierarchy, rng, num_families=8, family_size=4):
    """Families of entities sharing one random trace, beside random entities.

    Identical traces mean identical signatures and scores: path bounds tie
    across tree depths and scores tie at the k-th boundary.  Members are
    added in descending name order, so a tie broken by arrival shows.
    """
    events = random_events(hierarchy, rng, num_entities=10)
    for family in range(num_families):
        prototype = random_events(hierarchy, rng, num_entities=1)
        for member in reversed(range(family_size)):
            events.extend(
                dataclasses.replace(event, entity=f"f{family}-{member}") for event in prototype
            )
    return events


def dataset_from(hierarchy, events):
    dataset = TraceDataset(hierarchy, horizon=HORIZON)
    for event in events:
        dataset.add_presence(event)
    return dataset


def build_engine(hierarchy, events, measure=None, **knobs):
    return TraceQueryEngine(
        dataset_from(hierarchy, events), measure=measure, **knobs
    ).build()


def assert_identical(reference_result, columnar_result):
    assert columnar_result.items == reference_result.items, (
        f"items diverge for {reference_result.query_entity!r}: "
        f"{columnar_result.items} != {reference_result.items}"
    )
    assert dataclasses.asdict(columnar_result.stats) == dataclasses.asdict(
        reference_result.stats
    ), f"stats diverge for {reference_result.query_entity!r}"


def assert_matches_oracle(engine, k_values=(1, 4, 25), oracle_engine=None, **search_kwargs):
    """Kernel answers == oracle answers for every entity of ``engine``.

    ``oracle_engine`` walks a *different* engine's tree (an independently
    maintained twin of a snapshot-loaded engine); by default both sides
    read the one index state.
    """
    oracle = (oracle_engine or engine).searcher
    for query in engine.dataset.entities:
        for k in k_values:
            assert_identical(
                reference_search(oracle, query, k, **search_kwargs),
                engine.searcher.search(query, k, **search_kwargs),
            )


class TestFuzzedEquivalence:
    @pytest.mark.parametrize("fuzz_seed", [3, 17, 59, "clones"])
    def test_random_workloads(self, hierarchy, fuzz_seed, seeded_rng):
        if fuzz_seed == "clones":
            events, num_hashes = clone_family_events(hierarchy, seeded_rng(23)), 4
        else:
            events, num_hashes = random_events(hierarchy, seeded_rng(fuzz_seed)), 24
        engine = build_engine(hierarchy, events, num_hashes=num_hashes, seed=5)
        assert_matches_oracle(engine)

    @pytest.mark.parametrize("approximation", [0.01, 0.2])
    def test_approximate_top_k(self, hierarchy, approximation, seeded_rng):
        rng = seeded_rng(71)
        events = random_events(hierarchy, rng)
        engine = build_engine(hierarchy, events, num_hashes=24, seed=5)
        assert_matches_oracle(engine, k_values=(2, 6), approximation=approximation)

    def test_full_signature_ablation(self, hierarchy, seeded_rng):
        rng = seeded_rng(41)
        events = random_events(hierarchy, rng)
        engine = build_engine(
            hierarchy,
            events,
            num_hashes=24,
            seed=5,
            store_full_signatures=True,
            use_full_signatures=True,
        )
        assert_matches_oracle(engine, k_values=(3,))

    @pytest.mark.parametrize(
        "measure_factory",
        [
            lambda m: HierarchicalADM(num_levels=m, u=3.0, v=1.5),
            lambda m: JaccardADM(num_levels=m),
            lambda m: DiceADM(num_levels=m),
            lambda m: OverlapADM(num_levels=m),
            lambda m: FScoreADM(num_levels=m, beta=0.7),
        ],
        ids=["hierarchical-u3-v1.5", "jaccard", "dice", "overlap", "fscore"],
    )
    def test_measures(self, hierarchy, measure_factory, seeded_rng):
        rng = seeded_rng(13)
        events = random_events(hierarchy, rng, num_entities=12)
        measure = measure_factory(hierarchy.num_levels)
        engine = build_engine(hierarchy, events, measure=measure, num_hashes=16, seed=2)
        assert_matches_oracle(engine, k_values=(3,))

    def test_example_dice_two_levels(self, two_level_hierarchy, seeded_rng):
        rng = seeded_rng(37)
        events = random_events(two_level_hierarchy, rng, num_entities=10)
        engine = build_engine(
            two_level_hierarchy, events, measure=ExampleDiceADM(), num_hashes=16, seed=2
        )
        assert_matches_oracle(engine, k_values=(2, 5))


class TestMeasureBatchKernels:
    """score_levels_batch / bound_batch_kernel are bit-identical per row."""

    MEASURES = [
        HierarchicalADM(num_levels=3),
        HierarchicalADM(num_levels=3, u=4.0, v=3.0),
        HierarchicalADM(num_levels=3, u=1.3, v=1.7),
        JaccardADM(num_levels=3),
        DiceADM(num_levels=3, weights=(0.0, 1.0, 2.0)),
        OverlapADM(num_levels=3),
        FScoreADM(num_levels=3, beta=0.5),
        ExampleDiceADM(weights=(0.3, 0.2, 0.5)),
    ]

    # Ids must be stable from run to run (pytest numbers the repeated name).
    @pytest.mark.parametrize("measure", MEASURES, ids=lambda m: m.name)
    def test_score_levels_batch_matches_scalar(self, measure, seeded_rng):
        rng = seeded_rng(5)
        rows = []
        for _ in range(300):
            row = []
            for _level in range(3):
                size_a = rng.randrange(0, 9)
                size_b = rng.randrange(0, 9)
                shared = rng.randrange(0, min(size_a, size_b) + 1)
                row.append((size_a, size_b, shared))
            rows.append(row)
        sizes_a = np.array([[r[0] for r in row] for row in rows], dtype=np.int64)
        sizes_b = np.array([[r[1] for r in row] for row in rows], dtype=np.int64)
        shared = np.array([[r[2] for r in row] for row in rows], dtype=np.int64)
        batched = measure.score_levels_batch(sizes_a, sizes_b, shared)
        for index, row in enumerate(rows):
            assert batched[index] == measure.score_levels(row)

    @pytest.mark.parametrize("measure", MEASURES, ids=lambda m: m.name)
    def test_bound_kernel_matches_scalar(self, measure):
        query_sizes = (4, 7, 5)
        kernel = measure.bound_batch_kernel(query_sizes)
        survivors = np.array(
            [
                [s1, s2, s3]
                for s1 in range(5)
                for s2 in range(8)
                for s3 in range(6)
            ],
            dtype=np.int64,
        )
        batched = kernel(survivors)
        for index, row in enumerate(survivors):
            overlaps = [
                (int(s), int(q), int(s)) for s, q in zip(row, query_sizes)
            ]
            assert batched[index] == measure.score_levels(overlaps)


class TestStreamingInterleavings:
    @pytest.mark.parametrize("fuzz_seed", [7, 31])
    def test_ingest_expire_interleavings(self, hierarchy, fuzz_seed, seeded_rng):
        rng = seeded_rng(fuzz_seed)
        events = random_events(hierarchy, rng, num_entities=12, max_events=9)
        events.sort(key=lambda p: (p.start, p.end, p.entity, p.unit))
        engine = build_engine(hierarchy, [], num_hashes=24, seed=5)
        window = rng.choice([25, 40])
        batch = rng.choice([4, 16])
        compact_after = rng.choice([0, 6])
        ingestor = EventIngestor(
            engine, max_batch_events=batch, window=window, compact_after=compact_after
        )
        for event in events:
            ingestor.submit(event)
            if rng.random() < 0.08:
                ingestor.flush()
                assert_matches_oracle(engine, k_values=(3,))
        ingestor.close()
        assert_matches_oracle(engine)

    def test_incremental_updates_recompile(self, hierarchy, seeded_rng):
        rng = seeded_rng(97)
        events = random_events(hierarchy, rng, num_entities=10)
        engine = build_engine(hierarchy, events, num_hashes=24, seed=5)
        compiled_before = engine.searcher.compiled_tree()
        assert_matches_oracle(engine, k_values=(3,))
        engine.add_records(
            [
                PresenceInstance("e1", hierarchy.base_units[0], 10, 13),
                PresenceInstance("newcomer", hierarchy.base_units[-1], 4, 6),
            ]
        )
        engine.remove_entity("e2")
        engine.expire_events(8)
        engine.compact()
        assert_matches_oracle(engine, k_values=(1, 5))
        # The mutations must have invalidated the compiled arrays.
        assert engine.searcher.compiled_tree() is not compiled_before


class TestIncrementalPatch:
    """The delta-patch maintenance path (``ColumnarTree.patch``).

    A stale compiled kernel is *patched* -- membership rows spliced, leaf
    spans and tree paths rewritten for touched entities only -- instead of
    recompiled, and the patched arrays must be byte-identical to what a
    from-scratch compile would produce.  Bulk churn falls back to a full
    recompile; either way the arrays below must match a fresh compile.
    """

    def fresh_arrays(self, engine):
        return ColumnarTree.compile(engine._tree, engine.dataset).export_arrays()

    def assert_kernel_matches_fresh(self, engine):
        live = engine.searcher.compiled_tree().export_arrays()
        fresh = self.fresh_arrays(engine)
        assert sorted(live) == sorted(fresh)
        for name, array in live.items():
            assert array.dtype == fresh[name].dtype, name
            assert array.tobytes() == fresh[name].tobytes(), name

    def test_patched_arrays_byte_identical_after_each_mutation(
        self, hierarchy, seeded_rng
    ):
        rng = seeded_rng(101)
        events = random_events(hierarchy, rng, num_entities=16)
        engine = TraceQueryEngine(
            dataset_from(hierarchy, events), num_hashes=24, seed=5
        ).build()
        engine.top_k("e0", k=3)  # first query pays the one full compile
        assert engine.searcher.kernel_compiles == 1
        mutations = [
            lambda: engine.add_records(
                [PresenceInstance("e3", hierarchy.base_units[2], 91, 94)]
            ),
            lambda: engine.add_records(
                [PresenceInstance("newcomer", hierarchy.base_units[-1], 50, 53)]
            ),
            lambda: engine.remove_entity("e7"),
            lambda: engine.add_records(
                [PresenceInstance("e5", hierarchy.base_units[0], 2, 4)]
            ),
        ]
        for index, mutate in enumerate(mutations, start=1):
            mutate()
            engine.top_k("e0", k=3)
            assert engine.searcher.kernel_patches == index  # patched, not recompiled
            assert engine.searcher.kernel_compiles == 1
            self.assert_kernel_matches_fresh(engine)

    def test_bulk_churn_falls_back_to_full_recompile(self, hierarchy, seeded_rng):
        rng = seeded_rng(103)
        events = random_events(hierarchy, rng, num_entities=16)
        engine = TraceQueryEngine(
            dataset_from(hierarchy, events), num_hashes=24, seed=5
        ).build()
        engine.top_k("e0", k=3)
        # Expiry touches most of the population: over the staleness
        # threshold, the patch path must decline and recompile instead.
        engine.expire_events(60)
        engine.top_k("e0", k=3)
        assert engine.searcher.kernel_compiles == 2
        assert engine.searcher.kernel_patches == 0
        self.assert_kernel_matches_fresh(engine)

    def test_first_query_after_compact_does_not_recompile(
        self, hierarchy, seeded_rng, monkeypatch
    ):
        """Regression: ``compact()`` used to leave the kernel stale, so the
        rebuild's recompile was paid *again* by the first query after it.
        Compaction now refreshes the kernel itself; the next query must not
        touch ``ColumnarTree.compile`` at all."""
        rng = seeded_rng(107)
        events = random_events(hierarchy, rng, num_entities=12)
        engine = TraceQueryEngine(
            dataset_from(hierarchy, events), num_hashes=24, seed=5
        ).build()
        engine.top_k("e0", k=3)
        engine.expire_events(30)
        engine.compact()  # rebuild + the one recompile, paid here
        compiles_after_compact = engine.searcher.kernel_compiles

        def no_compile(*args, **kwargs):  # pragma: no cover - guard only
            raise AssertionError("first query after compact() recompiled the kernel")

        monkeypatch.setattr(ColumnarTree, "compile", no_compile)
        result = engine.top_k("e0", k=3)
        assert result.items is not None
        assert engine.searcher.kernel_compiles == compiles_after_compact
        monkeypatch.undo()
        self.assert_kernel_matches_fresh(engine)

    def test_cold_build_reads_the_traces_once(self, hierarchy, seeded_rng, monkeypatch):
        """``build()`` signs and compiles from one cell table: a build and
        its first query build the table exactly once."""
        from repro.traces import dataset as dataset_module
        from repro.traces.events import cell_table_from_traces

        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return cell_table_from_traces(*args, **kwargs)

        monkeypatch.setattr(dataset_module, "cell_table_from_traces", counted)
        events = random_events(hierarchy, seeded_rng(109))
        engine = TraceQueryEngine(dataset_from(hierarchy, events), num_hashes=24, seed=5).build()
        engine.top_k("e0", k=3)
        assert len(calls) == 1

    def test_first_query_after_build_does_not_compile(self, hierarchy, seeded_rng, monkeypatch):
        """``build()`` pays the one kernel compile itself (``save`` exports
        the compiled tree anyway); the first query must not touch
        ``ColumnarTree.compile``."""
        events = random_events(hierarchy, seeded_rng(113))
        engine = TraceQueryEngine(dataset_from(hierarchy, events), num_hashes=24, seed=5).build()

        def no_compile(*args, **kwargs):  # pragma: no cover - guard only
            raise AssertionError("first query after build() compiled the kernel")

        monkeypatch.setattr(ColumnarTree, "compile", no_compile)
        assert engine.top_k("e0", k=3).items is not None
        assert engine.searcher.kernel_compiles == 1
        monkeypatch.undo()
        self.assert_kernel_matches_fresh(engine)


class TestShardedEquivalence:
    @pytest.mark.parametrize("num_shards", [1, 2])
    def test_sharded_columnar_matches_reference(self, hierarchy, num_shards, seeded_rng):
        rng = seeded_rng(83)
        events = random_events(hierarchy, rng)
        sharded = ShardedEngine(
            dataset_from(hierarchy, events), num_hashes=24, seed=5, num_shards=num_shards
        ).build()
        for query in sharded.dataset.entities:
            sequence = sharded.dataset.cell_sequence(query)
            for k in (1, 4, 25):
                # The oracle per shard, merged by the one shared merge.
                reference = merge_topk_results(
                    query,
                    [
                        reference_search(shard.searcher, query, k, query_sequence=sequence)
                        for shard in sharded.shards
                    ],
                    k,
                )
                assert_identical(reference, sharded.top_k(query, k))


class TestSnapshotRoundTrip:
    def test_compiled_arrays_round_trip(self, hierarchy, tmp_path, monkeypatch, seeded_rng):
        rng = seeded_rng(19)
        events = random_events(hierarchy, rng)
        engine = TraceQueryEngine(
            dataset_from(hierarchy, events), num_hashes=24, seed=5
        ).build()
        snap = engine.save(tmp_path / "snap")
        assert (snap / "columnar.npz").exists()

        def no_compile(*args, **kwargs):  # pragma: no cover - guard only
            raise AssertionError("snapshot load must import, not recompile")

        # The load imports the persisted arrays and hands them, stamped, to
        # the searcher: neither the load nor the first query compiles.
        monkeypatch.setattr(ColumnarTree, "compile", no_compile)
        loaded = TraceQueryEngine.load(snap)
        assert loaded.searcher._compiled.matches(loaded.tree, loaded.dataset)
        installed = loaded.searcher.compiled_tree()
        assert installed is not None
        saved_arrays = engine.searcher.compiled_tree().export_arrays()
        loaded_arrays = installed.export_arrays()
        assert set(saved_arrays) == set(loaded_arrays)
        for key, value in saved_arrays.items():
            assert np.array_equal(value, loaded_arrays[key]), key
        monkeypatch.undo()

        assert_matches_oracle(loaded, k_values=(3,), oracle_engine=engine)

    def test_streamed_snapshot_round_trip(self, hierarchy, tmp_path, seeded_rng):
        """Save/load after streaming updates (arrays recompiled at save)."""
        rng = seeded_rng(53)
        events = random_events(hierarchy, rng, num_entities=10)
        engine = build_engine(hierarchy, events, num_hashes=24, seed=5)
        engine.add_records([PresenceInstance("e0", hierarchy.base_units[2], 50, 55)])
        engine.expire_events(12)
        engine.save(tmp_path / "snap")
        loaded = TraceQueryEngine.load(tmp_path / "snap")
        assert_matches_oracle(loaded, k_values=(1, 6), oracle_engine=engine)
        assert (loaded.searcher.kernel_compiles, loaded.searcher.kernel_patches) == (0, 0)

    def test_mutation_before_first_query_patches_the_persisted_arrays(
        self, hierarchy, tmp_path, seeded_rng
    ):
        """A post-load mutation must win over the persisted compile: the
        arrays are valid for the engine as loaded, so the first query
        patches the touched entity into them instead of recompiling."""
        rng = seeded_rng(61)
        events = random_events(hierarchy, rng, num_entities=8)
        engine = build_engine(hierarchy, events, num_hashes=16, seed=3)
        engine.save(tmp_path / "snap")
        loaded = TraceQueryEngine.load(tmp_path / "snap")
        extra = [PresenceInstance("e3", hierarchy.base_units[1], 60, 63)]
        engine.add_records(extra)
        loaded.add_records(extra)  # before any query
        assert_matches_oracle(loaded, k_values=(2, 5), oracle_engine=engine)
        assert (loaded.searcher.kernel_patches, loaded.searcher.kernel_compiles) == (1, 0)
        fresh = ColumnarTree.compile(loaded.tree, loaded.dataset).export_arrays()
        patched = loaded.searcher.compiled_tree().export_arrays()
        assert set(fresh) == set(patched)
        for key, value in fresh.items():
            assert np.array_equal(value, patched[key]), key

    @pytest.mark.parametrize("num_shards", [0, 2], ids=["single", "sharded"])
    def test_a_loaded_tree_recompiles_to_the_never_saved_kernel(
        self, hierarchy, tmp_path, seeded_rng, num_shards
    ):
        """The tree is restored from the kernel's BFS arrays, so every node
        lists its children as the saved tree did: after one mutation applied
        to both, recompiling the loaded tree gives the never-saved engine's
        kernel byte for byte."""
        rng = seeded_rng(89)
        dataset = dataset_from(hierarchy, random_events(hierarchy, rng, num_entities=40))
        if num_shards:
            engine = ShardedEngine(dataset, num_hashes=16, seed=3, num_shards=num_shards)
        else:
            engine = TraceQueryEngine(dataset, num_hashes=16, seed=3)
        loaded = type(engine).load(engine.build().save(tmp_path / "snap"))
        records = [
            PresenceInstance("e5", hierarchy.base_units[4], 70, 74),
            PresenceInstance("fresh", hierarchy.base_units[1], 12, 15),
        ]
        for twin in (engine, loaded):
            twin.add_records(records)
            twin.remove_entity("e9")
        pairs = (
            list(zip(engine.shards, loaded.shards)) if num_shards else [(engine, loaded)]
        )
        for never_saved, restored in pairs:
            expected = never_saved.searcher.compiled_tree().export_arrays()
            actual = ColumnarTree.compile(restored.tree, restored.dataset).export_arrays()
            assert set(actual) == set(expected)
            for key, value in expected.items():
                assert actual[key].dtype == value.dtype, key
                assert actual[key].tobytes() == value.tobytes(), key
            patched = restored.searcher.compiled_tree().export_arrays()
            for key, value in expected.items():
                assert patched[key].tobytes() == value.tobytes(), key

    def test_missing_or_corrupt_columnar_payload_fails_the_load(
        self, hierarchy, tmp_path, seeded_rng
    ):
        """``columnar.npz`` is the stored tree: a load without a sound one
        fails.  A missing file is unreadable (the ``OSError`` is the cause,
        so a generation store retries it); a corrupt one is refused."""
        from repro.storage.snapshot import SnapshotError, _file_digest

        rng = seeded_rng(73)
        events = random_events(hierarchy, rng, num_entities=8)
        engine = TraceQueryEngine(
            dataset_from(hierarchy, events), num_hashes=16, seed=3
        ).build()

        snap = engine.save(tmp_path / "missing")
        (snap / "columnar.npz").unlink()
        with pytest.raises(SnapshotError, match="unreadable snapshot payload columnar.npz") as caught:
            TraceQueryEngine.load(snap)
        assert isinstance(caught.value.__cause__, OSError)

        snap = engine.save(tmp_path / "corrupt")
        (snap / "columnar.npz").write_bytes(b"not an npz")
        with pytest.raises(SnapshotError, match="columnar.npz .*does not match") as caught:
            TraceQueryEngine.load(snap)
        assert caught.value.__cause__ is None

        # The same bytes under a matching digest still fail: not an archive.
        manifest = json.loads((snap / "manifest.json").read_text())
        manifest["content"]["columnar.npz"] = _file_digest(snap / "columnar.npz")
        (snap / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(SnapshotError, match="unreadable snapshot payload columnar.npz") as caught:
            TraceQueryEngine.load(snap)
        assert not isinstance(caught.value.__cause__, OSError)

    @pytest.mark.parametrize(
        "tamper", ["code_outside_its_level", "negative_code", "unsorted_codes", "offset_length"]
    )
    def test_an_impossible_cell_table_fails_the_load(self, tmp_path, tamper):
        """The import refuses integer cell tables ``export_arrays`` can never
        write -- a kernel installed from one would answer wrongly -- and so
        does the load, even when the manifest digest matches."""
        from repro.storage.snapshot import SnapshotError, _file_digest

        hierarchy = SpatialHierarchy.regular([2, 2])
        dataset = TraceDataset(hierarchy, horizon=12)
        dataset.add_record("e0", "u2_0_0", time=1, duration=3)
        dataset.add_record("e0", "u2_1_0", time=6, duration=2)
        dataset.add_record("e1", "u2_0_1", time=1, duration=3)
        dataset.add_record("e1", "u2_1_0", time=6, duration=1)
        dataset.add_record("e2", "u2_1_1", time=6, duration=2)
        dataset.add_record("e2", "u2_0_0", time=9, duration=2)
        dataset.add_record("e3", "u2_0_0", time=2, duration=1)
        engine = TraceQueryEngine(dataset, num_hashes=16, seed=3).build()
        snap = engine.save(tmp_path / "snap")
        with np.load(snap / "columnar.npz") as payload:
            arrays = {key: payload[key] for key in payload.files}
        codes, offsets = arrays["cell_codes"], arrays["level_cell_offset"]
        radix = len(hierarchy.coded_units())
        first, stop = offsets[1], offsets[2]  # the base level's cells
        if tamper == "code_outside_its_level":
            # Still the level's smallest code, but of a level-1 unit.
            codes[first] = codes[first] // radix * radix
        elif tamper == "negative_code":
            codes[first] = -1
        elif tamper == "unsorted_codes":
            codes[first:stop] = codes[first:stop][::-1].copy()
        else:
            arrays["level_cell_offset"] = offsets[:-1]
        with pytest.raises(ValueError, match="malformed columnar arrays"):
            ColumnarTree.import_arrays(arrays, hierarchy=hierarchy, num_hashes=16)
        np.savez(snap / "columnar.npz", **arrays)
        manifest = json.loads((snap / "manifest.json").read_text())
        manifest["content"]["columnar.npz"] = _file_digest(snap / "columnar.npz")
        (snap / "manifest.json").write_text(json.dumps(manifest))

        with pytest.raises(SnapshotError, match="malformed columnar arrays") as caught:
            TraceQueryEngine.load(snap)
        assert not isinstance(caught.value.__cause__, OSError)

    @pytest.mark.parametrize("mmap_columnar", [False, True], ids=["heap", "mmap"])
    @pytest.mark.parametrize("num_shards", [0, 2], ids=["single", "sharded"])
    def test_a_clean_load_adopts_the_persisted_kernel(
        self, hierarchy, tmp_path, seeded_rng, num_shards, mmap_columnar
    ):
        """A sound ``columnar.npz`` serves every query without a compile."""
        from repro.storage.snapshot import load_engine_snapshot

        rng = seeded_rng(67)
        dataset = dataset_from(hierarchy, random_events(hierarchy, rng, num_entities=8))
        if num_shards:
            engine = ShardedEngine(dataset, num_hashes=16, seed=3, num_shards=num_shards)
        else:
            engine = TraceQueryEngine(dataset, num_hashes=16, seed=3)
        load = ShardedEngine.load if num_shards else load_engine_snapshot
        loaded = load(engine.build().save(tmp_path / "snap"), mmap_columnar=mmap_columnar)
        for query in dataset.entities:
            assert_identical(engine.top_k(query, k=5), loaded.top_k(query, k=5))
        searchers = [shard.searcher for shard in loaded.shards] if num_shards else [loaded.searcher]
        assert [searcher.kernel_compiles for searcher in searchers] == [0] * len(searchers)

    @pytest.mark.parametrize("num_shards", [0, 2], ids=["single", "sharded"])
    @pytest.mark.parametrize("key", ["bound_mode", "bulk_signatures", "columnar_queries"])
    def test_config_keys_of_deleted_options_are_refused(
        self, hierarchy, tmp_path, num_shards, key, seeded_rng
    ):
        """Earlier builds recorded these options in ``config``; this build
        writes format 4 alone, so a manifest naming one is refused like any
        other unknown key, never silently dropped."""
        from repro.storage.snapshot import SnapshotError

        rng = seeded_rng(79)
        dataset = dataset_from(hierarchy, random_events(hierarchy, rng, num_entities=8))
        if num_shards:
            engine = ShardedEngine(dataset, num_hashes=16, seed=3, num_shards=num_shards)
        else:
            engine = TraceQueryEngine(dataset, num_hashes=16, seed=3)
        snap = engine.build().save(tmp_path / "snap")
        manifests = (
            sorted(snap.glob("shard-*/manifest.json"))
            if num_shards
            else [snap / "manifest.json"]
        )
        assert len(manifests) == max(num_shards, 1)
        for path in manifests:
            manifest = json.loads(path.read_text())
            assert key not in manifest["config"]  # no longer written
            manifest["config"][key] = "per_level" if key == "bound_mode" else True
            path.write_text(json.dumps(manifest))
        with pytest.raises(SnapshotError, match=key):
            type(engine).load(snap)
