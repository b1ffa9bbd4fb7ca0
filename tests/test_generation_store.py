"""Unit tests for the multi-process tier's storage pieces.

:class:`~repro.server.generation.GenerationStore` -- the single-writer
publish / many-reader adopt protocol -- and
:func:`~repro.core.columnar.load_npz_mmap` -- the zero-copy columnar-array
loader that lets every query worker share one physical copy of the compiled
arrays through the page cache.  The end-to-end behaviour (workers adopting
generations mid-traffic, byte-identical responses) is pinned by
``test_server_equivalence.py``; this module covers the pieces in isolation.
"""

import json
import shutil
import threading
import time

import numpy as np
import pytest

from repro.core.columnar import load_npz_mmap
from repro.server import generation as generation_module
from repro.server.generation import KEEP_GENERATIONS, GenerationStore, SnapshotDelta
from repro.storage.snapshot import SnapshotError, load_engine_snapshot
from repro.traces.events import PresenceInstance


class TestLoadNpzMmap:
    def test_byte_identical_to_np_load(self, tmp_path):
        path = tmp_path / "arrays.npz"
        rng = np.random.default_rng(7)
        arrays = {
            "floats": rng.random((13, 4)),
            "ints": rng.integers(0, 1 << 40, size=57).astype(np.int64),
            "fortran": np.asfortranarray(rng.random((6, 5))),
            "empty": np.zeros((0, 3), dtype=np.float32),
        }
        np.savez(path, **arrays)
        mapped = load_npz_mmap(path)
        assert mapped is not None
        assert set(mapped) == set(arrays)
        for key, value in arrays.items():
            assert mapped[key].dtype == value.dtype
            assert mapped[key].shape == value.shape
            np.testing.assert_array_equal(np.asarray(mapped[key]), value)
        # Non-empty members are real memory maps (shared pages), not copies,
        # and the Fortran layout survives the round trip.
        assert isinstance(mapped["floats"], np.memmap)
        assert mapped["fortran"].flags["F_CONTIGUOUS"]

    def test_compressed_archive_falls_back(self, tmp_path):
        # np.savez_compressed members are deflated: not mappable.  The
        # loader must decline (None) so callers fall back to np.load.
        path = tmp_path / "compressed.npz"
        np.savez_compressed(path, data=np.arange(100))
        assert load_npz_mmap(path) is None

    def test_garbage_file_returns_none(self, tmp_path):
        path = tmp_path / "not_a.npz"
        path.write_bytes(b"definitely not a zip archive")
        assert load_npz_mmap(path) is None

    def test_compressed_fallback_is_byte_identical_via_np_load(self, tmp_path):
        # When the mapper declines, callers answer through np.load: pin that
        # the fallback path reads back the exact bytes that were saved.
        path = tmp_path / "compressed.npz"
        rng = np.random.default_rng(11)
        arrays = {"floats": rng.random((9, 3)), "ints": rng.integers(0, 99, size=17)}
        np.savez_compressed(path, **arrays)
        assert load_npz_mmap(path) is None
        with np.load(path) as fallback:
            assert set(fallback.files) == set(arrays)
            for key, value in arrays.items():
                loaded = fallback[key]
                assert loaded.dtype == value.dtype
                np.testing.assert_array_equal(loaded, value)
                assert loaded.tobytes() == value.tobytes()

    def test_mixed_stored_and_deflated_members_fall_back(self, tmp_path):
        # One deflated member poisons the whole archive: mapping must decline
        # even though the other member is stored, and np.load must still read
        # both back byte-identically.
        import io
        import zipfile

        path = tmp_path / "mixed.npz"
        stored = np.arange(24, dtype=np.int32).reshape(4, 6)
        deflated = np.linspace(0.0, 1.0, 40)

        def npy_bytes(array):
            buffer = io.BytesIO()
            np.lib.format.write_array(buffer, array)
            return buffer.getvalue()

        with zipfile.ZipFile(path, "w") as archive:
            archive.writestr(
                zipfile.ZipInfo("stored.npy"),
                npy_bytes(stored),
                compress_type=zipfile.ZIP_STORED,
            )
            archive.writestr(
                zipfile.ZipInfo("deflated.npy"),
                npy_bytes(deflated),
                compress_type=zipfile.ZIP_DEFLATED,
            )
        assert load_npz_mmap(path) is None
        with np.load(path) as fallback:
            np.testing.assert_array_equal(fallback["stored"], stored)
            assert fallback["stored"].tobytes() == stored.tobytes()
            np.testing.assert_array_equal(fallback["deflated"], deflated)
            assert fallback["deflated"].tobytes() == deflated.tobytes()

    def test_truncated_archive_returns_none(self, tmp_path):
        # Cut a valid archive mid-payload: the ZIP directory (at the end of
        # the file) is gone, so mapping must decline instead of raising.
        path = tmp_path / "whole.npz"
        np.savez(path, data=np.arange(1000, dtype=np.int64))
        blob = path.read_bytes()
        for keep in (len(blob) // 2, 30, 4):
            truncated = tmp_path / f"truncated_{keep}.npz"
            truncated.write_bytes(blob[:keep])
            assert load_npz_mmap(truncated) is None

    def test_corrupt_local_header_returns_none(self, tmp_path):
        # A readable central directory but a clobbered local file header:
        # the per-member header check must decline rather than map garbage.
        path = tmp_path / "clobbered.npz"
        np.savez(path, data=np.arange(64, dtype=np.int16))
        blob = bytearray(path.read_bytes())
        assert blob[:4] == b"PK\x03\x04"
        blob[:4] = b"XXXX"
        path.write_bytes(bytes(blob))
        assert load_npz_mmap(path) is None

    def test_zero_length_arrays_round_trip(self, tmp_path):
        # Empty arrays have no payload to map; they come back as in-memory
        # zeros but must still be byte-identical to what np.load reads.
        path = tmp_path / "empties.npz"
        arrays = {
            "empty_1d": np.zeros((0,), dtype=np.float64),
            "empty_mid": np.zeros((3, 0, 2), dtype=np.int32),
            "nonempty": np.arange(5, dtype=np.uint8),
        }
        np.savez(path, **arrays)
        mapped = load_npz_mmap(path)
        assert mapped is not None
        with np.load(path) as reference:
            for key in arrays:
                via_np_load = reference[key]
                assert mapped[key].dtype == via_np_load.dtype
                assert mapped[key].shape == via_np_load.shape
                np.testing.assert_array_equal(np.asarray(mapped[key]), via_np_load)
                assert np.asarray(mapped[key]).tobytes() == via_np_load.tobytes()
        # Empty members are plain arrays (nothing to share); the non-empty
        # member is a real map and is read-only.
        assert not isinstance(mapped["empty_1d"], np.memmap)
        assert isinstance(mapped["nonempty"], np.memmap)
        with pytest.raises((ValueError, OSError)):
            mapped["nonempty"][0] = 1


class TestGenerationStore:
    def test_publish_and_current_round_trip(self, small_engine, tmp_path):
        store = GenerationStore(tmp_path / "store")
        assert store.current() is None
        assert store.publish(small_engine) == 1
        current = store.current()
        assert current is not None
        number, directory = current
        assert number == 1
        assert directory.name == "gen-000001"
        restored = load_engine_snapshot(directory)
        assert restored.top_k("a", k=3).items == small_engine.top_k("a", k=3).items

    def test_prune_keeps_the_retention_window(self, small_engine, tmp_path):
        store = GenerationStore(tmp_path)
        total = KEEP_GENERATIONS + 2
        for _ in range(total):
            store.publish(small_engine)
        names = sorted(p.name for p in tmp_path.iterdir() if p.name.startswith("gen-"))
        kept = range(total - KEEP_GENERATIONS + 1, total + 1)
        assert names == [f"gen-{generation:06d}" for generation in kept]
        # CURRENT still names the newest, surviving generation.
        number, directory = store.current()
        assert number == total
        assert directory.exists()

    def test_load_current_newer_than_semantics(self, small_engine, tmp_path):
        store = GenerationStore(tmp_path)
        store.publish(small_engine)
        # A reader opening the store fresh (a worker process) sees it.
        reader = GenerationStore(tmp_path)
        loaded = reader.load_current(newer_than=0, timeout=5)
        assert loaded is not None
        generation, engine = loaded
        assert generation == 1
        assert engine.top_k("a", k=3).items == small_engine.top_k("a", k=3).items
        # Nothing newer than what the reader already has: no reload.
        assert reader.load_current(newer_than=1, timeout=5) is None

    def test_load_current_times_out_on_an_empty_store(self, tmp_path):
        store = GenerationStore(tmp_path)
        with pytest.raises(SnapshotError, match="no generation published"):
            store.load_current(timeout=0.05)

    def test_mmap_adopted_generation_answers_identically(self, small_engine, tmp_path):
        # Force a columnar compile so the snapshot carries columnar.npz.
        baseline = small_engine.top_k("a", k=3)
        store = GenerationStore(tmp_path)
        store.publish(small_engine)
        generation, engine = store.load_current(timeout=5)
        assert generation == 1
        result = engine.top_k("a", k=3)
        assert result.items == baseline.items
        assert result.stats.__dict__ == baseline.stats.__dict__


class TestDeltaGenerations:
    """Delta publishes: one flush's operations as a small JSON document.

    A reader standing on the chain applies the missing deltas in place
    (:meth:`GenerationStore.catch_up`); a cold reader materialises the full
    base plus the chain (:meth:`GenerationStore.load_current`); the chain's
    length is bounded by ``DELTA_CHAIN_LIMIT``, after which a full snapshot is
    forced and older chains pruned.
    """

    def delta_for(self, engine, events, cutoff=None, compacted=False):
        """Mutate ``engine`` as one flush would, and describe it as a delta."""
        delta = SnapshotDelta(events=list(events), cutoff=cutoff, compacted=compacted)
        delta.apply(engine)
        return delta

    def new_event(self, engine, index):
        unit = engine.dataset.hierarchy.base_units[index % 4]
        return PresenceInstance(f"fresh-{index}", unit, 30 + index, 33 + index)

    def test_publish_update_writes_delta_documents(self, small_engine, tmp_path):
        store = GenerationStore(tmp_path)
        store.publish(small_engine)
        delta = self.delta_for(small_engine, [self.new_event(small_engine, 0)])
        assert store.publish_update(small_engine, delta=delta) == 2
        assert (tmp_path / "delta-000002.json").exists()
        assert not (tmp_path / "gen-000002").exists()
        number, path = store.current()
        assert number == 2 and path.name == "delta-000002.json"

    def test_cold_load_materialises_base_plus_chain(self, small_engine, tmp_path):
        store = GenerationStore(tmp_path)
        store.publish(small_engine)
        for index in range(2):
            delta = self.delta_for(
                small_engine, [self.new_event(small_engine, index)], cutoff=4 + index
            )
            store.publish_update(small_engine, delta=delta)
        reader = GenerationStore(tmp_path)
        generation, engine = reader.load_current(timeout=5)
        assert generation == 3
        assert sorted(engine.dataset.entities) == sorted(small_engine.dataset.entities)
        for entity in sorted(small_engine.dataset.entities):
            assert engine.top_k(entity, k=3).items == small_engine.top_k(entity, k=3).items

    def test_catch_up_applies_the_delta_suffix_in_place(self, small_engine, tmp_path):
        store = GenerationStore(tmp_path)
        store.publish(small_engine)
        reader = GenerationStore(tmp_path)
        generation, engine = reader.load_current(timeout=5)
        assert generation == 1
        assert reader.catch_up(engine, generation) is None  # nothing newer

        for index in range(3):
            delta = self.delta_for(small_engine, [self.new_event(small_engine, index)])
            store.publish_update(small_engine, delta=delta)
        caught_up = reader.catch_up(engine, generation)
        assert caught_up == 4
        for entity in sorted(small_engine.dataset.entities):
            assert engine.top_k(entity, k=3).items == small_engine.top_k(entity, k=3).items
        # Standing at the newest generation now: a further catch-up no-ops.
        assert reader.catch_up(engine, caught_up) is None

    def test_catch_up_declines_across_a_full_snapshot(self, small_engine, tmp_path):
        store = GenerationStore(tmp_path)
        store.publish(small_engine)
        store.publish(small_engine)  # newest is full: readers must reload
        reader = GenerationStore(tmp_path)
        assert reader.catch_up(object(), 1) is None

    def test_chain_limit_forces_a_full_snapshot(self, small_engine, tmp_path, monkeypatch):
        monkeypatch.setattr(generation_module, "DELTA_CHAIN_LIMIT", 2)
        store = GenerationStore(tmp_path)
        store.publish(small_engine)
        for index in range(3):
            delta = self.delta_for(small_engine, [self.new_event(small_engine, index)])
            store.publish_update(small_engine, delta=delta)
        # Generations 2 and 3 were deltas; 4 hit the limit and went full.
        assert (tmp_path / "delta-000002.json").exists()
        assert (tmp_path / "delta-000003.json").exists()
        assert (tmp_path / "gen-000004").exists()
        number, path = store.current()
        assert number == 4 and path.name == "gen-000004"
        # The next update chains off the new full base.
        delta = self.delta_for(small_engine, [self.new_event(small_engine, 9)])
        assert store.publish_update(small_engine, delta=delta) == 5
        assert (tmp_path / "delta-000005.json").exists()

    def test_full_publish_prunes_chains_older_than_the_previous_full(
        self, small_engine, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(generation_module, "DELTA_CHAIN_LIMIT", 2)
        store = GenerationStore(tmp_path)
        store.publish(small_engine)  # gen 1 full
        # Updates produce: deltas 2,3 -> full 4 -> deltas 5,6 -> full 7.
        for index in range(6):
            delta = self.delta_for(small_engine, [self.new_event(small_engine, index)])
            store.publish_update(small_engine, delta=delta)
        assert store.generation == 7
        names = set(p.name for p in tmp_path.iterdir() if p.name != "CURRENT")
        # The second full publish (7) prunes everything below the previous
        # full (4): generation 1's chain is unreachable and gone, while the
        # previous chain (full 4 + deltas 5,6) survives for readers that
        # just fetched the old CURRENT.
        assert "gen-000001" not in names
        assert "delta-000002.json" not in names
        assert "delta-000003.json" not in names
        assert {"gen-000004", "delta-000005.json", "delta-000006.json", "gen-000007"} <= names

    def test_current_meta_reads_extra_from_either_kind(self, small_engine, tmp_path):
        store = GenerationStore(tmp_path)
        store.publish(small_engine, extra_meta={"wal_seq": 3, "stream": {"watermark": 7}})
        assert store.current_meta() == {"wal_seq": 3, "stream": {"watermark": 7}}
        delta = self.delta_for(small_engine, [self.new_event(small_engine, 0)])
        store.publish_update(
            small_engine, delta=delta, extra_meta={"wal_seq": 4, "stream": {"watermark": 9}}
        )
        assert store.current_meta() == {"wal_seq": 4, "stream": {"watermark": 9}}

    def test_delta_payload_round_trips(self, small_engine, tmp_path):
        events = [self.new_event(small_engine, 0), self.new_event(small_engine, 1)]
        delta = SnapshotDelta(events=events, cutoff=12, compacted=True)
        clone = SnapshotDelta.from_payload(delta.to_payload())
        assert clone.events == events
        assert clone.cutoff == 12
        assert clone.compacted is True
        assert not delta.is_empty()
        assert SnapshotDelta().is_empty()


class TestCurrentRecovery:
    """Recovery when ``CURRENT`` names a pruned or half-deleted generation.

    The publish protocol never *creates* this state (directories are
    complete before ``CURRENT`` swaps, pruning only drops unreachable
    chains), but crashes and operator mistakes can: a reader must neither
    hang forever nor serve a torn snapshot.  The contract is bounded
    retry -- long enough for a concurrent publish to repair the store,
    then a clean :class:`SnapshotError`.
    """

    def test_current_naming_a_pruned_directory_raises_after_bounded_retry(
        self, small_engine, tmp_path
    ):
        store = GenerationStore(tmp_path)
        store.publish(small_engine)
        _, directory = store.current()
        shutil.rmtree(directory)  # the directory CURRENT names is gone
        reader = GenerationStore(tmp_path)
        started = time.monotonic()
        with pytest.raises(SnapshotError):
            reader.load_current(timeout=0.3)
        # It kept retrying (a publish could have repaired the store) and
        # gave up only once the budget was spent -- no instant failure,
        # no unbounded hang.
        assert 0.25 <= time.monotonic() - started < 5.0

    def test_current_naming_a_half_deleted_directory_raises(
        self, small_engine, tmp_path
    ):
        store = GenerationStore(tmp_path)
        store.publish(small_engine)
        _, directory = store.current()
        # A partially deleted generation: the directory exists but its
        # files are gone -- indistinguishable from a torn snapshot.
        for entry in list(directory.iterdir()):
            if entry.is_file():
                entry.unlink()
        reader = GenerationStore(tmp_path)
        with pytest.raises(SnapshotError):
            reader.load_current(timeout=0.3)

    def test_reader_recovers_when_a_publish_lands_during_the_retry_window(
        self, small_engine, tmp_path
    ):
        store = GenerationStore(tmp_path)
        store.publish(small_engine)
        _, directory = store.current()
        shutil.rmtree(directory)

        def repair():
            time.sleep(0.25)
            store.publish(small_engine)  # generation 2, CURRENT re-swapped

        repairer = threading.Thread(target=repair)
        repairer.start()
        try:
            reader = GenerationStore(tmp_path)
            loaded = reader.load_current(timeout=10.0)
        finally:
            repairer.join()
        assert loaded is not None
        generation, engine = loaded
        assert generation == 2
        assert engine.top_k("a", k=3).items == small_engine.top_k("a", k=3).items

    def test_a_missing_columnar_payload_is_retried(self, small_engine, tmp_path):
        store = GenerationStore(tmp_path)
        store.publish(small_engine)
        _, directory = store.current()
        # The stored tree is gone, as under a prune racing the read: a
        # publish could still repair the store, so the reader retries.
        (directory / "columnar.npz").unlink()
        reader = GenerationStore(tmp_path)
        started = time.monotonic()
        with pytest.raises(SnapshotError, match="unreadable snapshot payload columnar.npz"):
            reader.load_current(timeout=0.3)
        assert 0.25 <= time.monotonic() - started < 5.0

    def test_a_tampered_columnar_payload_raises_without_retrying(
        self, small_engine, tmp_path
    ):
        store = GenerationStore(tmp_path)
        store.publish(small_engine)
        _, directory = store.current()
        (directory / "columnar.npz").write_bytes(b"not an npz")
        reader = GenerationStore(tmp_path)
        started = time.monotonic()
        with pytest.raises(SnapshotError, match="columnar.npz .*does not match"):
            reader.load_current(timeout=30.0)
        assert time.monotonic() - started < 1.0

    def test_a_refused_manifest_raises_without_retrying(self, small_engine, tmp_path):
        store = GenerationStore(tmp_path)
        store.publish(small_engine)
        _, directory = store.current()
        manifest_path = directory / "manifest.json"
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        manifest["format_version"] = 2
        manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
        reader = GenerationStore(tmp_path)
        started = time.monotonic()
        # The manifest reads but is refused: no publish or prune race can
        # change that while CURRENT still names it, so retrying is waste.
        with pytest.raises(SnapshotError, match="format version 2"):
            reader.load_current(timeout=30.0)
        assert time.monotonic() - started < 1.0

    def test_vanished_current_with_a_prior_generation_is_fatal_immediately(
        self, small_engine, tmp_path
    ):
        store = GenerationStore(tmp_path)
        store.publish(small_engine)
        (tmp_path / "CURRENT").unlink()
        reader = GenerationStore(tmp_path)
        # A store that once had generations never legitimately returns to
        # having none: a reader standing at generation 1 fails fast
        # instead of burning its whole retry budget.
        started = time.monotonic()
        with pytest.raises(SnapshotError, match="lost its CURRENT"):
            reader.load_current(newer_than=1, timeout=30.0)
        assert time.monotonic() - started < 1.0
