"""Snapshot persistence: exact round-trips and loud failure modes.

The contract under test (see :mod:`repro.storage.snapshot`): an engine
restored from ``save()`` is bitwise-identical to the saved one -- same
signature matrices, same tree structure and routing values, same top-k
results, orderings, and pruning statistics -- including across OS
processes; and any version or fingerprint mismatch fails loudly instead of
serving wrong results.
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import repro
from repro import (
    JaccardADM,
    PresenceInstance,
    ShardedEngine,
    TraceDataset,
    TraceQueryEngine,
)
from repro.cli import main as cli_main
from repro.measures.base import AssociationMeasure
from repro.storage.snapshot import (
    SNAPSHOT_FORMAT_VERSION,
    SnapshotError,
    load_engine_snapshot,
    save_engine_snapshot,
    snapshot_info,
)


def assert_engines_identical(original: TraceQueryEngine, restored: TraceQueryEngine, queries, k=5):
    """Signatures, tree shape, and query outcomes must match exactly."""
    assert restored.dataset.num_entities == original.dataset.num_entities
    assert set(restored.dataset.entities) == set(original.dataset.entities)
    for entity in original.dataset.entities:
        assert np.array_equal(
            original.tree.signature_of(entity), restored.tree.signature_of(entity)
        ), f"signature mismatch for {entity!r}"
    assert restored.tree.num_nodes == original.tree.num_nodes
    assert restored.tree.depth_histogram() == original.tree.depth_histogram()
    assert restored.tree.leaf_order() == original.tree.leaf_order()
    for query in queries:
        expected = original.top_k(query, k=k)
        actual = restored.top_k(query, k=k)
        assert actual.items == expected.items
        assert actual.stats.__dict__ == expected.stats.__dict__


class TestRoundTrip:
    def test_small_engine_round_trip(self, small_engine, tmp_path):
        small_engine.save(tmp_path / "snap")
        restored = TraceQueryEngine.load(tmp_path / "snap")
        assert_engines_identical(small_engine, restored, ["a", "d"], k=3)
        assert restored.config == small_engine.config
        assert restored.measure.name == small_engine.measure.name

    def test_syn_engine_round_trip(self, syn_engine, tmp_path):
        syn_engine.save(tmp_path / "snap")
        restored = load_engine_snapshot(tmp_path / "snap")
        queries = list(syn_engine.dataset.entities)[:5]
        assert_engines_identical(syn_engine, restored, queries, k=10)
        # Stored at the width of the hash range, held as int64 in memory.
        with np.load(tmp_path / "snap" / "arrays.npz") as arrays:
            stored = arrays["signatures"].dtype
        assert stored == np.min_scalar_type(restored.hash_family.hash_range)
        for entity in restored.dataset.entities:
            assert restored.tree.signature_of(entity).dtype == np.int64

    def test_round_trip_preserves_dataset_traces(self, small_engine, tmp_path):
        small_engine.save(tmp_path / "snap")
        restored = TraceQueryEngine.load(tmp_path / "snap")
        for entity in small_engine.dataset.entities:
            assert restored.dataset.trace(entity) == small_engine.dataset.trace(entity)
        assert restored.dataset.horizon == small_engine.dataset.horizon

    def test_round_trip_after_updates(self, small_engine, small_hierarchy, tmp_path):
        """Snapshots taken mid-lifecycle capture the *current* tree exactly.

        remove() leaves ancestor routing values un-tightened; the snapshot
        must preserve those loose values, not re-tighten them.
        """
        base = small_hierarchy.base_units
        small_engine.add_records(
            [
                PresenceInstance("f", base[0], 2, 5),
                PresenceInstance("a", base[2], 30, 33),
            ]
        )
        small_engine.remove_entity("c")
        small_engine.save(tmp_path / "snap")
        restored = TraceQueryEngine.load(tmp_path / "snap")
        assert "c" not in restored.dataset
        assert_engines_identical(small_engine, restored, ["a", "f", "d"], k=3)

    def test_loaded_engine_supports_updates(self, small_engine, small_hierarchy, tmp_path):
        small_engine.save(tmp_path / "snap")
        restored = TraceQueryEngine.load(tmp_path / "snap")
        base = small_hierarchy.base_units
        new = [PresenceInstance("g", base[0], 0, 4), PresenceInstance("g", base[1], 20, 22)]
        assert small_engine.add_records(new) == restored.add_records(new)
        assert restored.top_k("g", k=3).items == small_engine.top_k("g", k=3).items
        small_engine.remove_entity("b")
        restored.remove_entity("b")
        assert restored.top_k("a", k=3).items == small_engine.top_k("a", k=3).items

    @pytest.mark.parametrize("hash_range_256", [False, True], ids=["small", "hash-range-256"])
    def test_full_signature_round_trip(self, small_dataset, small_measure, tmp_path, hash_range_256):
        dataset = small_dataset
        if hash_range_256:
            # 8 base units x horizon 32: a hash range one past uint8, and the
            # empty trace of "z" signs to the sentinel value 256 itself.
            dataset = TraceDataset(small_dataset.hierarchy, horizon=32)
            dataset.extend(
                presence
                for entity in small_dataset.entities
                for presence in small_dataset.trace(entity)
                if presence.end <= 32
            )
            dataset.replace_trace("z", [])
        engine = TraceQueryEngine(
            dataset,
            measure=small_measure,
            num_hashes=16,
            seed=2,
            store_full_signatures=True,
            use_full_signatures=True,
        ).build()
        engine.save(tmp_path / "snap")
        restored = TraceQueryEngine.load(tmp_path / "snap")
        assert restored.config.store_full_signatures
        hash_range = engine.hash_family.hash_range
        for payload, name in (
            ("arrays.npz", "signatures"),
            ("columnar.npz", "node_full_signatures"),
        ):
            with np.load(tmp_path / "snap" / payload) as arrays:
                assert arrays[name].dtype == np.min_scalar_type(hash_range)
        if hash_range_256:
            assert hash_range == 256
            assert restored.tree.signature_of("z").max() == 256
        for node_a, node_b in zip(engine.tree.iter_nodes(), restored.tree.iter_nodes()):
            if node_a.full_signature is None:
                assert node_b.full_signature is None
            else:
                assert node_b.full_signature.dtype == np.int64
                assert np.array_equal(node_a.full_signature, node_b.full_signature)
        for entity in restored.dataset.entities:
            assert restored.tree.signature_of(entity).dtype == np.int64
        assert_engines_identical(engine, restored, ["a", "e"], k=3)

    def test_round_trip_across_processes(self, small_engine, tmp_path):
        """A fresh interpreter must reproduce results byte for byte."""
        snapshot = tmp_path / "snap"
        small_engine.save(snapshot)
        expected = [small_engine.top_k(query, k=3).items for query in ("a", "d")]
        script = (
            "import json, sys\n"
            "from repro import TraceQueryEngine\n"
            "engine = TraceQueryEngine.load(sys.argv[1])\n"
            "items = [engine.top_k(q, k=3).items for q in ('a', 'd')]\n"
            "print(json.dumps(items))\n"
        )
        src_dir = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
        output = subprocess.run(
            [sys.executable, "-c", script, str(snapshot)],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        ).stdout
        subprocess_items = [
            [(entity, score) for entity, score in result] for result in json.loads(output)
        ]
        assert subprocess_items == expected


    def test_first_answer_does_not_import_numpy_ma(self, small_engine, tmp_path):
        """Loading and answering once stays clear of numpy.ma, whose import
        alone cost a fresh serving process ~20 ms."""
        snapshot = small_engine.save(tmp_path / "snap")
        script = (
            "import sys\n"
            "from repro import TraceQueryEngine\n"
            "engine = TraceQueryEngine.load(sys.argv[1])\n"
            "assert engine.top_k('a', k=3).items\n"
            "print('numpy.ma' in sys.modules)\n"
        )
        src_dir = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
        output = subprocess.run(
            [sys.executable, "-c", script, str(snapshot)],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        ).stdout
        assert output.strip() == "False"


class TestFailureModes:
    def test_save_requires_built_engine(self, small_dataset, tmp_path):
        engine = TraceQueryEngine(small_dataset, num_hashes=16)
        with pytest.raises(SnapshotError, match="build"):
            engine.save(tmp_path / "snap")

    def test_load_missing_directory(self, tmp_path):
        with pytest.raises(SnapshotError, match="not a snapshot directory"):
            TraceQueryEngine.load(tmp_path / "missing")

    def test_refuses_to_overwrite_foreign_directory(self, small_engine, tmp_path):
        target = tmp_path / "not-a-snapshot"
        target.mkdir()
        (target / "precious.txt").write_text("do not clobber")
        with pytest.raises(SnapshotError, match="refusing to overwrite"):
            small_engine.save(target)
        assert (target / "precious.txt").read_text() == "do not clobber"

    def test_overwriting_an_existing_snapshot_is_allowed(self, small_engine, tmp_path):
        small_engine.save(tmp_path / "snap")
        small_engine.save(tmp_path / "snap")
        restored = TraceQueryEngine.load(tmp_path / "snap")
        assert restored.tree.num_entities == small_engine.tree.num_entities

    def test_cross_format_overwrite_leaves_no_stale_artifacts(
        self, small_engine, small_dataset, small_measure, tmp_path
    ):
        """Rebuilding single-over-sharded (and back) wipes the old layout."""
        from repro import ShardedEngine

        target = tmp_path / "snap"
        small_engine.save(target)
        sharded = ShardedEngine(
            small_dataset, measure=small_measure, num_shards=2, num_hashes=32, seed=5
        ).build()
        sharded.save(target)
        # The single-engine payload files must be gone from the sharded dir.
        assert not (target / "arrays.npz").exists()
        assert not (target / "hierarchy.json").exists()
        assert ShardedEngine.load(target).num_shards == 2
        small_engine.save(target)
        # And the shard directories must be gone from the single-engine dir.
        assert not list(target.glob("shard-*"))
        assert TraceQueryEngine.load(target).tree.num_entities == small_engine.tree.num_entities

    def test_corrupt_manifest_raises_snapshot_error(self, small_engine, tmp_path):
        snapshot = tmp_path / "snap"
        small_engine.save(snapshot)
        (snapshot / "manifest.json").write_text("{truncated")
        with pytest.raises(SnapshotError, match="unreadable snapshot manifest"):
            TraceQueryEngine.load(snapshot)

    def test_tampered_unfingerprinted_manifest_field_raises_snapshot_error(
        self, small_engine, tmp_path
    ):
        """Fields outside the fingerprint (dataset/tree) still fail cleanly."""
        snapshot = tmp_path / "snap"
        small_engine.save(snapshot)
        manifest_path = snapshot / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["dataset"]["num_levels"] = manifest["dataset"]["num_levels"] - 1
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(SnapshotError):
            TraceQueryEngine.load(snapshot)

    def test_interrupted_save_leaves_previous_snapshot_loadable(
        self, small_engine, tmp_path, monkeypatch
    ):
        """save() stages and swaps: a mid-write crash keeps the old snapshot."""
        import numpy as np

        snapshot = tmp_path / "snap"
        small_engine.save(snapshot)

        def explode(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(np, "savez", explode)
        with pytest.raises(OSError):
            small_engine.save(snapshot)
        monkeypatch.undo()
        # The previous snapshot is intact, loadable, and re-savable.
        assert TraceQueryEngine.load(snapshot).tree.num_entities == small_engine.tree.num_entities
        small_engine.save(snapshot)

    def test_version_mismatch_fails_loudly(self, small_engine, tmp_path):
        snapshot = tmp_path / "snap"
        small_engine.save(snapshot)
        manifest_path = snapshot / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["format_version"] = SNAPSHOT_FORMAT_VERSION + 1
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(SnapshotError, match="format version"):
            TraceQueryEngine.load(snapshot)

    def test_fingerprint_mismatch_fails_loudly(self, small_engine, tmp_path):
        snapshot = tmp_path / "snap"
        small_engine.save(snapshot)
        manifest_path = snapshot / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        # Tamper with a semantic config field: the stored fingerprint no
        # longer matches what the contents hash to.
        manifest["config"]["num_hashes"] = manifest["config"]["num_hashes"] * 2
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(SnapshotError, match="fingerprint mismatch"):
            TraceQueryEngine.load(snapshot)

    def test_swapped_payload_file_fails_loudly(self, small_engine, syn_engine, tmp_path):
        """Mixing files from two snapshots must not serve wrong results."""
        ours = tmp_path / "ours"
        theirs = tmp_path / "theirs"
        small_engine.save(ours)
        syn_engine.save(theirs)
        (ours / "arrays.npz").write_bytes((theirs / "arrays.npz").read_bytes())
        with pytest.raises(SnapshotError, match="does not match the manifest digest"):
            TraceQueryEngine.load(ours)

    def test_corrupted_hierarchy_fails_loudly(self, small_engine, tmp_path):
        snapshot = tmp_path / "snap"
        small_engine.save(snapshot)
        hierarchy_path = snapshot / "hierarchy.json"
        hierarchy_path.write_text(hierarchy_path.read_text().replace("h1_0", "h1_X", 1))
        with pytest.raises(SnapshotError, match="does not match the manifest digest"):
            TraceQueryEngine.load(snapshot)

    @pytest.mark.parametrize(
        "tamper",
        [
            "float-signatures",
            "negative-signature",
            "signature-past-sentinel",
            "long-start-column",
            "short-presence-columns",
            "negative-unit",
            "negative-entity-slot",
            "ungrouped-rows",
            "duplicate-entity-name",
        ],
    )
    def test_inconsistent_arrays_fail_loudly(self, small_engine, tmp_path, tamper):
        """Regression: arrays no save can write loaded and answered once
        their digest was recomputed -- signatures that are not integers in
        ``[0, hash_range]``, presence columns whose length disagrees with
        the manifest (extra rows were ignored, a missing row dropped a
        record the signatures were computed from), and negative indexes or
        rows out of entity order (Python indexing wrapped a ``-1`` to the
        last unit or entity, and ungrouped rows loaded reordered)."""
        from repro.storage.snapshot import _file_digest

        snapshot = tmp_path / "snap"
        small_engine.save(snapshot)
        with np.load(snapshot / "arrays.npz") as payload:
            arrays = {key: payload[key] for key in payload.files}
        signatures = arrays["signatures"].astype(np.int64)
        if tamper == "float-signatures":
            arrays["signatures"] = signatures + 0.7
            match = "signatures"
        elif tamper == "negative-signature":
            signatures[0, 0, 0] = -1
            arrays["signatures"] = signatures
            match = "signatures"
        elif tamper == "signature-past-sentinel":
            signatures[0, 0, 0] = small_engine.hash_family.hash_range + 1
            arrays["signatures"] = signatures
            match = "signatures"
        elif tamper == "negative-unit":
            arrays["presence_unit"][0] = -1
            match = "presence_unit"
        elif tamper == "negative-entity-slot":
            arrays["presence_entity"][5] = -1
            match = "presence_entity"
        elif tamper == "ungrouped-rows":
            for name in ("presence_entity", "presence_unit", "presence_start", "presence_end"):
                arrays[name][[0, -1]] = arrays[name][[-1, 0]]
            match = "grouped"
        elif tamper == "duplicate-entity-name":
            arrays["dataset_entities"][1] = arrays["dataset_entities"][0]
            match = "twice"
        elif tamper == "long-start-column":
            arrays["presence_start"] = np.concatenate([arrays["presence_start"], [0, 1]])
            match = "presence_start"
        else:
            for name in ("presence_entity", "presence_unit", "presence_start", "presence_end"):
                arrays[name] = arrays[name][:-1]
            match = "presence_entity"
        np.savez(snapshot / "arrays.npz", **arrays)
        manifest = json.loads((snapshot / "manifest.json").read_text())
        manifest["content"]["arrays.npz"] = _file_digest(snapshot / "arrays.npz")
        (snapshot / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(SnapshotError, match=match):
            TraceQueryEngine.load(snapshot)

    def test_unknown_measure_rejected_at_save(self, small_dataset, tmp_path):
        class CustomMeasure(AssociationMeasure):
            name = "custom"

            def score_levels(self, overlaps):
                return 0.0

        engine = TraceQueryEngine(small_dataset, measure=CustomMeasure(), num_hashes=16).build()
        with pytest.raises(SnapshotError, match="cannot serialize measure"):
            engine.save(tmp_path / "snap")

    def test_failed_save_does_not_destroy_existing_snapshot(
        self, small_engine, small_dataset, tmp_path
    ):
        """A save that cannot succeed must fail before wiping the target."""

        class CustomMeasure(AssociationMeasure):
            name = "custom"

            def score_levels(self, overlaps):
                return 0.0

        snapshot = tmp_path / "snap"
        small_engine.save(snapshot)
        bad = TraceQueryEngine(small_dataset, measure=CustomMeasure(), num_hashes=16).build()
        with pytest.raises(SnapshotError, match="cannot serialize measure"):
            bad.save(snapshot)
        # The original snapshot is intact and still loads.
        restored = TraceQueryEngine.load(snapshot)
        assert restored.tree.num_entities == small_engine.tree.num_entities

    def test_foreign_manifest_json_is_not_clobbered(self, small_engine, tmp_path):
        """A directory with someone else's manifest.json must be refused."""
        target = tmp_path / "my-extension"
        target.mkdir()
        (target / "manifest.json").write_text('{"name": "my pwa", "start_url": "/"}')
        (target / "app.js").write_text("// precious")
        with pytest.raises(SnapshotError, match="not a repro snapshot manifest"):
            small_engine.save(target)
        assert (target / "manifest.json").read_text().startswith('{"name": "my pwa"')
        assert (target / "app.js").exists()

    def test_measure_override_on_load(self, small_engine, small_hierarchy, tmp_path):
        small_engine.save(tmp_path / "snap")
        override = JaccardADM(num_levels=small_hierarchy.num_levels)
        restored = TraceQueryEngine.load(tmp_path / "snap", measure=override)
        assert restored.measure is override
        # Queries run with the overriding measure (still exact: bounds are
        # admissible for any registered measure).
        result = restored.top_k("a", k=3)
        assert result.entities


class TestSnapshotInfo:
    def test_info_reports_manifest_and_size(self, small_engine, tmp_path):
        small_engine.save(tmp_path / "snap")
        info = snapshot_info(tmp_path / "snap")
        assert info["format"] == "repro-engine-snapshot"
        assert info["format_version"] == SNAPSHOT_FORMAT_VERSION
        assert info["dataset"]["num_entities"] == small_engine.dataset.num_entities
        assert info["size_bytes"] > 0

    def test_save_returns_directory(self, small_engine, tmp_path):
        returned = save_engine_snapshot(small_engine, tmp_path / "snap")
        assert returned == tmp_path / "snap"
        assert (returned / "manifest.json").exists()
        assert (returned / "arrays.npz").exists()
        assert (returned / "hierarchy.json").exists()


def _rewrite_manifests(snapshot, edit) -> None:
    """Apply ``edit`` to every manifest of a single or sharded snapshot."""
    for path in sorted(snapshot.rglob("manifest.json")):
        manifest = json.loads(path.read_text())
        edit(manifest)
        path.write_text(json.dumps(manifest))


class TestRetiredLayouts:
    """This build loads format 4 alone: older layouts are refused, not migrated.

    Format 1 had no ``columnar.npz``; format 2 stored the compiled cell
    table as unit-id strings; format 3 kept a depth-first copy of the tree
    in ``arrays.npz`` beside the kernel.  Any of them, single or sharded,
    must fail with the rebuild hint, never a traceback and never a silently
    served index.
    """

    @pytest.fixture(params=[0, 3], ids=["single", "sharded"])
    def snapshot(self, request, small_dataset, small_measure, tmp_path):
        knobs = dict(measure=small_measure, num_hashes=32, seed=5)
        if request.param:
            engine = ShardedEngine(small_dataset, num_shards=request.param, **knobs)
        else:
            engine = TraceQueryEngine(small_dataset, **knobs)
        return type(engine), engine.build().save(tmp_path / "snap")

    @staticmethod
    def stamp_format(snapshot, version) -> None:
        """Rewrite ``snapshot`` as a format-``version`` one of an older build."""

        def edit(manifest):
            manifest["format_version"] = version
            if version == 1 and "content" in manifest:
                manifest["content"].pop("columnar.npz")

        _rewrite_manifests(snapshot, edit)
        if version == 1:
            for payload in snapshot.rglob("columnar.npz"):
                payload.unlink()

    @pytest.mark.parametrize("version", [1, 2, 3])
    def test_load_refuses_an_older_format(self, snapshot, version):
        kind, path = snapshot
        self.stamp_format(path, version)
        with pytest.raises(SnapshotError, match=f"format version {version} .*re-create"):
            kind.load(path)

    @pytest.mark.parametrize("version", [1, 2, 3])
    @pytest.mark.parametrize(
        "command",
        [["index", "info", "--snapshot"], ["query", "--entity", "a", "--k", "3", "--snapshot"]],
        ids=["index-info", "query"],
    )
    def test_the_cli_refuses_an_older_format(self, snapshot, version, command, capsys):
        _kind, path = snapshot
        self.stamp_format(path, version)
        assert cli_main([*command, str(path)]) == 2
        captured = capsys.readouterr()
        assert "re-create the snapshot with `repro index build`" in captured.err
        assert "Traceback" not in captured.out + captured.err

    def test_new_manifests_record_no_bound(self, snapshot):
        _kind, path = snapshot
        for manifest_path in path.rglob("manifest.json"):
            manifest = json.loads(manifest_path.read_text())
            assert manifest["format_version"] == SNAPSHOT_FORMAT_VERSION == 4
            assert "bound_mode" not in manifest.get("config", {}), manifest_path


class TestContentMap:
    """The manifest's ``content`` must name exactly the three payload files.

    Regression: only the names it listed were digest-checked, so with
    ``content: {}`` or ``arrays.npz`` dropped from it, an ``arrays.npz``
    copied in from another engine loaded and served its answers, and
    ``content: []`` raised ``AttributeError``.
    """

    @pytest.mark.parametrize(
        "content",
        ["empty", "no_arrays", "no_columnar", "extra_name", "list", "missing"],
    )
    def test_an_incomplete_content_map_is_refused(
        self, small_engine, tmp_path, content
    ):
        snapshot = small_engine.save(tmp_path / "snap")
        other = TraceQueryEngine(
            small_engine.dataset, measure=small_engine.measure, num_hashes=32, seed=6
        ).build().save(tmp_path / "other")
        shutil.copyfile(other / "arrays.npz", snapshot / "arrays.npz")

        def edit(manifest):
            if content == "empty":
                manifest["content"] = {}
            elif content == "no_arrays":
                manifest["content"].pop("arrays.npz")
            elif content == "no_columnar":
                manifest["content"].pop("columnar.npz")
            elif content == "extra_name":
                manifest["content"]["notes.txt"] = manifest["content"]["arrays.npz"]
            elif content == "list":
                manifest["content"] = []
            else:
                del manifest["content"]

        _rewrite_manifests(snapshot, edit)
        with pytest.raises(SnapshotError, match="content must map exactly"):
            TraceQueryEngine.load(snapshot)


PAYLOAD = ("hierarchy.json", "arrays.npz", "columnar.npz")


def _shares_inodes(first, second) -> bool:
    return all(
        os.stat(first / name).st_ino == os.stat(second / name).st_ino for name in PAYLOAD
    )


class TestMissingPayload:
    """A snapshot missing any payload file is refused.

    Regression: the digest check opened the file unguarded, so a missing
    payload escaped as a raw ``FileNotFoundError`` and ``repro query``
    printed a traceback.  The ``OSError`` stays the cause, which is how
    ``GenerationStore.load_current`` tells a pruned generation (retried)
    from a refused one.
    """

    @pytest.fixture(params=[0, 3], ids=["single", "sharded"])
    def snapshot(self, request, small_dataset, small_measure, tmp_path):
        knobs = dict(measure=small_measure, num_hashes=32, seed=5)
        if request.param:
            engine = ShardedEngine(small_dataset, num_shards=request.param, **knobs)
        else:
            engine = TraceQueryEngine(small_dataset, **knobs)
        return type(engine), engine.build().save(tmp_path / "snap")

    @pytest.mark.parametrize("name", ["hierarchy.json", "arrays.npz", "columnar.npz"])
    def test_load_raises_snapshot_error(self, snapshot, name):
        kind, path = snapshot
        for payload in path.rglob(name):
            payload.unlink()
        with pytest.raises(SnapshotError, match=f"unreadable snapshot payload {name}") as caught:
            kind.load(path)
        assert isinstance(caught.value.__cause__, OSError)

    @pytest.mark.parametrize("name", ["hierarchy.json", "arrays.npz", "columnar.npz"])
    def test_the_cli_exits_2_without_a_traceback(self, snapshot, name, capsys):
        _kind, path = snapshot
        next(path.rglob(name)).unlink()
        assert cli_main(["query", "--entity", "a", "--k", "3", "--snapshot", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: unreadable snapshot payload {name}")
        assert [line for line in captured.err.splitlines() if "error:" in line] == [
            captured.err.splitlines()[0]
        ]
        assert "Traceback" not in captured.out + captured.err


class TestLinkedSave:
    """A save of an engine unchanged since its load links the source's files."""

    def test_linked_manifest_equals_a_full_saves_but_for_content(
        self, small_engine, tmp_path, monkeypatch
    ):
        from repro.storage import snapshot as snapshot_module

        source = small_engine.save(tmp_path / "source")
        loaded = TraceQueryEngine.load(source)
        meta = {"wal_seq": 3}
        linked = loaded.save(tmp_path / "linked", extra_meta=meta)
        assert _shares_inodes(source, linked)

        with monkeypatch.context() as patch:
            patch.setattr(snapshot_module, "_link_unchanged_snapshot", lambda *args: False)
            full = loaded.save(tmp_path / "full", extra_meta=meta)
        assert not _shares_inodes(source, full)
        linked_manifest = json.loads((linked / "manifest.json").read_text())
        full_manifest = json.loads((full / "manifest.json").read_text())
        source_manifest = json.loads((source / "manifest.json").read_text())
        assert linked_manifest["content"] == source_manifest["content"]
        assert list(linked_manifest) == list(full_manifest)
        for key in full_manifest:
            if key != "content":
                assert linked_manifest[key] == full_manifest[key], key
        assert_engines_identical(small_engine, TraceQueryEngine.load(linked), ["a", "d"], k=3)

    def test_a_refused_link_copies(self, small_engine, tmp_path, monkeypatch):
        source = small_engine.save(tmp_path / "source")
        loaded = TraceQueryEngine.load(source)

        def refuse(*args, **kwargs):
            raise OSError("cross-device link")

        monkeypatch.setattr(os, "link", refuse)
        copied = loaded.save(tmp_path / "copied")
        monkeypatch.undo()
        assert not any(
            os.stat(source / name).st_ino == os.stat(copied / name).st_ino for name in PAYLOAD
        )
        for name in PAYLOAD:
            assert (copied / name).read_bytes() == (source / name).read_bytes()
        assert_engines_identical(small_engine, TraceQueryEngine.load(copied), ["a", "d"], k=3)

    def test_every_shard_of_an_unchanged_deployment_links(
        self, small_dataset, small_measure, tmp_path
    ):
        fleet = ShardedEngine(
            small_dataset, measure=small_measure, num_shards=2, num_hashes=32, seed=5
        ).build()
        source = fleet.save(tmp_path / "source")
        linked = ShardedEngine.load(source).save(tmp_path / "linked")
        for shard in ("shard-00", "shard-01"):
            assert _shares_inodes(source / shard, linked / shard)
        restored = ShardedEngine.load(linked)
        for query in ("a", "d"):
            assert restored.top_k(query, k=3).items == fleet.top_k(query, k=3).items

    @pytest.mark.parametrize("change", ["wal-replay", "measure-override"])
    def test_a_changed_engine_is_saved_in_full(
        self, small_engine, small_hierarchy, tmp_path, change
    ):
        from repro.server.recovery import replay_wal_into_engine
        from repro.streaming import WriteAheadLog

        source = small_engine.save(tmp_path / "source")
        measure = None
        if change == "measure-override":
            measure = JaccardADM(num_levels=small_hierarchy.num_levels)
        loaded = load_engine_snapshot(source, measure=measure)
        expected = TraceQueryEngine.load(source, measure=measure)
        if change == "wal-replay":
            wal = WriteAheadLog(tmp_path / "wal")
            unit = small_hierarchy.base_units[0]
            wal.append([PresenceInstance("a", unit, 1, 3)], watermark=3)
            wal.close()
            replay_wal_into_engine(loaded, WriteAheadLog(tmp_path / "wal"))
            expected.add_records([PresenceInstance("a", unit, 1, 3)])

        saved = loaded.save(tmp_path / "saved")
        assert os.stat(source / "arrays.npz").st_ino != os.stat(saved / "arrays.npz").st_ino
        restored = TraceQueryEngine.load(saved, measure=measure)
        saved_manifest = json.loads((saved / "manifest.json").read_text())
        assert saved_manifest["format_version"] == SNAPSHOT_FORMAT_VERSION
        with np.load(saved / "arrays.npz") as payload:
            assert payload["signatures"].dtype != np.int64
        for query in ("a", "d"):
            assert restored.top_k(query, k=3).items == expected.top_k(query, k=3).items

    def test_pruning_a_linked_generation_leaves_the_source_intact(
        self, small_engine, small_hierarchy, tmp_path
    ):
        from repro.server.generation import GenerationStore
        from repro.storage.snapshot import _file_digest

        source = small_engine.save(tmp_path / "source")
        digests = json.loads((source / "manifest.json").read_text())["content"]
        loaded = TraceQueryEngine.load(source)
        store = GenerationStore(tmp_path / "store")
        store.publish(loaded)
        assert _shares_inodes(source, tmp_path / "store" / "gen-000001")
        unit = small_hierarchy.base_units[1]
        for start in range(3):
            loaded.add_records([PresenceInstance("a", unit, start, start + 1)])
            store.publish(loaded)
        assert not (tmp_path / "store" / "gen-000001").exists()
        for name in PAYLOAD:
            assert _file_digest(source / name) == digests[name]
        shutil.rmtree(tmp_path / "store")
        assert_engines_identical(small_engine, TraceQueryEngine.load(source), ["a", "d"], k=3)

    def test_a_tampered_source_columnar_payload_is_saved_in_full(self, small_engine, tmp_path):
        """A load verifies columnar.npz; one replaced after the load is not linked."""
        source = small_engine.save(tmp_path / "source")
        loaded = TraceQueryEngine.load(source)
        with np.load(source / "columnar.npz") as payload:
            arrays = {key: payload[key] for key in payload.files}
        np.savez(source / "columnar.npz", **{key: value[:0] for key, value in arrays.items()})
        saved = loaded.save(tmp_path / "saved")
        assert os.stat(source / "arrays.npz").st_ino != os.stat(saved / "arrays.npz").st_ino
        restored = TraceQueryEngine.load(saved)
        assert_engines_identical(small_engine, restored, ["a", "d"], k=3)
        assert restored.searcher.kernel_compiles == 0  # the saved payload is sound
