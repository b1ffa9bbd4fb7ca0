"""Durable engine snapshots: the index as a servable on-disk artifact.

A snapshot is a directory holding everything a query-ready
:class:`~repro.core.engine.TraceQueryEngine` needs to cold-start **without
re-signing the dataset**:

``manifest.json``
    Format name and version, the engine configuration, the association
    measure (name + parameters), dataset/hash-family metadata, and an index
    fingerprint binding all of it together.
``hierarchy.json``
    The sp-index as an *ordered* ``[unit, parent]`` list.  Order matters:
    the dense per-level unit indexes -- and therefore every hash value --
    depend on insertion order, so the snapshot preserves it exactly
    (unlike the sorted interchange format of :mod:`repro.traces.io`).
``arrays.npz``
    Hash-family coefficients, the presence records as columnar arrays, the
    flattened MinSigTree (nodes + leaf membership), and the per-entity
    signature matrices.  Signatures (and ``node_full_signatures``) are
    stored as ``np.min_scalar_type(hash_range)`` -- the narrowest type
    holding every min-hash value and the empty-level sentinel
    ``hash_range`` -- and widened back to int64 on load.
``columnar.npz``
    The compiled :class:`~repro.core.columnar.ColumnarTree` arrays, cell
    table included as the kernel's integer cell codes.  Kept in their own
    file so cold start never parses them: the engine adopts a digest-checked
    *lazy loader* and imports the arrays on the first query (patching in
    what changed if the engine mutated in between).

Loading restores the hash coefficients verbatim and the tree from its
arrays, so the restored engine is *bitwise-identical* to the saved one:
same signatures, same group-level routing values (including ones left loose
by removals), same query results, orderings, and pruning statistics.  The
presence records stay in their columns until a read needs an entity's
trace (:meth:`TraceDataset.restore_columns`), and the tree keeps its
validated arrays until a mutation or a walk needs its nodes
(:meth:`MinSigTree.import_structure`): queries run on ``columnar.npz``.
Saving an engine that has not changed since its load hard-links the loaded
snapshot's payload files instead of writing them again
(:func:`_link_unchanged_snapshot`).

Versioning policy
-----------------
``SNAPSHOT_FORMAT_VERSION`` is bumped on any incompatible layout change,
and a build loads exactly its own version: any other, single or sharded,
raises :class:`SnapshotError` naming the rebuild (``repro index build``).
There is no migration path.  Within the version, a ``columnar.npz`` that is
missing or fails validation does not fail the load: the compiled arrays
are a pure cache, and the engine recompiles them lazily on the first query,
with identical results.  The manifest also stores an *index fingerprint*
-- a SHA-256 over the semantic engine configuration, the measure
parameters, and the hash-family shape -- plus a ``content`` digest naming
exactly the three payload files; both are recomputed and compared on load,
so a tampered, corrupted, or mixed-up snapshot fails loudly instead of
serving wrong results.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import shutil
import zipfile
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Mapping, Optional, Union

import numpy as np

from repro.core.engine import EngineConfig, TraceQueryEngine
from repro.core.hashing import HierarchicalHashFamily
from repro.core.minsigtree import MinSigTree
from repro.measures.adm import ExampleDiceADM, HierarchicalADM
from repro.measures.base import AssociationMeasure
from repro.measures.setsim import DiceADM, FScoreADM, JaccardADM, OverlapADM
from repro.traces.dataset import TraceDataset
from repro.traces.spatial import SpatialHierarchy

__all__ = [
    "SHARDED_SNAPSHOT_FORMAT",
    "SNAPSHOT_FORMAT",
    "SNAPSHOT_FORMAT_VERSION",
    "SnapshotError",
    "index_fingerprint",
    "load_engine_snapshot",
    "read_manifest",
    "save_engine_snapshot",
    "snapshot_info",
    "snapshot_staging",
]

PathLike = Union[str, Path]

SNAPSHOT_FORMAT = "repro-engine-snapshot"
SHARDED_SNAPSHOT_FORMAT = "repro-sharded-snapshot"
SNAPSHOT_FORMAT_VERSION = 3

_MANIFEST_NAME = "manifest.json"
_HIERARCHY_NAME = "hierarchy.json"
_ARRAYS_NAME = "arrays.npz"
_COLUMNAR_NAME = "columnar.npz"
_PAYLOAD_NAMES = (_HIERARCHY_NAME, _ARRAYS_NAME, _COLUMNAR_NAME)


class SnapshotError(RuntimeError):
    """A snapshot could not be written, read, or validated."""


def _check_overwrite_target(directory: Path) -> None:
    """Refuse targets that are not ours to replace.

    An existing snapshot may be overwritten; a non-empty directory without a
    *repro* manifest is refused so a typo cannot clobber unrelated files (a
    ``manifest.json`` alone is not proof of ownership -- browser extensions
    and PWAs ship one too, so the file must parse and name our format).
    """
    if not directory.exists():
        return
    if not directory.is_dir():
        raise SnapshotError(f"snapshot path {directory} exists and is not a directory")
    if not any(directory.iterdir()):
        return
    manifest_path = directory / _MANIFEST_NAME
    if not manifest_path.exists():
        raise SnapshotError(
            f"refusing to overwrite non-snapshot directory {directory} "
            f"(no {_MANIFEST_NAME} found)"
        )
    try:
        with open(manifest_path, encoding="utf-8") as handle:
            existing = json.load(handle)
        fmt = existing.get("format") if isinstance(existing, dict) else None
    except (OSError, json.JSONDecodeError):
        fmt = None
    if fmt not in (SNAPSHOT_FORMAT, SHARDED_SNAPSHOT_FORMAT):
        raise SnapshotError(
            f"refusing to overwrite {directory}: its {_MANIFEST_NAME} is not a "
            "repro snapshot manifest"
        )


@contextmanager
def snapshot_staging(path: PathLike) -> Iterator[Path]:
    """Stage a snapshot write, swapping it into place only on success.

    Yields a sibling staging directory to write into.  On normal exit the
    previous snapshot (if any) is replaced wholesale by the staged one; on
    error the staging directory is removed and the previous snapshot is
    left untouched.  This makes saves atomic-enough for a single host: a
    failed or interrupted save never bricks the target, never leaves a
    manifest-less husk that a retry would refuse, and -- because the whole
    directory is replaced -- can never leave stale artifacts from a
    previous format or shard count behind.  Shared by the single-engine and
    sharded save paths so the policy cannot drift between them.
    """
    final = Path(path)
    _check_overwrite_target(final)
    final.parent.mkdir(parents=True, exist_ok=True)
    staging = final.parent / f".{final.name}.saving"
    if staging.exists():
        shutil.rmtree(staging)
    staging.mkdir()
    try:
        yield staging
    except BaseException:
        shutil.rmtree(staging, ignore_errors=True)
        raise
    if final.exists():
        shutil.rmtree(final)
    staging.replace(final)


def _file_digest(path: Path) -> str:
    """SHA-256 hex digest of one snapshot payload file."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


# ----------------------------------------------------------------------
# Measure (de)serialization
# ----------------------------------------------------------------------
def _measure_payload(measure: AssociationMeasure) -> Dict[str, object]:
    """Serializable parameters of a known measure; raises for unknown ones."""
    if isinstance(measure, HierarchicalADM):
        params: Dict[str, object] = {
            "num_levels": measure.num_levels,
            "u": measure.u,
            "v": measure.v,
        }
    elif isinstance(measure, (JaccardADM, DiceADM, OverlapADM, FScoreADM)):
        params = {"num_levels": measure.num_levels, "weights": list(measure.weights)}
    elif isinstance(measure, ExampleDiceADM):
        params = {"weights": list(measure.weights)}
    else:
        raise SnapshotError(
            f"cannot serialize measure {type(measure).__name__!r}; pass the measure "
            "explicitly to load() and save a snapshot with a registered measure"
        )
    return {"name": measure.name, "params": params}


_MEASURE_CLASSES = {
    cls.name: cls
    for cls in (HierarchicalADM, JaccardADM, DiceADM, OverlapADM, FScoreADM, ExampleDiceADM)
}


def _measure_from_payload(payload: Mapping[str, object]) -> AssociationMeasure:
    name = payload.get("name")
    cls = _MEASURE_CLASSES.get(name)  # type: ignore[arg-type]
    if cls is None:
        raise SnapshotError(
            f"snapshot uses unknown measure {name!r}; pass measure=... to load()"
        )
    return cls(**payload.get("params", {}))  # type: ignore[arg-type]


# ----------------------------------------------------------------------
# Fingerprint
# ----------------------------------------------------------------------
def _digest(payload: object) -> str:
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def index_fingerprint(
    config_fields: Mapping[str, object],
    measure_payload: Mapping[str, object],
    hash_family_meta: Mapping[str, object],
) -> str:
    """SHA-256 identity of an index: semantic config + measure + hash shape.

    ``config_fields`` is :meth:`EngineConfig.semantic_fields`: performance
    knobs (``batch_workers``, ``query_cache_size``) are excluded -- they
    never change results -- so a snapshot stays loadable when only those
    differ.
    """
    return _digest(
        {
            "config": dict(config_fields),
            "measure": dict(measure_payload),
            "hash_family": dict(hash_family_meta),
        }
    )


# ----------------------------------------------------------------------
# Save
# ----------------------------------------------------------------------
def save_engine_snapshot(
    engine: TraceQueryEngine,
    path: PathLike,
    extra_meta: Optional[Dict[str, object]] = None,
) -> Path:
    """Write a built engine to a snapshot directory; returns the directory.

    The write is staged and swapped into place atomically on success (see
    :func:`snapshot_staging`): an existing snapshot is overwritten, a
    non-snapshot directory is refused, and a failed save leaves whatever
    was there before untouched.

    ``extra_meta`` (a JSON-serialisable dict) is stored verbatim under the
    manifest's ``"extra"`` key -- opaque to the loader, readable via
    :func:`read_manifest`.  The serving tier stamps its WAL position and
    stream state there so crash recovery knows where replay must resume
    (see :mod:`repro.streaming.wal`).

    An engine unchanged since :func:`load_engine_snapshot` restored it is
    saved by linking that snapshot's payload files (see
    :func:`_link_unchanged_snapshot`); the result loads and answers exactly
    as a full save's would.
    """
    if not engine.is_built:
        raise SnapshotError("cannot snapshot an engine before build(); call build() first")
    measure_payload = _measure_payload(engine.measure)
    final = Path(path)
    with snapshot_staging(final) as directory:
        if not _link_unchanged_snapshot(engine, directory, measure_payload, extra_meta):
            _write_engine_snapshot(engine, directory, measure_payload, extra_meta)
    return final


@dataclass(frozen=True)
class _SnapshotSource:
    """The snapshot an engine was loaded from, and the state it loaded.

    Recorded by :func:`load_engine_snapshot` on ``engine._snapshot_source``;
    read by :func:`_link_unchanged_snapshot`.
    """

    directory: Path
    manifest: Dict[str, object]
    tree: MinSigTree
    dataset: TraceDataset
    tree_mutation: int
    dataset_mutation: int
    #: Tree nodes excluding the virtual root, as the loaded arrays hold them.
    num_nodes: int


def _link_unchanged_snapshot(
    engine: TraceQueryEngine,
    directory: Path,
    measure_payload: Dict[str, object],
    extra_meta: Optional[Dict[str, object]],
) -> bool:
    """Save an engine unchanged since its load by linking its source's payload.

    Links (or, where the filesystem refuses, copies) the source snapshot's
    payload files into ``directory`` and writes the manifest a full save
    would write, with the source's content digests.  It does so only when
    the index and dataset have not mutated since the load, that manifest
    equals the source's in every key but ``content``, ``extra`` and the
    performance config fields, and the source's ``columnar.npz`` -- which
    no load verifies -- still matches its digest.  Otherwise it returns
    ``False`` having written nothing, and the caller saves in full.
    """
    source = engine._snapshot_source
    if (
        source is None
        or source.tree is not engine.tree
        or source.dataset is not engine.dataset
        or source.tree.mutation_count != source.tree_mutation
        or source.dataset.mutation_count != source.dataset_mutation
    ):
        return False
    content = dict(source.manifest["content"])
    manifest = _engine_manifest(engine, measure_payload, content, source.num_nodes, extra_meta)
    performance = {field.name for field in dataclasses.fields(EngineConfig)} - set(
        engine.config.semantic_fields()
    )

    def compared(document: Mapping[str, object]) -> Dict[str, object]:
        view = {key: value for key, value in document.items() if key not in ("content", "extra")}
        if isinstance(view.get("config"), dict):
            view["config"] = {
                key: value for key, value in view["config"].items() if key not in performance
            }
        return json.loads(json.dumps(view))

    if compared(manifest) != compared(source.manifest):
        return False
    try:
        if _file_digest(source.directory / _COLUMNAR_NAME) != content[_COLUMNAR_NAME]:
            return False
        for name in _PAYLOAD_NAMES:
            try:
                os.link(source.directory / name, directory / name)
            except OSError:
                shutil.copyfile(source.directory / name, directory / name)
    except OSError:
        # The source went away under us: fall back to a full save.
        for name in _PAYLOAD_NAMES:
            (directory / name).unlink(missing_ok=True)
        return False
    _write_manifest(directory, manifest)
    return True


def _write_engine_snapshot(
    engine: TraceQueryEngine,
    directory: Path,
    measure_payload: Dict[str, object],
    extra_meta: Optional[Dict[str, object]] = None,
) -> None:
    """Write every snapshot artifact of ``engine`` into ``directory``."""
    dataset = engine.dataset
    hierarchy = dataset.hierarchy
    family = engine.hash_family
    tree = engine.tree

    # Hierarchy: ordered [unit, parent] pairs.  Insertion order is
    # topologically sorted (add_unit requires the parent first), so replaying
    # the list reproduces identical per-level unit indexes.
    units = [[unit.unit_id, unit.parent_id] for unit in hierarchy.iter_units()]
    with open(directory / _HIERARCHY_NAME, "w", encoding="utf-8") as handle:
        json.dump({"units": units}, handle)

    # Presence records, columnar, grouped by dataset entity order.
    dataset_entities = list(dataset.entities)
    unit_index = {unit: index for index, unit in enumerate(hierarchy.base_units)}
    presence_entity = []
    presence_unit = []
    presence_start = []
    presence_end = []
    for slot, entity in enumerate(dataset_entities):
        for presence in dataset.trace(entity):
            presence_entity.append(slot)
            presence_unit.append(unit_index[presence.unit])
            presence_start.append(presence.start)
            presence_end.append(presence.end)

    hash_a, hash_b = family.export_coefficients()
    # Signature values lie in [0, hash_range] (hash_range marks an empty
    # level), so the narrowest type holding hash_range stores them exactly.
    structure = tree.export_structure(np.min_scalar_type(family.hash_range))

    arrays: Dict[str, np.ndarray] = {
        "hash_a": hash_a,
        "hash_b": hash_b,
        "dataset_entities": np.array(dataset_entities, dtype=np.str_),
        "presence_entity": np.array(presence_entity, dtype=np.int64),
        "presence_unit": np.array(presence_unit, dtype=np.int64),
        "presence_start": np.array(presence_start, dtype=np.int64),
        "presence_end": np.array(presence_end, dtype=np.int64),
        "node_level": structure["node_level"],
        "node_routing_index": structure["node_routing_index"],
        "node_routing_value": structure["node_routing_value"],
        "node_parent": structure["node_parent"],
        "tree_entities": np.array(structure["entities"], dtype=np.str_),
        "entity_leaf": structure["entity_leaf"],
        "signatures": structure["signatures"],
    }
    if "node_full_signatures" in structure:
        arrays["node_full_signatures"] = structure["node_full_signatures"]
    # Uncompressed on purpose: snapshots exist to minimise cold-start
    # latency, and signature matrices are high-entropy anyway.
    np.savez(directory / _ARRAYS_NAME, **arrays)

    # Compiled columnar kernel: persisted in its own file so loading never
    # parses it eagerly -- the engine imports it lazily at the first query.
    # The compile is refreshed here if updates left it stale.
    np.savez(directory / _COLUMNAR_NAME, **engine.searcher.compiled_tree().export_arrays())

    content = {name: _file_digest(directory / name) for name in _PAYLOAD_NAMES}
    num_nodes = int(structure["node_level"].size) - 1  # minus the virtual root
    _write_manifest(
        directory, _engine_manifest(engine, measure_payload, content, num_nodes, extra_meta)
    )


def _engine_manifest(
    engine: TraceQueryEngine,
    measure_payload: Dict[str, object],
    content: Dict[str, str],
    num_nodes: int,
    extra_meta: Optional[Dict[str, object]],
) -> Dict[str, object]:
    """The manifest of ``engine``'s snapshot with these payload digests."""
    dataset = engine.dataset
    family = engine.hash_family
    tree = engine.tree
    hash_family_meta = {
        "horizon": family.horizon,
        "num_hashes": family.num_hashes,
        "seed": family.seed,
        "hash_range": family.hash_range,
        "num_base_units": family.num_base_units,
    }
    manifest = {
        "format": SNAPSHOT_FORMAT,
        "format_version": SNAPSHOT_FORMAT_VERSION,
        # Content digests bind the manifest to these exact payload files, so
        # mixing files from different snapshots fails loudly at load.
        "content": content,
        "config": {
            "num_hashes": engine.config.num_hashes,
            "seed": engine.config.seed,
            "store_full_signatures": engine.config.store_full_signatures,
            "use_full_signatures": engine.config.use_full_signatures,
            "batch_workers": engine.config.batch_workers,
            "query_cache_size": engine.config.query_cache_size,
        },
        "measure": measure_payload,
        "hash_family": hash_family_meta,
        "dataset": {
            "explicit_horizon": dataset.explicit_horizon,
            "num_entities": dataset.num_entities,
            "num_presences": dataset.num_presences,
            "num_levels": dataset.num_levels,
        },
        "tree": {
            "num_nodes": num_nodes,
            "num_entities": tree.num_entities,
            "routing_strategy": tree.routing_strategy,
        },
        "fingerprint": index_fingerprint(
            engine.config.semantic_fields(), measure_payload, hash_family_meta
        ),
    }
    if extra_meta is not None:
        manifest["extra"] = dict(extra_meta)
    return manifest


def _write_manifest(directory: Path, manifest: Mapping[str, object]) -> None:
    with open(directory / _MANIFEST_NAME, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2)


# ----------------------------------------------------------------------
# Load
# ----------------------------------------------------------------------
def read_manifest(path: PathLike) -> Dict[str, object]:
    """Read and format-check a snapshot manifest (no array loading)."""
    directory = Path(path)
    manifest_path = directory / _MANIFEST_NAME
    try:
        with open(manifest_path, encoding="utf-8") as handle:
            manifest = json.load(handle)
    except (FileNotFoundError, NotADirectoryError) as exc:
        raise SnapshotError(
            f"{directory} is not a snapshot directory (no {_MANIFEST_NAME})"
        ) from exc
    except (OSError, json.JSONDecodeError) as exc:
        raise SnapshotError(f"unreadable snapshot manifest {manifest_path}: {exc}") from exc
    if not isinstance(manifest, dict):
        raise SnapshotError(f"snapshot manifest {manifest_path} is not a JSON object")
    fmt = manifest.get("format")
    if fmt not in (SNAPSHOT_FORMAT, SHARDED_SNAPSHOT_FORMAT):
        raise SnapshotError(f"{directory} has unknown snapshot format {fmt!r}")
    version = manifest.get("format_version")
    if version != SNAPSHOT_FORMAT_VERSION:
        raise SnapshotError(
            f"snapshot format version {version!r} is not supported by this build "
            f"(expected {SNAPSHOT_FORMAT_VERSION}); re-create the snapshot with "
            "`repro index build`"
        )
    return manifest


def load_engine_snapshot(
    path: PathLike,
    measure: Optional[AssociationMeasure] = None,
    mmap_columnar: bool = False,
) -> TraceQueryEngine:
    """Restore a query-ready engine from a snapshot directory.

    No signature is recomputed: the hash coefficients, signature matrices,
    and tree structure come straight from the arrays, and no tree node is
    built until the engine first mutates (see
    :meth:`~repro.core.minsigtree.MinSigTree.import_structure`).
    ``measure`` overrides the serialized measure (required for measures
    outside the registry).
    With ``mmap_columnar=True`` the compiled columnar arrays are adopted as
    read-only memory-mapped views (:func:`repro.core.columnar.load_npz_mmap`)
    instead of heap copies, so N processes loading the same snapshot share
    one physical copy through the page cache -- the multi-process serving
    tier's workers load this way.

    Raises
    ------
    SnapshotError
        On a missing/foreign directory, a missing or unreadable
        ``hierarchy.json`` / ``arrays.npz``, a format-version mismatch, a
        fingerprint mismatch between the manifest's stored identity and the
        one recomputed from its contents, or a ``content`` map that does not
        name exactly the payload files with their digests.
    """
    directory = Path(path)
    manifest = read_manifest(directory)
    if manifest.get("format") != SNAPSHOT_FORMAT:
        raise SnapshotError(
            f"{directory} holds a {manifest.get('format')!r} snapshot; "
            "load it with ShardedEngine.load()"
        )

    try:
        config = EngineConfig(**manifest["config"])
        measure_payload = manifest["measure"]
        hash_family_meta = manifest["hash_family"]
        expected = index_fingerprint(config.semantic_fields(), measure_payload, hash_family_meta)
    except (KeyError, TypeError, ValueError) as exc:
        raise SnapshotError(f"invalid snapshot manifest in {directory}: {exc}") from exc
    stored = manifest.get("fingerprint")
    if stored != expected:
        raise SnapshotError(
            f"snapshot fingerprint mismatch in {directory}: manifest says {stored!r} "
            f"but its contents hash to {expected!r}; the snapshot is corrupt or was "
            "edited by hand"
        )
    content = manifest.get("content")
    if not isinstance(content, dict) or set(content) != set(_PAYLOAD_NAMES):
        raise SnapshotError(
            f"invalid snapshot manifest in {directory}: content must map exactly "
            f"{list(_PAYLOAD_NAMES)} to their digests, got {content!r}"
        )
    # The columnar payload is a pure cache verified lazily by its loader at
    # first query; a missing or corrupted file must drop the cache
    # (recompile), never fail the load.
    for name in (_HIERARCHY_NAME, _ARRAYS_NAME):
        recorded = content[name]
        try:
            actual = _file_digest(directory / name)
        except OSError as exc:
            raise SnapshotError(
                f"unreadable snapshot payload {name} in {directory}: {exc}"
            ) from exc
        if actual != recorded:
            raise SnapshotError(
                f"snapshot payload {name} in {directory} does not match the manifest "
                f"digest ({actual} != {recorded}); the file was replaced or corrupted"
            )

    try:
        with open(directory / _HIERARCHY_NAME, encoding="utf-8") as handle:
            hierarchy_doc = json.load(handle)
        hierarchy = SpatialHierarchy()
        for unit_id, parent_id in hierarchy_doc["units"]:
            hierarchy.add_unit(unit_id, parent_id)
        hierarchy.validate()
    except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise SnapshotError(
            f"unreadable snapshot hierarchy in {directory}: {exc}"
        ) from exc

    try:
        with np.load(directory / _ARRAYS_NAME, allow_pickle=False) as arrays:
            data = {key: arrays[key] for key in arrays.files}
    except (OSError, KeyError, ValueError, zipfile.BadZipFile) as exc:
        raise SnapshotError(f"unreadable snapshot arrays in {directory}: {exc}") from exc
    required = {
        "hash_a", "hash_b", "dataset_entities",
        "presence_entity", "presence_unit", "presence_start", "presence_end",
        "node_level", "node_routing_index", "node_routing_value", "node_parent",
        "tree_entities", "entity_leaf", "signatures",
    }
    missing = sorted(required - set(data))
    if missing:
        raise SnapshotError(f"snapshot arrays in {directory} are missing {missing}")

    # The content digests above vouch for byte-level integrity, but manifest
    # sections like "dataset" and "tree" are plain JSON a hand-edit can
    # still skew -- so the whole reconstruction converts low-level errors
    # into SnapshotError for the CLI's graceful error path.
    try:
        dataset = TraceDataset(hierarchy, horizon=manifest["dataset"]["explicit_horizon"])
        dataset_entities = [str(name) for name in data["dataset_entities"]]
        # Traces stay in their columns until a read needs them; the column
        # checks of _presence_columns stand in for the ones add_presence and
        # PresenceInstance would make on each record.
        dataset.restore_columns(
            dataset_entities,
            *_presence_columns(
                data,
                manifest["dataset"]["num_presences"],
                dataset_entities,
                hierarchy.num_base_units,
                directory,
            ),
        )

        resolved_measure = (
            measure if measure is not None else _measure_from_payload(measure_payload)
        )

        family = HierarchicalHashFamily(
            hierarchy,
            horizon=int(hash_family_meta["horizon"]),
            num_hashes=int(hash_family_meta["num_hashes"]),
            seed=int(hash_family_meta["seed"]),
        )
        family.restore_coefficients(data["hash_a"], data["hash_b"])
        if family.hash_range != int(hash_family_meta["hash_range"]):
            raise SnapshotError(
                f"restored hash range {family.hash_range} differs from the snapshot's "
                f"{hash_family_meta['hash_range']}; the hierarchy or horizon does not match"
            )
        for name in ("signatures", "node_full_signatures"):
            if name in data:
                _check_signature_values(name, data[name], family.hash_range, directory)

        tree = MinSigTree.import_structure(
            {
                "node_level": data["node_level"],
                "node_routing_index": data["node_routing_index"],
                "node_routing_value": data["node_routing_value"],
                "node_parent": data["node_parent"],
                "entities": [str(name) for name in data["tree_entities"]],
                "entity_leaf": data["entity_leaf"],
                "signatures": data["signatures"],
                "node_full_signatures": data.get("node_full_signatures"),
            },
            num_levels=manifest["dataset"]["num_levels"],
            num_hashes=config.num_hashes,
            store_full_signatures=config.store_full_signatures,
            routing_strategy=manifest["tree"]["routing_strategy"],
        )

        engine = TraceQueryEngine(dataset, measure=resolved_measure, config=config)
        engine._adopt_index(family, tree)
        num_nodes = int(data["node_level"].size) - 1  # minus the virtual root
        _install_columnar_loader(
            engine, directory, manifest, num_nodes, mmap_columnar=mmap_columnar
        )
        engine._snapshot_source = _SnapshotSource(
            directory=directory,
            manifest=manifest,
            tree=tree,
            dataset=dataset,
            tree_mutation=tree.mutation_count,
            dataset_mutation=dataset.mutation_count,
            num_nodes=num_nodes,
        )
    except SnapshotError:
        raise
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise SnapshotError(
            f"snapshot {directory} failed to reconstruct: {exc}; the manifest or "
            "arrays are inconsistent"
        ) from exc
    return engine


_PRESENCE_COLUMNS = ("presence_entity", "presence_unit", "presence_start", "presence_end")


def _presence_columns(
    data: Mapping[str, np.ndarray],
    num_presences: object,
    entities: List[str],
    num_base_units: int,
    directory: Path,
) -> List[np.ndarray]:
    """Row offsets per entity slot plus the unit, start and end columns.

    Each column must be a one-dimensional integer array of exactly the
    manifest's ``num_presences`` rows: a longer column would carry rows no
    record came from, a shorter set would load fewer records than the
    signatures were computed from.  Every row must name an entity slot and
    a base unit that exist (a negative index would wrap around to the last
    one), rows must be grouped by slot in ascending order as every save
    writes them, each period must be a non-empty ``[start, end)`` with
    ``start >= 0``, and no entity may be named twice.
    """
    columns = []
    for name in _PRESENCE_COLUMNS:
        column = data[name]
        if column.shape != (num_presences,) or not np.issubdtype(column.dtype, np.integer):
            raise SnapshotError(
                f"snapshot array {name} in {directory} has shape {column.shape} and "
                f"dtype {column.dtype}; the manifest expects {num_presences} integer rows"
            )
        columns.append(column.astype(np.int64, copy=False))
    slots, units, starts, ends = columns
    num_entities = len(entities)
    problems = []
    if slots.size and (slots.min() < 0 or slots.max() >= num_entities):
        problems.append(f"presence_entity holds a slot outside [0, {num_entities})")
    if np.any(slots[1:] < slots[:-1]):
        problems.append("presence_entity is not grouped by entity slot in ascending order")
    if units.size and (units.min() < 0 or units.max() >= num_base_units):
        problems.append(f"presence_unit holds a unit index outside [0, {num_base_units})")
    if np.any(starts < 0) or np.any(ends <= starts):
        problems.append("presence_start / presence_end hold an empty or negative period")
    if len(set(entities)) != num_entities:
        problems.append("dataset_entities names an entity twice")
    if problems:
        raise SnapshotError(
            f"snapshot arrays in {directory} are inconsistent: {'; '.join(problems)}"
        )
    offsets = np.zeros(num_entities + 1, dtype=np.int64)
    np.cumsum(np.bincount(slots, minlength=num_entities), out=offsets[1:])
    return [offsets, units, starts, ends]


def _check_signature_values(
    name: str, values: np.ndarray, hash_range: int, directory: Path
) -> None:
    """Refuse a signature array that no build could have written.

    Min-hash values lie in ``[0, hash_range)`` and ``hash_range`` itself
    marks an empty level, so anything else -- a float, a negative, a value
    past the sentinel -- would be silently widened into a wrong index.
    """
    if not np.issubdtype(values.dtype, np.integer) or (
        values.size and (values.min() < 0 or values.max() > hash_range)
    ):
        raise SnapshotError(
            f"snapshot array {name} in {directory} is not integer signatures in "
            f"[0, {hash_range}]; the arrays are inconsistent"
        )


def _install_columnar_loader(
    engine: TraceQueryEngine,
    directory: Path,
    manifest: Dict[str, object],
    num_nodes: int,
    mmap_columnar: bool = False,
) -> None:
    """Adopt a snapshot's precompiled columnar kernel as a *lazy* loader.

    The payload stays unread at load time (cold start is the whole point of
    a snapshot); the searcher imports it on the first query, after
    re-verifying the manifest digest.  The arrays are stamped with the
    mutation counts of the load, so if the engine mutated before that first
    query the searcher patches in the touched entities, as it would for a
    kernel compiled at load.  The compiled arrays are a pure cache --
    results are identical with or without them -- so *any* problem (a
    missing, tampered or inconsistent file) simply falls back to the lazy
    recompile.  ``mmap_columnar`` prefers zero-copy memory-mapped views
    over heap copies (and itself falls back to a regular load when the
    archive cannot be mapped).  ``num_nodes`` is the loaded tree's node
    count without the virtual root, which the compiled arrays must match.
    """
    recorded_digest = manifest["content"][_COLUMNAR_NAME]
    payload = directory / _COLUMNAR_NAME
    if not payload.exists():
        return
    from repro.core.columnar import ColumnarTree, load_npz_mmap

    tree = engine.tree
    dataset = engine.dataset
    loaded_at = (tree.mutation_count, dataset.mutation_count)
    num_entities = tree.num_entities

    def load_compiled() -> Optional["ColumnarTree"]:
        """Import the persisted arrays, valid for the engine as loaded."""
        try:
            if _file_digest(payload) != recorded_digest:
                return None
            data = load_npz_mmap(payload) if mmap_columnar else None
            if data is None:
                with np.load(payload, allow_pickle=False) as arrays:
                    data = {key: arrays[key] for key in arrays.files}
            compiled = ColumnarTree.import_arrays(
                data, hierarchy=dataset.hierarchy, num_hashes=tree.num_hashes
            )
            if (
                compiled.num_entities != num_entities
                or compiled.num_nodes != num_nodes + 1
            ):
                return None
        except (OSError, KeyError, ValueError, zipfile.BadZipFile):
            return None
        compiled.stamp(tree, dataset, loaded_at)
        return compiled

    engine.searcher.adopt_compiled_loader(load_compiled)


def snapshot_info(path: PathLike) -> Dict[str, object]:
    """Manifest summary plus on-disk sizes (what ``repro index info`` prints)."""
    directory = Path(path)
    manifest = read_manifest(directory)
    size_bytes = sum(f.stat().st_size for f in directory.rglob("*") if f.is_file())
    info = dict(manifest)
    info["path"] = str(directory)
    info["size_bytes"] = size_bytes
    return info
