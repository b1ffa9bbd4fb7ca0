"""Snapshot generations: the publish/adopt protocol of the multi-process tier.

The multi-process daemon (see :mod:`repro.server.frontend` and
:mod:`repro.server.workers`) separates the single *owner* of the index --
the front-end process, which applies every write -- from N read-only query
workers in their own processes.  The two sides never share Python objects;
they share **immutable snapshot generations** on disk:

* after every index-changing flush the owner calls :meth:`GenerationStore.publish`,
  which writes a full engine snapshot into a fresh ``gen-NNNNNN/`` directory
  (through the existing atomic staged-save machinery of
  :mod:`repro.storage.snapshot`) and then atomically replaces the store's
  ``CURRENT`` file -- a tiny JSON document naming the newest generation;
* a worker calls :meth:`GenerationStore.current` at each request boundary
  (one small-file read) and, when the generation moved, loads the named
  snapshot with memory-mapped columnar arrays
  (:func:`~repro.core.columnar.load_npz_mmap`), so all workers share one
  physical copy of the compiled arrays through the page cache.

Because ``CURRENT`` is swapped with ``os.replace`` *after* the snapshot
directory is complete, a reader can never observe a generation that is not
fully on disk; because snapshot restore is bitwise-identical (pinned by the
snapshot suites), every worker answering from generation ``g`` produces
exactly the bytes the owner's in-process engine would have produced at the
flush that published ``g``.  Old generations are pruned down to the last
:data:`KEEP_GENERATIONS`; a worker racing a prune simply re-reads
``CURRENT`` and retries (see :meth:`GenerationStore.load_current`).

Delta generations
-----------------
Writing a full snapshot per flush costs time proportional to the *dataset*;
the flush itself costs time proportional to the *batch*.  Delta generations
(:meth:`GenerationStore.publish_update`) restore that proportionality: a
generation may instead be a tiny ``delta-NNNNNN.json`` document recording
exactly the maintenance operations of one flush -- the appended events, the
expiry cutoff (if any), and whether a compaction ran.  Applying those
operations to an engine standing at the previous generation is
deterministic, so a reader reconstructs generation ``g`` bit for bit by
loading the newest *full* snapshot at or below ``g`` and replaying the
delta chain above it; a worker already standing on the chain just applies
the new suffix in place (:meth:`GenerationStore.catch_up`) -- which the
incremental columnar patch (:meth:`repro.core.columnar.ColumnarTree.patch`)
turns into sub-rebuild work.  Every :data:`DELTA_CHAIN_LIMIT` deltas the
owner publishes a fresh full snapshot, bounding both recovery time and the
chain a cold-starting worker must replay; see ``docs/DURABILITY.md``.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.service.sharded import load_snapshot
from repro.storage.snapshot import SnapshotError, read_manifest
from repro.traces.events import PresenceInstance

__all__ = ["DELTA_CHAIN_LIMIT", "GenerationStore", "KEEP_GENERATIONS", "SnapshotDelta"]

PathLike = Union[str, Path]

#: Generations retained after a publish: the current one plus one older, so
#: a worker that read ``CURRENT`` just before a publish still finds the
#: directory it was told about.  With deltas the unit of retention is the
#: *chain* (a full snapshot plus the deltas above it): the newest chain and
#: the previous one are kept.
KEEP_GENERATIONS = 2

#: Maximum delta-chain length: a full snapshot is forced once this many
#: consecutive delta generations were published, bounding the replay a cold
#: start must perform.
DELTA_CHAIN_LIMIT = 8

_CURRENT_NAME = "CURRENT"
_GENERATION_PATTERN = re.compile(r"^gen-(\d{6})$")
_DELTA_PATTERN = re.compile(r"^delta-(\d{6})\.json$")


@dataclass
class SnapshotDelta:
    """The maintenance operations of one flush, as a publishable delta.

    Applying these to an engine standing at the previous generation --
    ``add_records(events)``, then ``expire_events(cutoff)`` when set, then
    ``compact()`` when flagged, the exact order
    :meth:`repro.streaming.ingestor.EventIngestor.flush` performs them --
    reproduces the owner's post-flush engine bit for bit.
    """

    #: Events appended by the flush (post late-filter, submission order).
    events: List[PresenceInstance] = field(default_factory=list)
    #: Expiry cutoff applied by the flush's window advance, ``None`` if none.
    cutoff: Optional[int] = None
    #: Whether the flush triggered a compaction.
    compacted: bool = False

    def is_empty(self) -> bool:
        """Whether applying this delta would leave the engine unchanged."""
        return not self.events and self.cutoff is None and not self.compacted

    def to_payload(self) -> Dict[str, object]:
        """JSON-serialisable form written into ``delta-NNNNNN.json`` documents."""
        return {
            "events": [
                [presence.entity, presence.unit, presence.start, presence.end]
                for presence in self.events
            ],
            "cutoff": self.cutoff,
            "compacted": self.compacted,
        }

    @staticmethod
    def from_payload(payload: Dict[str, object]) -> "SnapshotDelta":
        """Rebuild a delta from the payload produced by :meth:`to_payload`."""
        return SnapshotDelta(
            events=[
                PresenceInstance(entity=entity, unit=unit, start=start, end=end)
                for entity, unit, start, end in payload.get("events", [])
            ],
            cutoff=payload.get("cutoff"),
            compacted=bool(payload.get("compacted", False)),
        )

    def apply(self, engine) -> None:
        """Replay these operations onto ``engine``, in flush order."""
        if self.events:
            engine.add_records(self.events)
        if self.cutoff is not None:
            engine.expire_events(self.cutoff)
        if self.compacted:
            engine.compact()


class GenerationStore:
    """One directory of immutable snapshot generations plus a ``CURRENT`` file.

    Owner side: :meth:`publish`.  Worker side: :meth:`current` and
    :meth:`load_current`.  The store is safe for one writer and any number
    of reader processes on one host; there is no cross-host coordination.
    """

    def __init__(self, root: PathLike) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        document = self._current_document()
        #: The newest generation this process knows about (0 = none yet).
        self.generation = int(document["generation"]) if document else 0
        #: Generation of the newest *full* snapshot (the delta chain's base).
        self.base_full = int(document.get("base", document["generation"])) if document else 0
        #: ``time.monotonic()`` of this process's most recent :meth:`publish`
        #: (``None`` before the first).  Feeds the serving tier's
        #: generation-age gauge: a large age with buffered ingest events
        #: means workers are answering from an old snapshot.
        self.last_publish_monotonic: Optional[float] = None

    # ------------------------------------------------------------------
    # Owner side
    # ------------------------------------------------------------------
    def publish(self, engine, extra_meta: Optional[Dict[str, object]] = None) -> int:
        """Snapshot ``engine`` as the next *full* generation.

        ``engine`` is a built :class:`~repro.core.engine.TraceQueryEngine`
        or :class:`~repro.service.sharded.ShardedEngine`; both ``save``
        through the staged atomic-swap path, so a failed save leaves the
        store unchanged and ``CURRENT`` never names a partial directory.
        The caller must hold whatever lock protects the engine from
        concurrent mutation (the serving front-end publishes from a flush
        hook, under the engine lock).  ``extra_meta`` lands in the snapshot
        manifest (see :func:`repro.storage.snapshot.save_engine_snapshot`).
        """
        generation = self.generation + 1
        previous_full = self.base_full
        name = f"gen-{generation:06d}"
        engine.save(self.root / name, extra_meta=extra_meta)
        self._swap_current(
            {"generation": generation, "path": name, "kind": "full", "base": generation}
        )
        self.generation = generation
        self.base_full = generation
        self.last_publish_monotonic = time.monotonic()
        self._prune(previous_full=previous_full)
        return generation

    def publish_update(
        self,
        engine,
        delta: Optional[SnapshotDelta] = None,
        extra_meta: Optional[Dict[str, object]] = None,
    ) -> int:
        """Publish the next generation, as a delta when one is possible.

        Falls back to a full :meth:`publish` when ``delta`` is ``None``
        (the caller could not describe the change operationally), when
        nothing full was ever published, or when the chain above the last
        full snapshot has reached :data:`DELTA_CHAIN_LIMIT`.  Otherwise writes a
        ``delta-NNNNNN.json`` document -- fsynced, then atomically named,
        then ``CURRENT`` swapped -- so readers observe either the previous
        generation or the complete new one, exactly as for full snapshots.
        """
        chain_length = self.generation - self.base_full
        if delta is None or self.generation == 0 or chain_length >= DELTA_CHAIN_LIMIT:
            return self.publish(engine, extra_meta=extra_meta)
        generation = self.generation + 1
        name = f"delta-{generation:06d}.json"
        payload = delta.to_payload()
        payload["generation"] = generation
        payload["base"] = self.base_full
        if extra_meta is not None:
            payload["extra"] = dict(extra_meta)
        staged = self.root / f".{name}.tmp"
        with open(staged, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(staged, self.root / name)
        self._swap_current(
            {"generation": generation, "path": name, "kind": "delta", "base": self.base_full}
        )
        self.generation = generation
        self.last_publish_monotonic = time.monotonic()
        return generation

    def _swap_current(self, document: Dict[str, object]) -> None:
        staged = self.root / f".{_CURRENT_NAME}.tmp"
        with open(staged, "w", encoding="utf-8") as handle:
            json.dump(document, handle)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(staged, self.root / _CURRENT_NAME)

    def _prune(self, previous_full: int) -> None:
        """Drop chains older than the previous full snapshot's.

        Called after a full publish at generation ``G``: the newest chain is
        ``{G}`` and the previous chain is ``gen-P`` plus deltas ``P+1..G-1``
        where ``P = previous_full``.  Keeping both honours the
        :data:`KEEP_GENERATIONS` contract for readers that just fetched the
        old ``CURRENT``; everything below ``P`` is unreachable and removed.
        """
        for entry in self.root.iterdir():
            match = _GENERATION_PATTERN.match(entry.name)
            if match and int(match.group(1)) < previous_full:
                shutil.rmtree(entry, ignore_errors=True)
                continue
            match = _DELTA_PATTERN.match(entry.name)
            if match and int(match.group(1)) <= previous_full:
                entry.unlink(missing_ok=True)

    # ------------------------------------------------------------------
    # Worker side
    # ------------------------------------------------------------------
    def _current_document(self) -> Optional[Dict[str, object]]:
        """The parsed ``CURRENT`` document, or ``None`` when unreadable."""
        try:
            with open(self.root / _CURRENT_NAME, encoding="utf-8") as handle:
                document = json.load(handle)
            int(document["generation"])
            str(document["path"])
            return document
        except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError):
            return None

    def current(self) -> Optional[Tuple[int, Path]]:
        """The newest published ``(generation, path)``, or ``None``.

        The path names a snapshot directory for a full generation and a
        ``delta-NNNNNN.json`` document for a delta one.  ``CURRENT`` is
        written via ``os.replace``, so this read observes either a complete
        previous document or a complete new one -- never a torn write.  A
        missing file means nothing was published yet.
        """
        document = self._current_document()
        if document is None:
            return None
        return int(document["generation"]), self.root / str(document["path"])

    def _read_delta(self, generation: int) -> Dict[str, object]:
        path = self.root / f"delta-{generation:06d}.json"
        try:
            with open(path, encoding="utf-8") as handle:
                return json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            raise SnapshotError(f"unreadable delta document {path}: {exc}") from exc

    def _apply_chain(self, engine, start: int, target: int) -> None:
        """Apply delta documents ``start..target`` (inclusive) onto ``engine``."""
        for generation in range(start, target + 1):
            SnapshotDelta.from_payload(self._read_delta(generation)).apply(engine)

    def load_current(self, newer_than: int = 0, timeout: float = 30.0):
        """Load the newest generation as a query-ready engine (worker side).

        Returns ``(generation, engine)`` for the newest generation strictly
        newer than ``newer_than``, or ``None`` when nothing newer is
        published.  A delta generation is materialised by loading its chain's
        full snapshot and replaying the delta documents above it -- the
        result is bit-identical to the owner's engine at that generation.
        Retries for up to ``timeout`` seconds around the two benign races --
        ``CURRENT`` not yet written at worker start-up, and a chain pruned
        between reading ``CURRENT`` and opening its files -- then raises
        :class:`~repro.storage.snapshot.SnapshotError`.  Only a race is
        retried: a generation whose files read but are refused (say, an
        unsupported format version) raises at once while ``CURRENT`` still
        names it.

        Single and sharded snapshots are auto-detected from the manifest;
        both load with memory-mapped columnar arrays.
        """
        deadline = time.monotonic() + timeout
        while True:
            document = self._current_document()
            if document is not None:
                generation = int(document["generation"])
                if generation <= newer_than:
                    return None
                base = int(document.get("base", generation))
                try:
                    delta = document.get("kind") == "delta"
                    full = f"gen-{base:06d}" if delta else str(document["path"])
                    engine = load_snapshot(self.root / full, mmap_columnar=True)
                    if delta:
                        self._apply_chain(engine, base + 1, generation)
                    return generation, engine
                except (SnapshotError, OSError) as exc:
                    # Publish/prune race: a file vanished under a prune, or
                    # CURRENT moved on.  Anything else will fail again.
                    raced = _unreadable(exc) or self._current_document() != document
                    if not raced or time.monotonic() >= deadline:
                        raise
            elif newer_than:
                # A store that once had generations never goes back to
                # having none; treat a vanished CURRENT as fatal.
                raise SnapshotError(f"generation store {self.root} lost its CURRENT file")
            if time.monotonic() >= deadline:
                raise SnapshotError(
                    f"no generation published in {self.root} within {timeout:.0f}s"
                )
            time.sleep(0.02)

    def catch_up(self, engine, generation: int) -> Optional[int]:
        """Advance ``engine`` (standing at ``generation``) along the delta chain.

        When the newest generation is a delta whose chain's full base is at
        or below ``generation``, the missing delta documents are applied to
        ``engine`` *in place* -- no snapshot reload -- and the new generation
        is returned.  Returns ``None`` when nothing newer is published, when
        the newest generation is a full snapshot, or when the chain no longer
        reaches back to ``generation`` (the caller must
        :meth:`load_current` instead).  This is the cheap worker refresh:
        one flush's operations plus an incremental kernel patch, instead of
        a full snapshot load.
        """
        document = self._current_document()
        if document is None:
            return None
        target = int(document["generation"])
        if target <= generation:
            return None
        if document.get("kind") != "delta":
            return None
        base = int(document.get("base", target))
        if base > generation:
            return None
        self._apply_chain(engine, generation + 1, target)
        return target

    def adopt(self, engine, generation: int, timeout: float = 30.0):
        """Bring a reader standing at ``generation`` up to the newest one.

        The request-boundary adoption every reader process (query worker,
        shard server) performs before computing a reply, and once at
        start-up with ``engine=None``, where it blocks until the owner's
        initial publish appears.  When the newer generation is a delta on
        the chain ``engine`` already stands on, the missing delta documents
        are applied in place (:meth:`catch_up`); any chain discontinuity (a
        fresh full snapshot, a pruned chain, an unreadable delta) falls
        back to the full load path (:meth:`load_current`).  Returns the
        ``(generation, engine)`` pair to serve from -- the arguments
        themselves when nothing newer is published.
        """
        if engine is not None:
            try:
                caught_up = self.catch_up(engine, generation)
            except SnapshotError:
                caught_up = None
            if caught_up is not None:
                return caught_up, engine
        loaded = self.load_current(newer_than=generation, timeout=timeout)
        return loaded if loaded is not None else (generation, engine)

    def current_meta(self) -> Optional[Dict[str, object]]:
        """The ``extra`` metadata of the newest generation, or ``None``.

        For a full generation this reads the snapshot manifest's ``extra``
        key; for a delta generation, the delta document's.  The serving
        owner stamps its WAL position and stream state here, which is what
        crash recovery needs before replaying the log.
        """
        document = self._current_document()
        if document is None:
            return None
        try:
            if document.get("kind") == "delta":
                return self._read_delta(int(document["generation"])).get("extra")
            manifest = read_manifest(self.root / str(document["path"]))
            return manifest.get("extra")
        except SnapshotError:
            return None


def _unreadable(exc: BaseException) -> bool:
    """Whether a failed load could not read a file (an ``OSError``, raised
    or as the cause of a :class:`SnapshotError`) rather than refused one."""
    while exc is not None:
        if isinstance(exc, OSError):
            return True
        exc = exc.__cause__
    return False
