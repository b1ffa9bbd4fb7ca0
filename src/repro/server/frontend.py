"""The ``--workers N`` tier: a generation publisher over one replica group.

``repro serve --workers N`` escapes the GIL by splitting the daemon into
processes (docs/SERVING.md has the full model).  :func:`worker_tier`
plugs two parts into the one :class:`~repro.server.app.TraceServer`:

* the server process stays the single **owner** of the mutable index, and
  the :class:`GenerationPublisher` turns every index-changing flush into a
  new immutable snapshot generation
  (:class:`~repro.server.generation.GenerationStore`) from a flush hook,
  under the engine lock;
* once its read processes are up, ``/v1/topk`` never touches the owner
  engine: the coalescer's rounds and batch requests go to a
  :class:`~repro.cluster.frontend.ClusterFleet` of one replica group,
  ``worker``, whose N read processes each hold the whole engine -- the
  cluster tier's dispatch and supervision with one group.  Until then
  the fleet answers through the owner's in-process backend.

Read processes adopt the newest generation at each request boundary, so
every query observes at least every generation published before the
request was received; the equivalence suite pins that the responses are
byte-identical to the in-process daemon's.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

from repro.server.app import ServingPart
from repro.server.generation import GenerationStore, SnapshotDelta

__all__ = ["GenerationPublisher", "worker_tier"]

PathLikeT = os.PathLike


class GenerationPublisher(ServingPart):
    """The owner side of the publish/adopt protocol, plugged into a server.

    Owns the generation store the read processes adopt from, the
    durability stamp written into every publish, the initial publish, and
    the flush hook that turns each index-changing flush into the next
    generation.  ``store_root`` is the store directory (a private
    temporary one, removed on :meth:`close`, when not given).  Every
    :data:`~repro.server.generation.DELTA_CHAIN_LIMIT` deltas a full
    snapshot is forced.
    """

    #: Prefix of a private store's temporary directory.
    temp_prefix = "repro-generations-"

    def __init__(self, engine, store_root: Optional[PathLikeT] = None) -> None:
        self.engine = engine
        self.ingestor = None
        self._owns_root = store_root is None
        self.root = (
            Path(tempfile.mkdtemp(prefix=self.temp_prefix))
            if store_root is None
            else Path(store_root)
        )
        try:
            self._open_stores()
        except BaseException:
            self.close()  # a rejected engine leaves no temp dir
            raise

    def _open_stores(self) -> None:
        self.store = GenerationStore(self.root)
        #: The stores the fleet's groups serve, by group name.
        self.stores = {"worker": self.store}

    def generations(self) -> Dict[str, int]:
        """Newest published generation per store."""
        return {name: store.generation for name, store in self.stores.items()}

    def _shares(self, appended: List[object]) -> List[tuple]:
        """``(store, engine, events)`` per store: what each one snapshots,
        and its share of a flush's appended events."""
        return [(self.store, self.engine, appended)]

    def attach(self, ingestor) -> None:
        """Publish the engine as loaded, then follow ``ingestor``'s flushes.

        Called by the server under the engine lock, before the read
        processes are spawned, so they have a generation to adopt.
        """
        self.ingestor = ingestor
        meta = self._durability_meta()
        for store, engine, _ in self._shares([]):
            store.publish(engine, extra_meta=meta)
        ingestor.add_flush_hook(self._publish_after_flush)

    def _durability_meta(self) -> Dict[str, object]:
        """WAL position and stream state stamped into every publish.

        Crash recovery restores the newest generation, seeds the stream
        state, and replays WAL records with ``seq`` greater than
        ``wal_seq`` -- see :func:`repro.server.recovery.replay_wal_into_engine`
        and ``docs/DURABILITY.md``.
        """
        wal = self.ingestor.wal
        return {
            "wal_seq": wal.last_seq if wal is not None else 0,
            "stream": self.ingestor.stream_state(),
        }

    def _publish_after_flush(self, report) -> None:
        """Flush hook: publish a generation when the flush changed the index.

        Runs under the engine lock (flushes hold it), so the snapshot is a
        consistent point-in-time image.  Publishing *before* the events
        response is written is what makes a client's read-your-write
        sequential: by the time the client learns its flush happened, every
        reader adopting at the next request boundary sees it.

        Index-changing flushes publish a *delta* generation when the chain
        allows it -- the flush's own operations as a small JSON document --
        and a full snapshot otherwise (every ``DELTA_CHAIN_LIMIT`` deltas).
        Readers standing on the chain catch up in place; see
        :mod:`repro.server.generation`.  A store whose share of the flush
        is empty (per-shard stores only) skips the publish, so per-shard
        generation counters advance independently.

        There is no closed guard: the server's final flush on shutdown
        must publish too -- the newest generation always holds every
        accepted write (the clean-drain guarantee the CI smoke checks).
        """
        changed = (
            report.events
            or (report.expiry is not None and report.expiry.expired_records)
            or report.compacted
        )
        if not changed:
            return
        meta = self._durability_meta()
        for store, engine, events in self._shares(list(report.appended)):
            delta = SnapshotDelta(
                events=events, cutoff=report.cutoff, compacted=bool(report.compacted)
            )
            if not delta.is_empty():
                store.publish_update(engine, delta=delta, extra_meta=meta)

    def health(self) -> Dict[str, object]:
        """``/v1/healthz``: the generation queries observe at minimum."""
        return {"generation": self.store.generation}

    def stats(self) -> Dict[str, object]:
        """The ``generation`` entry of ``/v1/stats`` and the seconds since
        the last publish (``None`` before the first)."""
        published = self.store.last_publish_monotonic
        return {
            "generation": self.store.generation,
            "generation_age_seconds": (
                time.monotonic() - published if published is not None else None
            ),
        }

    def close(self) -> None:
        """Remove the store directory when it was a private temporary one."""
        if self._owns_root:
            shutil.rmtree(self.root, ignore_errors=True)


def worker_tier(
    engine,
    workers: int = 2,
    store_root: Optional[PathLikeT] = None,
    startup_timeout: float = 60.0,
) -> Dict[str, ServingPart]:
    """The ``--workers N`` tier as :class:`~repro.server.app.TraceServer`
    keywords: ``TraceServer(engine, **worker_tier(engine, workers=2))``.

    A :class:`~repro.cluster.frontend.ClusterFleet` of one group of
    ``workers`` read processes, reading the store a
    :class:`GenerationPublisher` over ``engine`` publishes into.
    """
    from repro.cluster.frontend import ClusterFleet  # it imports this module

    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    publisher = GenerationPublisher(engine, store_root)
    fleet = ClusterFleet(publisher, replication=workers, startup_timeout=startup_timeout)
    return {"backend": fleet, "publisher": publisher}
