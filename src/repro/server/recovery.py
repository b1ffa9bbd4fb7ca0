"""Crash recovery for the serving tiers: snapshot restore + WAL replay.

A serving process accepts an event the moment its flush returns, so a crash
must not lose flushed events.  The two durability pieces fit together here:

* the :class:`~repro.streaming.wal.WriteAheadLog` holds every flushed
  micro-batch (appended *before* the flush mutated the engine);
* every published generation -- full snapshot or delta -- is stamped with
  the WAL sequence it corresponds to plus the owner's stream state
  (watermark, window cutoff, compaction churn).

Recovery is therefore: restore the newest generation (full snapshot plus
delta chain, see :mod:`repro.server.generation`), seed the stream state,
and replay every WAL record with ``seq`` greater than the stamped
``wal_seq`` through :meth:`~repro.streaming.ingestor.EventIngestor.ingest_batch`.
Because flushes are deterministic given their buffer and watermark, the
recovered engine is byte-identical to the crashed process's engine at its
last flush -- pinned by ``tests/test_wal.py`` and the crash-injection test
in ``tests/test_server_equivalence.py``; the full walk-through lives in
``docs/DURABILITY.md``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.server.generation import GenerationStore
from repro.storage.snapshot import SnapshotError, read_manifest
from repro.streaming.ingestor import EventIngestor, StreamingConfig
from repro.streaming.wal import ReplaySummary, WriteAheadLog, replay_into

__all__ = [
    "recover_engine_from_store",
    "recover_serving_state",
    "replay_wal_into_engine",
]


def recover_engine_from_store(
    store_root,
    timeout: float = 30.0,
) -> Optional[Tuple[object, Dict[str, object], int]]:
    """Restore the newest published engine from a generation store.

    Returns ``(engine, durability_meta, generation)`` for the newest
    generation, or ``None`` when the store holds nothing yet (a first
    boot).  ``durability_meta`` is the ``extra`` metadata stamped at
    publish time (``wal_seq`` and ``stream`` state) -- an empty dict when
    the generation predates durability stamping.
    """
    store = GenerationStore(store_root)
    if store.current() is None:
        return None
    try:
        generation, engine = store.load_current(timeout=timeout)
    except SnapshotError:
        return None
    meta = store.current_meta() or {}
    return engine, dict(meta), generation


def replay_wal_into_engine(
    engine,
    wal: WriteAheadLog,
    streaming: Optional[StreamingConfig] = None,
    meta: Optional[Dict[str, object]] = None,
) -> Tuple[ReplaySummary, Dict[str, object]]:
    """Replay the WAL suffix after ``meta["wal_seq"]`` onto ``engine``.

    A scratch :class:`~repro.streaming.EventIngestor` with the serving
    tier's ``streaming`` config is seeded with the snapshot's stream state
    and driven record by record, reproducing every original flush --
    including drop-late decisions, expiries, and auto-compactions -- so
    the engine ends byte-identical to the crashed owner's.  Returns the
    replay summary and the post-replay stream state, which the caller
    passes to the server constructor (``stream_state=``) so the serving
    ingestor continues exactly where the log ends.
    """
    meta = meta or {}
    ingestor = EventIngestor(engine, config=streaming)
    stream = meta.get("stream") or {}
    ingestor.restore_stream_state(
        watermark=int(stream.get("watermark", 0)),
        window_cutoff=stream.get("window_cutoff"),
        window_churn=int(stream.get("window_churn", 0)),
    )
    start_seq = int(meta.get("wal_seq", 0)) + 1
    summary = replay_into(ingestor, wal, start_seq=start_seq)
    return summary, ingestor.stream_state()


def recover_serving_state(
    engine,
    streaming: Optional[StreamingConfig] = None,
    wal_dir=None,
    store_root=None,
    snapshot=None,
) -> Tuple[object, Optional[WriteAheadLog], Optional[Dict[str, object]], List[str]]:
    """What a serving process restores before it binds (``repro serve``).

    ``engine`` -- resolved from ``--snapshot``/``--traces`` -- is the
    cold-start fallback: a persistent ``store_root`` holding published
    generations supersedes it.  With ``wal_dir`` the log is opened and its
    suffix after the restored state's ``wal_seq`` (stamped in the
    generation, or else in ``snapshot``'s manifest) is replayed, i.e.
    everything the crashed process had already acknowledged.

    Returns ``(engine, wal, stream_state, notes)``: the engine to serve,
    the open log (``None`` without ``wal_dir``) and the stream state, both
    for the server constructor, and one line per recovery step for the
    operator.
    """
    notes: List[str] = []
    meta: Dict[str, object] = {}
    stream_state = None
    if store_root:
        recovered = recover_engine_from_store(store_root)
        if recovered is not None:
            engine, meta, generation = recovered
            stream_state = meta.get("stream")
            notes.append(f"recovered generation {generation} from {store_root}")
    elif wal_dir and snapshot:
        try:
            meta = read_manifest(snapshot).get("extra") or {}
        except SnapshotError:
            meta = {}
    wal = None
    if wal_dir:
        wal = WriteAheadLog(wal_dir)
        summary, stream_state = replay_wal_into_engine(engine, wal, streaming, meta)
        if summary.records:
            notes.append(
                f"replayed {summary.records} WAL records ({summary.events} events) "
                f"from {wal_dir}, log position {summary.last_seq}"
            )
    return engine, wal, stream_state, notes
