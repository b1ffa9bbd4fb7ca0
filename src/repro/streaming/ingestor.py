"""Micro-batched event ingestion: :class:`EventIngestor`.

A live trace stream delivers one presence event at a time, but re-signing an
entity per event would repeat the whole ``C * m * n_h`` hash cost for every
appended record.  The ingestor restores the amortisation the bulk pipeline
gives offline builds: events are buffered and flushed through
``engine.add_records`` in micro-batches, so a batch touching ``B`` events of
``E`` distinct entities costs one bulk re-signing of ``E`` entities instead
of ``B`` single-entity passes -- the same trade Figure 7.9 makes for offline
updates, applied continuously.

Each flush also advances the ingestor's :class:`~repro.streaming.window.SlidingWindow`
to the new stream watermark, so windowed deployments expire and compact as a
side effect of ingesting; queries may be issued against the engine at any
point between calls and always see exactly the flushed prefix of the stream.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable, List, Optional

from repro.core.engine import ExpiryReport
from repro.streaming.window import SlidingWindow, StreamingEngine
from repro.traces.events import PresenceInstance

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.streaming.wal import WriteAheadLog

__all__ = ["EventIngestor", "FlushReport", "IngestStats", "StreamingConfig"]


@dataclass
class StreamingConfig:
    """Knobs of one :class:`EventIngestor`.

    Attributes
    ----------
    max_batch_events:
        Flush automatically once this many events are buffered.  Larger
        batches amortise re-signing better (more events per affected entity)
        at the cost of staleness: queries only see flushed events.
    window:
        Sliding-window length in base temporal units; events whose period
        ends more than ``window`` units before the stream watermark are
        expired at the next flush.  ``None`` (default) keeps everything.
    compact_after:
        Auto-compact the index once this many index-changing retractions
        accumulated (see :class:`~repro.streaming.window.SlidingWindow`).
        ``0`` disables auto-compaction.
    """

    max_batch_events: int = 256
    window: Optional[int] = None
    compact_after: int = 0

    def __post_init__(self) -> None:
        if self.max_batch_events < 1:
            raise ValueError(f"max_batch_events must be >= 1, got {self.max_batch_events}")
        if self.window is not None and self.window < 1:
            raise ValueError(f"window must be >= 1, got {self.window}")
        if self.compact_after < 0:
            raise ValueError(f"compact_after must be >= 0, got {self.compact_after}")


@dataclass
class FlushReport:
    """The outcome of one :meth:`EventIngestor.flush`."""

    #: Events appended to the engine by this flush.
    events: int = 0
    #: Entities re-signed or inserted by the append, in first-seen order.
    affected_entities: List[str] = field(default_factory=list)
    #: The appended events themselves (post late-filter, submission order).
    #: The serving front-end turns these into a delta generation -- together
    #: with :attr:`cutoff` and :attr:`compacted` they describe the flush's
    #: engine mutations completely (see
    #: :class:`repro.server.generation.SnapshotDelta`).
    appended: List[PresenceInstance] = field(default_factory=list)
    #: Buffered events discarded instead of appended because their period
    #: already lies outside the sliding window (late arrivals).
    dropped_late: int = 0
    #: The expiry cutoff this flush applied, ``None`` when no expiry ran.
    cutoff: Optional[int] = None
    #: The expiry triggered by the watermark advance, if any.
    expiry: Optional[ExpiryReport] = None
    #: Whether a compaction ran as part of this flush.
    compacted: bool = False
    #: Wall-clock seconds spent in the flush (append + expiry + compaction).
    seconds: float = 0.0


@dataclass
class IngestStats:
    """Cumulative counters of one :class:`EventIngestor`."""

    #: Events accepted by :meth:`EventIngestor.submit` so far.
    events_submitted: int = 0
    #: Events flushed into the engine so far.
    events_flushed: int = 0
    #: Late arrivals discarded at flush time: their period had already left
    #: the sliding window, so appending them would only create index state
    #: the next expiry could never retract.
    events_dropped_late: int = 0
    #: Number of non-empty flushes.
    batches_flushed: int = 0
    #: Entity re-signings performed by flush appends (sum of affected
    #: entities over flushes; one entity appearing in two flushes counts
    #: twice -- this is the work measure the micro-batching amortises).
    entities_reindexed: int = 0
    #: Wall-clock seconds spent inside :meth:`EventIngestor.flush`.
    seconds_in_flush: float = 0.0
    #: ``time.monotonic()`` of the most recent flush, ``None`` before the
    #: first.  The serving layer turns this into the ingest-lag gauge
    #: (seconds since the buffered backlog last drained into the index).
    last_flush_monotonic: Optional[float] = None

    @property
    def events_buffered(self) -> int:
        """Events submitted but neither flushed nor dropped as late."""
        return self.events_submitted - self.events_flushed - self.events_dropped_late

    @property
    def mean_batch_size(self) -> float:
        """Average events per non-empty flush."""
        if not self.batches_flushed:
            return 0.0
        return self.events_flushed / self.batches_flushed


class EventIngestor:
    """Buffered, windowed event ingestion over one engine.

    Parameters
    ----------
    engine:
        A built :class:`~repro.core.engine.TraceQueryEngine` or
        :class:`~repro.service.sharded.ShardedEngine`.  A sharded engine
        routes every flushed micro-batch to the owning shards.
    config:
        Streaming knobs; keyword overrides (``max_batch_events``,
        ``window``, ``compact_after``) are accepted as a convenience,
        mirroring :class:`~repro.core.engine.EngineConfig` handling.

    The ingestor is also a context manager: leaving the ``with`` block
    flushes whatever is buffered.

    Example
    -------
    >>> from repro import SpatialHierarchy, TraceDataset, TraceQueryEngine
    >>> from repro import PresenceInstance
    >>> from repro.streaming import EventIngestor
    >>> hierarchy = SpatialHierarchy.regular([2, 2])
    >>> engine = TraceQueryEngine(
    ...     TraceDataset(hierarchy, horizon=48), num_hashes=16
    ... ).build()
    >>> ingestor = EventIngestor(engine, max_batch_events=2, window=24)
    >>> ingestor.submit(PresenceInstance("ana", "u2_0_0", 1, 3)) is None
    True
    >>> report = ingestor.submit(PresenceInstance("bo", "u2_0_0", 1, 3))
    >>> report.events, report.affected_entities
    (2, ['ana', 'bo'])
    >>> engine.top_k("ana", k=1).entities
    ['bo']
    >>> late = ingestor.extend(
    ...     [PresenceInstance("cy", "u2_1_1", 40, 42)] * 2
    ... )[-1]
    >>> late.expiry.removed_entities      # ana and bo left the 24-unit window
    ['ana', 'bo']
    >>> sorted(engine.dataset.entities)
    ['cy']
    """

    def __init__(
        self,
        engine: StreamingEngine,
        config: Optional[StreamingConfig] = None,
        wal: Optional["WriteAheadLog"] = None,
        **overrides: object,
    ) -> None:
        if config is None:
            config = StreamingConfig()
        if overrides:
            valid = {f.name for f in dataclasses.fields(StreamingConfig)}
            unknown = sorted(set(overrides) - valid)
            if unknown:
                raise TypeError(f"unknown streaming options: {unknown}")
            config = dataclasses.replace(config, **overrides)
        self.engine = engine
        self.config = config
        #: Optional :class:`~repro.streaming.wal.WriteAheadLog`; when set,
        #: every flush durably appends its raw buffer *before* touching the
        #: engine, so a crashed process can replay the suffix of the stream
        #: it had already acknowledged (see :mod:`repro.streaming.wal`).
        self.wal = wal
        self.window = SlidingWindow(
            engine, length=config.window, compact_after=config.compact_after
        )
        self.stats = IngestStats()
        self._buffer: List[PresenceInstance] = []
        self._watermark = 0
        self._flush_hooks: List[Callable[[FlushReport], None]] = []

    def add_flush_hook(self, hook: Callable[[FlushReport], None]) -> None:
        """Register a callback invoked with every :class:`FlushReport`.

        Hooks run at the end of :meth:`flush` -- after the engine was
        updated and the window advanced, including for empty flushes -- in
        registration order, on the flushing thread.  The serving daemon
        uses this to feed its metrics (events flushed, flush latency,
        expiries) without the ingestor knowing about the server; a hook
        must not submit events or flush recursively.
        """
        self._flush_hooks.append(hook)

    @property
    def watermark(self) -> int:
        """Largest event ``end`` submitted so far (0 before the first event).

        The watermark advances on :meth:`submit` -- not on flush -- and
        never moves backwards; together with :meth:`flush` dropping buffered
        events that already lie outside the window, late-arriving history
        can never resurrect records the window discarded.
        """
        return self._watermark

    @property
    def buffered_events(self) -> int:
        """Events waiting in the buffer for the next flush."""
        return len(self._buffer)

    def submit(self, presence: PresenceInstance) -> Optional[FlushReport]:
        """Buffer one event; flush automatically at ``max_batch_events``.

        Returns the :class:`FlushReport` when this submission triggered a
        flush, ``None`` otherwise.
        """
        self._buffer.append(presence)
        self.stats.events_submitted += 1
        if presence.end > self._watermark:
            self._watermark = presence.end
        if len(self._buffer) >= self.config.max_batch_events:
            return self.flush()
        return None

    def extend(self, presences: Iterable[PresenceInstance]) -> List[FlushReport]:
        """Submit many events; returns the reports of every flush triggered."""
        reports = []
        for presence in presences:
            report = self.submit(presence)
            if report is not None:
                reports.append(report)
        return reports

    def ingest_batch(
        self,
        events: Iterable[PresenceInstance],
        watermark: Optional[int] = None,
    ) -> FlushReport:
        """Buffer ``events`` and flush them as *one* micro-batch.

        This is the WAL replay primitive: a
        :class:`~repro.streaming.wal.WalRecord` holds the exact buffer one
        original flush saw, and pushing it through a single flush --
        regardless of the ``max_batch_events`` configured now -- reproduces
        that flush's drop-late decisions, window advance, and
        auto-compaction bit for bit.  ``watermark`` (when given) is applied
        after the events, so a replayed flush stands at the same watermark
        as the original even if later submissions had advanced it.
        """
        for presence in events:
            self._buffer.append(presence)
            self.stats.events_submitted += 1
            if presence.end > self._watermark:
                self._watermark = presence.end
        if watermark is not None and watermark > self._watermark:
            self._watermark = watermark
        return self.flush()

    def restore_stream_state(
        self,
        watermark: int = 0,
        window_cutoff: Optional[int] = None,
        window_churn: int = 0,
    ) -> None:
        """Seed watermark and window state from a snapshot (recovery path).

        A snapshot taken mid-stream embeds the owner's watermark, the last
        applied expiry cutoff, and the churn accumulated towards the next
        auto-compaction (see ``stream_state`` in the snapshot meta).
        Restoring them before WAL replay makes the recovered process expire
        and compact at exactly the same points the crashed one would have --
        without this, a fresh churn counter could defer a compaction and
        leave the rebuilt tree in a different (equivalent but not
        byte-identical) shape.
        """
        if self._buffer:
            raise RuntimeError("cannot restore stream state with events buffered")
        if watermark > self._watermark:
            self._watermark = int(watermark)
        if window_cutoff is not None:
            self.window.restore_state(cutoff=window_cutoff, churn=window_churn)
        else:
            self.window.restore_state(churn=window_churn)

    def stream_state(self) -> dict:
        """The durable counterpart of :meth:`restore_stream_state`."""
        return {
            "watermark": self._watermark,
            "window_cutoff": self.window.cutoff,
            "window_churn": self.window.churn_since_compaction,
        }

    def flush(self) -> FlushReport:
        """Append the buffered micro-batch and advance the window.

        The append goes through ``engine.add_records`` -- the bulk-signature
        pipeline re-signs each affected entity once, however many of its
        events the batch holds.  An empty buffer still advances the window
        (late flushes can expire without ingesting).

        Late arrivals are dropped here, not appended: a buffered event whose
        period ends at or before the window cutoff this flush will stand at
        (``watermark - window``) already lies outside the window, and the
        monotone cutoff would never expire it afterwards.  Dropping it keeps
        the streaming invariant exact -- the index always holds precisely
        the flushed events with ``end > cutoff``.
        """
        started = time.perf_counter()
        report = FlushReport()
        if self._buffer and self.wal is not None:
            # Write-ahead: the raw buffer (pre-filter) plus the watermark is
            # exactly what ``ingest_batch`` needs to reproduce this flush --
            # including its drop-late decisions -- after a crash.  Empty
            # flushes are provably no-ops (the watermark cannot have moved
            # without buffering an event) and are not logged.
            self.wal.append(self._buffer, self._watermark)
        if self._buffer:
            kept = self._buffer
            if self.window.length is not None:
                cutoff = self._watermark - self.window.length
                kept = [presence for presence in self._buffer if presence.end > cutoff]
                report.dropped_late = len(self._buffer) - len(kept)
            report.events = len(kept)
            if kept:
                report.appended = list(kept)
                report.affected_entities = self.engine.add_records(kept)
            self._buffer.clear()
        compactions_before = self.window.stats.compactions
        report.expiry = self.window.advance(self._watermark)
        if report.expiry is not None:
            report.cutoff = self.window.cutoff
        report.compacted = self.window.stats.compactions > compactions_before
        report.seconds = time.perf_counter() - started
        if report.events:
            self.stats.events_flushed += report.events
            self.stats.batches_flushed += 1
            self.stats.entities_reindexed += len(report.affected_entities)
        self.stats.events_dropped_late += report.dropped_late
        self.stats.seconds_in_flush += report.seconds
        self.stats.last_flush_monotonic = time.monotonic()
        for hook in self._flush_hooks:
            hook(report)
        return report

    def close(self) -> FlushReport:
        """Flush whatever is buffered (alias used by the context manager)."""
        return self.flush()

    def __enter__(self) -> "EventIngestor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"EventIngestor(buffered={len(self._buffer)}, watermark={self._watermark}, "
            f"max_batch_events={self.config.max_batch_events}, window={self.config.window})"
        )
