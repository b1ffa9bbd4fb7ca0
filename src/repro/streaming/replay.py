"""Event-log replay: drive a recorded stream through a live engine.

:func:`replay_events` is the harness behind the ``repro stream`` CLI mode
and the streaming benchmarks: it feeds a time-ordered event log into an
:class:`~repro.streaming.ingestor.EventIngestor` -- optionally throttled to
a target event rate -- while serving interleaved top-k queries, and returns
a single report with ingest, expiry, and query-side numbers.

Replay is deterministic apart from wall-clock timings: the same log, engine
configuration, and query schedule produce the same sequence of index states
and the same query results at every step, whatever the rate.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, List, Optional, Sequence, Tuple, Union

from repro.core.query import TopKResult
from repro.streaming.ingestor import EventIngestor, IngestStats, StreamingConfig
from repro.streaming.window import StreamingEngine, WindowStats
from repro.traces.events import PresenceInstance
from repro.traces.io import iter_traces_csv

__all__ = ["ReplayReport", "read_event_log", "replay_events"]

PathLike = Union[str, Path]


def read_event_log(path: PathLike) -> List[PresenceInstance]:
    """Load an event log (the ``entity,unit,start,end`` CSV) in stream order.

    Records are sorted by ``(start, end, entity, unit)`` -- the order a live
    collector would deliver them -- regardless of how the file groups them,
    so any trace CSV written by ``repro generate`` doubles as an event log.
    """
    events = list(iter_traces_csv(path))
    events.sort(key=lambda p: (p.start, p.end, p.entity, p.unit))
    return events


@dataclass
class ReplayReport:
    """The outcome of one :func:`replay_events` run."""

    #: Events fed into the ingestor.
    events: int = 0
    #: Wall-clock seconds for the whole replay.
    wall_seconds: float = 0.0
    #: Queries answered, as ``(event index at which the query ran, result)``.
    query_results: List[Tuple[int, TopKResult]] = field(default_factory=list)
    #: Queries skipped because their entity had no flushed data yet.
    queries_skipped: int = 0
    #: The ingestor's cumulative counters.
    ingest: IngestStats = field(default_factory=IngestStats)
    #: The sliding window's cumulative counters.
    window: WindowStats = field(default_factory=WindowStats)

    @property
    def queries_answered(self) -> int:
        """Number of interleaved queries that produced a result."""
        return len(self.query_results)

    @property
    def events_per_second(self) -> float:
        """Achieved ingest rate (0 when the replay finished too fast to time)."""
        if self.wall_seconds <= 0.0:
            return 0.0
        return self.events / self.wall_seconds


def replay_events(
    engine: StreamingEngine,
    events: Sequence[PresenceInstance],
    config: Optional[StreamingConfig] = None,
    *,
    rate: float = 0.0,
    query_entities: Sequence[str] = (),
    query_every: int = 0,
    k: int = 10,
    on_query: Optional[Callable[[int, TopKResult], None]] = None,
    **overrides: object,
) -> ReplayReport:
    """Replay ``events`` into ``engine`` with interleaved top-k serving.

    Parameters
    ----------
    engine:
        A built engine (single or sharded); typically empty or holding the
        warm-up prefix of the stream.
    events:
        The event log, already in stream order (see :func:`read_event_log`).
    config:
        Streaming knobs for the underlying :class:`EventIngestor`; keyword
        overrides (``max_batch_events``, ``window``, ``compact_after``) are
        accepted directly.
    rate:
        Target ingest rate in events/second.  ``0`` (default) replays as
        fast as possible -- the right setting for tests and CI; a positive
        rate sleeps to pace submissions, which is what a demo or a
        soak-test wants.
    query_entities:
        Entities to query in rotation between micro-batches.  A query whose
        entity has no flushed data yet is counted in
        :attr:`ReplayReport.queries_skipped` instead of raising.
    query_every:
        Issue one query every this many submitted events (``0`` disables
        interleaved queries).
    k:
        Result size of the interleaved queries.
    on_query:
        Optional callback ``(event_index, result)`` invoked per answered
        query -- the CLI uses it for progress output.

    Returns the :class:`ReplayReport`; the final partial micro-batch is
    flushed before returning, so the engine ends up holding exactly the
    surviving suffix of the log.
    """
    if rate < 0:
        raise ValueError(f"rate must be >= 0, got {rate}")
    if query_every < 0:
        raise ValueError(f"query_every must be >= 0, got {query_every}")
    if query_every and not query_entities:
        raise ValueError("query_every > 0 requires query_entities")

    report = ReplayReport()
    ingestor = EventIngestor(engine, config, **overrides)
    started = time.perf_counter()
    next_query_slot = 0
    for index, event in enumerate(events, start=1):
        if rate > 0:
            target = started + (index - 1) / rate
            delay = target - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
        ingestor.submit(event)
        report.events += 1
        if query_every and index % query_every == 0:
            entity = query_entities[next_query_slot % len(query_entities)]
            next_query_slot += 1
            if entity in engine.dataset:
                result = engine.top_k(entity, k=k)
                report.query_results.append((index, result))
                if on_query is not None:
                    on_query(index, result)
            else:
                report.queries_skipped += 1
    ingestor.close()
    report.wall_seconds = time.perf_counter() - started
    report.ingest = ingestor.stats
    report.window = ingestor.window.stats
    return report
