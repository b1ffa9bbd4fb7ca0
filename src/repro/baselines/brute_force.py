"""Exhaustive top-k evaluation.

The brute-force approach computes the association degree between the query
entity and every other entity, keeping the best ``k``.  The paper dismisses
it as prohibitively expensive at the scale of its target applications, but it
remains the correctness oracle for every other method in this repository and
the natural reference point for speed-up measurements.
"""

from __future__ import annotations

import heapq
from typing import Iterable, Optional

from repro.core.query import QueryStats, TopKResult
from repro.measures.base import AssociationMeasure
from repro.traces.dataset import TraceDataset

__all__ = ["BruteForceTopK"]


class _ReverseOrderStr(str):
    """A string that sorts in reverse lexicographic order.

    In the oracles' ``(score, entity)`` min-heaps the root, evicted first,
    is then the worst entry under the final ``(-score, entity)`` ranking.
    """

    __slots__ = ()

    def __lt__(self, other: str) -> bool:
        return str.__gt__(self, other)

    def __le__(self, other: str) -> bool:
        return str.__ge__(self, other)

    def __gt__(self, other: str) -> bool:
        return str.__lt__(self, other)

    def __ge__(self, other: str) -> bool:
        return str.__le__(self, other)


class BruteForceTopK:
    """Scan every entity and score it against the query.

    Parameters
    ----------
    dataset:
        The trace dataset.
    measure:
        The association degree measure (shared with the indexed searcher so
        that results are comparable).
    tie_break:
        Boundary-tie policy: ``"arrival"`` (default, scan-order dependent)
        or ``"entity"`` (the searcher's deterministic ``(-score, entity)``
        total order; what the scenario harness's ground truth uses).
    """

    def __init__(
        self,
        dataset: TraceDataset,
        measure: AssociationMeasure,
        tie_break: str = "arrival",
    ) -> None:
        if tie_break not in ("arrival", "entity"):
            raise ValueError(f"tie_break must be 'arrival' or 'entity', got {tie_break!r}")
        self.dataset = dataset
        self.measure = measure
        #: Boundary-tie policy.  ``"arrival"`` (the historical default) keeps
        #: whichever tied entity entered the heap first, which depends on scan
        #: order.  ``"entity"`` retains exactly the top-k under the
        #: ``(-score, entity)`` total order -- the same deterministic
        #: tie-break :class:`~repro.core.query.TopKSearcher` documents -- so
        #: the oracle and the indexed search agree entity-for-entity even
        #: when scores tie at the k-th position.  The scenario harness uses
        #: ``"entity"``.
        self.tie_break = tie_break

    def search(
        self,
        query_entity: str,
        k: int,
        candidates: Optional[Iterable[str]] = None,
    ) -> TopKResult:
        """Return the exact top-k associates of ``query_entity``.

        ``candidates`` restricts the scan (used by tests); by default every
        entity except the query itself is scored.  Only entities with a
        strictly positive association degree are returned, mirroring the
        problem definition's assumption that all results share AjPIs with the
        query.
        """
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        fetch = self.dataset.cell_sequence
        query_sequence = self.dataset.cell_sequence(query_entity)
        stats = QueryStats(population=self.dataset.num_entities, k=k)

        total_order = self.tie_break == "entity"
        heap: list[tuple] = []
        pool = self.dataset.entities if candidates is None else tuple(candidates)
        for entity in pool:
            if entity == query_entity:
                continue
            score = self.measure.score(fetch(entity), query_sequence)
            stats.entities_scored += 1
            if score <= 0.0:
                continue
            entry = (score, _ReverseOrderStr(entity)) if total_order else (score, entity)
            if len(heap) < k:
                heapq.heappush(heap, entry)
            elif (entry > heap[0]) if total_order else (score > heap[0][0]):
                heapq.heapreplace(heap, entry)

        items = sorted(
            ((str(entity), score) for score, entity in heap),
            key=lambda pair: (-pair[1], pair[0]),
        )
        return TopKResult(query_entity=query_entity, items=items, stats=stats)
