"""The pointer-walking Algorithm 2 traversal, kept as a test oracle.

:meth:`repro.core.query.TopKSearcher.search` answers every query through
the columnar kernel; this module is the independent implementation the
equivalence suites pin it against -- one ``PruningState.refine`` +
:func:`~repro.core.pruning.upper_bound` call per child and one
``measure.score`` per candidate, straight from the paper's pseudocode.  It
must return the same items, ordering and :class:`QueryStats` bit for bit.

It is also the one holder of the fetch-on-visit hook: ``sequence_fetcher``
is called once per scored candidate, in visit order, which is what the
paper's cost analysis (Section 4.3) charges I/O for.  The kernel has no
such hook because it never fetches per candidate -- one query reads the
whole compiled index (docs/PERFORMANCE.md, "What one query reads") --
and an answer that depends on caller state could not be cached or stamped
with a generation.  Figure 7.6
(:func:`repro.experiments.figures.figure_7_6`) records page ids through it.

An oracle, not a serving path: nothing under ``repro.core``,
``repro.service``, ``repro.server``, ``repro.cluster``, ``repro.streaming``
or the CLI may import it.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, List, Optional, Tuple

from repro.baselines.brute_force import _ReverseOrderStr
from repro.core.minsigtree import MinSigTreeNode
from repro.core.pruning import PruningState, QueryHashes, upper_bound
from repro.core.query import QueryStats, TopKResult, TopKSearcher
from repro.traces.events import CellSequence

__all__ = ["reference_search"]

SequenceFetcher = Callable[[str], CellSequence]


def reference_search(
    searcher: TopKSearcher,
    query_entity: str,
    k: int,
    *,
    approximation: float = 0.0,
    sequence_fetcher: Optional[SequenceFetcher] = None,
    query_sequence: Optional[CellSequence] = None,
    bound_mode: str = "per_level",
) -> TopKResult:
    """Answer ``searcher.search(query_entity, k, ...)`` by walking the tree.

    Reads the searcher's tree, dataset, measure, hash family and
    full-signature setting, so the answer is comparable with the kernel's
    for the same index state; the keyword arguments mean what they mean on
    :meth:`~repro.core.query.TopKSearcher.search`, except two that only
    this function has.  ``sequence_fetcher`` replaces
    ``dataset.cell_sequence`` as the source of each scored candidate's
    sequence (see the module docstring).  ``bound_mode`` is the
    :func:`~repro.core.pruning.upper_bound` mode: the default
    ``"per_level"`` is the kernel's bound; ``"lift"``, the paper's
    construction, is not admissible and serves the bound-mode ablation.
    """
    fetch = sequence_fetcher or searcher.dataset.cell_sequence
    if query_sequence is None:
        query_sequence = searcher.dataset.cell_sequence(query_entity)
    query_hashes = QueryHashes.from_sequence(query_sequence, searcher.hash_family)
    stats = QueryStats(population=searcher.dataset.num_entities, k=k)

    result_heap: List[Tuple[float, str]] = []  # min-heap of (score, entity)
    tie_breaker = itertools.count()
    candidate_heap: List[Tuple[float, int, MinSigTreeNode, PruningState]] = []
    root_state = PruningState.initial(query_hashes)
    heapq.heappush(candidate_heap, (-1.0, next(tie_breaker), searcher.tree.root, root_state))

    while candidate_heap:
        negative_bound, _tie, node, state = heapq.heappop(candidate_heap)
        bound = -negative_bound
        stats.nodes_visited += 1

        if len(result_heap) == k and result_heap[0][0] >= bound - approximation:
            stats.terminated_early = True
            break

        if node.is_root or node.children:
            for child in node.children.values():
                child_state = state.refine(child, query_hashes, searcher.use_full_signatures)
                child_bound = min(
                    bound,
                    upper_bound(child_state, query_hashes, searcher.measure, bound_mode),
                )
                stats.bound_computations += 1
                if len(result_heap) == k and result_heap[0][0] >= child_bound - approximation:
                    # The child can never beat the current k-th best
                    # (by more than the allowed approximation slack).
                    continue
                heapq.heappush(
                    candidate_heap,
                    (-child_bound, next(tie_breaker), child, child_state),
                )
            continue

        # Leaf: score every contained entity exactly.
        stats.leaves_visited += 1
        for entity in node.entities:
            if entity == query_entity:
                continue
            score = searcher.measure.score(fetch(entity), query_sequence)
            stats.entities_scored += 1
            if score <= 0.0:
                continue
            # Heap entries order by (score, reverse-entity), so the root
            # is always the worst under the final (-score, entity)
            # ranking and boundary ties resolve deterministically.
            entry = (score, _ReverseOrderStr(entity))
            if len(result_heap) < k:
                heapq.heappush(result_heap, entry)
            elif entry > result_heap[0]:
                heapq.heapreplace(result_heap, entry)

    pairs = [(str(entity), score) for score, entity in result_heap]
    pairs.sort(key=lambda pair: (-pair[1], pair[0]))
    return TopKResult(query_entity=query_entity, items=pairs, stats=stats)
