"""Top-k query processing over the MinSigTree (Chapter 5, Algorithm 2).

Algorithm 2 is a best-first traversal of the MinSigTree.  Every node is
assigned an upper bound on the association degree between the query entity
and any entity in its subtree (Theorem 4, computed level by level from the
node's partial pruned set, so it never under-estimates); nodes are explored in decreasing bound order, leaves have their
entities scored exactly, and the search stops as soon as the k-th best exact
score is at least the best outstanding bound (early termination).

:meth:`TopKSearcher.search` does not walk: the walk's outcome is a function
of the bound and score arrays of the columnar kernel
(:mod:`repro.core.columnar`), and the search computes it from them -- the
items and every work counter the walk would produce.  The pointer-walking
implementation lives in :func:`repro.baselines.reference_search` as the
oracle the equivalence suites compare against.

Batched execution is a first-class API: :func:`run_query_batch` (behind
both engines' ``top_k_batch``) answers many queries over one index,
pre-hashing the union of all query cells with the vectorised bulk
kernel (so overlapping query footprints are hashed once) and optionally
fanning queries out over a ``concurrent.futures`` thread pool.  Results are
guaranteed identical -- including tie-breaks -- to running
:meth:`TopKSearcher.search` serially per query.
"""

from __future__ import annotations

import bisect
import dataclasses
import math
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.columnar import ColumnarQueryContext, ColumnarTree
from repro.core.minsigtree import MinSigTree
from repro.core.pruning import QueryHashes
from repro.core.hashing import HierarchicalHashFamily
from repro.measures.base import AssociationMeasure
from repro.obs.trace import SpanContext
from repro.traces.dataset import TraceDataset
from repro.traces.events import CellSequence, CellTable

__all__ = [
    "BatchTopKResult",
    "QueryStats",
    "TopKResult",
    "TopKSearcher",
    "fan_out_queries",
    "run_query_batch",
    "shared_searches",
]


def fan_out_queries(
    run_at: Callable[[int], "TopKResult"],
    num_queries: int,
    workers: int,
) -> List["TopKResult"]:
    """Run ``run_at(position)`` for every query position, in order.

    The single dispatch rule of batched execution: ``workers <= 1`` (or a
    single query) runs in the calling thread, anything larger uses a pool
    capped at the query count.  Results preserve query order either way.
    """
    if workers < 0:
        raise ValueError(f"workers must be >= 0, got {workers}")
    if workers <= 1 or num_queries <= 1:
        return [run_at(position) for position in range(num_queries)]
    pool_size = min(workers, num_queries)
    with ThreadPoolExecutor(max_workers=pool_size) as pool:
        return list(pool.map(run_at, range(num_queries)))


def shared_searches(
    query_entities: Sequence[str],
    traces: Optional[Sequence[Optional[SpanContext]]] = None,
) -> List[int]:
    """For each query position, the position whose search answers it.

    An untraced query shares the search of the first untraced query of
    its entity; a traced one owns its search, so its trace shows the
    whole path.
    """
    first: dict = {}
    owners: List[int] = []
    for position, entity in enumerate(query_entities):
        if traces is not None and traces[position] is not None:
            owners.append(position)
        else:
            owners.append(first.setdefault(entity, position))
    return owners


def _pruning_attributes(stats: "QueryStats") -> dict:
    """Span attributes summarising a search's pruning behaviour.

    ``nodes_pruned`` counts nodes whose bound was evaluated but that were
    never popped -- bound evaluations plus the root (pushed without one)
    minus pops; clamped at zero for the degenerate empty-tree case.
    """
    return {
        "nodes_visited": stats.nodes_visited,
        "nodes_pruned": max(stats.bound_computations + 1 - stats.nodes_visited, 0),
        "leaves_visited": stats.leaves_visited,
        "bound_computations": stats.bound_computations,
        "entities_scored": stats.entities_scored,
        "terminated_early": stats.terminated_early,
    }


@dataclass
class QueryStats:
    """Work counters collected while answering one top-k query."""

    #: Number of candidate entities whose exact association degree was computed.
    entities_scored: int = 0
    #: Number of MinSigTree nodes popped from the candidate queue.
    nodes_visited: int = 0
    #: Number of leaf nodes whose entities were scored.
    leaves_visited: int = 0
    #: Number of upper-bound evaluations (one per child pushed).
    bound_computations: int = 0
    #: Whether the early-termination condition fired before the queue drained.
    terminated_early: bool = False
    #: Total number of entities in the dataset (excluding nobody).
    population: int = 0
    #: Result size requested.
    k: int = 0

    @property
    def checked_fraction(self) -> float:
        """Fraction of the population whose exact score was computed."""
        if self.population == 0:
            return 0.0
        return self.entities_scored / self.population

    @property
    def pruning_effectiveness(self) -> float:
        """Fraction of the population pruned without exact scoring.

        This is the "higher is better" orientation used by Figures 7.3 and
        7.7 of the paper; :attr:`definition5_pe` gives the literal
        Definition 5 quantity (extra entities checked, lower is better) used
        by Figures 7.4 and 7.5.
        """
        return max(0.0, min(1.0, 1.0 - self.checked_fraction))

    @property
    def definition5_pe(self) -> float:
        """``(|E'| - k) / |E|`` exactly as in Definition 5 (lower is better)."""
        if self.population == 0:
            return 0.0
        return max(0, self.entities_scored - self.k) / self.population


@dataclass
class TopKResult:
    """The outcome of one top-k query."""

    query_entity: str
    #: ``(entity, association degree)`` pairs, best first.
    items: List[Tuple[str, float]] = field(default_factory=list)
    stats: QueryStats = field(default_factory=QueryStats)

    @property
    def entities(self) -> List[str]:
        """Result entities, best first."""
        return [entity for entity, _score in self.items]

    @property
    def scores(self) -> List[float]:
        """Association degrees aligned with :attr:`entities`."""
        return [score for _entity, score in self.items]

    def copy(self) -> "TopKResult":
        """An independent copy (items list and stats are not shared).

        The query caches hand out copies so a caller mutating a returned
        result cannot poison later cache hits.
        """
        return TopKResult(
            query_entity=self.query_entity,
            items=list(self.items),
            stats=dataclasses.replace(self.stats),
        )

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self):
        return iter(self.items)


class TopKSearcher:
    """Best-first top-k search over a built MinSigTree.

    Parameters
    ----------
    tree:
        The MinSigTree indexing every candidate entity.
    dataset:
        The trace dataset; its cells are compiled into the kernel's
        membership arrays for exact scoring, and it supplies the query
        entity's sequence and the population statistics.
    measure:
        The association degree measure; must satisfy the Section 3.2
        properties for the bounds to be admissible.
    hash_family:
        The hash family the tree was built with (query cells are hashed with
        it to evaluate pruned sets).
    use_full_signatures:
        Evaluate bounds with full node signatures where available (ablation;
        requires the tree to have been built with ``store_full_signatures``).
    compiled:
        A kernel already stamped for ``tree`` and ``dataset`` (a snapshot
        load hands in its ``columnar.npz``); otherwise the first search
        compiles one.

    Searches run through the columnar kernel: the tree is compiled into flat
    arrays (lazily; patched or recompiled whenever the tree or dataset
    mutates) and bound evaluation / leaf scoring are vectorised -- see
    :mod:`repro.core.columnar`.  Results, orderings, and query statistics
    are **bit-identical** to :func:`repro.baselines.reference_search`.

    The engine facade constructs one searcher per built index
    (``engine.searcher``); use it directly when you need the knobs
    :meth:`search` exposes beyond ``TraceQueryEngine.top_k`` -- a
    pre-fetched query sequence.

    Example
    -------
    >>> from repro import SpatialHierarchy, TraceDataset, TraceQueryEngine
    >>> hierarchy = SpatialHierarchy.regular([2, 2])
    >>> dataset = TraceDataset(hierarchy, horizon=24)
    >>> for name in ("a", "b", "c"):
    ...     dataset.add_record(name, "u2_0_0", time=4, duration=2)
    >>> searcher = TraceQueryEngine(dataset, num_hashes=16).build().searcher
    >>> result = searcher.search("a", k=5)
    >>> result.entities                      # equal scores rank by name
    ['b', 'c']
    >>> result.stats.population
    3
    """

    def __init__(
        self,
        tree: MinSigTree,
        dataset: TraceDataset,
        measure: AssociationMeasure,
        hash_family: HierarchicalHashFamily,
        use_full_signatures: bool = False,
        compiled: Optional[ColumnarTree] = None,
    ) -> None:
        self.tree = tree
        self.dataset = dataset
        self.measure = measure
        self.hash_family = hash_family
        self.use_full_signatures = use_full_signatures
        #: Full from-scratch kernel compiles performed by this searcher.
        self.kernel_compiles = 0
        #: Incremental kernel patches performed by this searcher.
        self.kernel_patches = 0
        self._compiled = compiled
        # Serialises (re)compilation so a parallel batch hitting a stale
        # compile runs it once, not once per worker thread.
        self._compile_lock = threading.Lock()

    # ------------------------------------------------------------------
    def compiled_tree(self, table: Optional[CellTable] = None) -> ColumnarTree:
        """The current :class:`ColumnarTree`, compiling/refreshing lazily.

        A compiled tree is reused until the MinSigTree or the dataset
        mutates (their ``mutation_count`` moved) -- streaming flushes,
        expiries, and compactions therefore trigger a refresh on the next
        search.  A stale kernel -- including one a snapshot load handed in,
        stamped at the load's mutation counts -- is patched in place of the
        touched entities
        (:meth:`ColumnarTree.patch` -- byte-identical to a fresh compile at
        delta-proportional cost, declining past its staleness threshold); a
        full from-scratch compile (of ``table``, if given) is the fallback
        whenever neither applies.
        """
        compiled = self._compiled
        if compiled is not None and compiled.matches(self.tree, self.dataset):
            return compiled
        with self._compile_lock:
            # Double-checked: a concurrent searcher may have finished the
            # (re)compile while this thread waited for the lock.
            stale = self._compiled
            if stale is not None and stale.matches(self.tree, self.dataset):
                return stale
            compiled = None
            if stale is not None:
                compiled = stale.patch(self.tree, self.dataset)
                if compiled is not None:
                    self.kernel_patches += 1
            if compiled is None:
                compiled = ColumnarTree.compile(self.tree, self.dataset, table)
                self.kernel_compiles += 1
            self._compiled = compiled
            return compiled

    def refresh_compiled(self, table: Optional[CellTable] = None) -> ColumnarTree:
        """Bring the compiled kernel up to date *now*, off the query path.

        ``engine.build()`` (passing the cell table it signed from) and
        ``engine.compact()`` call this, so the full-rebuild paths pay the
        one compile themselves and the first query afterwards starts
        instantly (no second full pass when no mutations intervened).
        """
        return self.compiled_tree(table)

    # ------------------------------------------------------------------
    def search(
        self,
        query_entity: str,
        k: int,
        approximation: float = 0.0,
        query_sequence: Optional[CellSequence] = None,
        trace: Optional[SpanContext] = None,
    ) -> TopKResult:
        """Answer a top-k query (Algorithm 2).

        The items and every counter of the paper's best-first walk, replayed
        along its pop order (:meth:`ColumnarQueryContext.pop_order`): bounds
        fall and the k-th best score rises along it, so a bisection finds
        the leaf the walk stops at.  The walk's push-time pruning only drops
        nodes at or after that stop, so the replay is exact.

        Parameters
        ----------
        query_entity:
            The entity whose closest associates are sought.  Must exist in
            the dataset (it does not need to be indexed in the tree) unless
            ``query_sequence`` is supplied.
        k:
            Number of results requested (``1 <= k < |E|``).
        approximation:
            Additive slack for approximate top-k (the paper's first
            future-work item).  With a value ``eps > 0`` the search stops as
            soon as the current k-th best score is within ``eps`` of the best
            outstanding bound, so every returned score is guaranteed to be at
            least ``(true k-th best) - eps``.  ``0`` (default) gives exact
            results; it must be finite.
        query_sequence:
            Optional pre-fetched ST-cell set sequence of the query entity.
            A sharded deployment passes this so that shards can answer
            queries about entities that live in *other* shards' datasets;
            by default the sequence comes from this searcher's dataset.
        trace:
            Optional :class:`repro.obs.trace.SpanContext`.  When given, the
            search emits kernel-stage spans -- ``kernel.bounds`` (whole-tree
            bound pass), ``kernel.traverse`` (the replay of the walk),
            ``kernel.scores`` (scoring, inside the replay) and ``kernel.merge``
            (final ranking) -- with the pruning counters attached as
            attributes.  Tracing never changes results -- ``None`` (the
            default) costs one ``is None`` check per stage.

        Returns
        -------
        TopKResult
            Up to ``k`` entities with strictly positive association degree,
            best first, plus the work counters.

        Raises
        ------
        ValueError
            ``k < 1``, or ``approximation`` negative, infinite or NaN.
        InvalidQuerySequence
            A supplied ``query_sequence`` violates sp-index consistency
            (see :class:`repro.core.pruning.InvalidQuerySequence`).
        """
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if not 0.0 <= approximation < math.inf:
            raise ValueError(f"approximation slack must be finite and >= 0, got {approximation}")
        if query_sequence is None:
            query_sequence = self.dataset.cell_sequence(query_entity)
        query_hashes = QueryHashes.from_sequence(query_sequence, self.hash_family)
        stats = QueryStats(population=self.dataset.num_entities, k=k)
        compiled = self.compiled_tree()

        bounds_span = trace.begin("kernel.bounds") if trace is not None else None
        context = ColumnarQueryContext(
            compiled,
            query_hashes,
            query_sequence,
            self.measure,
            self.use_full_signatures,
        )
        if bounds_span is not None:
            bounds_span.end(nodes=compiled.num_nodes)
        traverse_span = trace.begin("kernel.traverse") if trace is not None else None
        order = context.pop_order()
        # ``bound - approximation`` at every pop position: non-increasing.
        limit = context.path_bounds[order] - approximation
        fanout = compiled.child_end - compiled.child_start
        leaf_rank = 1 + np.flatnonzero(fanout[order[1:]] == 0)  # order[0] is the root
        starts = compiled.entity_start[order[leaf_rank]]
        sizes = compiled.entity_end[order[leaf_rank]] - starts
        # Every entity slot in scan order, tagged with its leaf's scan index.
        leaf_of = np.repeat(np.arange(leaf_rank.size), sizes)
        slots = np.repeat(starts - np.cumsum(sizes) + sizes, sizes) + np.arange(leaf_of.size)
        eligible = slots != compiled.entity_slot.get(query_entity, -1)
        slots, leaf_of = slots[eligible], leaf_of[eligible]
        scores_span = trace.begin("kernel.scores") if trace is not None else None
        scores = context.entity_scores()[slots]
        if scores_span is not None:
            scores_span.end(candidates=compiled.num_entities)

        def kth(leaves_seen: int) -> float:
            # The k-th best score of the first ``leaves_seen`` leaves; -inf
            # until k of them are positive.
            count = int(np.searchsorted(leaf_of, leaves_seen))
            value = np.partition(scores[:count], count - k)[count - k] if count >= k else 0.0
            return float(value) if value > 0.0 else -math.inf

        # The walk stops at the first leaf whose limit the k-th best score of
        # the leaves before it reaches; the limit falls and the score rises.
        stop = bisect.bisect_left(
            range(leaf_rank.size), True, key=lambda leaf: kth(leaf) >= limit[leaf_rank[leaf]]
        )
        threshold = kth(stop)
        stats.leaves_visited = stop
        stats.entities_scored = int(np.searchsorted(leaf_of, stop))
        # Pops run through the last scored leaf, then on while a limit still
        # beats the final threshold.
        last = int(leaf_rank[stop - 1]) + 1 if stop else 1
        popped = last + int(np.searchsorted(-limit[last:], -threshold))
        stats.bound_computations = int(fanout[order[:popped]].sum())
        # The walk stopped early iff its queue still held a node: a child of
        # a popped node, itself never popped, whose limit beat the threshold
        # at its parent's pop (the walk pushes only those).
        rank = np.empty_like(order)
        rank[order] = np.arange(order.size)
        parent_rank = rank[compiled.node_parent[order[popped:]]]
        queued = parent_rank < popped
        seen = np.searchsorted(leaf_rank, parent_rank[queued])
        child_limit = limit[popped:][queued]
        # The threshold a child faces only rises with its parent's pop, so
        # only a child whose limit tops every earlier-queued one can pass.
        by_seen = np.lexsort((-child_limit, seen))
        child_limit, seen = child_limit[by_seen], seen[by_seen]
        record = child_limit == np.maximum.accumulate(child_limit)
        stats.terminated_early = any(
            kth(leaves_seen) < bound
            for leaves_seen, bound in zip(seen[record].tolist(), child_limit[record].tolist())
        )
        stats.nodes_visited = popped + stats.terminated_early
        if traverse_span is not None:
            traverse_span.end(**_pruning_attributes(stats))

        merge_span = trace.begin("kernel.merge") if trace is not None else None
        scored = scores[: stats.entities_scored]
        best = np.flatnonzero((scored >= threshold) & (scored > 0.0))
        entities = [compiled.entity_order[slot] for slot in slots[best].tolist()]
        pairs = sorted(
            zip(entities, scored[best].tolist()), key=lambda pair: (-pair[1], pair[0])
        )[:k]
        if merge_span is not None:
            merge_span.end(results=len(pairs))
        return TopKResult(query_entity=query_entity, items=pairs, stats=stats)


@dataclass
class BatchTopKResult:
    """The outcome of one batch of top-k queries, plus aggregate statistics.

    ``results`` is aligned with the query order given to
    :func:`run_query_batch`; the per-query :class:`QueryStats` live on
    each result, and this wrapper aggregates them into the batch-level
    numbers the CLI and benchmarks report.
    """

    results: List[TopKResult] = field(default_factory=list)
    #: Wall-clock seconds for the whole batch (including cache pre-warming).
    wall_seconds: float = 0.0
    #: Number of worker threads used (0 or 1 means serial execution).
    workers: int = 0
    #: Query cells newly hashed into the shared cache before searching.
    warmed_cells: int = 0

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self):
        return iter(self.results)

    @property
    def num_queries(self) -> int:
        """Number of queries answered."""
        return len(self.results)

    @property
    def queries_per_second(self) -> float:
        """Batch throughput (0 when the batch finished too fast to time)."""
        if self.wall_seconds <= 0.0:
            return 0.0
        return self.num_queries / self.wall_seconds

    @property
    def total_entities_scored(self) -> int:
        """Exact scorings summed over the batch."""
        return sum(result.stats.entities_scored for result in self.results)

    @property
    def mean_pruning_effectiveness(self) -> float:
        """Average per-query pruning effectiveness (Figures 7.3/7.7 metric)."""
        if not self.results:
            return 0.0
        return sum(r.stats.pruning_effectiveness for r in self.results) / len(self.results)


def run_query_batch(
    search_one: Callable[[str, Optional[SpanContext]], TopKResult],
    query_entities: Sequence[str],
    dataset: TraceDataset,
    hash_family: HierarchicalHashFamily,
    workers: int,
    traces: Optional[Sequence[Optional[SpanContext]]] = None,
) -> BatchTopKResult:
    """Answer every query through ``search_one(entity, trace)``, in order.

    The one batch loop behind both engines' ``top_k_batch``: the union of
    every query entity's ST-cells (read from ``dataset``) is hashed into
    ``hash_family``'s shared cell cache with one bulk kernel call
    (:meth:`HierarchicalHashFamily.warm_cache`), so cells shared between
    queries -- or with earlier batches -- are never hashed twice; then the
    queries fan out over ``workers`` threads (:func:`fan_out_queries`).
    ``traces``, when given, is aligned with ``query_entities``; each search
    receives its own entry (``None`` otherwise).
    """
    started = time.perf_counter()
    shared_cells = []
    for entity in query_entities:
        for level_cells in dataset.cell_sequence(entity).levels:
            shared_cells.extend(level_cells)
    warmed = hash_family.warm_cache(shared_cells)

    def run_at(position: int) -> TopKResult:
        trace = traces[position] if traces is not None else None
        return search_one(query_entities[position], trace)

    results = fan_out_queries(run_at, len(query_entities), workers)
    return BatchTopKResult(
        results=results,
        wall_seconds=time.perf_counter() - started,
        workers=workers,
        warmed_cells=warmed,
    )
