"""Deterministic top-k merging shared by every fan-out deployment.

The in-process :class:`~repro.service.sharded.ShardedEngine` and the
multi-node cluster coordinator (:mod:`repro.cluster`) answer the same
question from per-shard partial results, and the whole exactness story --
"sharded answers are byte-identical to a single engine's" -- rests on the
merge being one function with one tie-break: concatenate the per-shard
exact top-k lists, sort by ``(-score, entity)``, truncate to ``k``.  The
per-shard lists are exact (each shard searches with an admissible bound
and returns its true local top-k), so the merged list is the true global
top-k.

Two entry points for the two layers:

* :func:`merge_topk_results` works on :class:`~repro.core.query.TopKResult`
  objects (the in-process path);
* :func:`merge_topk_payloads` works on the JSON documents shard servers
  put on the wire, reconstructing the aggregate stats exactly as the
  in-process merge would compute them -- JSON round-trips floats exactly
  (``repr``), so a coordinator merging wire payloads produces the same
  bytes as a single process merging result objects.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.core.query import QueryStats, TopKResult

__all__ = ["merge_topk_items", "merge_topk_payloads", "merge_topk_results"]


def merge_topk_items(
    item_lists: Sequence[Sequence[Tuple[str, float]]], k: int
) -> List[Tuple[str, float]]:
    """Concatenate per-shard ``(entity, score)`` lists into the global top-k.

    The sort key ``(-score, entity)`` is the repo-wide deterministic
    tie-break (PR 2): equal scores order by entity identifier, so every
    deployment shape ranks ties identically.
    """
    items: List[Tuple[str, float]] = []
    for shard_items in item_lists:
        items.extend(shard_items)
    items.sort(key=lambda pair: (-pair[1], pair[0]))
    return items[:k]


def merge_topk_results(
    query_entity: str, shard_results: Sequence[TopKResult], k: int
) -> TopKResult:
    """Merge exact per-shard top-k lists into the global top-k."""
    stats = QueryStats(k=k)
    for shard_result in shard_results:
        shard_stats = shard_result.stats
        stats.entities_scored += shard_stats.entities_scored
        stats.nodes_visited += shard_stats.nodes_visited
        stats.leaves_visited += shard_stats.leaves_visited
        stats.bound_computations += shard_stats.bound_computations
        stats.population += shard_stats.population
        stats.terminated_early = stats.terminated_early or shard_stats.terminated_early
    items = merge_topk_items([result.items for result in shard_results], k)
    return TopKResult(query_entity=query_entity, items=items, stats=stats)


def merge_topk_payloads(
    query: str, payloads: Sequence[Dict[str, object]], k: int
) -> Dict[str, object]:
    """Merge per-shard wire documents into one ``topk_result_payload`` shape.

    ``payloads`` are per-shard documents as produced by
    :func:`repro.server.protocol.topk_result_payload`.  The aggregate stats
    mirror :func:`merge_topk_results` exactly: work counters sum,
    ``terminated_early`` is an any-of, and ``pruning_effectiveness`` is
    recomputed from the summed counters with the same clamped formula as
    :attr:`~repro.core.query.QueryStats.pruning_effectiveness` -- so the
    merged document matches what a single process would have serialised.
    """
    entities_scored = 0
    population = 0
    terminated_early = False
    item_lists: List[List[Tuple[str, float]]] = []
    for payload in payloads:
        stats = payload["stats"]
        entities_scored += stats["entities_scored"]
        population += stats["population"]
        terminated_early = terminated_early or bool(stats["terminated_early"])
        item_lists.append(
            [(item["entity"], item["score"]) for item in payload["results"]]
        )
    checked = 0.0 if population == 0 else entities_scored / population
    merged = merge_topk_items(item_lists, k)
    return {
        "query": query,
        "results": [{"entity": entity, "score": score} for entity, score in merged],
        "stats": {
            "entities_scored": entities_scored,
            "population": population,
            "pruning_effectiveness": max(0.0, min(1.0, 1.0 - checked)),
            "terminated_early": terminated_early,
        },
    }
