"""Fan-out/merge over replica groups, with explicit degraded answers.

The coordinator is the cluster's query brain: every top-k query fans out
to all ``S`` shard groups (each shard searches its own entity partition
for candidates -- the same scatter the in-process
:class:`~repro.service.sharded.ShardedEngine` does over threads), and the
per-shard wire payloads merge through
:func:`repro.service.merge.merge_topk_payloads` -- the shared
deterministic merge -- so a fully-live cluster's answers are
byte-identical to the in-process sharded engine's, and item-identical to
a single unsharded engine's (the chaos battery's oracle gate).

The query's ST-cell sequence is resolved once against the coordinator's
routing dataset, under the owner's engine lock (flushes mutate that
dataset), and shipped with every shard request, because a shard's
dataset holds only its own partition.  A coordinator without a routing
dataset fronts one group whose replicas each hold the whole engine (the
``--workers N`` tier): it ships entity names, and each read process
resolves and searches them at the one generation it adopted, so an answer
never pairs a sequence from one state with a generation from another.

**Degraded answers are marked, never silent.**  When a whole replica
group is down (:class:`~repro.cluster.replica.ShardUnavailable` after
retries, hedging, and the per-shard deadline), the coordinator still
answers from the shards it reached, but the payload carries
``"degraded": true`` and ``"missing_shards": [ids]``, and the
``degraded_queries`` counter feeds ``/metrics`` -- the consistent-query-
answering stance: a possibly-incomplete answer must say so on the wire.
Only when *every* shard is unreachable does the query fail outright.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Sequence

from repro.cluster.replica import ReplicaGroup, ShardUnavailable
from repro.core.query import fan_out_queries
from repro.obs.trace import SpanContext
from repro.server.workers import begin_remote_spans, encode_sequence, stitch_spans
from repro.service.merge import merge_topk_payloads

__all__ = ["ClusterCoordinator", "CoordinatorError"]


class CoordinatorError(RuntimeError):
    """A query no shard could answer (or a shard answered with an error)."""


class ClusterCoordinator:
    """Scatter queries over shard groups; merge with explicit degradation."""

    def __init__(self, dataset, groups: Sequence[ReplicaGroup], engine_lock) -> None:
        #: The routing dataset (every entity's trace) when the groups hold
        #: partitions: query sequences are resolved here and travel with
        #: the request.  ``None``: one group of whole-engine replicas.
        self.dataset = dataset
        #: The owner's engine lock, under which flushes mutate ``dataset``.
        self.engine_lock = engine_lock
        self.groups = list(groups)
        if dataset is None and len(self.groups) != 1:
            raise ValueError("whole-engine replicas form exactly one group")
        self.counters = {"queries": 0, "degraded_queries": 0, "failed_queries": 0}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # The fan-out
    # ------------------------------------------------------------------
    def topk_payloads(
        self,
        entities: Sequence[str],
        k: int,
        approximation: float = 0.0,
        traces: Optional[Sequence[Optional[SpanContext]]] = None,
    ) -> List[Dict[str, object]]:
        """One merged ``topk_result_payload`` per query entity, in order.

        Raises ``KeyError`` for a query entity missing from the routing
        dataset (or, without one, from the replicas' generation) and
        :class:`CoordinatorError` when no shard at all answered (or a
        shard reported a query error).

        ``traces`` (aligned with ``entities``; ``None`` entries for
        unsampled queries) gives each sampled query one ``worker.request``
        span per group, covering that group's whole exchange -- scatter,
        retries and hedges included -- with the answering replica's spans
        re-based under it; a group that stayed unavailable closes its
        span with the error.
        """
        request: Dict[str, object] = {"op": "topk"}
        if self.dataset is None:
            request["entities"] = list(entities)
        else:
            with self.engine_lock:
                request["queries"] = [
                    {
                        "entity": entity,
                        "sequence": encode_sequence(self.dataset.cell_sequence(entity)),
                    }
                    for entity in entities
                ]
        request.update(k=int(k), approximation=float(approximation))

        def ask(shard_index: int) -> Optional[Dict[str, object]]:
            """One group's reply, or ``None`` when the shard stayed unavailable."""
            group = self.groups[shard_index]
            frame, spans = request, []
            if traces is not None:
                spans, descriptors = begin_remote_spans(
                    traces, "worker.request", shard=group.shard
                )
                frame = {**request, "traces": descriptors}
            try:
                reply = group.request(frame)
            except ShardUnavailable as exc:
                for span in spans:
                    if span is not None:
                        span.end(error=type(exc).__name__)
                return None
            if traces is not None:
                stitch_spans(reply, traces, spans)
            return reply

        replies = fan_out_queries(ask, len(self.groups), workers=len(self.groups))

        missing = [index for index, reply in enumerate(replies) if reply is None]
        with self._lock:
            self.counters["queries"] += len(entities)
        if len(missing) == len(self.groups):
            with self._lock:
                self.counters["failed_queries"] += len(entities)
            raise CoordinatorError(
                f"every shard group unavailable ({len(self.groups)} shards)"
            )
        answered = []
        for reply in replies:
            if reply is None:
                continue
            error = reply.get("error")
            if error is not None:
                # A shard-level query error (not a transport failure) is a
                # real answer -- "this query is broken" -- not degradation.
                with self._lock:
                    self.counters["failed_queries"] += len(entities)
                if reply.get("status") == 404:
                    raise KeyError(str(error))
                raise CoordinatorError(str(error))
            answered.append(reply)
        if self.dataset is None:
            return list(answered[0]["results"])

        merged: List[Dict[str, object]] = []
        for position, entity in enumerate(entities):
            payload = merge_topk_payloads(
                entity, [reply["results"][position] for reply in answered], k
            )
            if missing:
                payload["degraded"] = True
                payload["missing_shards"] = missing
            merged.append(payload)
        if missing:
            with self._lock:
                self.counters["degraded_queries"] += len(entities)
        return merged

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, object]:
        """Counters and per-group state for ``/v1/stats`` and ``/metrics``."""
        with self._lock:
            counters = dict(self.counters)
        return {
            "shards": len(self.groups),
            "counters": counters,
            "groups": [group.snapshot() for group in self.groups],
        }

    def close(self) -> None:
        """Close every replica group's persistent connections."""
        for group in self.groups:
            group.close()
