"""The cluster's socket ops: framing, query-sequence codec, one-shot calls.

Frames reuse the worker protocol verbatim (4-byte big-endian length prefix
plus one UTF-8 JSON document -- :func:`repro.server.workers.send_frame` /
:func:`~repro.server.workers.recv_frame`), so a shard server speaks the
same wire format as a query worker; only the operation set differs.

Shard-server operations (request ``op`` values):

- ``ping``    -- liveness probe; replies ``{"ok", "generation", "pid"}``.
- ``status``  -- ping plus shard name, request counters, and the current
  chaos flags.
- ``sync``    -- ``{"min_generation": G}``: adopt the newest published
  generation and reply ``{"ok": generation >= G, "generation"}``.  The
  coordinator uses this to *verify* catch-up before a restarted replica
  rejoins the serving rotation.
- ``topk``    -- ``{"queries": [{"entity", "sequence"}, ...], "k",
  "approximation"}``: answer each query against this shard's engine,
  replying ``{"generation", "results": [topk_result_payload, ...]}``.
  The query's ST-cell sequence travels *with the request* because a
  shard's dataset only holds its own partition -- the query entity
  usually lives on some other shard.
  A frame whose fields cannot be decoded, or whose sequence violates
  sp-index consistency (:class:`~repro.core.pruning.InvalidQuerySequence`),
  is answered ``{"error", "status": 400}``; any other failure is a 500.
- ``chaos``   -- set fault-injection flags (reply delay, drop-next-N,
  refuse connections); test-only, wired through by the chaos battery.

Because every query carries its own sequence, the ``topk`` codec must
round-trip :class:`~repro.traces.events.CellSequence` exactly:
:func:`encode_sequence` flattens each level's frozenset into a
``(time, unit)``-sorted list (deterministic frames for identical queries)
and :func:`decode_sequence` rebuilds the frozensets.  Scores come back as
JSON floats, which round-trip exactly (``repr``), so merged answers can be
byte-identical to a single process's.
"""

from __future__ import annotations

import socket
from typing import Dict, List, Optional

from repro.server.workers import recv_frame, send_frame
from repro.traces.events import CellSequence, STCell

__all__ = [
    "ClusterWireError",
    "decode_sequence",
    "encode_sequence",
    "one_shot_request",
]


class ClusterWireError(ConnectionError):
    """A framed exchange that could not complete."""


def encode_sequence(sequence: CellSequence) -> List[List[List[object]]]:
    """``CellSequence`` -> JSON shape: per level, ``(time, unit)``-sorted pairs."""
    return [
        [[cell.time, cell.unit] for cell in sorted(level)]
        for level in sequence.levels
    ]


def decode_sequence(payload: List[List[List[object]]]) -> CellSequence:
    """Rebuild the :class:`CellSequence` encoded by :func:`encode_sequence`."""
    return CellSequence(
        levels=tuple(
            frozenset(STCell(int(time), str(unit)) for time, unit in level)
            for level in payload
        )
    )


def one_shot_request(
    host: str,
    port: int,
    payload: Dict[str, object],
    connect_timeout: float = 5.0,
    read_timeout: float = 30.0,
) -> Optional[Dict[str, object]]:
    """One framed exchange on a fresh connection (probes, chaos, tooling).

    The serving path holds persistent connections
    (:class:`~repro.cluster.replica.ReplicaClient`); this helper is for
    everything else -- liveness probes, ``sync`` verification, chaos
    commands -- where connection reuse would only complicate failure
    attribution.  Returns the reply document, or ``None`` on a clean EOF.
    Raises :class:`ClusterWireError` on refusal, timeout, or a torn frame.
    """
    try:
        connection = socket.create_connection((host, port), timeout=connect_timeout)
    except OSError as exc:
        raise ClusterWireError(f"connect to {host}:{port} failed: {exc}") from exc
    try:
        connection.settimeout(read_timeout)
        send_frame(connection, payload)
        return recv_frame(connection)
    except (OSError, ValueError) as exc:
        raise ClusterWireError(f"exchange with {host}:{port} failed: {exc}") from exc
    finally:
        connection.close()
