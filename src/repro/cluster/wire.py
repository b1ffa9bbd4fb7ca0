"""One-shot framed calls to a shard replica (probes, ``sync``, chaos).

A shard replica is a read process (:mod:`repro.server.workers`): frames,
the query-sequence codec and the op set are that module's, specified in
``docs/SERVING.md`` ("The read process").  What the cluster adds on the
client side is here and in :mod:`repro.cluster.replica`.
"""

from __future__ import annotations

import socket
from typing import Dict, Optional

from repro.server.workers import recv_frame, send_frame

__all__ = ["ClusterWireError", "one_shot_request"]


class ClusterWireError(ConnectionError):
    """A framed exchange that could not complete."""


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
