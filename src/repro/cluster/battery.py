"""The chaos battery: exactness-under-faults gates for the cluster tier.

``repro cluster chaos`` runs this.  A seeded workload of interleaved
ingest and top-k queries plays against a live 2-shard x R-replica
:class:`~repro.server.app.TraceServer` (the
:func:`~repro.cluster.frontend.cluster_tier` configuration) while the
:class:`~repro.cluster.chaos.ChaosController` injects faults between and
*during* query bursts -- SIGKILLed replicas, replicas paused with
SIGSTOP (forcing hedges to their siblings), and a whole-group blackout.
Two oracles gate every answer:

- **item exactness** -- the ``(entity, score)`` list must equal a single,
  never-crashed :class:`~repro.core.engine.TraceQueryEngine` fed the
  identical event stream with identical flush boundaries (the paper's
  single-machine semantics, which sharding provably preserves because the
  search bound is admissible);
- **byte identity** -- whenever every shard answered, the merged wire
  payload must be byte-for-byte the in-process
  :class:`~repro.service.sharded.ShardedEngine` response (same merge,
  same stats arithmetic, same canonical JSON).

During the blackout the gates invert: answers must carry
``degraded: true`` + ``missing_shards``, the ``degraded_queries`` counter
must reach ``/metrics``, and ``/v1/healthz`` must report ``degraded`` --
a wrong-but-confident answer fails the battery even if every other round
passed.  After ``restore_group`` the battery waits for verified rejoin
(:meth:`ReplicaSupervisor.wait_settled`) and demands exactness again.

Shutdown is part of the gate: every shard-server process must exit on
SIGTERM (no SIGKILL escalation, no orphans).
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional

from repro.cluster.chaos import ChaosController
from repro.cluster.frontend import cluster_tier
from repro.cluster.replica import ClusterConfig
from repro.core.engine import TraceQueryEngine
from repro.server import protocol
from repro.server.app import TraceServer
from repro.service.merge import merge_topk_payloads
from repro.service.sharded import ShardedEngine
from repro.streaming.ingestor import EventIngestor, StreamingConfig
from repro.traces.dataset import TraceDataset
from repro.traces.events import PresenceInstance
from repro.traces.spatial import SpatialHierarchy

__all__ = ["run_battery"]

HORIZON = 128
NUM_HASHES = 32
ENGINE_SEED = 9
MICRO_BATCH = 64  # larger than any round's chunk: flushes are explicit
PAUSE_SECONDS = 3.0  # outlasts a smoke burst; clear() resumes earlier


def _base_dataset(entities: int) -> TraceDataset:
    """The deterministic seed population both engines start from."""
    hierarchy = SpatialHierarchy.regular([2, 3])
    dataset = TraceDataset(hierarchy, horizon=HORIZON)
    for index in range(entities):
        unit = f"u2_{index % 2}_{index % 3}"
        dataset.add_record(f"seed-{index:03d}", unit, time=(index * 5) % 70, duration=6)
        if index % 4 == 0:
            dataset.add_record(f"seed-{index:03d}", "u2_0_1", time=80, duration=4)
    return dataset


def _round_events(rng: random.Random, round_index: int, count: int) -> List[Dict[str, int]]:
    """One round's ingest chunk: new entities plus touches on seed ones."""
    events = []
    for number in range(count):
        if number % 5 == 4:
            entity = f"seed-{rng.randrange(0, 20):03d}"
        else:
            entity = f"r{round_index}-e{number:03d}"
        unit = f"u2_{rng.randrange(2)}_{rng.randrange(3)}"
        start = rng.randrange(0, HORIZON - 8)
        events.append(
            {"entity": entity, "unit": unit, "start": start, "end": start + rng.randrange(2, 8)}
        )
    return events


class _Gates:
    """Check counters; any failure flips ``passed`` and records why."""

    def __init__(self) -> None:
        self.checks = {"exact_items": 0, "byte_identical": 0, "degraded_marked": 0}
        self.failures: List[str] = []

    def expect(self, ok: bool, kind: str, detail: str) -> None:
        if ok:
            self.checks[kind] += 1
        else:
            self.failures.append(f"{kind}: {detail}")

    @property
    def passed(self) -> bool:
        return not self.failures


def _query_burst(
    server: TraceServer,
    oracle: TraceQueryEngine,
    gates: _Gates,
    rng: random.Random,
    known: List[str],
    count: int,
    expect_degraded: bool = False,
    missing: Optional[List[int]] = None,
) -> None:
    """Fire ``count`` queries and hold every answer to the oracles."""
    for _ in range(count):
        entity = known[rng.randrange(len(known))]
        k = rng.randrange(1, 9)
        status, payload = server.handle_topk({"entity": entity, "k": k})
        if status != 200:
            gates.expect(False, "exact_items", f"{entity!r} k={k}: HTTP {status} {payload}")
            continue
        got_items = [(row["entity"], row["score"]) for row in payload["results"]]
        if expect_degraded:
            # A blackout answer is allowed to miss the dead shard's
            # candidates -- what it must do is *say so*, and be exactly
            # the merge of the shards that did answer.
            gates.expect(
                payload.get("degraded") is True
                and payload.get("missing_shards") == missing,
                "degraded_marked",
                f"{entity!r}: blackout answer not marked: "
                f"degraded={payload.get('degraded')!r} "
                f"missing={payload.get('missing_shards')!r}",
            )
            with server.engine_lock:
                sequence = server.engine.dataset.cell_sequence(entity)
                live_payloads = [
                    protocol.topk_result_payload(
                        server.engine.shards[index].searcher.search(
                            entity, k, query_sequence=sequence
                        )
                    )
                    for index in range(len(server.engine.shards))
                    if index not in (missing or [])
                ]
            reference = merge_topk_payloads(entity, live_payloads, k)
            stripped = {
                key: value
                for key, value in payload.items()
                if key not in ("degraded", "missing_shards")
            }
            gates.expect(
                protocol.dumps(stripped) == protocol.dumps(reference),
                "exact_items",
                f"{entity!r} k={k}: degraded answer diverged from the "
                f"live shards' merge",
            )
            continue
        expected = oracle.top_k(entity, k)
        want_items = [(name, score) for name, score in expected.items]
        gates.expect(
            got_items == want_items,
            "exact_items",
            f"{entity!r} k={k}: cluster {got_items} != oracle {want_items}",
        )
        # Full-fleet answers must be byte-identical to the in-process
        # sharded response (the cluster's own owner engine).
        with server.engine_lock:
            reference = protocol.topk_result_payload(server.engine.top_k(entity, k))
        gates.expect(
            protocol.dumps(payload) == protocol.dumps(reference),
            "byte_identical",
            f"{entity!r} k={k}: wire payload diverged from in-process merge",
        )


def _ingest(
    server: TraceServer,
    oracle_ingestor: EventIngestor,
    events: List[Dict[str, int]],
) -> Optional[str]:
    """Feed the same chunk to the cluster and the oracle; flush both."""
    status, payload = server.handle_events({"events": events, "flush": True})
    if status != 200:
        return f"/v1/events -> HTTP {status}: {payload}"
    for event in events:
        oracle_ingestor.submit(
            PresenceInstance(event["entity"], event["unit"], event["start"], event["end"])
        )
    oracle_ingestor.flush()
    return None


def run_battery(
    smoke: bool = False,
    seed: int = 7,
    shards: int = 2,
    replication: int = 2,
    settle_timeout: float = 60.0,
) -> Dict[str, object]:
    """Run the full fault schedule; returns a report with ``passed``.

    ``smoke`` shrinks the workload (CI-sized: same faults, fewer
    queries).  The fault schedule is fixed -- warmup, kill-one-per-group
    mid-burst, paused replicas, whole-group blackout, recovery -- only the
    workload volume scales.
    """
    rng = random.Random(seed)
    seed_entities = 20 if smoke else 36
    chunk = 10 if smoke else 25
    burst = 6 if smoke else 18

    oracle = TraceQueryEngine(
        _base_dataset(seed_entities),
        num_hashes=NUM_HASHES,
        seed=ENGINE_SEED,
    ).build()
    oracle_ingestor = EventIngestor(oracle, StreamingConfig(max_batch_events=MICRO_BATCH))
    engine = ShardedEngine(
        _base_dataset(seed_entities),
        num_shards=shards,
        num_hashes=NUM_HASHES,
        seed=ENGINE_SEED,
    ).build()

    config = ClusterConfig(
        connect_timeout=2.0,
        request_timeout=10.0,
        shard_deadline=15.0,
        hedge_delay=0.05,
        backoff_base=0.02,
        backoff_cap=0.5,
        max_attempts=4,
    )
    server = TraceServer(
        engine,
        streaming=StreamingConfig(max_batch_events=MICRO_BATCH),
        **cluster_tier(engine, replication=replication, cluster_config=config),
    )
    fleet = server.backend
    chaos = ChaosController(fleet)
    gates = _Gates()
    known = [f"seed-{index:03d}" for index in range(seed_entities)]
    rounds: List[Dict[str, object]] = []

    def record_round(name: str, detail: str = "", must_hedge: bool = False) -> None:
        groups = fleet.coordinator.snapshot()["groups"]
        # The groups' counters are cumulative; a round reports its own share.
        hedges = sum(group["counters"]["hedges"] for group in groups) - sum(
            entry["hedges"] for entry in rounds
        )
        if must_hedge and hedges == 0:
            gates.failures.append(f"round {name}: no query hedged")
        rounds.append(
            {
                "round": name,
                "detail": detail,
                "checks": dict(gates.checks),
                "failures": len(gates.failures),
                "hedges": hedges,
            }
        )

    try:
        # Round 0: warmup -- full fleet, exactness + byte identity.  The
        # owner answers until the fleet is up; the faults are for the fleet.
        if not fleet.supervisor.wait_settled(timeout=settle_timeout):
            gates.failures.append(f"the fleet never came up: {fleet.supervisor.snapshot()}")
        _query_burst(server, oracle, gates, rng, known, burst)
        record_round("warmup")

        # Round 1: ingest, then SIGKILL one replica per group *mid-burst*.
        error = _ingest(server, oracle_ingestor, _round_events(rng, 1, chunk))
        if error:
            gates.failures.append(error)
        known = sorted(oracle.dataset.entities)
        _query_burst(server, oracle, gates, rng, known, burst // 2)
        killed = chaos.kill_one_per_group(replica_index=0)
        _query_burst(server, oracle, gates, rng, known, burst)
        if not fleet.supervisor.wait_settled(timeout=settle_timeout):
            gates.failures.append(
                f"respawn did not settle after kill: {fleet.supervisor.snapshot()}"
            )
        record_round("kill_one_per_group", detail=",".join(killed))

        # Round 2: SIGSTOP r0 of every group -- a hung replica that still
        # holds its socket.  The hedge to r1 must answer, exactly and
        # byte-identically; the paused exchanges finish after SIGCONT.
        error = _ingest(server, oracle_ingestor, _round_events(rng, 2, chunk))
        if error:
            gates.failures.append(error)
        known = sorted(oracle.dataset.entities)
        for group in fleet.groups:
            chaos.pause(f"{group.shard}-r0", PAUSE_SECONDS)
        _query_burst(server, oracle, gates, rng, known, burst)
        chaos.clear()
        record_round("pause_replicas", must_hedge=replication > 1)

        # Round 3: blackout one whole group -> answers degrade, marked.
        blackout_index = shards - 1
        chaos.blackout_group(blackout_index)
        # Shrink the deadline: with zero live replicas every attempt must
        # burn through retries; the battery should not spend the full
        # per-shard budget per query just to prove degradation.
        config.shard_deadline = 1.0
        config.max_attempts = 2
        _query_burst(
            server,
            oracle,
            gates,
            rng,
            known,
            max(3, burst // 3),
            expect_degraded=True,
            missing=[blackout_index],
        )
        status, health = server.handle_healthz()
        gates.expect(
            health.get("status") == "degraded",
            "degraded_marked",
            f"/v1/healthz status {health.get('status')!r} during blackout",
        )
        _, metrics_text = server.handle_metrics()
        gates.expect(
            'repro_cluster_events_total{event="degraded_queries"}' in metrics_text
            and fleet.coordinator.counters["degraded_queries"] > 0,
            "degraded_marked",
            "degraded_queries counter missing from /metrics",
        )
        record_round("blackout", detail=f"shard-{blackout_index:03d}")

        # Round 4: restore, wait for verified rejoin, demand exactness.
        config.shard_deadline = 15.0
        config.max_attempts = 4
        chaos.restore_group(blackout_index)
        if not fleet.supervisor.wait_settled(timeout=settle_timeout):
            gates.failures.append(
                f"blackout group never rejoined: {fleet.supervisor.snapshot()}"
            )
        error = _ingest(server, oracle_ingestor, _round_events(rng, 4, chunk))
        if error:
            gates.failures.append(error)
        known = sorted(oracle.dataset.entities)
        _query_burst(server, oracle, gates, rng, known, burst)
        record_round("recovery")

        coordinator = fleet.coordinator.snapshot()
        supervisor = fleet.supervisor.snapshot()
    finally:
        chaos.clear()  # a stopped process would need SIGKILL
        stubborn = fleet.supervisor.shutdown_processes()
        server.close()

    if stubborn:
        gates.failures.append(f"processes needed SIGKILL at shutdown: {stubborn}")
    return {
        "passed": gates.passed,
        "smoke": smoke,
        "seed": seed,
        "shards": shards,
        "replication": replication,
        "rounds": rounds,
        "checks": gates.checks,
        "failures": gates.failures,
        "faults": chaos.injected,
        "coordinator": coordinator,
        "supervisor": supervisor,
        "stubborn_processes": stubborn,
    }
