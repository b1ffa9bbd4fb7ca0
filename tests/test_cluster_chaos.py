"""End-to-end chaos battery: real shard-server processes under faults.

This runs the same battery as ``repro cluster chaos --smoke`` (and the CI
chaos job): a 2-shard x 2-replica cluster serving interleaved queries and
ingest while replicas are SIGKILLed, paused with SIGSTOP, and blacked out.
The gates are the robustness contract of the distributed tier:

- answers stay *item-exact* against a single-engine oracle whenever at
  least one replica per shard is live, and *byte-identical* to the
  in-process sharded engine's merged payloads;
- a whole-group blackout produces **marked** degraded answers (the
  ``degraded`` / ``missing_shards`` payload keys), never silently wrong
  ones;
- recovered replicas rejoin only after verified catch-up, and shutdown
  leaves no process needing SIGKILL.

One battery run spawns four subprocesses and takes a few seconds; the
per-layer behaviour is pinned cheaply in ``test_cluster.py``.
"""

from __future__ import annotations

from repro.cluster.battery import run_battery


def test_chaos_battery_smoke_passes():
    report = run_battery(smoke=True, seed=7, shards=2, replication=2)
    assert report["passed"], f"battery failures: {report['failures']}"
    assert report["failures"] == []
    # The battery must actually have exercised each gate, not vacuously
    # passed: exactness, byte identity, and degraded marking all fired.
    assert report["checks"]["exact_items"] > 0
    assert report["checks"]["byte_identical"] > 0
    assert report["checks"]["degraded_marked"] > 0
    # ... and actually injected faults (kills, pauses, a blackout).
    kinds = {fault["fault"] for fault in report["faults"]}
    assert "kill_one_per_group" in kinds
    assert "pause" in kinds
    assert "blackout_group" in kinds
    assert "restore_group" in kinds
    # The paused replicas were hedged around, not merely waited out: the
    # hedges counted during the pause round itself, not the kill round's
    # failovers.
    paused = next(r for r in report["rounds"] if r["round"] == "pause_replicas")
    assert paused["hedges"] > 0
    # Clean shutdown: every shard server left on SIGTERM.
    assert report["stubborn_processes"] == []
