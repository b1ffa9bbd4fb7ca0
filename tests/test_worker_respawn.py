"""Regression test for the worker pool's crash-loop (respawn storm) guard.

A worker that dies *on startup* -- broken interpreter, missing store,
exhausted memory -- must not put the pool's respawn loop into a hot fork
loop.  The pool backs off exponentially between respawn attempts and
counts a *respawn storm* once the failure streak crosses the backoff's
storm threshold, so a persistent crash loop is visible in ``/v1/stats``
and ``/metrics`` instead of only in the load average.

The test arranges exactly that: one worker of a two-worker pool is
SIGKILLed *and* its spawn command replaced by one that exits immediately,
so every revival attempt dies on startup.  The pool must (a) keep
answering queries through the surviving worker, (b) count the retry, and
(c) count at least one respawn storm -- all with the backoff shrunk so
the loop crosses the threshold in well under a second.

The second test covers the child that does *not* die: it stays alive but
never listens.  The revive loop must give up on it after the pool's own
start-up timeout, not after a constant of its own.
"""

from __future__ import annotations

import os
import signal
import sys
import time

from repro.server.frontend import WorkerPool
from repro.server.generation import GenerationStore


def test_crash_looping_worker_counts_a_storm_and_pool_keeps_answering(
    small_engine, tmp_path
):
    store_root = tmp_path / "store"
    GenerationStore(store_root).publish(small_engine)
    pool = WorkerPool(
        store_root,
        num_workers=2,
        respawn_backoff_base=0.01,
        respawn_backoff_cap=0.05,
    )
    pool.start()
    try:
        victim = pool._handles[0]
        # Every future revival of this slot dies before binding its socket.
        victim.command = [sys.executable, "-c", "import sys; sys.exit(3)"]
        assert victim.pid is not None
        os.kill(victim.pid, signal.SIGKILL)

        # The dead handle is first in the idle queue: the request hits it,
        # fails, and must be retried transparently on the survivor.
        expected = small_engine.top_k("a", k=3)
        payloads = pool.topk(["a"], 3, 0.0)
        assert [(r["entity"], r["score"]) for r in payloads[0]["results"]] == list(
            expected.items
        )

        deadline = time.monotonic() + 15.0
        while time.monotonic() < deadline:
            if pool.stats_snapshot()["respawn_storms"] >= 1:
                break
            time.sleep(0.02)
        stats = pool.stats_snapshot()
        assert stats["respawn_storms"] >= 1, stats
        assert stats["retries"] >= 1, stats

        # The pool still serves exact answers while one slot crash-loops.
        payloads = pool.topk(["b"], 3, 0.0)
        expected_b = small_engine.top_k("b", k=3)
        assert [(r["entity"], r["score"]) for r in payloads[0]["results"]] == list(
            expected_b.items
        )
    finally:
        pool.close()


def test_child_that_never_listens_is_given_up_on_after_the_pools_timeout(
    small_engine, tmp_path
):
    store_root = tmp_path / "store"
    GenerationStore(store_root).publish(small_engine)
    pool = WorkerPool(
        store_root,
        num_workers=2,
        respawn_backoff_base=0.01,
        respawn_backoff_cap=0.05,
    )
    pool.start()
    try:
        # Shrunk after a normal start: what a revive waits is the pool's
        # start-up timeout, whatever it is.
        pool._startup_timeout = 0.3
        victim = pool._handles[0]
        # Every future revival of this slot stays alive and never binds.
        victim.command = [sys.executable, "-c", "import time; time.sleep(600)"]
        os.kill(victim.pid, signal.SIGKILL)

        expected = small_engine.top_k("a", k=3)
        payloads = pool.topk(["a"], 3, 0.0)
        assert [(r["entity"], r["score"]) for r in payloads[0]["results"]] == list(
            expected.items
        )

        # Three given-up attempts make a storm: ~1 s at 0.3 s each, where a
        # wait of its own 60 s would still be inside the first.
        deadline = time.monotonic() + 15.0
        while time.monotonic() < deadline:
            if pool.stats_snapshot()["respawn_storms"] >= 1:
                break
            time.sleep(0.02)
        stats = pool.stats_snapshot()
        assert stats["respawn_storms"] >= 1, stats
        assert stats["respawns"] >= 3, stats
    finally:
        pool.close()
