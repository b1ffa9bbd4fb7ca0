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
