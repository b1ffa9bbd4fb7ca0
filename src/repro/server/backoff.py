"""Exponential backoff with jitter for respawn/reconnect loops.

Every place the multi-process tiers bring a dead process or connection
back -- :class:`~repro.cluster.supervisor.ReplicaSupervisor` (respawn) and
:class:`~repro.cluster.replica.ReplicaGroup` (retry rounds) -- shares the
same failure mode: if the target dies *on startup* (bad binary, missing store,
exhausted resource), a naive retry loop respawns it as fast as the OS can
fork, burning a core and flooding the process table.  :class:`ExponentialBackoff`
is the shared discipline: delays double from ``base`` up to ``cap``, a
deterministic-seedable jitter fraction decorrelates concurrent loops, and a
consecutive-failure streak long enough to count as a *storm*
(:attr:`ExponentialBackoff.STORM_THRESHOLD`) is surfaced to the caller so
it can be counted in ``/v1/stats`` and ``/metrics`` rather than discovered
from load averages.
"""

from __future__ import annotations

import random
from typing import Optional

__all__ = ["ExponentialBackoff"]


class ExponentialBackoff:
    """Doubling delays with jitter plus a consecutive-failure streak counter.

    Parameters
    ----------
    base:
        First delay in seconds.
    cap:
        Upper bound on any single delay (pre-jitter).
    jitter:
        Fraction of the delay added as uniform random noise (``0.2`` means
        the returned delay is ``delay * [1.0, 1.2)``), so concurrent
        respawn loops do not thundering-herd the same instant.
    seed:
        Optional seed for the jitter RNG -- tests pin it for determinism.

    Usage: call :meth:`next_delay` after each failure (sleep that long
    before retrying) and :meth:`reset` after a success.  :attr:`failures`
    is the current consecutive-failure streak; a caller counts a storm when
    it reaches :attr:`STORM_THRESHOLD`.
    """

    #: Consecutive failures after which the loop counts as a respawn storm.
    STORM_THRESHOLD = 3

    def __init__(
        self,
        base: float = 0.05,
        cap: float = 5.0,
        jitter: float = 0.2,
        seed: Optional[int] = None,
    ) -> None:
        if base <= 0:
            raise ValueError(f"base must be > 0, got {base}")
        if cap < base:
            raise ValueError(f"cap must be >= base, got cap={cap} base={base}")
        if not 0.0 <= jitter <= 1.0:
            raise ValueError(f"jitter must be within [0, 1], got {jitter}")
        self.base = float(base)
        self.cap = float(cap)
        self.jitter = float(jitter)
        self.failures = 0
        self._rng = random.Random(seed)

    def next_delay(self) -> float:
        """Record one failure and return the delay to sleep before retrying."""
        delay = min(self.cap, self.base * (2.0 ** self.failures))
        self.failures += 1
        if self.jitter:
            delay *= 1.0 + self._rng.random() * self.jitter
        return delay

    def reset(self) -> None:
        """Clear the streak after a success."""
        self.failures = 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ExponentialBackoff(base={self.base}, cap={self.cap}, "
            f"failures={self.failures})"
        )
