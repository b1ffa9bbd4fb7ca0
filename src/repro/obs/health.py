"""Per-node health tracking for the distributed serving tier.

Every replica the coordinator talks to carries a :class:`NodeHealth`: a
small explicit state machine (``live`` / ``suspect`` / ``down`` /
``catching_up``) plus monotonically-increasing failure/recovery counters,
so node state shows up in ``/metrics`` as facts rather than being
reconstructed from log lines.

Transitions are driven by the replica client, not by a prober:

- a successful exchange marks the node ``live`` and clears the streak;
- a failed exchange (timeout, refused connect, reset) moves ``live`` to
  ``suspect``; :data:`SUSPECT_THRESHOLD` consecutive failures move
  ``suspect`` to ``down``;
- a node created ``catching_up`` (a first process still starting) joins
  at its first :meth:`NodeHealth.mark_live` without counting a recovery;
- a restarted process enters ``catching_up`` and may only return to
  ``live`` through :meth:`NodeHealth.mark_live` once catch-up is
  *verified* (its snapshot generation has reached the coordinator's) --
  the rejoin gate the chaos battery leans on.

The supervisor adds what it observes: a process it sees dead is marked
``down`` at once, and :attr:`NodeHealth.restarting` (a flag, not a state)
is set while its replacement starts.

The class is intentionally not thread-safe on its own; the owning replica
group serialises transitions under its lock.
"""

from __future__ import annotations

from typing import Dict

__all__ = ["CATCHING_UP", "DOWN", "LIVE", "NodeHealth", "SUSPECT", "SUSPECT_THRESHOLD"]

#: Healthy and serving queries.
LIVE = "live"
#: Failed at least one recent exchange; still tried, no longer preferred.
SUSPECT = "suspect"
#: Enough consecutive failures that the group skips it until it recovers.
DOWN = "down"
#: Process is back but its snapshot generation has not yet been verified.
CATCHING_UP = "catching_up"

#: Consecutive failures that escalate ``suspect`` to ``down``.
SUSPECT_THRESHOLD = 3


class NodeHealth:
    """Health state and counters for one replica process."""

    def __init__(self, name: str, state: str = LIVE) -> None:
        self.name = name
        self.state = state
        self.consecutive_failures = 0
        self.failures_total = 0
        self.recoveries_total = 0
        #: A replacement process is starting (not yet listening).
        self.restarting = False
        #: Whether the node was ever live: its first admission is no recovery.
        self._was_live = state == LIVE

    @property
    def is_live(self) -> bool:
        """Whether the node should be offered queries as a primary."""
        return self.state == LIVE

    @property
    def is_usable(self) -> bool:
        """Whether the node may be tried at all (live or merely suspect)."""
        return self.state in (LIVE, SUSPECT)

    def record_success(self) -> None:
        """One successful exchange: back to ``live``, streak cleared.

        A node in ``catching_up`` stays there -- answering a probe is not
        proof of having caught up; only :meth:`mark_live` (called after
        generation verification) completes a rejoin.
        """
        self.consecutive_failures = 0
        if self.state in (LIVE, SUSPECT):
            if self.state == SUSPECT:
                self.recoveries_total += 1
            self.state = LIVE

    def record_failure(self) -> None:
        """One failed exchange: escalate toward ``down``."""
        self.consecutive_failures += 1
        self.failures_total += 1
        if self.state in (LIVE, SUSPECT):
            self.state = (
                DOWN if self.consecutive_failures >= SUSPECT_THRESHOLD else SUSPECT
            )

    def mark_catching_up(self) -> None:
        """The process restarted; hold it out of rotation until verified."""
        self.state = CATCHING_UP
        self.consecutive_failures = 0

    def mark_down(self) -> None:
        """The process is known dead (kill observed, not inferred)."""
        self.state = DOWN

    def mark_live(self) -> None:
        """Catch-up verified: the node (re)joins the serving rotation."""
        if self.state != LIVE and self._was_live:
            self.recoveries_total += 1
        self.state = LIVE
        self._was_live = True
        self.consecutive_failures = 0

    def snapshot(self) -> Dict[str, object]:
        """Counters and state for ``/v1/stats`` and ``/metrics``."""
        return {
            "name": self.name,
            "state": self.state,
            "consecutive_failures": self.consecutive_failures,
            "failures_total": self.failures_total,
            "recoveries_total": self.recoveries_total,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"NodeHealth({self.name!r}, state={self.state!r})"
