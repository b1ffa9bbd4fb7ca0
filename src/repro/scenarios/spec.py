"""Declarative scenario specifications.

A :class:`ScenarioSpec` pins everything a replay needs to be reproducible
and *scorable*:

* a **dataset profile** -- a named generator (see
  :mod:`repro.scenarios.generators`) plus its parameters, with a smaller
  parameter overlay for ``--smoke`` runs;
* a **churn profile** -- a named event-stream generator, micro-batch size,
  and the sliding-window/compaction knobs the backends replay it under;
* a **query workload** -- how many query entities to sample (seeded), and
  the result size ``k``;
* an **engine profile** -- the index-shaping knobs every backend builds
  with.  Scenarios are *correctness* gates: the exact top-k must equal the
  brute-force oracle on every query.

Specs are plain frozen dataclasses: serialisable via :meth:`to_dict` (the
shape embedded in reports and printed by ``repro scenario list --json``)
and cheap to resolve for smoke or full scale.  Nothing here touches an
engine -- :mod:`repro.scenarios.runner` does the replaying.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Tuple

__all__ = [
    "ChurnProfile",
    "DatasetProfile",
    "EngineProfile",
    "QueryWorkload",
    "ScenarioSpec",
]


def _merged(base: Mapping[str, object], overlay: Mapping[str, object]) -> Dict[str, object]:
    """``base`` with ``overlay`` applied on top (neither is mutated)."""
    merged = dict(base)
    merged.update(overlay)
    return merged


@dataclass(frozen=True)
class DatasetProfile:
    """Which generator builds the initial dataset, and with what parameters.

    ``generator`` names an entry of
    :data:`repro.scenarios.generators.DATASET_GENERATORS`; ``params`` are
    its keyword arguments; ``smoke_params`` overlay them for ``--smoke``
    runs (typically fewer entities and a shorter horizon).
    """

    generator: str
    params: Mapping[str, object] = field(default_factory=dict)
    smoke_params: Mapping[str, object] = field(default_factory=dict)

    def resolve(self, smoke: bool) -> Dict[str, object]:
        """The effective generator parameters for this run mode."""
        return _merged(self.params, self.smoke_params) if smoke else dict(self.params)


@dataclass(frozen=True)
class ChurnProfile:
    """The live-update stream a scenario replays after the initial build.

    ``generator`` names an entry of
    :data:`repro.scenarios.generators.CHURN_GENERATORS` (``"none"`` for
    static scenarios).  Every backend replays the *same* event list in
    micro-batches of ``batch_size`` events, each batch explicitly flushed,
    under a sliding window of ``window`` base temporal units (``None`` =
    unbounded) with churn-triggered compaction after ``compact_after``
    index-changing retractions (``0`` = never).
    """

    generator: str = "none"
    params: Mapping[str, object] = field(default_factory=dict)
    smoke_params: Mapping[str, object] = field(default_factory=dict)
    batch_size: int = 64
    window: Optional[int] = None
    compact_after: int = 0

    def resolve(self, smoke: bool) -> Dict[str, object]:
        """The effective churn-generator parameters for this run mode."""
        return _merged(self.params, self.smoke_params) if smoke else dict(self.params)


@dataclass(frozen=True)
class QueryWorkload:
    """How query entities are sampled and what each query asks for.

    ``count`` entities are sampled (seeded, reproducible) from the
    *expected final* dataset -- after churn and window expiry -- so every
    query targets an entity that exists on all backends.  ``smoke_count``
    replaces ``count`` under ``--smoke`` when set.
    """

    count: int = 12
    k: int = 10
    seed: int = 7
    smoke_count: Optional[int] = None

    def resolve_count(self, smoke: bool) -> int:
        """The effective number of sampled query entities."""
        if smoke and self.smoke_count is not None:
            return self.smoke_count
        return self.count


@dataclass(frozen=True)
class EngineProfile:
    """The index-shaping knobs every backend builds the scenario's engine with."""

    num_hashes: int = 48
    seed: int = 0
    u: float = 2.0
    v: float = 2.0


@dataclass(frozen=True)
class ScenarioSpec:
    """One named, replayable, scorable workload."""

    #: Unique identifier (CLI argument, report key).
    name: str
    #: One-line human title.
    title: str
    #: What the scenario covers and why it is in the corpus.
    description: str
    #: Classification tags; ``"paper"`` marks workloads ported from the
    #: paper's applications, ``"hostile"`` marks engineered failure modes.
    tags: Tuple[str, ...]
    dataset: DatasetProfile
    churn: ChurnProfile = field(default_factory=ChurnProfile)
    queries: QueryWorkload = field(default_factory=QueryWorkload)
    engine: EngineProfile = field(default_factory=EngineProfile)

    @property
    def hostile(self) -> bool:
        """Whether this scenario is an engineered failure-mode workload."""
        return "hostile" in self.tags

    def to_dict(self) -> Dict[str, object]:
        """The JSON shape embedded in reports and ``scenario list --json``."""
        return {
            "name": self.name,
            "title": self.title,
            "description": self.description,
            "tags": list(self.tags),
            "dataset": {
                "generator": self.dataset.generator,
                "params": dict(self.dataset.params),
                "smoke_params": dict(self.dataset.smoke_params),
            },
            "churn": {
                "generator": self.churn.generator,
                "params": dict(self.churn.params),
                "smoke_params": dict(self.churn.smoke_params),
                "batch_size": self.churn.batch_size,
                "window": self.churn.window,
                "compact_after": self.churn.compact_after,
            },
            "queries": {
                "count": self.queries.count,
                "k": self.queries.k,
                "seed": self.queries.seed,
                "smoke_count": self.queries.smoke_count,
            },
            "engine": {
                "num_hashes": self.engine.num_hashes,
                "seed": self.engine.seed,
                "u": self.engine.u,
                "v": self.engine.v,
            },
        }
