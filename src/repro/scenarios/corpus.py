"""The bundled scenario corpus.

Seven scenarios ship with the repository: three ported from the paper's
application workloads (the end-to-end examples and figure benchmarks use
the same generator parameterisations) and four **hostile** ones engineered
at known weak points of the MinSigTree design -- signature collisions,
heavy-tailed trace sizes, late arrivals under a sliding window, and
sustained churn that forces compaction.

Every engine searches with an admissible bound, so a correct
implementation must score **100% exact top-k agreement** with the
brute-force oracle on every query of every scenario; any mismatch is a
bug, not noise.

Use :func:`get_scenario` / :func:`iter_scenarios` rather than importing
:data:`SCENARIOS` directly.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from repro.scenarios.spec import (
    ChurnProfile,
    DatasetProfile,
    EngineProfile,
    QueryWorkload,
    ScenarioSpec,
)

__all__ = ["SCENARIOS", "get_scenario", "iter_scenarios", "scenario_names"]


def _paper_scenarios() -> List[ScenarioSpec]:
    """Workloads ported from the paper's motivating applications."""
    return [
        ScenarioSpec(
            name="im-mobility",
            title="IM mobility model (SYN workload)",
            description=(
                "The paper's synthetic workload: entities follow the "
                "hierarchical IM mobility model with power-law social groups; "
                "associates are group members who copy each other's stays. "
                "Static dataset, no churn."
            ),
            tags=("paper", "static"),
            dataset=DatasetProfile(
                generator="syn",
                params={"seed": 11},
                smoke_params={"num_entities": 60, "horizon": 48},
            ),
            queries=QueryWorkload(count=12, k=10, seed=7, smoke_count=4),
        ),
        ScenarioSpec(
            name="wifi-crime",
            title="WiFi companion detection (crime investigation)",
            description=(
                "The crime-investigation example: WiFi handshake logs where "
                "companion devices mirror a person of interest's detections. "
                "Exact top-k must surface the planted companions."
            ),
            tags=("paper", "static"),
            dataset=DatasetProfile(
                generator="wifi",
                params={"companion_fraction": 0.2, "seed": 42},
                smoke_params={"num_devices": 60, "horizon": 48},
            ),
            queries=QueryWorkload(count=12, k=10, seed=3, smoke_count=4),
        ),
        ScenarioSpec(
            name="marketing-cohorts",
            title="Marketing cohorts (co-location audiences)",
            description=(
                "The marketing example: larger social groups with high "
                "copy probability produce dense co-location cohorts; queries "
                "recover an entity's cohort as its top associates."
            ),
            tags=("paper", "static"),
            dataset=DatasetProfile(
                generator="syn",
                params={
                    "max_group_size": 16,
                    "group_copy_probability": 0.85,
                    "seed": 2024,
                },
                smoke_params={"num_entities": 60, "horizon": 48},
            ),
            queries=QueryWorkload(count=12, k=10, seed=5, smoke_count=4),
        ),
    ]


def _hostile_scenarios() -> List[ScenarioSpec]:
    """Engineered failure-mode workloads."""
    return [
        ScenarioSpec(
            name="heavy-tail",
            title="Heavy-tailed entity sizes",
            description=(
                "Pareto-distributed per-entity activity: a few giant traces "
                "drag group signatures toward universal minima and erode "
                "pruning, while most entities are near-empty. Stresses leaf "
                "scoring and bound tightness at both extremes."
            ),
            tags=("hostile", "static"),
            dataset=DatasetProfile(
                generator="heavy_tail",
                params={"num_entities": 220, "seed": 9},
                smoke_params={"num_entities": 80, "max_records": 120},
            ),
            queries=QueryWorkload(count=12, k=10, seed=17, smoke_count=4),
        ),
        ScenarioSpec(
            name="clone-families",
            title="Adversarial signature collisions",
            description=(
                "Families of entities share cell-for-cell identical traces, "
                "so their MinHash signatures collide exactly and scores tie "
                "in clusters; the top-k boundary is decided purely by the "
                "deterministic tie-break, which every backend must honour."
            ),
            tags=("hostile", "static", "ties"),
            dataset=DatasetProfile(
                generator="clone_families",
                params={"num_families": 24, "seed": 21},
                smoke_params={"num_families": 10, "num_background": 24},
            ),
            queries=QueryWorkload(count=12, k=10, seed=23, smoke_count=4),
        ),
        ScenarioSpec(
            name="bursty-late",
            title="Bursty ingest with late arrivals",
            description=(
                "Dense event bursts under a sliding window, with a quarter "
                "of events arriving out of order up to 40 units late -- some "
                "already expired at arrival and must be dropped rather than "
                "indexed. Exercises watermark/window interaction end to end."
            ),
            tags=("hostile", "streaming"),
            dataset=DatasetProfile(
                generator="syn",
                params={"num_entities": 100, "seed": 31},
                smoke_params={"num_entities": 50, "horizon": 48},
            ),
            churn=ChurnProfile(
                generator="bursty_late",
                params={"bursts": 6, "events_per_burst": 100, "burst_start": 24, "burst_spacing": 8, "seed": 31},
                smoke_params={"bursts": 3, "events_per_burst": 40, "burst_start": 16},
                batch_size=64,
                window=36,
            ),
            queries=QueryWorkload(count=10, k=8, seed=29, smoke_count=4),
        ),
        ScenarioSpec(
            name="churn-compaction",
            title="Sustained churn forcing compaction",
            description=(
                "Time marches forward while events keep flowing, so a short "
                "sliding window continually expires history: entities drop "
                "out entirely, survivors are re-signed, and accumulated "
                "retractions trigger full compaction mid-stream."
            ),
            tags=("hostile", "streaming", "compaction"),
            dataset=DatasetProfile(
                generator="syn",
                params={"num_entities": 100, "seed": 37},
                smoke_params={"num_entities": 50, "horizon": 48},
            ),
            churn=ChurnProfile(
                generator="rolling",
                params={"steps": 12, "events_per_step": 50, "start": 20, "stride": 4, "seed": 37},
                smoke_params={"steps": 6, "events_per_step": 25, "start": 12},
                batch_size=48,
                window=24,
                compact_after=2,
            ),
            queries=QueryWorkload(count=10, k=8, seed=41, smoke_count=4),
        ),
    ]


def _build_corpus() -> Dict[str, ScenarioSpec]:
    corpus: Dict[str, ScenarioSpec] = {}
    for spec in _paper_scenarios() + _hostile_scenarios():
        if spec.name in corpus:  # pragma: no cover - corpus authoring error
            raise ValueError(f"duplicate scenario name {spec.name!r}")
        corpus[spec.name] = spec
    return corpus


#: The bundled corpus, keyed by scenario name.
SCENARIOS: Dict[str, ScenarioSpec] = _build_corpus()


def scenario_names() -> List[str]:
    """Names of all bundled scenarios, in registration order."""
    return list(SCENARIOS)


def get_scenario(name: str) -> ScenarioSpec:
    """Look up one bundled scenario by name."""
    try:
        return SCENARIOS[name]
    except KeyError:
        raise ValueError(
            f"unknown scenario {name!r}; expected one of {scenario_names()}"
        ) from None


def iter_scenarios(names: Optional[Iterable[str]] = None) -> List[ScenarioSpec]:
    """Resolve ``names`` to specs (all bundled scenarios when ``None``)."""
    if names is None:
        return list(SCENARIOS.values())
    return [get_scenario(name) for name in names]
