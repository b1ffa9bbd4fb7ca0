"""Shared fixtures for the test suite.

Fixtures are deliberately small (tens to a few hundred entities) so the full
suite stays fast; the scale-sensitive behaviour is covered by the benchmark
harness rather than unit tests.
"""

from __future__ import annotations

import os
import random
from typing import List

import pytest

from repro import (
    HierarchicalADM,
    PresenceInstance,
    SpatialHierarchy,
    TraceDataset,
    TraceQueryEngine,
)
from repro.mobility import generate_synthetic_dataset, generate_wifi_dataset
from repro.traces.events import CellSequence, STCell


@pytest.fixture
def small_hierarchy() -> SpatialHierarchy:
    """A 3-level sp-index: 2 regions, 2 districts each, 2 venues per district."""
    return SpatialHierarchy.regular([2, 2, 2], prefix="h")


@pytest.fixture
def paper_hierarchy() -> SpatialHierarchy:
    """The 2-level hierarchy of the paper's worked examples (L1..L6)."""
    hierarchy = SpatialHierarchy()
    hierarchy.add_unit("L5")
    hierarchy.add_unit("L6")
    hierarchy.add_unit("L1", "L5")
    hierarchy.add_unit("L2", "L5")
    hierarchy.add_unit("L3", "L6")
    hierarchy.add_unit("L4", "L6")
    hierarchy.validate()
    return hierarchy


@pytest.fixture
def small_dataset(small_hierarchy: SpatialHierarchy) -> TraceDataset:
    """A hand-written dataset with obvious association structure.

    ``a`` and ``b`` co-occur heavily; ``c`` overlaps ``a`` a little; ``d``
    and ``e`` live in the other region and co-occur with each other only.
    """
    dataset = TraceDataset(small_hierarchy, horizon=48)
    base = small_hierarchy.base_units
    # Region 0 venues: base[0..3]; region 1 venues: base[4..7].
    for t in range(0, 20, 2):
        dataset.add_record("a", base[0], t, duration=2)
        dataset.add_record("b", base[0], t, duration=2)
    for t in range(20, 30, 2):
        dataset.add_record("a", base[1], t)
        dataset.add_record("c", base[1], t)
    for t in range(0, 24, 3):
        dataset.add_record("d", base[4], t, duration=2)
        dataset.add_record("e", base[4], t, duration=2)
    dataset.add_record("c", base[2], 40, duration=3)
    dataset.add_record("e", base[6], 40, duration=2)
    return dataset


@pytest.fixture
def small_measure(small_hierarchy: SpatialHierarchy) -> HierarchicalADM:
    return HierarchicalADM(num_levels=small_hierarchy.num_levels, u=2, v=2)


@pytest.fixture
def small_engine(small_dataset: TraceDataset, small_measure: HierarchicalADM) -> TraceQueryEngine:
    return TraceQueryEngine(small_dataset, measure=small_measure, num_hashes=32, seed=5).build()


@pytest.fixture
def malformed_query_sequences(small_dataset: TraceDataset):
    """Hand-built query sequences that violate sp-index consistency.

    Maps a defect label to ``(sequence, fragment of the rejection message)``;
    every one is entity ``a``'s real sequence with one thing broken.
    """
    coarse, middle, base = small_dataset.cell_sequence("a").levels
    other_region = small_dataset.hierarchy.units_at_level(1)[1]
    return {
        "wrong-depth": (CellSequence(levels=(middle, base)), "2 levels but the index has 3"),
        "missing-ancestor": (
            CellSequence(levels=(frozenset(sorted(coarse)[1:]), middle, base)),
            "has no ancestor cell",
        ),
        "orphan-coarse-cell": (
            CellSequence(levels=(coarse | {STCell(47, other_region)}, middle, base)),
            "no base descendant",
        ),
        "empty-base-level": (
            CellSequence(levels=(coarse, middle, frozenset())),
            "empty level alongside non-empty ones",
        ),
    }


@pytest.fixture(scope="session")
def syn_dataset() -> TraceDataset:
    """A session-scoped synthetic mobility dataset (moderate size)."""
    dataset, _config = generate_synthetic_dataset(
        num_entities=160,
        horizon=96,
        grid_side=10,
        max_group_size=6,
        group_copy_probability=0.8,
        observation_rate_range=(0.15, 0.8),
        seed=99,
    )
    return dataset


@pytest.fixture(scope="session")
def wifi_dataset() -> TraceDataset:
    """A session-scoped WiFi-handshake dataset (moderate size)."""
    dataset, _config = generate_wifi_dataset(
        num_devices=150,
        num_hotspots=90,
        horizon=24 * 5,
        mean_detections=25,
        seed=123,
    )
    return dataset


@pytest.fixture(scope="session")
def syn_engine(syn_dataset: TraceDataset) -> TraceQueryEngine:
    """A session-scoped engine over the synthetic dataset."""
    return TraceQueryEngine(syn_dataset, num_hashes=128, seed=3).build()


@pytest.fixture
def rng() -> random.Random:
    return random.Random(4242)


class SeededRngFactory:
    """Deterministic RNGs for fuzz tests, with replayable failure seeds.

    Calling the factory with a test's default seed returns a
    ``random.Random`` seeded with it -- unless the ``REPRO_TEST_SEED``
    environment variable is set, which overrides *every* requested seed so
    a reported failure replays exactly::

        REPRO_TEST_SEED=12345 pytest tests/test_streaming_equivalence.py -k interleavings

    Every effective seed is recorded; when the test fails, the report hook
    below prints them in a ``repro seeds`` section.
    """

    def __init__(self) -> None:
        self.seeds: List[int] = []
        self._override = os.environ.get("REPRO_TEST_SEED")

    def __call__(self, default_seed: int) -> random.Random:
        effective = int(self._override) if self._override else int(default_seed)
        self.seeds.append(effective)
        return random.Random(effective)


@pytest.fixture
def seeded_rng(request: pytest.FixtureRequest) -> SeededRngFactory:
    """The shared deterministic-seed plumbing of the fuzz suites.

    Use ``rng = seeded_rng(<default seed>)`` instead of
    ``random.Random(<seed>)``: behaviour is identical until a failure,
    at which point the failing seed is printed (and can be forced with
    ``REPRO_TEST_SEED``).
    """
    factory = SeededRngFactory()
    request.node._repro_seeds = factory.seeds
    return factory


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    """Attach the effective fuzz seeds to failing test reports."""
    outcome = yield
    report = outcome.get_result()
    seeds = getattr(item, "_repro_seeds", None)
    if seeds and report.when == "call" and report.failed:
        listed = ", ".join(str(seed) for seed in seeds)
        report.sections.append(
            (
                "repro seeds",
                f"fuzz seeds used: {listed}\n"
                f"replay with: REPRO_TEST_SEED={seeds[0]} pytest {item.nodeid!r}",
            )
        )


def make_presence(entity: str = "x", unit: str = "h3_0_0_0", start: int = 0, end: int = 1) -> PresenceInstance:
    """Convenience constructor used by several test modules."""
    return PresenceInstance(entity=entity, unit=unit, start=start, end=end)


@pytest.fixture
def fleet_up():
    """``fleet_up(server)``: block until a process tier's replicas answer.

    A ``--workers``/``--cluster`` server answers from the owner's engine
    until every replica group has had a live replica.  A test that injects
    a fault into the fleet, or asserts what its processes did, waits here
    first.  Returns the server; closes it when the fleet never comes up,
    so no read process outlives the failed test.
    """

    def wait(server, timeout: float = 60.0):
        supervisor = server.backend.supervisor
        if not supervisor.wait_settled(timeout):
            snapshot = supervisor.snapshot()
            server.close()
            pytest.fail(f"the fleet never came up: {snapshot}")
        assert server.handle_healthz()[1]["reads"] == "replicas"
        return server

    return wait
