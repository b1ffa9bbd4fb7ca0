"""End-to-end correctness: the indexed search against the exhaustive oracle.

The engine's per-level Theorem 4 bound is admissible, so the indexed search
must reproduce the brute-force answer exactly (same score multiset) on
arbitrary random datasets.  The paper's ``lift`` bound is not: it misses
associations that exist only at coarse levels, which the bound-mode
ablation quantifies and :func:`test_default_engine_is_exact_where_lift_is_not`
pins.
"""

import functools
import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import HierarchicalADM, SpatialHierarchy, TraceDataset, TraceQueryEngine
from repro.baselines import BruteForceTopK, reference_search
from repro.measures import DiceADM, JaccardADM


def _random_dataset(seed: int, num_entities: int, branching, horizon: int) -> TraceDataset:
    rng = random.Random(seed)
    hierarchy = SpatialHierarchy.regular(list(branching), prefix="r")
    dataset = TraceDataset(hierarchy, horizon=horizon)
    bases = hierarchy.base_units
    for index in range(num_entities):
        entity = f"e{index}"
        for _ in range(rng.randint(1, 12)):
            unit = rng.choice(bases)
            start = rng.randrange(horizon - 1)
            dataset.add_record(entity, unit, start, duration=rng.randint(1, 2))
    return dataset


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    num_entities=st.integers(min_value=5, max_value=25),
    k=st.integers(min_value=1, max_value=5),
)
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_per_level_bound_is_exact_on_random_data(seed, num_entities, k):
    dataset = _random_dataset(seed, num_entities, (2, 2, 3), horizon=24)
    engine = TraceQueryEngine(dataset, num_hashes=24, seed=seed % 7).build()
    oracle = BruteForceTopK(dataset, engine.measure)
    query = dataset.entities[seed % dataset.num_entities]
    indexed = engine.top_k(query, k=k)
    exact = oracle.search(query, k=k)
    assert [round(s, 9) for s in indexed.scores] == [round(s, 9) for s in exact.scores]


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    k=st.integers(min_value=1, max_value=4),
)
@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_per_level_bound_exact_with_other_measures(seed, k):
    dataset = _random_dataset(seed, 15, (2, 3), horizon=20)
    for measure in (JaccardADM(num_levels=2), DiceADM(num_levels=2)):
        engine = TraceQueryEngine(dataset, measure=measure, num_hashes=16, seed=3).build()
        oracle = BruteForceTopK(dataset, measure)
        query = dataset.entities[seed % dataset.num_entities]
        indexed = engine.top_k(query, k=k)
        exact = oracle.search(query, k=k)
        assert [round(s, 9) for s in indexed.scores] == [round(s, 9) for s in exact.scores]


def test_default_engine_is_exact_where_lift_is_not():
    """A query whose best associate shares only coarse cells with it.

    The paper's lifted bound scored this query's top-1 at 0.006811666
    against the true 0.023323615; the default engine must not.
    """
    dataset = _random_dataset(0, 20, (2, 2, 3), horizon=24)
    engine = TraceQueryEngine(dataset, num_hashes=24, seed=0).build()
    exact = BruteForceTopK(dataset, engine.measure, tie_break="entity").search("e17", k=1)
    assert exact.scores[0] == pytest.approx(0.023323615)
    assert engine.top_k("e17", k=1).items == exact.items


def test_lift_bound_high_recall_on_mobility_data(syn_dataset):
    """Average recall of the paper's bound vs the oracle on realistic data."""
    measure = HierarchicalADM(num_levels=syn_dataset.num_levels)
    engine = TraceQueryEngine(syn_dataset, measure=measure, num_hashes=128, seed=2).build()
    search = functools.partial(reference_search, engine.searcher, bound_mode="lift")
    oracle = BruteForceTopK(syn_dataset, measure)
    recalls = []
    for query in syn_dataset.entities[::10]:
        expected = set(oracle.search(query, 10).entities)
        if not expected:
            continue
        found = set(search(query, 10).entities)
        recalls.append(len(found & expected) / len(expected))
    assert recalls, "no query produced associates"
    assert sum(recalls) / len(recalls) >= 0.9


def test_lift_bound_exact_top1_on_mobility_data(syn_engine):
    """The single best associate is found exactly by the lift bound."""
    oracle = BruteForceTopK(syn_engine.dataset, syn_engine.measure)
    mismatches = 0
    total = 0
    for query in syn_engine.dataset.entities[::12]:
        exact = oracle.search(query, 1)
        if not exact.scores:
            continue
        total += 1
        indexed = reference_search(syn_engine.searcher, query, 1, bound_mode="lift")
        if not indexed.scores or abs(indexed.scores[0] - exact.scores[0]) > 1e-9:
            mismatches += 1
    assert total > 0
    assert mismatches <= max(1, total // 10)


def test_wifi_dataset_equivalence(wifi_dataset):
    measure = HierarchicalADM(num_levels=wifi_dataset.num_levels)
    engine = TraceQueryEngine(wifi_dataset, measure=measure, num_hashes=64, seed=5).build()
    oracle = BruteForceTopK(wifi_dataset, measure)
    for query in wifi_dataset.entities[::25]:
        indexed = engine.top_k(query, 5)
        exact = oracle.search(query, 5)
        assert [round(s, 9) for s in indexed.scores] == [round(s, 9) for s in exact.scores]


@pytest.mark.parametrize("k", [1, 3, 10])
def test_results_are_supersets_never_fabricated(syn_engine, k):
    """Every returned entity really has a positive degree with the query."""
    for query in syn_engine.dataset.entities[:10]:
        result = syn_engine.top_k(query, k=k)
        for entity, score in result:
            true_score = syn_engine.measure.score(
                syn_engine.dataset.cell_sequence(entity),
                syn_engine.dataset.cell_sequence(query),
            )
            assert score == pytest.approx(true_score)
            assert true_score > 0
