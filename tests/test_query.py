"""Tests for top-k query processing (repro.core.query)."""

import importlib
import inspect
from pathlib import Path

import pytest

import repro
import repro.storage
from repro.baselines import BruteForceTopK
from repro.core.pruning import InvalidQuerySequence, QueryHashes
from repro.core.query import TopKSearcher
from repro.measures import HierarchicalADM, JaccardADM


class TestResults:
    def test_strong_associate_ranked_first(self, small_engine):
        result = small_engine.top_k("a", k=3)
        assert result.entities[0] == "b"

    def test_scores_sorted_descending(self, small_engine):
        result = small_engine.top_k("a", k=4)
        assert result.scores == sorted(result.scores, reverse=True)

    def test_query_entity_not_in_results(self, small_engine):
        result = small_engine.top_k("a", k=4)
        assert "a" not in result.entities

    def test_zero_score_entities_excluded(self, small_engine):
        result = small_engine.top_k("a", k=4)
        # d and e never co-occur with a (different region entirely).
        assert "d" not in result.entities
        assert "e" not in result.entities

    def test_k_larger_than_population(self, small_engine):
        result = small_engine.top_k("a", k=100)
        assert len(result) <= small_engine.dataset.num_entities - 1

    def test_k_one(self, small_engine):
        result = small_engine.top_k("a", k=1)
        assert len(result) == 1
        assert result.entities == ["b"]

    def test_invalid_k(self, small_engine):
        with pytest.raises(ValueError):
            small_engine.top_k("a", k=0)

    def test_unknown_query_entity(self, small_engine):
        with pytest.raises(KeyError):
            small_engine.top_k("ghost", k=2)

    def test_result_iterable_and_len(self, small_engine):
        result = small_engine.top_k("a", k=2)
        pairs = list(result)
        assert len(pairs) == len(result)
        assert all(isinstance(entity, str) and isinstance(score, float) for entity, score in pairs)

    def test_symmetric_pair_found_both_directions(self, small_engine):
        assert small_engine.top_k("d", k=1).entities == ["e"]
        assert small_engine.top_k("e", k=1).entities == ["d"]


class TestStats:
    def test_population_and_k_recorded(self, small_engine):
        result = small_engine.top_k("a", k=2)
        assert result.stats.population == small_engine.dataset.num_entities
        assert result.stats.k == 2

    def test_entities_scored_at_most_population(self, small_engine):
        result = small_engine.top_k("a", k=2)
        assert 0 < result.stats.entities_scored < small_engine.dataset.num_entities

    def test_checked_fraction_and_pe_consistent(self, small_engine):
        stats = small_engine.top_k("a", k=2).stats
        assert stats.checked_fraction == pytest.approx(
            stats.entities_scored / stats.population
        )
        assert stats.pruning_effectiveness == pytest.approx(1.0 - stats.checked_fraction)

    def test_definition5_pe_matches_definition(self, small_engine):
        stats = small_engine.top_k("a", k=2).stats
        expected = max(0, stats.entities_scored - 2) / stats.population
        assert stats.definition5_pe == pytest.approx(expected)

    def test_nodes_and_bounds_counted(self, small_engine):
        stats = small_engine.top_k("a", k=2).stats
        assert stats.nodes_visited >= 1
        assert stats.bound_computations >= 1
        assert stats.leaves_visited >= 1

    def test_empty_population_stats(self):
        from repro.core.query import QueryStats

        stats = QueryStats()
        assert stats.checked_fraction == 0.0
        assert stats.definition5_pe == 0.0


class TestSearcherConfiguration:
    def test_default_searcher_matches_brute_force(self, small_engine):
        searcher = TopKSearcher(
            small_engine.tree,
            small_engine.dataset,
            small_engine.measure,
            small_engine.hash_family,
        )
        oracle = BruteForceTopK(small_engine.dataset, small_engine.measure)
        for query in small_engine.dataset.entities:
            indexed = searcher.search(query, 3)
            exact = oracle.search(query, 3)
            assert [round(s, 9) for s in indexed.scores] == [round(s, 9) for s in exact.scores]

    def test_alternative_measure(self, small_engine):
        measure = JaccardADM(num_levels=small_engine.dataset.num_levels)
        searcher = TopKSearcher(
            small_engine.tree, small_engine.dataset, measure, small_engine.hash_family
        )
        oracle = BruteForceTopK(small_engine.dataset, measure)
        result = searcher.search("a", 2)
        exact = oracle.search("a", 2)
        assert result.entities[0] == exact.entities[0]


def test_one_scoring_path():
    """Candidates are scored in one place: ``ColumnarQueryContext.entity_scores``.

    The per-entity ``measure.score(fetch(entity), ...)`` fork, its knobs and
    the simulated storage stack it was kept for are gone -- not aliased.
    """
    assert list(inspect.signature(TopKSearcher.search).parameters) == [
        "self",
        "query_entity",
        "k",
        "approximation",
        "query_sequence",
        "trace",
    ]
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.storage.pages")
    assert sorted(repro.storage.__all__) == [
        "SNAPSHOT_FORMAT_VERSION",
        "SnapshotError",
        "load_engine_snapshot",
        "save_engine_snapshot",
        "snapshot_info",
    ]
    for source in Path(repro.__file__).parent.rglob("*.py"):
        text = source.read_text(encoding="utf-8")
        assert "custom_fetch" not in text and "fetch_cache" not in text, source


class TestQuerySequenceValidation:
    """A supplied ``query_sequence`` is input: malformed ones get one typed
    rejection naming the defect -- never a numpy/KeyError leak, never a
    silent answer."""

    @pytest.mark.parametrize(
        "defect",
        ["wrong-depth", "missing-ancestor", "orphan-coarse-cell", "empty-base-level"],
    )
    def test_malformed_sequence_is_rejected(
        self, small_engine, malformed_query_sequences, defect
    ):
        sequence, message = malformed_query_sequences[defect]
        with pytest.raises(InvalidQuerySequence, match=message):
            small_engine.searcher.search("q", 2, query_sequence=sequence)
        assert issubclass(InvalidQuerySequence, ValueError)

    def test_query_hashes_reject_an_orphan_coarse_cell(
        self, small_engine, malformed_query_sequences
    ):
        # Rejected where the base-to-ancestor map is built, before any
        # bound is computed from it.
        sequence, message = malformed_query_sequences["orphan-coarse-cell"]
        with pytest.raises(InvalidQuerySequence, match=message):
            QueryHashes.from_sequence(sequence, small_engine.hash_family)

    def test_well_formed_foreign_sequence_is_answered(self, small_engine):
        # The sharded path: the query entity need not live in this dataset.
        sequence = small_engine.dataset.cell_sequence("a")
        foreign = small_engine.searcher.search("elsewhere", 2, query_sequence=sequence)
        assert foreign.entities[:2] == ["a", "b"]


class TestEarlyTermination:
    def test_early_termination_on_synthetic_data(self, syn_engine):
        """At least some queries over group-structured data terminate early."""
        terminated = 0
        for query in syn_engine.dataset.entities[:20]:
            result = syn_engine.top_k(query, k=1)
            terminated += int(result.stats.terminated_early)
        assert terminated > 0

    def test_termination_never_loses_the_top_answer(self, syn_engine):
        oracle = BruteForceTopK(syn_engine.dataset, syn_engine.measure)
        for query in syn_engine.dataset.entities[:15]:
            best_indexed = syn_engine.top_k(query, k=1)
            best_exact = oracle.search(query, k=1)
            if not best_exact.scores:
                continue
            assert best_indexed.scores, query
            assert best_indexed.scores[0] == pytest.approx(best_exact.scores[0])
