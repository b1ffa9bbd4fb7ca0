"""Tests for the TraceQueryEngine facade (repro.core.engine)."""

import dataclasses
import inspect

import pytest

from repro import (
    EngineConfig,
    HierarchicalADM,
    PresenceInstance,
    TopKSearcher,
    TraceQueryEngine,
)
from repro.baselines import BruteForceTopK
from repro.cli import main as cli_main


class TestConfiguration:
    def test_defaults(self):
        config = EngineConfig()
        assert config.num_hashes == 256

    def test_invalid_num_hashes(self):
        with pytest.raises(ValueError):
            EngineConfig(num_hashes=0)

    def test_use_full_requires_store_full(self):
        with pytest.raises(ValueError):
            EngineConfig(use_full_signatures=True, store_full_signatures=False)

    def test_keyword_overrides(self, small_dataset):
        engine = TraceQueryEngine(small_dataset, num_hashes=16, seed=9)
        assert engine.config.num_hashes == 16
        assert engine.config.seed == 9

    def test_unknown_keyword_rejected(self, small_dataset):
        with pytest.raises(TypeError, match="unknown engine options"):
            TraceQueryEngine(small_dataset, turbo=True)

    def test_explicit_config_without_overrides_is_used_verbatim(self, small_dataset):
        config = EngineConfig(num_hashes=24, seed=4)
        engine = TraceQueryEngine(small_dataset, config=config)
        assert engine.config is config

    def test_overrides_win_but_explicit_config_fields_survive(self, small_dataset):
        # Regression: overrides used to rebuild the config from scratch,
        # silently resetting any field not mentioned in the kwargs.
        config = EngineConfig(
            num_hashes=24,
            seed=4,
            store_full_signatures=True,
            batch_workers=3,
        )
        engine = TraceQueryEngine(small_dataset, config=config, num_hashes=48)
        assert engine.config.num_hashes == 48  # the override wins
        assert engine.config.seed == 4  # everything else survives
        assert engine.config.store_full_signatures is True
        assert engine.config.batch_workers == 3
        # The caller's config object is never mutated.
        assert config.num_hashes == 24

    def test_unknown_keyword_rejected_with_explicit_config(self, small_dataset):
        with pytest.raises(TypeError, match="unknown engine options.*turbo"):
            TraceQueryEngine(small_dataset, config=EngineConfig(), turbo=True)

    def test_override_values_are_still_validated(self, small_dataset):
        with pytest.raises(ValueError):
            TraceQueryEngine(small_dataset, config=EngineConfig(), num_hashes=0)

    def test_batch_knob_defaults_and_overrides(self, small_dataset):
        assert EngineConfig().batch_workers == 0
        engine = TraceQueryEngine(small_dataset, batch_workers=2)
        assert engine.config.batch_workers == 2

    def test_no_option_selects_a_bit_identical_slower_path(self, capsys):
        """One route per concept: the retired selectors must not come back."""
        assert {field.name for field in dataclasses.fields(EngineConfig)} == {
            "num_hashes",
            "seed",
            "store_full_signatures",
            "use_full_signatures",
            "batch_workers",
            "query_cache_size",
        }
        searcher_parameters = inspect.signature(TopKSearcher.__init__).parameters
        assert "columnar" not in searcher_parameters
        assert "incremental" not in searcher_parameters
        assert "bound_mode" not in searcher_parameters
        with pytest.raises(SystemExit) as excinfo:
            cli_main(["query", "--snapshot", "snap", "--entity", "a", "--no-columnar"])
        assert excinfo.value.code == 2
        assert "--no-columnar" in capsys.readouterr().err

    def test_negative_batch_workers_rejected(self, small_dataset):
        with pytest.raises(ValueError, match="batch_workers"):
            EngineConfig(batch_workers=-1)
        with pytest.raises(ValueError, match="batch_workers"):
            TraceQueryEngine(small_dataset, batch_workers=-1)

    def test_with_overrides_returns_new_config(self):
        config = EngineConfig(seed=7)
        replaced = config.with_overrides(num_hashes=12)
        assert replaced is not config
        assert replaced.num_hashes == 12
        assert replaced.seed == 7
        with pytest.raises(TypeError, match="unknown engine options"):
            config.with_overrides(nope=1)

    def test_default_measure_matches_hierarchy_depth(self, small_dataset):
        engine = TraceQueryEngine(small_dataset, num_hashes=8)
        assert isinstance(engine.measure, HierarchicalADM)
        assert engine.measure.num_levels == small_dataset.num_levels


class TestLifecycle:
    def test_not_built_errors(self, small_dataset):
        engine = TraceQueryEngine(small_dataset, num_hashes=8)
        assert not engine.is_built
        with pytest.raises(RuntimeError, match="build"):
            engine.top_k("a", k=1)
        with pytest.raises(RuntimeError):
            _ = engine.tree

    def test_build_returns_self_and_sets_flags(self, small_dataset):
        engine = TraceQueryEngine(small_dataset, num_hashes=8)
        assert engine.build() is engine
        assert engine.is_built
        assert engine.last_build_seconds >= 0.0
        assert engine.tree.num_entities == small_dataset.num_entities

    def test_build_is_deterministic_given_seed(self, small_dataset):
        first = TraceQueryEngine(small_dataset, num_hashes=16, seed=5).build()
        second = TraceQueryEngine(small_dataset, num_hashes=16, seed=5).build()
        for entity in small_dataset.entities:
            assert (first.tree.signature_of(entity) == second.tree.signature_of(entity)).all()

    def test_build_materialises_no_per_entity_sequences(self, small_dataset, monkeypatch):
        # Build and kernel compile read the integer cell table; only the
        # query entity's CellSequence is ever constructed.
        calls = []
        original = type(small_dataset).cell_sequence

        def counting(self, entity):
            calls.append(entity)
            return original(self, entity)

        monkeypatch.setattr(type(small_dataset), "cell_sequence", counting)
        engine = TraceQueryEngine(small_dataset, num_hashes=16, seed=5).build()
        assert calls == []
        result = engine.top_k("a", k=3)
        assert result.entities[0] == "b"
        assert set(calls) == {"a"}
        assert set(small_dataset._sequence_cache) == {"a"}

    def test_index_size_positive(self, small_engine):
        assert small_engine.index_size_bytes() > 0

    def test_repr_mentions_state(self, small_dataset):
        engine = TraceQueryEngine(small_dataset, num_hashes=8)
        assert "not built" in repr(engine)
        engine.build()
        assert "not built" not in repr(engine)


class TestQueries:
    def test_results_match_brute_force_on_fixture(self, small_engine):
        oracle = BruteForceTopK(small_engine.dataset, small_engine.measure)
        for query in small_engine.dataset.entities:
            indexed = small_engine.top_k(query, k=3)
            exact = oracle.search(query, k=3)
            assert indexed.entities == exact.entities


class TestIncrementalMaintenance:
    def test_add_records_new_entity_queryable(self, small_dataset):
        engine = TraceQueryEngine(small_dataset, num_hashes=16, seed=1).build()
        base = small_dataset.hierarchy.base_units[0]
        # A newcomer shadowing a's favourite venue in the same hours.
        records = [PresenceInstance("newcomer", base, t, t + 2) for t in range(0, 20, 2)]
        affected = engine.add_records(records)
        assert affected == ["newcomer"]
        assert "newcomer" in engine.tree
        result = engine.top_k("a", k=2)
        assert "newcomer" in result.entities

    def test_add_records_existing_entity_rescored(self, small_dataset):
        engine = TraceQueryEngine(small_dataset, num_hashes=16, seed=1).build()
        base = small_dataset.hierarchy.base_units[0]
        before = engine.top_k("c", k=3)
        records = [PresenceInstance("c", base, t, t + 2) for t in range(0, 20, 2)]
        engine.add_records(records)
        after = engine.top_k("c", k=3)
        assert "b" in after.entities or "a" in after.entities
        assert after.scores[0] >= (before.scores[0] if before.scores else 0.0)

    def test_add_records_keeps_index_consistent_with_rebuild(self, small_dataset):
        engine = TraceQueryEngine(small_dataset, num_hashes=16, seed=1).build()
        base = small_dataset.hierarchy.base_units[3]
        engine.add_records([PresenceInstance("a", base, 44, 46)])
        rebuilt = TraceQueryEngine(small_dataset, num_hashes=16, seed=1).build()
        assert (engine.tree.signature_of("a") == rebuilt.tree.signature_of("a")).all()

    def test_refresh_entities(self, small_dataset):
        engine = TraceQueryEngine(small_dataset, num_hashes=16, seed=1).build()
        base = small_dataset.hierarchy.base_units[6]
        small_dataset.add_record("e", base, 45)
        engine.refresh_entities(["e"])
        rebuilt = TraceQueryEngine(small_dataset, num_hashes=16, seed=1).build()
        assert (engine.tree.signature_of("e") == rebuilt.tree.signature_of("e")).all()

    def test_remove_entity(self, small_dataset):
        engine = TraceQueryEngine(small_dataset, num_hashes=16, seed=1).build()
        engine.remove_entity("b")
        assert "b" not in small_dataset
        assert "b" not in engine.tree
        result = engine.top_k("a", k=3)
        assert "b" not in result.entities

    def test_add_records_before_build_fails(self, small_dataset):
        engine = TraceQueryEngine(small_dataset, num_hashes=16)
        base = small_dataset.hierarchy.base_units[0]
        with pytest.raises(RuntimeError):
            engine.add_records([PresenceInstance("x", base, 0, 1)])
