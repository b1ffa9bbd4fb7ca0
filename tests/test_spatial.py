"""Tests for the sp-index (repro.traces.spatial)."""

import pytest

from repro.traces.spatial import SpatialHierarchy


class TestConstruction:
    def test_add_root_unit_is_level_one(self):
        hierarchy = SpatialHierarchy()
        unit = hierarchy.add_unit("city")
        assert unit.level == 1
        assert unit.parent_id is None

    def test_child_level_is_parent_plus_one(self):
        hierarchy = SpatialHierarchy()
        hierarchy.add_unit("city")
        district = hierarchy.add_unit("district", "city")
        assert district.level == 2

    def test_duplicate_unit_rejected(self):
        hierarchy = SpatialHierarchy()
        hierarchy.add_unit("city")
        with pytest.raises(ValueError, match="duplicate"):
            hierarchy.add_unit("city")

    def test_unknown_parent_rejected(self):
        hierarchy = SpatialHierarchy()
        with pytest.raises(ValueError, match="parent"):
            hierarchy.add_unit("district", "missing-city")

    def test_from_parent_map_resolves_out_of_order(self):
        hierarchy = SpatialHierarchy.from_parent_map(
            {"venue": "district", "district": "city", "city": None}
        )
        assert hierarchy.num_levels == 3
        assert hierarchy.parent_of("venue") == "district"

    def test_from_parent_map_detects_cycles(self):
        with pytest.raises(ValueError, match="unresolvable"):
            SpatialHierarchy.from_parent_map({"a": "b", "b": "a"})

    def test_regular_builds_expected_counts(self):
        hierarchy = SpatialHierarchy.regular([2, 3, 4])
        assert len(hierarchy.units_at_level(1)) == 2
        assert len(hierarchy.units_at_level(2)) == 6
        assert len(hierarchy.units_at_level(3)) == 24

    def test_regular_requires_nonempty_branching(self):
        with pytest.raises(ValueError):
            SpatialHierarchy.regular([])

    def test_empty_hierarchy_fails_validation(self):
        with pytest.raises(ValueError, match="empty"):
            SpatialHierarchy().validate()

    def test_uneven_leaf_depth_rejected(self):
        hierarchy = SpatialHierarchy()
        hierarchy.add_unit("city")
        hierarchy.add_unit("district", "city")
        hierarchy.add_unit("lonely-city")  # a leaf at level 1
        with pytest.raises(ValueError, match="same level"):
            hierarchy.validate()


class TestIntrospection:
    def test_num_levels(self, small_hierarchy):
        assert small_hierarchy.num_levels == 3

    def test_num_base_units(self, small_hierarchy):
        assert small_hierarchy.num_base_units == 8

    def test_base_units_all_at_lowest_level(self, small_hierarchy):
        for unit in small_hierarchy.base_units:
            assert small_hierarchy.level_of(unit) == small_hierarchy.num_levels

    def test_units_at_level_out_of_range(self, small_hierarchy):
        with pytest.raises(ValueError):
            small_hierarchy.units_at_level(9)

    def test_contains_and_len(self, small_hierarchy):
        assert "h1_0" in small_hierarchy
        assert "nope" not in small_hierarchy
        assert len(small_hierarchy) == 2 + 4 + 8

    def test_unknown_unit_raises_keyerror(self, small_hierarchy):
        with pytest.raises(KeyError):
            small_hierarchy.unit("nope")

    def test_unit_index_is_dense_per_level(self, small_hierarchy):
        indexes = sorted(small_hierarchy.unit_index(u) for u in small_hierarchy.units_at_level(2))
        assert indexes == list(range(4))

    def test_base_unit_index_roundtrip(self, small_hierarchy):
        for unit in small_hierarchy.base_units:
            assert small_hierarchy.base_unit_at(small_hierarchy.base_unit_index(unit)) == unit

    def test_base_unit_index_rejects_non_base(self, small_hierarchy):
        with pytest.raises(ValueError):
            small_hierarchy.base_unit_index("h1_0")

    def test_describe_mentions_every_level(self, small_hierarchy):
        text = small_hierarchy.describe()
        for level in (1, 2, 3):
            assert f"level {level}" in text


class TestNavigation:
    def test_path_starts_at_level_one(self, small_hierarchy):
        base = small_hierarchy.base_units[0]
        path = small_hierarchy.path(base)
        assert len(path) == 3
        assert small_hierarchy.level_of(path[0]) == 1
        assert path[-1] == base

    def test_path_memo_survives_add_unit(self):
        hierarchy = SpatialHierarchy()
        hierarchy.add_unit("r")
        hierarchy.add_unit("a", "r")
        assert hierarchy.path("a") == ("r", "a")
        assert hierarchy.path("a") is hierarchy.path("a")  # memoised
        hierarchy.add_unit("b", "r")  # clears the memo
        assert hierarchy.path("b") == ("r", "b")
        assert hierarchy.path("a") == ("r", "a")

    def test_unit_codes_follow_level_then_id_order(self):
        hierarchy = SpatialHierarchy.from_parent_map(
            {"z": None, "a": None, "m": "z", "b": "z", "c": "a"}
        )
        units = hierarchy.coded_units()
        assert units == ("a", "z", "b", "c", "m")
        assert hierarchy.unit_codes() == {unit: code for code, unit in enumerate(units)}
        codes = hierarchy.ancestor_codes()
        for column, base in enumerate(hierarchy.base_units):
            assert [units[code] for code in codes[:, column]] == list(hierarchy.path(base))
        hierarchy.add_unit("d", "a")  # a later unit re-codes everything
        assert hierarchy.coded_units() == ("a", "z", "b", "c", "d", "m")
        assert hierarchy.ancestor_codes().shape == (2, 4)

    def test_ancestors_excludes_self(self, small_hierarchy):
        base = small_hierarchy.base_units[0]
        assert base not in small_hierarchy.ancestors(base)
        assert len(small_hierarchy.ancestors(base)) == 2

    def test_ancestor_at_level_identity(self, small_hierarchy):
        base = small_hierarchy.base_units[0]
        assert small_hierarchy.ancestor_at_level(base, 3) == base

    def test_ancestor_at_level_one(self, small_hierarchy):
        base = small_hierarchy.base_units[0]
        ancestor = small_hierarchy.ancestor_at_level(base, 1)
        assert small_hierarchy.level_of(ancestor) == 1

    def test_ancestor_at_deeper_level_rejected(self, small_hierarchy):
        with pytest.raises(ValueError):
            small_hierarchy.ancestor_at_level("h1_0", 2)

    def test_children_of_inverse_of_parent(self, small_hierarchy):
        for unit in small_hierarchy.units_at_level(2):
            for child in small_hierarchy.children_of(unit):
                assert small_hierarchy.parent_of(child) == unit

    def test_base_descendants_of_base_is_itself(self, small_hierarchy):
        base = small_hierarchy.base_units[0]
        assert small_hierarchy.base_descendants(base) == (base,)

    def test_base_descendants_of_root_cover_everything(self, small_hierarchy):
        collected = set()
        for root in small_hierarchy.units_at_level(1):
            collected.update(small_hierarchy.base_descendants(root))
        assert collected == set(small_hierarchy.base_units)

    def test_base_descendants_cached_instance(self, small_hierarchy):
        first = small_hierarchy.base_descendants("h1_0")
        second = small_hierarchy.base_descendants("h1_0")
        assert first is second

    def test_common_ancestor_level_same_unit(self, small_hierarchy):
        base = small_hierarchy.base_units[0]
        assert small_hierarchy.common_ancestor_level(base, base) == 3

    def test_common_ancestor_level_siblings(self, small_hierarchy):
        parent = small_hierarchy.units_at_level(2)[0]
        children = small_hierarchy.children_of(parent)
        assert small_hierarchy.common_ancestor_level(children[0], children[1]) == 2

    def test_common_ancestor_level_disjoint_roots(self, small_hierarchy):
        roots = small_hierarchy.units_at_level(1)
        a = small_hierarchy.base_descendants(roots[0])[0]
        b = small_hierarchy.base_descendants(roots[1])[0]
        assert small_hierarchy.common_ancestor_level(a, b) == 0

    def test_iter_units_covers_all(self, small_hierarchy):
        assert sum(1 for _ in small_hierarchy.iter_units()) == len(small_hierarchy)
