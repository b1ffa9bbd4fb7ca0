"""Smoke and shape tests for the per-figure experiment generators.

Each figure generator is run at the tiny scale and checked for the structural
properties its benchmark and EXPERIMENTS.md rely on (columns present, sweeps
covered, values in range).  Quantitative trends are asserted only where they
are robust at tiny scale.
"""

import pytest

from repro.experiments import figures
from repro.experiments.harness import SCALES

TINY = SCALES["tiny"]


@pytest.fixture(scope="module", autouse=True)
def _warm_workload_cache():
    """Generate the two tiny datasets once for the whole module."""
    from repro.experiments.workloads import syn_workload, wifi_workload

    syn_workload(TINY)
    wifi_workload(TINY)
    yield


class TestFigure71:
    def test_structure(self):
        result = figures.figure_7_1(scale=TINY)
        assert {"series", "dataset", "level", "entities"} <= set(result.columns())
        assert {row["dataset"] for row in result.rows} == {"SYN", "REAL(wifi)"}

    def test_ajpi_counts_monotone_over_levels(self):
        result = figures.figure_7_1(scale=TINY)
        for dataset in ("SYN", "REAL(wifi)"):
            series = result.filter(series="ajpi_counts", dataset=dataset)
            values = [row["entities"] for row in sorted(series.rows, key=lambda r: r["level"])]
            assert values == sorted(values, reverse=True)


class TestFigure72:
    def test_structure(self):
        result = figures.figure_7_2(scale=TINY, parameter_pairs=((2, 2), (5, 5)))
        assert {"dataset", "u", "v", "degree_from", "entities"} <= set(result.columns())
        assert {(row["u"], row["v"]) for row in result.rows} == {(2, 2), (5, 5)}

    def test_counts_non_negative(self):
        result = figures.figure_7_2(scale=TINY, parameter_pairs=((2, 2),))
        assert all(row["entities"] >= 0 for row in result.rows)


class TestFigure73:
    def test_structure_and_ranges(self):
        result = figures.figure_7_3(scale=TINY)
        assert {row["num_hashes"] for row in result.rows} == set(TINY.hash_sweep)
        for row in result.rows:
            assert 0.0 <= row["measured_pe"] <= 1.0
            assert 0.0 <= row["predicted_pe"] <= 1.0

    def test_predicted_pe_non_decreasing_in_hashes(self):
        result = figures.figure_7_3(scale=TINY)
        for dataset in ("SYN", "REAL(wifi)"):
            series = sorted(
                result.filter(dataset=dataset).rows, key=lambda row: row["num_hashes"]
            )
            predicted = [row["predicted_pe"] for row in series]
            assert all(b >= a - 1e-9 for a, b in zip(predicted, predicted[1:]))


class TestFigure74:
    def test_subset_of_parameters(self):
        result = figures.figure_7_4(scale=TINY, parameters=["alpha"], sweeps={"alpha": (0.4, 1.2)})
        assert {row["value"] for row in result.rows} == {0.4, 1.2}
        assert {row["k"] for row in result.rows} == set(TINY.k_values)
        for row in result.rows:
            assert 0.0 <= row["checked_fraction"] <= 1.0

    def test_unknown_parameter_rejected(self):
        with pytest.raises(KeyError):
            figures.figure_7_4(scale=TINY, parameters=["not-a-parameter"])


class TestFigure75:
    def test_structure(self):
        result = figures.figure_7_5(scale=TINY, u_values=(2, 5), v_values=(2, 5))
        assert len(result.rows) == 2 * 2 * 2  # datasets x u x v
        for row in result.rows:
            assert 0.0 <= row["pe"] <= 1.0


class TestFigure76:
    def test_structure_and_monotone_cost(self):
        result = figures.figure_7_6(scale=TINY, memory_fractions=(0.1, 1.0))
        assert {row["memory_fraction"] for row in result.rows} == {0.1, 1.0}
        for dataset in ("SYN", "REAL(wifi)"):
            for k in TINY.k_values:
                series = result.filter(dataset=dataset, k=k).rows
                by_fraction = {row["memory_fraction"]: row["simulated_ms"] for row in series}
                assert by_fraction[1.0] <= by_fraction[0.1]

    def test_replay_is_an_exact_lru_over_the_oracle_fetches(self):
        # LRU is a stack algorithm: a larger pool holds a superset of a
        # smaller one's pages at every step, so these are theorems about
        # the replay, not tendencies of the workload.
        fractions = (0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0)
        result = figures.figure_7_6(scale=TINY, memory_fractions=fractions)
        traces = {(t["dataset"], t["k"]): t for t in result.metadata["page_traces"]}
        assert set(traces) == {
            (dataset, k) for dataset in ("SYN", "REAL(wifi)") for k in TINY.k_values
        }
        for (dataset, k), trace in traces.items():
            series = result.filter(dataset=dataset, k=k).rows
            assert [row["memory_fraction"] for row in series] == list(fractions)
            misses = [row["page_misses"] for row in series]
            assert misses == sorted(misses, reverse=True)
            accesses = {row["page_misses"] + row["page_hits"] for row in series}
            assert len(accesses) == 1
            assert misses[0] == accesses.pop()  # no memory: every access misses
            assert misses[-1] == trace["distinct_pages"] <= result.metadata["pages"][dataset]
            # One fetch per candidate the oracle scored, no more, no fewer.
            assert trace["fetches"] == trace["entities_scored"] > 0


class TestFigure77:
    def test_structure(self):
        result = figures.figure_7_7(scale=TINY, k_values=(1, 10))
        methods = {row["method"] for row in result.rows}
        assert "cluster-bitmap" in methods
        assert any(method.startswith("minsigtree") for method in methods)
        for row in result.rows:
            assert 0.0 <= row["pe"] <= 1.0


class TestFigure78:
    def test_indexing_cost_grows_with_hashes(self):
        result = figures.figure_7_8(scale=TINY)
        for dataset in ("SYN", "REAL(wifi)"):
            series = sorted(result.filter(dataset=dataset).rows, key=lambda r: r["num_hashes"])
            sizes = [row["index_bytes"] for row in series]
            times = [row["indexing_seconds"] for row in series]
            assert all(size > 0 for size in sizes)
            assert times[-1] > times[0] * 0.5  # time roughly grows (noisy at tiny scale)


class TestFigure79:
    def test_structure(self):
        result = figures.figure_7_9(scale=TINY, existing_fractions=(1.0, 0.4))
        assert {row["existing_fraction"] for row in result.rows} == {1.0, 0.4}
        assert all(row["update_seconds"] >= 0 for row in result.rows)
        assert all(row["batch_size"] > 0 for row in result.rows)


class TestAblations:
    def test_pruned_sets(self):
        result = figures.ablation_pruned_sets(scale=TINY)
        modes = {row["mode"]: row for row in result.rows}
        assert set(modes) == {"partial", "full"}
        assert modes["full"]["pe"] >= modes["partial"]["pe"] - 1e-9

    def test_grouping(self):
        result = figures.ablation_grouping(scale=TINY)
        assert {row["routing"] for row in result.rows} == {"argmax", "random"}

    def test_bound_mode(self):
        result = figures.ablation_bound_mode(scale=TINY)
        rows = {row["bound_mode"]: row for row in result.rows}
        assert rows["per_level"]["mean_recall"] == pytest.approx(1.0)
        assert rows["lift"]["mean_recall"] >= 0.8
        assert rows["lift"]["pe"] >= rows["per_level"]["pe"] - 1e-9
