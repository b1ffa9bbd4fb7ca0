"""Tests for batch queries and similarity joins (repro.core.join)."""

import pytest

from repro.baselines import BruteForceTopK
from repro.core.join import association_graph, mutual_top_k_pairs, top_k_join


class TestTopKJoin:
    def test_one_result_per_probe(self, small_engine):
        join = top_k_join(small_engine.top_k, ["a", "d"], k=2)
        assert join.probe_entities == ["a", "d"]
        assert join.k == 2
        assert len(join) == 2

    def test_duplicates_collapsed(self, small_engine):
        join = top_k_join(small_engine.top_k, ["a", "a", "d"], k=2)
        assert join.probe_entities == ["a", "d"]

    def test_results_match_single_queries(self, small_engine):
        join = top_k_join(small_engine.top_k, ["a"], k=3)
        single = small_engine.top_k("a", k=3)
        assert join.results["a"].items == single.items

    def test_total_entities_scored(self, small_engine):
        join = top_k_join(small_engine.top_k, ["a", "d"], k=2)
        assert join.total_entities_scored == sum(
            result.stats.entities_scored for result in join.results.values()
        )

    def test_pairs_threshold(self, small_engine):
        join = top_k_join(small_engine.top_k, ["a"], k=3)
        all_pairs = join.pairs()
        strong_pairs = join.pairs(min_degree=0.5)
        assert len(strong_pairs) <= len(all_pairs)
        assert all(degree >= 0.5 for _p, _e, degree in strong_pairs)

    def test_invalid_k(self, small_engine):
        with pytest.raises(ValueError):
            top_k_join(small_engine.top_k, ["a"], k=0)

    def test_works_with_brute_force_searcher(self, small_dataset, small_measure):
        oracle = BruteForceTopK(small_dataset, small_measure)
        join = top_k_join(oracle.search, ["a", "d"], k=2)
        assert join.results["a"].entities[0] == "b"


class TestMutualPairs:
    def test_mutual_pairs_found(self, small_engine):
        pairs = mutual_top_k_pairs(small_engine.top_k, list(small_engine.dataset.entities), k=2)
        pair_sets = {(left, right) for left, right, _degree in pairs}
        assert ("a", "b") in pair_sets
        assert ("d", "e") in pair_sets

    def test_pairs_sorted_by_strength(self, small_engine):
        pairs = mutual_top_k_pairs(small_engine.top_k, list(small_engine.dataset.entities), k=3)
        degrees = [degree for _l, _r, degree in pairs]
        assert degrees == sorted(degrees, reverse=True)

    def test_each_pair_reported_once(self, small_engine):
        pairs = mutual_top_k_pairs(small_engine.top_k, list(small_engine.dataset.entities), k=3)
        keys = [(left, right) for left, right, _d in pairs]
        assert len(keys) == len(set(keys))
        assert all(left < right for left, right in keys)

    def test_min_degree_filters(self, small_engine):
        entities = list(small_engine.dataset.entities)
        all_pairs = mutual_top_k_pairs(small_engine.top_k, entities, k=3)
        strong = mutual_top_k_pairs(small_engine.top_k, entities, k=3, min_degree=0.5)
        assert len(strong) <= len(all_pairs)

    def test_non_probed_entities_ignored(self, small_engine):
        pairs = mutual_top_k_pairs(small_engine.top_k, ["a"], k=3)
        assert pairs == []


class TestAssociationGraph:
    def test_graph_is_symmetric(self, small_engine):
        graph = association_graph(small_engine.top_k, list(small_engine.dataset.entities), k=3)
        for node, neighbours in graph.items():
            for neighbour, weight in neighbours.items():
                assert graph[neighbour][node] == weight

    def test_threshold_prunes_edges(self, small_engine):
        entities = list(small_engine.dataset.entities)
        dense = association_graph(small_engine.top_k, entities, k=3)
        sparse = association_graph(small_engine.top_k, entities, k=3, min_degree=0.9)
        dense_edges = sum(len(neighbours) for neighbours in dense.values())
        sparse_edges = sum(len(neighbours) for neighbours in sparse.values())
        assert sparse_edges <= dense_edges

    def test_graph_feeds_networkx(self, small_engine):
        networkx = pytest.importorskip("networkx")
        graph = association_graph(small_engine.top_k, list(small_engine.dataset.entities), k=3)
        g = networkx.Graph()
        for node, neighbours in graph.items():
            for neighbour, weight in neighbours.items():
                g.add_edge(node, neighbour, weight=weight)
        components = list(networkx.connected_components(g))
        assert any({"a", "b"} <= component for component in components)
        assert any({"d", "e"} <= component for component in components)


class TestApproximateTopK:
    def test_zero_slack_matches_exact(self, small_engine):
        exact = small_engine.top_k("a", k=3)
        approx = small_engine.top_k("a", k=3, approximation=0.0)
        assert exact.items == approx.items

    def test_slack_never_misses_by_more_than_epsilon(self, syn_engine):
        oracle = BruteForceTopK(syn_engine.dataset, syn_engine.measure)
        epsilon = 0.1
        for query in syn_engine.dataset.entities[:10]:
            exact = oracle.search(query, k=5)
            if not exact.scores:
                continue
            approx = syn_engine.top_k(query, k=5, approximation=epsilon)
            if not approx.scores:
                continue
            kth_exact = exact.scores[min(len(approx.scores), len(exact.scores)) - 1]
            assert approx.scores[-1] >= kth_exact - epsilon - 1e-9

    def test_slack_reduces_or_equals_work(self, syn_engine):
        query = syn_engine.dataset.entities[0]
        exact = syn_engine.top_k(query, k=10)
        approx = syn_engine.top_k(query, k=10, approximation=0.2)
        assert approx.stats.entities_scored <= exact.stats.entities_scored

    def test_negative_slack_rejected(self, small_engine):
        with pytest.raises(ValueError):
            small_engine.top_k("a", k=2, approximation=-0.1)

    @pytest.mark.parametrize("slack", [float("nan"), float("inf")])
    def test_non_finite_slack_rejected(self, small_engine, slack):
        with pytest.raises(ValueError, match="approximation slack must be finite"):
            small_engine.searcher.search("a", 2, approximation=slack)
