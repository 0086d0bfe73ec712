"""Unit tests for the top-k query helpers."""

from __future__ import annotations


from repro.api import simrank_top_k
from repro.baselines.topk import RankedList, ranking_positions, top_k_from_result
from repro.core.oip_sr import oip_sr


class TestRankedList:
    def test_accessors(self):
        ranking = RankedList(query="q", entries=(("a", 0.5), ("b", 0.25)))
        assert ranking.labels() == ["a", "b"]
        assert ranking.scores() == [0.5, 0.25]
        assert len(ranking) == 2
        assert ranking_positions(ranking) == {"a": 0, "b": 1}


class TestTopKFromResult:
    def test_extracts_descending_scores(self, paper_graph):
        result = oip_sr(paper_graph, damping=0.6, iterations=8)
        ranking = top_k_from_result(result, "a", k=4)
        assert len(ranking) == 4
        assert ranking.scores() == sorted(ranking.scores(), reverse=True)
        assert "a" not in ranking.labels()

    def test_include_self(self, paper_graph):
        result = oip_sr(paper_graph, damping=0.6, iterations=8)
        ranking = top_k_from_result(result, "a", k=3, include_self=True)
        assert ranking.labels()[0] == "a"


class TestTopKSingleSource:
    def test_agrees_with_full_matrix_on_top_entries(self, small_web_graph):
        query = max(small_web_graph.vertices(), key=small_web_graph.in_degree)
        # The single-source series uses the matrix-form convention, so
        # compare against the matrix-form full result.
        from repro.baselines.matrix_sr import matrix_simrank

        full = matrix_simrank(
            small_web_graph, damping=0.6, iterations=14, diagonal="matrix"
        )
        expected = [label for label, _ in full.top_k(query, k=5)]
        (ranking,) = simrank_top_k(
            small_web_graph, [query], k=5, damping=0.6, iterations=14
        )
        # The two top-5 lists agree up to ties: require at least 4 in common.
        assert len(set(expected) & set(ranking.labels())) >= 4

    def test_k_larger_than_graph(self, paper_graph):
        (ranking,) = simrank_top_k(paper_graph, ["a"], k=100, damping=0.6)
        assert len(ranking) == paper_graph.num_vertices - 1
