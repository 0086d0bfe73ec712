"""Unit tests for single-pair SimRank and the single-source series oracle."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.matrix_sr import matrix_simrank
from repro.baselines.single_pair import single_pair_simrank
from repro.graph.builders import from_edges
from oracles import single_source_simrank


class TestSinglePair:
    def test_matches_matrix_form_series(self, paper_graph):
        reference = matrix_simrank(
            paper_graph, damping=0.6, iterations=40, diagonal="matrix"
        )
        for first, second in (("a", "c"), ("b", "d"), ("e", "h")):
            estimate = single_pair_simrank(
                paper_graph, first, second, damping=0.6, iterations=40
            )
            assert estimate == pytest.approx(
                reference.similarity(first, second), abs=1e-9
            )

    def test_self_pair_is_one(self, paper_graph):
        assert single_pair_simrank(paper_graph, "a", "a", damping=0.6) == 1.0

    def test_disconnected_pair_is_zero(self):
        graph = from_edges([(0, 1), (2, 3)], n=4)
        assert single_pair_simrank(graph, 1, 3, damping=0.6) == pytest.approx(0.0)


class TestSingleSource:
    def test_matches_matrix_form_row(self, paper_graph):
        reference = matrix_simrank(
            paper_graph, damping=0.6, iterations=25, diagonal="matrix"
        )
        for query in ("a", "b", "h"):
            row = single_source_simrank(
                paper_graph, query, damping=0.6, iterations=25
            )
            index = paper_graph.index_of(query)
            expected = reference.scores[index, :].copy()
            expected[index] = 1.0  # single-source pins the self-score
            assert np.allclose(row, expected, atol=1e-9)

    def test_row_is_nonnegative_and_bounded(self, small_citation_graph):
        row = single_source_simrank(small_citation_graph, 0, damping=0.7, iterations=10)
        assert row.min() >= 0.0
        assert row.max() <= 1.0 + 1e-12

    def test_accuracy_controls_iterations(self, paper_graph):
        coarse = single_source_simrank(paper_graph, "a", damping=0.6, iterations=2)
        fine = single_source_simrank(paper_graph, "a", damping=0.6, iterations=30)
        finer = single_source_simrank(paper_graph, "a", damping=0.6, iterations=31)
        assert np.abs(fine - finer).max() < np.abs(coarse - finer).max()
