"""Unit tests for the Monte-Carlo (Fogaras & Rácz) SimRank estimator."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.matrix_sr import matrix_simrank
from repro.baselines.monte_carlo import (
    estimate_pair,
    monte_carlo_simrank,
    sample_fingerprints,
)
from repro.exceptions import ConfigurationError
from repro.graph.builders import from_edges, star_graph
from oracles import sample_fingerprints_reference


class TestFingerprints:
    def test_shapes_and_start_positions(self, paper_graph):
        walks = sample_fingerprints(paper_graph, num_walks=5, walk_length=4, seed=1)
        n = paper_graph.num_vertices
        assert walks.shape == (5, n, 5)
        assert np.array_equal(walks[:, :, 0], np.tile(np.arange(n), (5, 1)))

    def test_walks_follow_reverse_edges(self, paper_graph):
        walks = sample_fingerprints(paper_graph, num_walks=3, walk_length=3, seed=2)
        for round_index in range(3):
            for vertex in paper_graph.vertices():
                for step in range(1, 4):
                    current = walks[round_index, vertex, step]
                    previous = walks[round_index, vertex, step - 1]
                    if current < 0:
                        continue
                    assert current in paper_graph.in_neighbors(int(previous))

    def test_walks_stop_at_sources(self, paper_graph):
        walks = sample_fingerprints(paper_graph, num_walks=2, walk_length=3, seed=3)
        source = paper_graph.index_of("f")  # no in-neighbours
        assert np.all(walks[:, source, 1:] == -1)

    def test_determinism(self, paper_graph):
        first = sample_fingerprints(paper_graph, num_walks=2, walk_length=3, seed=5)
        second = sample_fingerprints(paper_graph, num_walks=2, walk_length=3, seed=5)
        assert np.array_equal(first, second)

    def test_validation(self, paper_graph):
        with pytest.raises(ConfigurationError):
            sample_fingerprints(paper_graph, num_walks=0, walk_length=3)
        with pytest.raises(ConfigurationError):
            sample_fingerprints(paper_graph, num_walks=1, walk_length=-1)


class TestEstimates:
    def test_identical_in_neighbourhoods_estimate_close_to_truth(self):
        # Vertices 2 and 3 both have in-set {0, 1}: exact first-meeting
        # probability at step 1 is 1/2, so s ≈ C * 0.5.
        graph = from_edges([(0, 2), (1, 2), (0, 3), (1, 3)], n=4)
        result = monte_carlo_simrank(graph, damping=0.8, num_walks=600, seed=4)
        assert result.similarity(2, 3) == pytest.approx(0.4, abs=0.07)

    def test_all_pairs_close_to_matrix_form(self, paper_graph):
        estimate = monte_carlo_simrank(paper_graph, damping=0.6, num_walks=800, seed=6)
        reference = matrix_simrank(
            paper_graph, damping=0.6, iterations=30, diagonal="matrix"
        )
        # Compare off-diagonal entries only (the estimator pins the diagonal).
        mask = ~np.eye(paper_graph.num_vertices, dtype=bool)
        error = np.abs(estimate.scores - reference.scores)[mask].mean()
        assert error < 0.03

    def test_estimate_pair_consistent_with_matrix(self, paper_graph):
        walks = sample_fingerprints(paper_graph, num_walks=800, walk_length=12, seed=7)
        a = paper_graph.index_of("b")
        b = paper_graph.index_of("d")
        pair = estimate_pair(walks, a, b, damping=0.6)
        full = monte_carlo_simrank(paper_graph, damping=0.6, num_walks=800, seed=7)
        assert pair == pytest.approx(full.scores[a, b], abs=0.05)

    def test_self_similarity_is_one(self, paper_graph):
        walks = sample_fingerprints(paper_graph, num_walks=10, walk_length=3, seed=8)
        assert estimate_pair(walks, 2, 2, damping=0.6) == 1.0

    def test_star_graph_leaves_never_meet(self):
        result = monte_carlo_simrank(star_graph(4), damping=0.6, num_walks=50, seed=9)
        assert result.scores[1, 2] == 0.0


def _estimate_pair_reference(walks, first, second, damping):
    """The seed implementation's per-round estimate loop, verbatim."""
    if first == second:
        return 1.0
    num_walks, _, length = walks.shape
    total = 0.0
    for round_index in range(num_walks):
        walk_a = walks[round_index, first, :]
        walk_b = walks[round_index, second, :]
        for step in range(1, length):
            a_pos = walk_a[step]
            if a_pos < 0:
                break
            if a_pos == walk_b[step]:
                total += damping**step
                break
    return total / num_walks


class TestVectorisedRegression:
    """The vectorised sampler/estimator against the seed implementations."""

    def test_identical_seeds_are_deterministic_across_runs(self, paper_graph):
        for sampler in (sample_fingerprints, sample_fingerprints_reference):
            first = sampler(paper_graph, num_walks=3, walk_length=5, seed=11)
            second = sampler(paper_graph, num_walks=3, walk_length=5, seed=11)
            assert np.array_equal(first, second)

    def test_reference_sampler_keeps_old_walk_invariants(self, paper_graph):
        walks = sample_fingerprints_reference(
            paper_graph, num_walks=2, walk_length=3, seed=2
        )
        for round_index in range(2):
            for vertex in paper_graph.vertices():
                for step in range(1, 4):
                    current = walks[round_index, vertex, step]
                    previous = walks[round_index, vertex, step - 1]
                    if current < 0:
                        continue
                    assert current in paper_graph.in_neighbors(int(previous))

    def test_samplers_agree_statistically(self, paper_graph):
        # Different draw orders, same walk distribution: both samplers'
        # all-pairs estimates must sit within the same tolerance of the
        # exact Eq. 2 scores (and of each other).
        exact = matrix_simrank(
            paper_graph, damping=0.6, iterations=30, diagonal="one"
        ).scores
        mask = ~np.eye(paper_graph.num_vertices, dtype=bool)
        errors = {}
        for name, sampler in (
            ("vectorised", sample_fingerprints),
            ("reference", sample_fingerprints_reference),
        ):
            walks = sampler(paper_graph, num_walks=600, walk_length=12, seed=13)
            n = paper_graph.num_vertices
            scores = np.array(
                [
                    [estimate_pair(walks, a, b, 0.6) for b in range(n)]
                    for a in range(n)
                ]
            )
            errors[name] = np.abs(scores - exact)[mask].mean()
        assert errors["vectorised"] < 0.02
        assert errors["reference"] < 0.02
        assert abs(errors["vectorised"] - errors["reference"]) < 0.01

    def test_dead_walks_never_revive(self, paper_graph):
        walks = sample_fingerprints(paper_graph, num_walks=4, walk_length=6, seed=3)
        dead = walks == -1
        # Once -1 appears along the step axis it persists to the end.
        assert np.array_equal(dead[:, :, 1:] | dead[:, :, :-1], dead[:, :, 1:])

    def test_estimate_pair_equals_seed_loop_exactly(self, paper_graph):
        walks = sample_fingerprints(paper_graph, num_walks=40, walk_length=8, seed=7)
        n = paper_graph.num_vertices
        for first in range(n):
            for second in range(n):
                assert estimate_pair(walks, first, second, 0.6) == pytest.approx(
                    _estimate_pair_reference(walks, first, second, 0.6), abs=1e-12
                )

    def test_blocked_all_pairs_equals_pairwise_estimates(self, paper_graph):
        result = monte_carlo_simrank(paper_graph, damping=0.6, num_walks=25, seed=5)
        walks = sample_fingerprints(
            paper_graph,
            num_walks=25,
            walk_length=int(result.extra["walk_length"]),
            seed=5,
        )
        n = paper_graph.num_vertices
        for first in range(0, n, 2):
            for second in range(1, n, 3):
                assert result.scores[first, second] == pytest.approx(
                    estimate_pair(walks, first, second, 0.6), abs=1e-12
                )

    def test_first_meeting_targets_eq2_not_matrix_convention(self, paper_graph):
        # E[C^tau] is the Eq. 2 fixed point; with enough walks the estimate
        # must sit closer to diagonal="one" scores than to the matrix form.
        estimate = monte_carlo_simrank(
            paper_graph, damping=0.6, num_walks=4000, seed=17
        ).scores
        mask = ~np.eye(paper_graph.num_vertices, dtype=bool)
        one = matrix_simrank(
            paper_graph, damping=0.6, iterations=40, diagonal="one"
        ).scores
        matrix = matrix_simrank(
            paper_graph, damping=0.6, iterations=40, diagonal="matrix"
        ).scores
        error_one = np.abs(estimate - one)[mask].mean()
        error_matrix = np.abs(estimate - matrix)[mask].mean()
        assert error_one < error_matrix
