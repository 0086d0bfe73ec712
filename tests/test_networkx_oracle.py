"""Cross-validation against networkx's independent SimRank implementation.

``networkx.simrank_similarity`` is an unrelated implementation of the same
Jeh–Widom recursion (Eq. 2 with the diagonal pinned to 1), which makes it a
valuable external oracle: agreement here rules out a family of "consistent
but wrong" bugs that intra-package comparisons cannot catch.

The oracle surface has three layers:

1. **Solver parity** — every deterministic Eq. 2 solver, across both
   compute backends where applicable, is compared score-for-score with
   networkx on a zoo of adversarial small graphs (cycle, star, DAG,
   self-loop, disconnected) chosen to hit the degenerate cases: sourceless
   vertices, score ties, zero rows, a vertex that is its own in-neighbour.
2. **Ranking parity** — the batched top-k path, the precomputed index and
   every :class:`~repro.service.SimilarityService` tier follow the Eq. 3
   series convention, whose *scores* differ from Eq. 2 by design; what
   must agree with networkx is the induced ``(-score, id)`` ranking, and
   on the zoo it does, entry for entry, for every tier.
3. **Mutual tier parity** — index, cache and compute tiers must serve the
   identical ranking (tiering is a latency decision, never a quality one).
4. **Kernel parity** — every single-source and top-k answer comes from one
   batched Horner kernel, ``SimRankBackend.similarity_rows``; on the zoo
   and on random graphs it must reproduce the direct ``O(K²)`` term-by-term
   series (``oracles.single_source_simrank``) to rounding.
"""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest

from repro.api import simrank, simrank_top_k
from repro.baselines.monte_carlo import monte_carlo_simrank
from repro.baselines.naive import naive_simrank
from repro.baselines.psum_sr import psum_simrank
from repro.core.backends import get_backend
from repro.core.oip_sr import oip_sr
from repro.graph.builders import to_networkx
from repro.graph.digraph import DiGraph
from repro.graph.generators import gnp_random, web_graph
from repro.graph.generators.rmat import rmat_edge_list
from repro.service import SimilarityService, build_index
from oracles import single_source_simrank

ZOO: dict[str, DiGraph] = {
    "cycle": DiGraph(6, [(i, (i + 1) % 6) for i in range(6)], name="cycle"),
    "star": DiGraph(
        6, [(leaf, 0) for leaf in range(1, 6)] + [(0, 1)], name="star"
    ),
    "dag": DiGraph(
        5, [(0, 2), (1, 2), (0, 3), (2, 4), (3, 4), (1, 4)], name="dag"
    ),
    "self-loop": DiGraph(
        4, [(0, 0), (0, 1), (1, 2), (2, 0), (2, 3), (3, 1)], name="self-loop"
    ),
    "disconnected": DiGraph(
        6, [(0, 1), (1, 2), (2, 0), (3, 4)], name="disconnected"
    ),
}
"""Small adversarial graphs: every shape that breaks a naive implementation."""

EQ2_SOLVERS = {
    "oip-sr": lambda graph: oip_sr(graph, damping=0.6, iterations=80).scores,
    "psum": lambda graph: psum_simrank(graph, damping=0.6, iterations=80).scores,
    "naive": lambda graph: naive_simrank(graph, damping=0.6, iterations=80).scores,
    "matrix-dense": lambda graph: simrank(
        graph, method="matrix", backend="dense", damping=0.6, iterations=80
    ).scores,
    "matrix-sparse": lambda graph: simrank(
        graph, method="matrix", backend="sparse", damping=0.6, iterations=80
    ).scores,
}
"""Every deterministic solver of the Eq. 2 fixed point, by backend."""


def _networkx_simrank(graph, damping: float, iterations: int) -> np.ndarray:
    """Dense matrix of networkx's SimRank for our DiGraph."""
    nx_graph = to_networkx(graph)
    similarity = nx.simrank_similarity(
        nx_graph, importance_factor=damping, max_iterations=iterations, tolerance=1e-12
    )
    scores = np.zeros((graph.num_vertices, graph.num_vertices))
    for source_label, row in similarity.items():
        for target_label, value in row.items():
            scores[graph.index_of(source_label), graph.index_of(target_label)] = value
    return scores


def _networkx_ranking(reference: np.ndarray, query: int, k: int) -> list[int]:
    """Top-k labels under (-score, id) from a networkx score matrix."""
    n = reference.shape[0]
    row = reference[query].copy()
    row[query] = -np.inf  # self excluded, matching the serving convention
    order = np.lexsort((np.arange(n), -row))
    return [int(vertex) for vertex in order[:k]]


class TestAgainstNetworkx:
    def test_paper_graph_matches_networkx(self, paper_graph):
        # Run both to (near) convergence so max_iterations/tolerance details
        # of either implementation do not matter.
        ours = oip_sr(paper_graph, damping=0.6, iterations=60)
        reference = _networkx_simrank(paper_graph, damping=0.6, iterations=200)
        assert np.allclose(ours.scores, reference, atol=1e-6)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_random_graphs_match_networkx(self, seed):
        graph = gnp_random(num_vertices=25, edge_probability=0.12, seed=seed)
        ours = oip_sr(graph, damping=0.7, iterations=80)
        reference = _networkx_simrank(graph, damping=0.7, iterations=200)
        assert np.allclose(ours.scores, reference, atol=1e-6)

    def test_web_graph_matches_networkx(self):
        graph = web_graph(num_pages=60, num_hosts=4, average_degree=6.0, seed=8)
        ours = psum_simrank(graph, damping=0.6, iterations=60)
        reference = _networkx_simrank(graph, damping=0.6, iterations=200)
        assert np.allclose(ours.scores, reference, atol=1e-6)

    def test_rankings_match_networkx(self, paper_graph):
        ours = oip_sr(paper_graph, damping=0.6, iterations=40)
        reference = _networkx_simrank(paper_graph, damping=0.6, iterations=100)
        query = paper_graph.index_of("a")
        our_order = np.argsort(-ours.scores[query])
        reference_order = np.argsort(-reference[query])
        assert list(our_order[:4]) == list(reference_order[:4])


@pytest.fixture(scope="module")
def zoo_references():
    """Converged networkx score matrices for every zoo graph."""
    return {
        name: _networkx_simrank(graph, damping=0.6, iterations=200)
        for name, graph in ZOO.items()
    }


class TestSolverZooParity:
    """Layer 1: every Eq. 2 solver × backend against networkx, per graph."""

    @pytest.mark.parametrize("graph_name", sorted(ZOO))
    @pytest.mark.parametrize("solver_name", sorted(EQ2_SOLVERS))
    def test_solver_matches_networkx(self, graph_name, solver_name, zoo_references):
        graph = ZOO[graph_name]
        scores = EQ2_SOLVERS[solver_name](graph)
        assert np.allclose(scores, zoo_references[graph_name], atol=1e-6), (
            f"{solver_name} disagrees with networkx on the {graph_name} graph"
        )

    @pytest.mark.parametrize("graph_name", sorted(ZOO))
    def test_backends_agree_bitwise_per_graph(self, graph_name):
        graph = ZOO[graph_name]
        dense = simrank(
            graph, method="matrix", backend="dense", damping=0.6, iterations=40
        )
        sparse = simrank(
            graph, method="matrix", backend="sparse", damping=0.6, iterations=40
        )
        assert np.allclose(dense.scores, sparse.scores, atol=1e-10)


class TestRankingZooParity:
    """Layer 2: series-convention paths produce networkx's rankings."""

    ITERATIONS = 40

    @pytest.mark.parametrize("graph_name", sorted(ZOO))
    def test_simrank_top_k_matches_networkx_rankings(
        self, graph_name, zoo_references
    ):
        graph = ZOO[graph_name]
        n = graph.num_vertices
        k = n - 1
        rankings = simrank_top_k(
            graph, list(range(n)), k=k, damping=0.6, iterations=self.ITERATIONS
        )
        for query, ranking in enumerate(rankings):
            assert [label for label, _ in ranking.entries] == _networkx_ranking(
                zoo_references[graph_name], query, k
            )

    @pytest.mark.parametrize("graph_name", sorted(ZOO))
    def test_build_index_serves_networkx_rankings(self, graph_name, zoo_references):
        graph = ZOO[graph_name]
        n = graph.num_vertices
        index = build_index(
            graph, index_k=n, damping=0.6, iterations=self.ITERATIONS
        )
        for query in range(n):
            served = [label for label, _ in index.top_k(query, k=3)]
            expected = _networkx_ranking(zoo_references[graph_name], query, 3)
            # A truncated store may hold fewer than 3 positive scores; the
            # stored prefix must still equal the oracle prefix.
            assert served == expected[: len(served)]

    @pytest.mark.parametrize("graph_name", sorted(ZOO))
    def test_every_service_tier_matches_networkx(self, graph_name, zoo_references):
        graph = ZOO[graph_name]
        n = graph.num_vertices
        k = n - 1
        service = SimilarityService(
            graph,
            build_index(graph, index_k=n, damping=0.6, iterations=self.ITERATIONS),
            k=k,
            damping=0.6,
            iterations=self.ITERATIONS,
        )
        compute_only = SimilarityService(
            graph,
            None,
            k=k,
            damping=0.6,
            iterations=self.ITERATIONS,
            cache_size=0,
        )
        for query in range(n):
            expected = _networkx_ranking(zoo_references[graph_name], query, k)
            index_answer = service.top_k(query)  # index tier (fresh rows)
            cache_answer = service.top_k(query)  # cache tier (repeat)
            compute_answer = compute_only.top_k(query)  # compute tier
            for tier, answer in (
                ("index", index_answer),
                ("cache", cache_answer),
                ("compute", compute_answer),
            ):
                assert [label for label, _ in answer.entries] == expected, (
                    f"{tier} tier disagrees with networkx on "
                    f"{graph_name} query {query}"
                )
        snapshot = service.stats.snapshot()
        assert snapshot["index_hits"] == n
        assert snapshot["cache_hits"] == n
        assert compute_only.stats.snapshot()["compute_hits"] == n


class TestMonteCarloOracle:
    """Layer 1b: the fingerprint estimator against networkx, statistically.

    ``E[C^τ]`` over first meeting times is exactly the Eq. 2 fixed point —
    the convention networkx implements — with the diagonal at 1 by
    definition (two identical walks meet at step 0).  The estimator is
    probabilistic, so parity is statistical (fixed seeds, mean absolute
    error well under the sampling noise ceiling) rather than exact.
    """

    def test_paper_graph_matches_networkx_statistically(self, paper_graph):
        estimate = monte_carlo_simrank(
            paper_graph, damping=0.6, num_walks=3000, seed=29
        ).scores
        reference = _networkx_simrank(paper_graph, damping=0.6, iterations=200)
        mask = ~np.eye(paper_graph.num_vertices, dtype=bool)
        assert np.abs(estimate - reference)[mask].mean() < 0.01

    @pytest.mark.parametrize("graph_name", sorted(ZOO))
    def test_zoo_matches_networkx_statistically(self, graph_name, zoo_references):
        graph = ZOO[graph_name]
        estimate = monte_carlo_simrank(
            graph, damping=0.6, num_walks=2000, seed=31
        ).scores
        mask = ~np.eye(graph.num_vertices, dtype=bool)
        assert np.abs(estimate - zoo_references[graph_name])[mask].mean() < 0.02

    def test_diagonal_convention_matches_networkx_exactly(self, zoo_references):
        # Both conventions pin s(v, v) = 1 — the alignment that makes this
        # oracle able to cover the estimator at all.
        estimate = monte_carlo_simrank(
            ZOO["self-loop"], damping=0.6, num_walks=50, seed=1
        ).scores
        assert np.array_equal(np.diag(estimate), np.ones(4))
        assert np.allclose(np.diag(zoo_references["self-loop"]), 1.0)


KERNEL_GRAPHS = {
    **ZOO,
    **{
        f"gnp-{seed}": gnp_random(num_vertices=40, edge_probability=0.1, seed=seed)
        for seed in (1, 2, 3)
    },
    "rmat-256": rmat_edge_list(8, 1200, seed=4).to_digraph(),
}
"""The zoo plus random graphs for the kernel-vs-oracle pins."""


class TestSimilarityRowsOracle:
    """``similarity_rows`` against the direct ``O(K²)`` series oracle."""

    @pytest.mark.parametrize("backend", ["sparse", "dense"])
    @pytest.mark.parametrize("graph_name", sorted(KERNEL_GRAPHS))
    def test_rows_match_direct_series_within_1e12(self, graph_name, backend):
        graph = KERNEL_GRAPHS[graph_name]
        engine = get_backend(backend)
        # Every vertex of the small graphs; an evenly spaced sample of ~32
        # on the larger ones (the oracle costs O(K²) products per row).
        stride = max(1, graph.num_vertices // 32)
        queries = np.arange(0, graph.num_vertices, stride, dtype=np.int64)
        for damping, iterations in ((0.6, 14), (0.8, 31)):
            rows = engine.similarity_rows(
                engine.transition(graph), queries,
                damping=damping, iterations=iterations,
            )
            for row, query in zip(rows, queries):
                expected = single_source_simrank(
                    graph, graph.label_of(int(query)),
                    damping=damping, iterations=iterations,
                )
                assert np.max(np.abs(row - expected)) <= 1e-12
