"""Monte-Carlo SimRank (Fogaras & Rácz, TKDE 2007) — random-surfer fingerprints.

SimRank has a probabilistic interpretation: ``s(a, b)`` is the expectation of
``C^τ`` where ``τ`` is the first meeting time of two "reverse random
surfers" started at ``a`` and ``b`` that simultaneously step to a uniformly
random in-neighbour at each tick.  Fogaras & Rácz estimate this by sampling a
*fingerprint* (one truncated reverse walk) per vertex per round and declaring
a meeting whenever the two walks occupy the same vertex at the same step.

The estimator is probabilistic, so tests treat it statistically (mean error
over many pairs, fixed seeds) rather than exactly — which is precisely the
drawback the paper cites when positioning its deterministic algorithms.

**Score convention.**  ``E[C^τ]`` with τ the *first* meeting time is
exactly the Eq. 2 fixed point — the iterative form with the diagonal pinned
to 1 (``diagonal="one"`` on the matrix backends, and the convention
``networkx.simrank_similarity`` implements, which is what lets the external
oracle cover this estimator).  ``estimate_pair(walks, v, v) == 1.0`` by
definition: two identical walks meet at step 0.  The matrix/series form
(``diagonal="matrix"``, the convention the serving tiers answer with) is a
*different* fixed point whose walk interpretation sums over **all**
co-occurrence times, not the first — that variant lives in
:class:`repro.service.FingerprintIndex`, the serving-tier estimator.  The
two conventions differ by well under the estimator's typical sampling error
on sparse graphs, which is why loose statistical comparisons against either
pass; exact alignment matters when rankings are compared entry-for-entry.

**Vectorisation.**  Sampling groups all live walk positions per step and
draws their next in-neighbours with one vectorised pick from the in-neighbour
CSR (one ``rng`` call per step, not one per walk per vertex), and estimation
detects meetings by broadcasting whole vertex blocks against the fingerprint
array.  The per-walk Python loop of the original implementation is kept in
the test suite as the statistical regression oracle.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..core.instrumentation import Instrumentation
from ..core.result import SimRankResult, validate_damping
from ..exceptions import ConfigurationError
from ..graph.matrices import adjacency_matrix

__all__ = [
    "monte_carlo_simrank",
    "sample_fingerprints",
    "estimate_pair",
]

ESTIMATE_BLOCK_ELEMENTS = 1 << 25
"""Broadcast budget for blocked meeting detection: the ``(rounds, block, n,
length)`` comparison tensor is kept at or below this many elements, which
bounds the estimate phase's scratch memory at a few hundred MB."""


def in_neighbor_csr(graph) -> tuple[np.ndarray, np.ndarray]:
    """Return the in-neighbour CSR ``(indptr, indices)`` of ``graph``.

    Row ``v`` of the returned structure lists the distinct in-neighbours of
    ``v`` (duplicate edges collapsed, matching :class:`DiGraph` adjacency).
    Works for :class:`~repro.graph.digraph.DiGraph` and
    :class:`~repro.graph.edgelist.EdgeListGraph` alike — the edge arrays go
    straight into the vectorised CSR builder.
    """
    transposed = adjacency_matrix(graph).T.tocsr()
    transposed.sort_indices()
    return (
        transposed.indptr.astype(np.int64),
        transposed.indices.astype(np.int64),
    )


def _validate_walk_parameters(num_walks: int, walk_length: int) -> None:
    if num_walks <= 0:
        raise ConfigurationError("num_walks must be positive")
    if walk_length < 0:
        raise ConfigurationError("walk_length must be non-negative")


def sample_fingerprints(
    graph,
    num_walks: int,
    walk_length: int,
    seed: int = 0,
) -> np.ndarray:
    """Sample reverse random walks ("fingerprints") for every vertex.

    Returns an array of shape ``(num_walks, num_vertices, walk_length + 1)``
    whose entry ``[r, v, t]`` is the vertex occupied at step ``t`` of the
    ``r``-th walk started at ``v``, or ``-1`` once the walk has stopped
    (reached a vertex with no in-neighbours).

    All ``num_walks × num_vertices`` walks advance simultaneously: each step
    groups the live positions by current vertex and draws every next hop
    with a single vectorised ``rng.integers`` call against the in-neighbour
    CSR, so the Python-level loop is ``O(walk_length)`` — independent of the
    walk count and the graph size.  Identical seeds produce identical walks
    across runs; the draw order differs from the original per-vertex
    loop, so the two samplers agree statistically (same walk
    distribution), not bitwise.
    """
    _validate_walk_parameters(num_walks, walk_length)
    rng = np.random.default_rng(seed)
    n = graph.num_vertices
    indptr, indices = in_neighbor_csr(graph)
    degrees = np.diff(indptr)

    walks = np.full((num_walks, n, walk_length + 1), -1, dtype=np.int64)
    walks[:, :, 0] = np.arange(n)[np.newaxis, :]
    flat = walks.reshape(num_walks * n, walk_length + 1)

    current = np.tile(np.arange(n, dtype=np.int64), num_walks)
    live = np.flatnonzero(degrees[current] > 0)
    for step in range(1, walk_length + 1):
        if live.size == 0:
            break
        positions = current[live]
        # One grouped draw for every live walk: a uniform [0, 1) sample
        # scaled by each current vertex's in-degree picks an offset into its
        # in-neighbour slice of the CSR.  (rng.random floored is ~2x faster
        # than rng.integers with a per-element bound; random() < 1.0 keeps
        # the offset strictly in range.)
        live_degrees = degrees[positions]
        offsets = (rng.random(live.size) * live_degrees).astype(np.int64)
        hops = indices[indptr[positions] + offsets]
        current[live] = hops
        flat[live, step] = hops
        live = live[degrees[hops] > 0]
    return walks


def _first_meeting_scores(
    walk_block: np.ndarray,
    walks_all: np.ndarray,
    powers: np.ndarray,
) -> np.ndarray:
    """Mean ``C^τ`` for one vertex block against every vertex.

    ``walk_block`` is ``(rounds, block, length)``, ``walks_all`` is
    ``(rounds, n, length)`` — both already sliced to steps ``1 ..``; the
    returned array is ``(block, n)``.  A meeting at slice column ``t``
    happens at walk step ``t + 1``, so its contribution is ``powers[t]``
    with ``powers[t] = C^(t+1)``.
    """
    num_walks = walk_block.shape[0]
    block = walk_block[:, :, np.newaxis, :]
    meet = (block == walks_all[:, np.newaxis, :, :]) & (block >= 0)
    met = meet.any(axis=-1)
    first = meet.argmax(axis=-1)
    contributions = np.where(met, powers[first], 0.0)
    return contributions.sum(axis=0) / num_walks


def estimate_pair(
    walks: np.ndarray, first: int, second: int, damping: float
) -> float:
    """Estimate ``s(first, second)`` from sampled fingerprints.

    Averages ``C^τ`` over walk rounds, where ``τ`` is the first step at
    which the two fingerprints coincide (0 contribution when they never
    meet).  ``first == second`` returns exactly 1.0 — the two walks are the
    same walk and meet at step 0 — which is the same unit-diagonal
    convention the matrix backends' ``similarity_rows`` and the serving
    tiers use.
    """
    if first == second:
        return 1.0
    num_walks, _, length = walks.shape
    if length <= 1:
        return 0.0  # zero-length walks never meet after step 0
    steps_a = walks[:, first, 1:]
    steps_b = walks[:, second, 1:]
    meet = (steps_a == steps_b) & (steps_a >= 0)
    met = meet.any(axis=1)
    first_step = meet.argmax(axis=1)
    powers = damping ** np.arange(1, length, dtype=np.float64)
    total = float(np.where(met, powers[first_step], 0.0).sum())
    return total / num_walks


def monte_carlo_simrank(
    graph,
    damping: float = 0.6,
    num_walks: int = 100,
    walk_length: Optional[int] = None,
    seed: int = 0,
) -> SimRankResult:
    """Estimate all-pairs SimRank from random-surfer fingerprints.

    The estimate phase broadcasts whole vertex blocks against the
    fingerprint array (meeting detection for ``block × n`` pairs at once)
    instead of looping over the ``O(n²)`` pairs in Python; block size is
    chosen so the comparison tensor stays below
    :data:`ESTIMATE_BLOCK_ELEMENTS` elements.

    Parameters
    ----------
    graph:
        Input graph (all-pairs estimation is intended for small graphs; for
        large graphs sample fingerprints once — or build a
        :class:`~repro.service.FingerprintIndex` — and estimate only the
        pairs of interest).
    damping:
        The damping factor ``C``.
    num_walks:
        Number of fingerprints per vertex; the standard error decreases as
        ``1/√num_walks``.
    walk_length:
        Truncation length of each walk; defaults to ``⌈log_C 10⁻³⌉`` so the
        truncated tail is negligible.
    seed:
        Seed for reproducible sampling.
    """
    damping = validate_damping(damping)
    if walk_length is None:
        walk_length = int(np.ceil(np.log(1e-3) / np.log(damping)))
    instrumentation = Instrumentation()
    n = graph.num_vertices

    with instrumentation.timer.phase("sample"):
        walks = sample_fingerprints(graph, num_walks, walk_length, seed=seed)
        instrumentation.memory.allocate(int(walks.size))

    with instrumentation.timer.phase("estimate"):
        scores = np.zeros((n, n), dtype=np.float64)
        steps = walks[:, :, 1:]
        powers = damping ** np.arange(1, walk_length + 1, dtype=np.float64)
        per_row = max(num_walks * n * max(walk_length, 1), 1)
        block = int(min(max(ESTIMATE_BLOCK_ELEMENTS // per_row, 1), max(n, 1)))
        for start in range(0, n if walk_length else 0, block):
            stop = min(start + block, n)
            scores[start:stop] = _first_meeting_scores(
                steps[:, start:stop, :], steps, powers
            )
            instrumentation.operations.add(
                "estimate", (stop - start) * n * num_walks
            )
        np.fill_diagonal(scores, 1.0)

    return SimRankResult(
        scores=scores,
        graph=graph,
        algorithm="monte-carlo",
        damping=damping,
        iterations=num_walks,
        instrumentation=instrumentation,
        extra={"num_walks": num_walks, "walk_length": walk_length, "seed": seed},
    )
