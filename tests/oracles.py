"""Slow, obviously-correct reference implementations the tests check against.

Each oracle is the original straightforward form of something the package
now computes a faster way:

* :func:`single_source_simrank` evaluates the truncated series term by term
  with ``O(K²)`` sparse matrix-vector products — the oracle for the batched
  Horner kernel :meth:`~repro.core.backends.SimRankBackend.similarity_rows`;
* :func:`sample_fingerprints_reference` is the per-vertex-per-step reverse
  walk loop — the statistical oracle for the vectorised
  :func:`~repro.baselines.monte_carlo.sample_fingerprints`;
* :func:`read_edge_list_reference` is the per-line SNAP parser — the
  identity oracle for the chunked :func:`~repro.graph.io.read_edge_list`.

They live with the tests (not in ``src/``) because nothing serves from them.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional

import numpy as np

from repro.core.iteration_bounds import conventional_iterations
from repro.core.result import validate_damping, validate_iterations
from repro.exceptions import ConfigurationError, GraphBuildError
from repro.graph.digraph import DiGraph, GraphBuilder
from repro.graph.matrices import backward_transition_matrix


def single_source_simrank(
    graph,
    query: object,
    damping: float = 0.6,
    iterations: Optional[int] = None,
    accuracy: float = 1e-3,
) -> np.ndarray:
    """Return the similarity row ``s(query, ·)`` from the series expansion.

    The row is ``(1 − C) Σ_{i=0}^{K} Cⁱ · Qⁱ w_i`` with
    ``w_i = (Qᵀ)ⁱ e_query``: every term pushes its walk distribution back
    down with ``i`` separate products, ``O(K²)`` in all.  The self-score is
    pinned to 1, the convention of the serving rows.
    """
    damping = validate_damping(damping)
    if iterations is None:
        iterations = conventional_iterations(accuracy, damping)
    iterations = validate_iterations(iterations)

    index = graph.index_of(query)
    transition = backward_transition_matrix(graph)
    transition_t = transition.T.tocsr()
    n = graph.num_vertices

    row = np.zeros(n, dtype=np.float64)
    walker = np.zeros(n, dtype=np.float64)
    walker[index] = 1.0
    coefficient = 1.0 - damping
    for term in range(iterations + 1):
        contribution = walker
        for _ in range(term):
            contribution = transition @ contribution
        row += coefficient * contribution
        walker = transition_t @ walker
        coefficient *= damping
    row[index] = 1.0
    return row


def sample_fingerprints_reference(
    graph,
    num_walks: int,
    walk_length: int,
    seed: int = 0,
) -> np.ndarray:
    """The original per-vertex-per-step reverse-walk sampling loop.

    Same output layout as :func:`~repro.baselines.monte_carlo
    .sample_fingerprints` — ``(num_walks, n, walk_length + 1)``, ``-1`` once
    a walk stops — but one ``rng.integers`` draw per walk per step, so the
    two samplers agree in distribution, not bitwise.  Interpreter-bound:
    toy graphs only.
    """
    if num_walks <= 0:
        raise ConfigurationError("num_walks must be positive")
    if walk_length < 0:
        raise ConfigurationError("walk_length must be non-negative")
    rng = np.random.default_rng(seed)
    n = graph.num_vertices
    in_lists = [
        np.asarray(graph.in_neighbors(vertex), dtype=np.int64)
        for vertex in graph.vertices()
    ]
    walks = np.full((num_walks, n, walk_length + 1), -1, dtype=np.int64)
    walks[:, :, 0] = np.arange(n)[np.newaxis, :]
    for round_index in range(num_walks):
        for step in range(1, walk_length + 1):
            for vertex in range(n):
                current = walks[round_index, vertex, step - 1]
                if current < 0:
                    continue
                neighbors = in_lists[int(current)]
                if neighbors.size == 0:
                    continue
                walks[round_index, vertex, step] = neighbors[
                    rng.integers(0, neighbors.size)
                ]
    return walks


def read_edge_list_reference(
    path, comment_prefix: str = "#", name: str = ""
) -> DiGraph:
    """The original per-line SNAP edge-list parser.

    Ids are registered with ``GraphBuilder`` in source-then-target,
    line-by-line order — the dense first-seen numbering the chunked reader
    must reproduce exactly.
    """
    path = Path(path)
    builder = GraphBuilder(name=name or path.stem)
    with path.open("r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            body = line
            if comment_prefix in line:
                body = line.split(comment_prefix, 1)[0]
            parts = body.split()
            if not parts:
                continue
            if len(parts) < 2:
                raise GraphBuildError(
                    f"{path}:{line_number}: expected 'source target', "
                    f"got {line.strip()!r}"
                )
            builder.add_edge(int(parts[0]), int(parts[1]))
    if builder.num_edges == 0:
        raise GraphBuildError(
            f"{path}: edge list contains no edges (only blank lines and "
            "comments); refusing to build an empty graph"
        )
    return builder.build(keep_labels=False)
