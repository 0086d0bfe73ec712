"""Single-pair SimRank (in the spirit of Li et al., SDM 2010).

When only one similarity value is needed, materialising the full ``n × n``
matrix is wasteful.  The routine here works from the series expansion of
the matrix-form SimRank (Eq. 12):

``s(a, b) = (1 − C) Σ_{i≥0} Cⁱ · ⟨(Qᵀ)ⁱ e_a, (Qᵀ)ⁱ e_b⟩``

so a single pair needs two sparse matrix–vector products per term.  The
scores follow the matrix-form convention (diagonal not re-pinned).  Whole
rows — single-source and top-k queries — come from the batched Horner
kernel :meth:`~repro.core.backends.SimRankBackend.similarity_rows`.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..core.iteration_bounds import conventional_iterations
from ..core.result import validate_damping, validate_iterations
from ..graph.digraph import DiGraph
from ..graph.matrices import backward_transition_matrix

__all__ = ["single_pair_simrank"]


def single_pair_simrank(
    graph: DiGraph,
    first: object,
    second: object,
    damping: float = 0.6,
    iterations: Optional[int] = None,
    accuracy: float = 1e-3,
) -> float:
    """Estimate ``s(first, second)`` without computing the full matrix.

    Parameters
    ----------
    graph:
        Input graph.
    first, second:
        The two query vertices (labels or ids).
    damping:
        The damping factor ``C``.
    iterations:
        Number of series terms; derived from ``accuracy`` when ``None``.
    accuracy:
        Target truncation accuracy used when ``iterations`` is ``None``.
    """
    damping = validate_damping(damping)
    if iterations is None:
        iterations = conventional_iterations(accuracy, damping)
    iterations = validate_iterations(iterations)

    index_a = graph.index_of(first)
    index_b = graph.index_of(second)
    if index_a == index_b:
        return 1.0

    transition_t = backward_transition_matrix(graph).T.tocsr()
    n = graph.num_vertices
    vector_a = np.zeros(n)
    vector_a[index_a] = 1.0
    vector_b = np.zeros(n)
    vector_b[index_b] = 1.0

    score = 0.0
    coefficient = 1.0 - damping
    for _ in range(iterations + 1):
        score += coefficient * float(vector_a @ vector_b)
        vector_a = transition_t @ vector_a
        vector_b = transition_t @ vector_b
        coefficient *= damping
    return score

