"""The unified SimRank entry points: ``simrank()`` and ``simrank_top_k()``.

Every solver in the package — the paper's OIP-SR / OIP-DSR, the psum-SR /
mtx-SR / Monte-Carlo / naive baselines and the matrix-form solvers — is
reachable through one dispatch function, so benchmarks, the CLI and
downstream code select algorithms and compute backends by name instead of
importing solver modules.

Methods register a :class:`~repro.engine.capabilities.Capabilities` record
describing what they can do (task shapes, honourable backends, parallelism,
adjacency needs); the cost-based planner in :mod:`repro.engine` reads those
declarations when it chooses an execution plan.  The method registry
(``METHODS``, ``MethodSpec``, ``register_method``, ``method_spec``) lives
in :mod:`repro.engine.capabilities` and is re-exported here.

Both free functions are thin one-shot wrappers over an ephemeral
:class:`~repro.engine.Engine` session and return answers bit-identical to
the engine's — long-lived callers should hold an ``Engine`` instead, which
reuses the transition operator and worker pool across calls.

Examples
--------
>>> from repro import simrank, simrank_top_k
>>> from repro.graph.generators import web_graph
>>> graph = web_graph(num_pages=200, num_hosts=8, seed=1)
>>> result = simrank(graph, method="matrix", backend="sparse", iterations=10)
>>> rankings = simrank_top_k(graph, queries=[0, 5], k=5)
"""

from __future__ import annotations

from typing import Optional, Union

from .baselines.topk import RankedList
from .core.backends import SimRankBackend
from .core.instrumentation import Instrumentation
from .core.result import SimRankResult
from .engine.capabilities import (
    METHODS,
    MethodSpec,
    available_methods,
    method_spec,
    register_method,
    resolve_backend,
)
from .engine.config import EngineConfig
from .engine.engine import Engine

__all__ = [
    "METHODS",
    "MethodSpec",
    "available_methods",
    "method_spec",
    "register_method",
    "simrank",
    "simrank_top_k",
]


def simrank(
    graph,
    method: str = "matrix",
    backend: Union[str, SimRankBackend, None] = None,
    workers: Optional[int] = None,
    **params,
) -> SimRankResult:
    """Compute SimRank on ``graph`` with the named method and backend.

    A one-shot wrapper over an ephemeral :class:`~repro.engine.Engine`
    session — answers are bit-identical to ``Engine(graph,
    EngineConfig(method=..., backend=..., workers=...)).all_pairs(**params)``.
    Callers issuing several computations over one graph should hold an
    engine instead and let it reuse the transition operator.

    Parameters
    ----------
    graph:
        A :class:`~repro.graph.digraph.DiGraph` (any method) or an
        :class:`~repro.graph.edgelist.EdgeListGraph` (matrix-form methods;
        upgraded via ``to_digraph()`` for per-vertex methods).
    method:
        One of :func:`available_methods` or an alias (``"matrix-sr"``,
        ``"mtx-sr"``, ``"psum-sr"``).
    backend:
        Compute backend (``"dense"`` or ``"sparse"``) for methods that
        support one; ``None`` picks the method's default.  Requesting a
        backend the method cannot honour raises
        :class:`~repro.exceptions.ConfigurationError`.
    workers:
        Process-parallel worker count for methods that support it
        (``method="matrix"``); ``None``/1 is serial, ``0``/negative means
        all cores.  Requesting parallelism from a serial-only method raises
        :class:`~repro.exceptions.ConfigurationError` rather than silently
        running serial.
    **params:
        Forwarded verbatim to the underlying solver (``damping``,
        ``iterations``, ``accuracy``, ...).
    """
    spec = method_spec(method)
    resolved = resolve_backend(spec, backend)
    config = EngineConfig(method=spec.name, backend=resolved, workers=workers)
    with Engine(graph, config) as engine:
        return engine.all_pairs(**params)


def simrank_top_k(
    graph,
    queries,
    k: int = 10,
    damping: float = 0.6,
    iterations: Optional[int] = None,
    accuracy: float = 1e-3,
    backend: Union[str, SimRankBackend, None] = None,
    include_self: bool = False,
    workers: Optional[int] = None,
    instrumentation: Optional[Instrumentation] = None,
) -> list[RankedList]:
    """Answer a batch of top-``k`` queries without materialising all pairs.

    A one-shot wrapper over an ephemeral :class:`~repro.engine.Engine`
    session (see :meth:`~repro.engine.Engine.top_k`).  The whole batch
    shares one transition operator and one series evaluation
    (:meth:`~repro.core.backends.SimRankBackend.similarity_rows`), so memory
    stays ``O(K · n · |queries|)`` — the single-source/top-k workload path
    the paper's quality experiments (Fig. 6g/6h) issue.  Scores follow the
    matrix-form convention and match the full-matrix answers up to the
    series-truncation tail ``C^{K+1}``; ties break by ``(-score, vertex
    id)`` through the shared :func:`~repro.core.similarity_store
    .ranked_entries` truncation, the same implementation the serving index
    and store use.

    **Short rankings.**  A ranking holds at most ``n`` entries (``n − 1``
    with ``include_self=False``): querying a graph with at most ``k``
    other vertices returns *fewer than* ``k`` entries.  Vertices the query
    cannot reach still appear, with score exactly 0.0, in ascending
    vertex-id order; entries beyond the vertex set are never invented.

    Parameters
    ----------
    graph:
        Input graph (:class:`~repro.graph.digraph.DiGraph` or
        :class:`~repro.graph.edgelist.EdgeListGraph`).
    queries:
        A sequence of query vertices (labels or ids).
    k:
        Ranking length per query.
    damping, iterations, accuracy:
        As for :func:`simrank`; ``iterations`` defaults to the conventional
        bound for ``accuracy``.
    backend:
        Compute backend used for the series evaluation; ``None`` picks the
        matrix method's default.  Resolution goes through the same
        validator as :func:`simrank`, so an unknown backend raises
        :class:`~repro.exceptions.ConfigurationError` here too.
    include_self:
        Whether the query vertex itself may appear in its ranking.
    workers:
        Process-parallel worker count for the series evaluation
        (``None``/1 = serial).  Query shards are merged in submission
        order, so rankings never depend on the worker count.
    instrumentation:
        Optional instrumentation collector to record costs into.
    """
    resolved = resolve_backend(METHODS["matrix"], backend)
    config = EngineConfig(
        method="matrix",
        backend=resolved,
        damping=damping,
        iterations=iterations,
        accuracy=accuracy,
        workers=workers,
    )
    with Engine(graph, config) as engine:
        return engine.top_k(
            queries,
            k=k,
            include_self=include_self,
            instrumentation=instrumentation,
        )
