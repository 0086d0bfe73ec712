"""repro — reproduction of "Towards Efficient SimRank Computation on Large Networks".

The package implements the two contributions of Yu, Lin and Zhang (ICDE
2013) — OIP-SR (SimRank with inner/outer partial-sums sharing over a
directed minimum spanning tree of in-neighbour sets) and OIP-DSR (the
differential, exponential-sum SimRank model) — together with every substrate
and baseline the paper's evaluation depends on: a graph toolkit with
generators standing in for the BERKSTAN / PATENT / DBLP datasets, the
psum-SR / mtx-SR / Monte-Carlo / naive baselines, the P-Rank extension,
ranking-quality metrics, and a benchmark harness that regenerates every
figure and table of the paper's Section V.

The primary public surface is the session-level engine API
(:mod:`repro.engine`): one :class:`Engine` per graph owns the shared state
every task needs — transition operator, worker pool, serving index,
Monte-Carlo fingerprints — and a cost-based planner selects the method,
backend, worker count and serving tier from the graph statistics and one
validated, JSON-round-trippable :class:`EngineConfig`.  The classic free
functions (:func:`simrank`, :func:`simrank_top_k`) remain as thin one-shot
wrappers over an ephemeral engine, bit-identical by construction.

On top of the solvers sits an online serving layer (:mod:`repro.service`):
:func:`build_index` precomputes a truncated all-pairs index offline and
:class:`SimilarityService` answers top-k query streams through a tiered
index → cache → micro-batched-compute path with incremental edge updates;
``engine.serve()`` wires one to the session's shared artifacts.

Quickstart
----------
>>> from repro import Engine, EngineConfig, generators
>>> graph = generators.web_graph(num_pages=200, num_hosts=8, seed=1)
>>> engine = Engine(graph, EngineConfig(damping=0.6, accuracy=1e-3))
>>> plan = engine.explain()            # what would run, and why
>>> scores = engine.all_pairs()        # builds the transition operator
>>> rankings = engine.top_k([0, 5])    # reuses it
>>> isinstance(engine.pair(0, 5), float)  # and so does this
True

Serving
-------
>>> service = engine.serve(warm=True)  # index tier on shared artifacts
>>> service.top_k(0, k=5)  # doctest: +SKIP

The paper's own algorithm remains a first-class method:

>>> from repro import oip_sr
>>> conventional = oip_sr(graph, damping=0.6, accuracy=1e-3)
>>> conventional.top_k(0, k=5)  # doctest: +SKIP
"""

from ._version import __version__
from .api import available_methods, simrank, simrank_top_k
from .catalog import IndexCatalog
from .engine import (
    Capabilities,
    Engine,
    EngineConfig,
    ExecutionPlan,
    GraphStats,
    TaskPlan,
)
from .baselines import (
    matrix_simrank,
    monte_carlo_simrank,
    mtx_svd_simrank,
    naive_simrank,
    psum_simrank,
    single_pair_simrank,
    top_k_from_result,
)
from .core import (
    SharingPlan,
    SimilarityStore,
    SimRankBackend,
    SimRankResult,
    available_backends,
    conventional_iterations,
    differential_iterations_exact,
    differential_iterations_lambert,
    differential_iterations_log,
    differential_simrank,
    dmst_reduce,
    oip_dsr,
    oip_sr,
)
from .exceptions import (
    ConfigurationError,
    ConvergenceError,
    GraphBuildError,
    GraphError,
    ReproError,
    VertexNotFoundError,
)
from .extensions import prank, prank_shared
from .graph import (
    DiGraph,
    EdgeListGraph,
    GraphBuilder,
    from_edges,
    from_in_neighbor_sets,
)
from .graph import generators
from .parallel import ParallelExecutor, plan_shards, resolve_workers
from .service import (
    ErrorCode,
    FingerprintIndex,
    QueryRequest,
    QueryResponse,
    ServeError,
    SimilarityService,
    build_index,
    load_index,
    save_index,
)
from .workloads import load_dataset, syn_graph, zipf_query_stream

__all__ = sorted(
    [
        "Capabilities",
        "ConfigurationError",
        "ConvergenceError",
        "DiGraph",
        "EdgeListGraph",
        "Engine",
        "EngineConfig",
        "ExecutionPlan",
        "GraphStats",
        "IndexCatalog",
        "TaskPlan",
        "FingerprintIndex",
        "GraphBuildError",
        "GraphBuilder",
        "GraphError",
        "ReproError",
        "SharingPlan",
        "ErrorCode",
        "QueryRequest",
        "QueryResponse",
        "ServeError",
        "SimRankBackend",
        "SimRankResult",
        "SimilarityService",
        "SimilarityStore",
        "VertexNotFoundError",
        "__version__",
        "available_backends",
        "available_methods",
        "build_index",
        "conventional_iterations",
        "differential_iterations_exact",
        "differential_iterations_lambert",
        "differential_iterations_log",
        "differential_simrank",
        "dmst_reduce",
        "from_edges",
        "from_in_neighbor_sets",
        "generators",
        "load_dataset",
        "load_index",
        "ParallelExecutor",
        "matrix_simrank",
        "monte_carlo_simrank",
        "mtx_svd_simrank",
        "naive_simrank",
        "oip_dsr",
        "oip_sr",
        "plan_shards",
        "prank",
        "prank_shared",
        "psum_simrank",
        "resolve_workers",
        "save_index",
        "simrank",
        "simrank_top_k",
        "single_pair_simrank",
        "syn_graph",
        "top_k_from_result",
        "zipf_query_stream",
    ]
)
