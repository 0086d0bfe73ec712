"""One module per paper figure/table, plus ablations and backend checks.

Every module exposes ``run(scale=..., quick=...) -> ExperimentReport`` so the
CLI, the pytest benchmarks and EXPERIMENTS.md can regenerate any figure with
one call.  Figures that sweep solvers also accept ``backend=`` and forward it
through :func:`repro.bench.runner.run_algorithm` to the unified dispatch
entry point, so each figure can be reproduced on either compute backend.
"""

from . import (
    ablations,
    backends,
    fig5,
    fig6a,
    fig6b,
    fig6c,
    fig6d,
    fig6e,
    fig6f,
    fig6g,
    fig6h,
    large_graph,
    scaling,
    serving,
)

__all__ = [
    "ablations",
    "backends",
    "fig5",
    "fig6a",
    "fig6b",
    "fig6c",
    "fig6d",
    "fig6e",
    "fig6f",
    "fig6g",
    "fig6h",
    "large_graph",
    "scaling",
    "serving",
]
