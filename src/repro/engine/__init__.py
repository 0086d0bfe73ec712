"""The session-level engine API: config, capabilities, planner, facade.

This package is the primary public surface for computing and serving
SimRank::

    from repro import Engine, EngineConfig

    engine = Engine(graph, EngineConfig(damping=0.6, workers=4))
    print(engine.explain().render())     # what would run, and why
    scores = engine.all_pairs()          # plans, builds, computes
    rankings = engine.top_k([0, 5])      # reuses the shared operator
    service = engine.serve(warm=True)    # serving tier on shared artifacts

Submodules: :mod:`.config` (the one validated knob record),
:mod:`.capabilities` (declarative method/backend capability registry),
:mod:`.cost_model` (the pluggable constant provider — static weights or a
measured per-host calibration profile), :mod:`.planner` (the deterministic
cost-based plan/explain layer) and :mod:`.engine` (the :class:`Engine`
facade, with per-session plan caching).

The legacy free functions (``repro.simrank``, ``repro.simrank_top_k``) are
one-shot wrappers over an ephemeral engine and return bit-identical
answers.
"""

from .capabilities import (
    ALL_TASKS,
    BACKEND_TRAITS,
    BackendTraits,
    Capabilities,
    backend_traits,
    register_backend_traits,
)
from .config import EngineConfig
from .cost_model import (
    STATIC_WEIGHTS,
    CostModel,
    ProfiledCostModel,
    StaticCostModel,
    resolve_cost_model,
)
from .engine import ArtifactCounters, Engine
from .planner import ExecutionPlan, GraphStats, TaskPlan, plan_all, plan_task

__all__ = [
    "ALL_TASKS",
    "ArtifactCounters",
    "BACKEND_TRAITS",
    "BackendTraits",
    "Capabilities",
    "CostModel",
    "Engine",
    "EngineConfig",
    "ExecutionPlan",
    "GraphStats",
    "ProfiledCostModel",
    "STATIC_WEIGHTS",
    "StaticCostModel",
    "TaskPlan",
    "backend_traits",
    "plan_all",
    "plan_task",
    "register_backend_traits",
    "resolve_cost_model",
]

